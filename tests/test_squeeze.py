"""Certificate search, validation, and barcode evidence."""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfs import (Ambient, DomainError, NonPrimeK, SearchBoundExceeded,
                 SqueezeCertificate, SqueezeQuery, certificate_json, evidence,
                 find_obstruction, room_obstruction, room_transform,
                 validate_certificate)


def test_query_validation():
    with pytest.raises(DomainError):
        SqueezeQuery(1.0, 1.5)            # A1 < A2
    with pytest.raises(DomainError):
        SqueezeQuery(1.5, -0.1)
    with pytest.raises(DomainError):
        SqueezeQuery(0.45, 0.40, 0.3)     # A3 must exceed A1


def test_integer_gap_certificate():
    cert = find_obstruction(SqueezeQuery(2.5, 1.7))
    assert cert.kind == "integerK" and cert.K == 2
    assert validate_certificate(cert, 2.5, 1.7)


def test_prime_fraction_certificate():
    cert = find_obstruction(SqueezeQuery(1.5, 1.2))
    assert cert.kind == "primeFraction"
    assert (cert.k, cert.l) == (5, 4)
    assert validate_certificate(cert, 1.5, 1.2)


def test_equal_radii_certificate():
    cert = find_obstruction(SqueezeQuery(2.0, 2.0))
    assert cert.kind == "equalRadii"
    assert validate_certificate(cert, 2.0, 2.0)


def test_conjugated_certificate():
    cert = find_obstruction(SqueezeQuery(0.45, 0.40, 0.5))
    assert cert.kind == "conjugated"
    assert cert.m == 2
    assert cert.inner is not None and cert.inner.found()
    assert validate_certificate(cert, 0.45, 0.40)
    report = evidence(cert, Ambient(n=1, R=1.0))
    assert report["outer_pair"] == {"k": cert.k, "l": cert.l}
    assert report["ranks"] == [1, 1, 0]
    # the conjugation really maps the transformed areas back
    for key in ("A1", "A2"):
        assert room_transform(cert.m, cert.inner.areas[key]) == \
            pytest.approx(cert.areas[key])


def test_no_certificate_below_unit_without_room():
    cert = find_obstruction(SqueezeQuery(0.45, 0.40))
    assert cert.kind == "none" and not cert.found()


def test_no_conjugation_index_where_one_over_a2_overflows():
    cert = find_obstruction(SqueezeQuery(0.3, 1e-320, 0.5))
    assert cert.kind == "none" and not cert.found()


def test_search_bound_exceeded():
    with pytest.raises(SearchBoundExceeded):
        find_obstruction(SqueezeQuery(1.0001, 1.0, max_prime=1000))


def test_room_obstruction_requires_room():
    with pytest.raises(DomainError):
        room_obstruction(SqueezeQuery(0.45, 0.40))


def test_room_transform_properties():
    assert room_transform(2, 1.0) == pytest.approx(1.0 / 3.0)
    assert room_transform(0, 0.7) == pytest.approx(0.7)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=0, max_value=6),
       A=st.floats(min_value=1e-3, max_value=50.0,
                   allow_nan=False, allow_infinity=False))
def test_room_transform_monotone_and_bounded(m, A):
    out = room_transform(m, A)
    assert 0.0 < out <= A
    if m >= 1:
        assert out < 1.0 / m + 1e-12
    assert room_transform(m, A + 0.5) > out


@settings(max_examples=60, deadline=None)
@given(A1=st.floats(min_value=1.0, max_value=6.0,
                    allow_nan=False, allow_infinity=False),
       gap=st.floats(min_value=0.0, max_value=2.0,
                     allow_nan=False, allow_infinity=False))
def test_found_certificates_are_sound(A1, gap):
    A2 = max(1.0, A1 - gap)
    try:
        cert = find_obstruction(SqueezeQuery(A1, A2, max_prime=2000))
    except SearchBoundExceeded:
        return
    if cert.found():
        assert validate_certificate(cert, A1, A2)


def test_tampered_certificate_rejected():
    cert = find_obstruction(SqueezeQuery(1.5, 1.2))
    cert.l = 1                       # 5/1 = 5 is far outside [A2, A1)
    assert not validate_certificate(cert, 1.5, 1.2)
    cert.l = 4
    cert.k = 9                       # not prime
    assert not validate_certificate(cert, 1.5, 1.2)
    # 3.0 passes the arithmetic for (k, l) = (3, 2), but k is no integer
    floaty = SqueezeCertificate(kind="primeFraction", k=3.0, l=2,
                                areas={"A1": 1.6, "A2": 1.45})
    assert not validate_certificate(floaty)
    assert validate_certificate(_tampered(floaty, k=3))
    with pytest.raises(NonPrimeK, match="odd prime"):
        evidence(floaty, Ambient(1, 1.0))


def test_tampered_integer_certificate_rejected_at_both_ends():
    cert = find_obstruction(SqueezeQuery(2.5, 1.7))
    assert cert.K == 2
    assert not validate_certificate(cert, 2.0, 1.7)     # K == A1
    assert not validate_certificate(cert, 2.5, 2.0)     # K == A2


def _tampered(cert, **changes):
    out = copy.deepcopy(cert)
    for key, value in changes.items():
        setattr(out, key, value)
    return out


def test_tampered_conjugated_certificate_rejected():
    cert = find_obstruction(SqueezeQuery(0.45, 0.40, 0.5))
    assert cert.kind == "conjugated" and cert.m == 2
    assert validate_certificate(cert)
    no_a3 = {"A1": 0.45, "A2": 0.40}
    for bad in (_tampered(cert, areas=dict(no_a3, A3=0.51)),   # A3 > 1/m
                _tampered(cert, areas=dict(no_a3, A3=0.44)),   # A3 < A1
                _tampered(cert, l=cert.l + 1),
                _tampered(cert, k=None, l=None),
                _tampered(cert, areas=no_a3),
                # 1/A2 overflows: no conjugation index in float range
                _tampered(cert, areas=dict(no_a3, A2=1e-320, A3=0.5))):
        assert not validate_certificate(bad)


def _is_odd_prime(k):
    return k > 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))


def _brute_force(A1, A2, max_prime):
    """The rules enumerated directly: the kind and integers the search must
    return, or None where it must raise SearchBoundExceeded."""
    for K in range(math.floor(A2), math.ceil(A1) + 1):
        if A2 < K < A1:
            return ("integerK", K, None)
    if A1 == A2:
        return ("equalRadii", None, None)
    for k in range(3, max_prime + 1):
        if _is_odd_prime(k):
            for l in range(1, k):
                if l * A2 <= k < l * A1:
                    return ("primeFraction", k, l)
    return None


ORACLE_MAX_PRIME = 397


def _check_against_oracle(A1, A2):
    want = _brute_force(A1, A2, ORACLE_MAX_PRIME)
    q = SqueezeQuery(A1, A2, max_prime=ORACLE_MAX_PRIME)
    if want is None:
        with pytest.raises(SearchBoundExceeded):
            find_obstruction(q)
        return
    cert = find_obstruction(q)
    got = (cert.kind, cert.K if cert.kind == "integerK" else cert.k, cert.l)
    assert got == want, (A1, A2)
    assert validate_certificate(cert)
    ranks = evidence(cert, Ambient(n=1, R=1.0))["ranks"]
    assert ranks == ([1, 1, 1] if cert.kind == "equalRadii" else [1, 1, 0])


@settings(max_examples=60, deadline=None)
@given(A2=st.floats(min_value=1.0, max_value=6.0,
                    allow_nan=False, allow_infinity=False),
       u=st.floats(min_value=0.0, max_value=0.5,
                   allow_nan=False, allow_infinity=False))
def test_search_matches_brute_force(A2, u):
    _check_against_oracle(A2 * (1.0 + u), A2)


def test_search_matches_brute_force_on_boundaries():
    for k in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for l in range(1, k):
            A2 = k / l
            for A1 in (math.nextafter(A2, math.inf), 1.001 * A2):
                _check_against_oracle(A1, A2)


def test_evidence_prime_fraction():
    cert = find_obstruction(SqueezeQuery(1.5, 1.2))
    report = evidence(cert, Ambient(n=1, R=1.0))
    assert report["degree"] == 2 * 1 * cert.l
    assert report["ranks"] == [1, 1, 0]
    assert report["inclusion_ranks"] == [1, 0]
    assert report["prequantized"]["degrees"] == [report["degree"],
                                                 report["degree"] + 1]
    assert report["prequantized"]["ranks"] == [1, 1]


def test_evidence_integer_k():
    cert = find_obstruction(SqueezeQuery(2.5, 1.7))
    report = evidence(cert, Ambient(n=1, R=1.0))
    assert report["ranks"] == [1, 1, 0]
    assert report["degree"] == 2


def test_evidence_degree_scales_with_dimension():
    cert = find_obstruction(SqueezeQuery(1.5, 1.2))
    report = evidence(cert, Ambient(n=2, R=1.0))
    assert report["degree"] == 2 * 2 * cert.l


def test_certificate_json_deterministic():
    cert = find_obstruction(SqueezeQuery(1.5, 1.2))
    report = evidence(cert, Ambient(n=1, R=1.0))
    t1 = certificate_json(cert, report)
    t2 = certificate_json(cert, report)
    assert t1 == t2
    obj = json.loads(t1)
    assert list(obj)[:2] == ["schema", "kind"]
    assert obj["schema"] == "gfs/1"
    assert obj["evidence"]["ranks"] == [1, 1, 0]

def test_equal_radii_scans_no_primes(monkeypatch):
    import gfs.equivar                 # whose is_odd_prime the search reads
    calls = []
    real = gfs.equivar.is_prime
    monkeypatch.setattr(gfs.equivar, "is_prime",
                        lambda k: calls.append(k) or real(k))
    assert find_obstruction(SqueezeQuery(1.5, 1.2)).kind == "primeFraction"
    assert calls                       # the counter sees the prime scan
    calls.clear()
    cert = find_obstruction(SqueezeQuery(2.0, 2.0))
    assert cert.kind == "equalRadii" and calls == []
    assert certificate_json(cert) == (
        '{\n  "schema": "gfs/1",\n  "kind": "equalRadii",\n  "areas": {\n'
        '    "A1": 2.0,\n    "A2": 2.0\n  }\n}\n')
