"""Certificate search, validation, and barcode evidence."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfs import (Ambient, DomainError, SearchBoundExceeded, SqueezeQuery,
                 certificate_json, evidence, find_obstruction,
                 room_obstruction, room_transform, validate_certificate)


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
    # the conjugation really maps the transformed areas back
    for key in ("A1", "A2"):
        assert room_transform(cert.m, cert.inner.areas[key]) == \
            pytest.approx(cert.areas[key])


def test_no_certificate_below_unit_without_room():
    cert = find_obstruction(SqueezeQuery(0.45, 0.40))
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
    import gfs.squeeze
    calls = []
    real = gfs.squeeze.is_prime
    monkeypatch.setattr(gfs.squeeze, "is_prime",
                        lambda k: calls.append(k) or real(k))
    assert find_obstruction(SqueezeQuery(1.5, 1.2)).kind == "primeFraction"
    assert calls                       # the counter sees the prime scan
    calls.clear()
    cert = find_obstruction(SqueezeQuery(2.0, 2.0))
    assert cert.kind == "equalRadii" and calls == []
    assert certificate_json(cert) == (
        '{\n  "schema": "gfs/1",\n  "kind": "equalRadii",\n  "areas": {\n'
        '    "A1": 2.0,\n    "A2": 2.0\n  }\n}\n')
