"""Non-squeezing verdict engine.

A ball of area A1 = pi*R1^2 cannot be squeezed into a ball of area A2 when
an obstruction certificate exists:

  * integerK — an integer K strictly between the two areas (the classical
    integer action-spectrum obstruction, read at degree 2n in the plain
    barcode);
  * primeFraction — an odd prime k and 0 < l < k with A2 <= k/l < A1 (the
    cyclically equivariant obstruction, read at degree 2nl over F_k);
  * equalRadii — the non-strict boundary case A1 = A2 >= 1, kept as its own
    kind rather than silently strictified;
  * conjugated — for sub-unit areas with ambient room A3, conjugation by the
    m-fold covering embedding rescales every area by A -> A/(1 - m*A) into
    the >= 1 regime, where the search recurses; the inner pair (k, l')
    corresponds to the outer pair (k, l' + m*k).

The evidence for a certificate is the barcode diagram contradiction: at
threshold a = k (or K) and degree 2nl (or 2n), the group for the big ambient
ball and for the large ball both have rank 1 and the small ball's group
vanishes, so a squeezing would factor an isomorphism through zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .equivar import barcode, ball_complex, is_prime, limit_barcode, \
    tensor_circle
from .errors import DomainError, SearchBoundExceeded
from .sympl import Ambient, sqz_radius

DEFAULT_MAX_PRIME = 10 ** 4


@dataclass
class SqueezeQuery:
    """Areas A1 >= A2 > 0 of the two balls (A_i = pi * R_i^2), optional
    ambient-room area A3 > A1, and the odd-prime search bound."""
    A1: float
    A2: float
    A3: Optional[float] = None
    max_prime: int = DEFAULT_MAX_PRIME

    def __post_init__(self):
        if not (self.A1 >= self.A2 > 0):
            raise DomainError("need A1 >= A2 > 0, got A1=%r A2=%r"
                              % (self.A1, self.A2))
        if self.A3 is not None and not self.A3 > self.A1:
            raise DomainError("ambient room requires A3 > A1")
        if self.max_prime < 3:
            raise DomainError("max_prime must be at least 3")


@dataclass
class SqueezeCertificate:
    """Obstruction certificate; kind 'none' means no certificate found."""
    kind: str
    K: Optional[int] = None
    k: Optional[int] = None
    l: Optional[int] = None
    m: Optional[int] = None
    inner: Optional["SqueezeCertificate"] = None
    areas: dict = field(default_factory=dict)
    evidence_degree: Optional[int] = None
    evidence_threshold: Optional[float] = None

    def found(self):
        return self.kind != "none"


def room_transform(m, A):
    """Area of the image of a ball of area A under the m-fold covering
    embedding: A / (1 + m*A)."""
    return sqz_radius(m, A)


def _room_inverse(m, A):
    """Inverse of room_transform: the area whose image has area A."""
    if 1.0 - m * A <= 0:
        raise DomainError("area %g too large for conjugation index m=%d"
                          % (A, m))
    return A / (1.0 - m * A)


def _integer_k(A1, A2):
    """Smallest integer strictly inside (A2, A1), or None."""
    K = math.floor(A2) + 1
    return K if K < A1 else None


def _prime_fraction(A1, A2, max_prime):
    """Smallest odd prime k <= max_prime (then smallest l) with
    A2 <= k/l < A1 and 0 < l < k, or None."""
    k = 3
    while k <= max_prime:
        if is_prime(k):
            l = math.floor(k / A1) + 1
            if 1 <= l < k and k / l >= A2 and k / l < A1:
                return k, l
        k += 2
    return None


def room_obstruction(q):
    """Conjugated certificate for the sub-unit regime.

    Requires ambient room: areas A2 <= A1 < A3 with an integer conjugation
    index m satisfying 1/(m+1) <= A2 and A3 <= 1/m.  Every valid m rescales
    the pair into the >= 1 regime by A -> A/(1 - m*A); the smallest m whose
    rescaled pair admits a certificate wins.  Raises DomainError when no
    valid m exists.
    """
    if q.A3 is None:
        raise DomainError("room_obstruction needs the ambient area A3")
    if not q.A1 < q.A3:
        raise DomainError("room_obstruction needs A1 < A3")
    m_lo = max(1, math.ceil(1.0 / q.A2 - 1.0 - 1e-12))
    m_hi = math.floor(1.0 / q.A3 + 1e-12)
    if m_hi < m_lo:
        raise DomainError(
            "no conjugation index m with 1/(m+1) <= %g and %g <= 1/m"
            % (q.A2, q.A3))
    for m in range(m_lo, m_hi + 1):
        inner_q = SqueezeQuery(_room_inverse(m, q.A1), _room_inverse(m, q.A2),
                               max_prime=q.max_prime)
        inner = find_obstruction(inner_q)
        if not inner.found():
            continue
        if inner.kind == "integerK":
            outer_k, outer_l = inner.K, 1 + m * inner.K
        elif inner.kind == "primeFraction":
            outer_k, outer_l = inner.k, inner.l + m * inner.k
        else:
            outer_k, outer_l = None, None
        return SqueezeCertificate(
            kind="conjugated", m=m, k=outer_k, l=outer_l, inner=inner,
            areas={"A1": q.A1, "A2": q.A2, "A3": q.A3})
    raise DomainError("no conjugation index admits an inner certificate")


def find_obstruction(q):
    """Obstruction certificate for the query, searched in priority order:
    integer K strictly between the areas, then the smallest odd prime
    fraction, then the equal-radii boundary case, then conjugation into the
    >= 1 regime when ambient room is given.

    Raises SearchBoundExceeded when a prime-fraction certificate provably
    exists (A1 > A2 >= 1) but the search bound was too small; returns kind
    'none' when the regime is genuinely out of reach (sub-unit areas without
    room data).
    """
    areas = {"A1": q.A1, "A2": q.A2}
    if q.A3 is not None:
        areas["A3"] = q.A3

    K = _integer_k(q.A1, q.A2)
    if K is not None:
        return SqueezeCertificate(kind="integerK", K=K, areas=areas)

    if q.A2 >= 1.0:
        if q.A1 == q.A2:   # the window [A2, A1) is empty: no prime to scan
            return SqueezeCertificate(kind="equalRadii", areas=areas)
        hit = _prime_fraction(q.A1, q.A2, q.max_prime)
        if hit is not None:
            k, l = hit
            return SqueezeCertificate(kind="primeFraction", k=k, l=l,
                                      areas=areas)
        raise SearchBoundExceeded(
            "a prime fraction in [%g, %g) exists but needs k > %d"
            % (q.A2, q.A1, q.max_prime))

    if q.A1 < 1.0 and q.A3 is not None:
        try:
            return room_obstruction(q)
        except DomainError:
            pass
    return SqueezeCertificate(kind="none", areas=areas)


def validate_certificate(cert, A1=None, A2=None):
    """Soundness check independent of the search that produced the
    certificate; areas default to the ones recorded on it."""
    A1 = cert.areas.get("A1") if A1 is None else A1
    A2 = cert.areas.get("A2") if A2 is None else A2
    if cert.kind == "integerK":
        return (cert.K is not None and cert.K == int(cert.K)
                and A2 <= cert.K <= A1)
    if cert.kind == "primeFraction":
        return (cert.k is not None and cert.l is not None
                and cert.k % 2 == 1 and is_prime(cert.k)
                and 0 < cert.l < cert.k
                and A2 <= cert.k / cert.l < A1)
    if cert.kind == "equalRadii":
        return A1 == A2 >= 1.0
    if cert.kind == "conjugated":
        if cert.inner is None or cert.m is None or cert.m < 1:
            return False
        try:
            t1 = _room_inverse(cert.m, A1)
            t2 = _room_inverse(cert.m, A2)
        except DomainError:
            return False
        if not validate_certificate(cert.inner, t1, t2):
            return False
        # The outer pair must fall in the conjugated window mk < l < (m+1)k.
        if cert.k is not None and cert.l is not None:
            return cert.m * cert.k < cert.l < (cert.m + 1) * cert.k
        return True
    return False


def _ball(n, area):
    return Ambient(n=n, R=math.sqrt(area / math.pi))


def evidence(cert, amb, profile_family=None):
    """Barcode evidence for the certificate: the diagram contradiction.

    Computes the limit-barcode ranks at the certificate's threshold and
    degree for the big ambient ball, the large ball, and the small ball
    (expected pattern 1, 1, 0), plus the two persistence ranks induced by
    the inclusions (expected 1 and 0) and the prequantized degrees via the
    circle tensor.  With a profile_family (a list of radial profiles for the
    large ball) the finite-stage bar endpoints are recorded as a convergence
    cross-check.
    """
    if not cert.found():
        raise DomainError("evidence requires a certificate, got kind 'none'")
    n = amb.n
    A1, A2 = cert.areas["A1"], cert.areas["A2"]
    A3 = cert.areas.get("A3")

    if cert.kind == "conjugated":
        report = evidence(cert.inner, amb, profile_family)
        report["kind"] = "conjugated"
        report["m"] = cert.m
        report["outer_pair"] = {"k": cert.k, "l": cert.l}
        report["areas"] = dict(cert.areas)
        cert.evidence_degree = cert.inner.evidence_degree
        cert.evidence_threshold = cert.inner.evidence_threshold
        return report

    if cert.kind == "primeFraction":
        k, l = cert.k, cert.l
        a = float(k)
        degree = 2 * n * l
        mode = "equivariant"
        field_k = k
    elif cert.kind == "integerK":
        k, l = 1, 1
        a = float(cert.K)
        degree = 2 * n
        mode = "plain"
        field_k = 1
    elif cert.kind == "equalRadii":
        k, l = 1, 1
        a = 0.75 * A1
        degree = 2 * n
        mode = "plain"
        field_k = 1
    else:
        raise DomainError("no evidence scheme for kind %r" % cert.kind)

    big_area = A3 if A3 is not None else A1 + 1.0
    lmax = max(4, l + 1)
    bc_big = limit_barcode(_ball(n, big_area), field_k, mode, lmax=lmax)
    bc_large = limit_barcode(_ball(n, A1), field_k, mode, lmax=lmax)
    bc_small = limit_barcode(_ball(n, A2), field_k, mode, lmax=lmax)

    ranks = [bc.rank_at(degree, a) for bc in (bc_big, bc_large, bc_small)]
    # Persistence ranks of the inclusions big <- large and big <- small; the
    # rank functions are right-continuous so reading them directly stays
    # valid even when a sits on a bar endpoint.
    incl = [min(ranks[0], ranks[1]), min(ranks[0], ranks[2])]

    if cert.kind == "equalRadii":
        expected = [1, 1, 1]
    else:
        expected = [1, 1, 0]
    if ranks != expected:
        raise DomainError(
            "evidence ranks %r do not reproduce the expected pattern %r"
            % (ranks, expected))

    pre = tensor_circle(bc_large)
    report = {
        "kind": cert.kind,
        "a": a,
        "degree": degree,
        "ranks": ranks,
        "inclusion_ranks": incl,
        "areas": dict(cert.areas),
        "field": bc_large.field,
        "prequantized": {
            "degrees": [degree, degree + 1],
            "ranks": [pre.rank_at(degree, a), pre.rank_at(degree + 1, a)],
        },
        "contradiction": (
            "a squeezing would factor the rank-%d inclusion map through the "
            "rank-%d group of the small ball" % (incl[0], ranks[2])),
    }
    cert.evidence_degree = degree
    cert.evidence_threshold = a

    if profile_family is not None and cert.kind == "primeFraction":
        endpoints = []
        amb1 = _ball(n, A1)
        for rho in profile_family:
            cx = ball_complex(amb1, rho, k)
            bc = barcode(cx, "equivariant")
            deaths = [b.death for b in bc.bars if b.degree == degree]
            endpoints.append(max(deaths) if deaths else None)
        report["family_endpoints"] = endpoints
        report["family_limit"] = l * math.pi * amb1.R ** 2
    return report


def certificate_json(cert, report=None):
    """Deterministic JSON for a certificate (schema gfs/1), with the
    evidence block when a report is supplied."""
    obj = {"schema": "gfs/1", "kind": cert.kind}
    if cert.K is not None:
        obj["K"] = cert.K
    if cert.k is not None:
        obj["k"] = cert.k
    if cert.l is not None:
        obj["l"] = cert.l
    if cert.m is not None:
        obj["m"] = cert.m
    if cert.inner is not None:
        inner = json.loads(certificate_json(cert.inner))
        inner.pop("schema", None)
        obj["inner"] = inner
    obj["areas"] = {key: cert.areas[key]
                    for key in ("A1", "A2", "A3") if key in cert.areas}
    if report is not None:
        obj["evidence"] = {
            "degree": report["degree"],
            "a": report["a"],
            "ranks": report["ranks"],
            "inclusion_ranks": report["inclusion_ranks"],
            "prequantized": report["prequantized"],
        }
    return json.dumps(obj, indent=2) + "\n"
