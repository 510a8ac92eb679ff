"""Non-squeezing verdict engine.

A ball of area A1 = pi*R1^2 cannot be squeezed into a ball of area A2 when
an obstruction certificate exists.  Each kind has one admissibility rule,
written once below and read by the search, the validator and the evidence:

  * integerK — an integer K with A2 < K < A1 (the classical integer
    action-spectrum obstruction, read at degree 2n in the plain barcode);
  * primeFraction — an odd prime k and 0 < l < k with l*A2 <= k < l*A1 (the
    cyclically equivariant obstruction, read at degree 2nl over F_k, where
    the limit bar [0, l*A) of a ball of area A is alive at a = k exactly
    when k < l*A);
  * equalRadii — the non-strict boundary case A1 = A2 >= 1, kept as its own
    kind rather than silently strictified;
  * conjugated — for sub-unit areas with ambient room A3, an index m >= 1
    with 1/(m+1) <= A2 and A3 <= 1/m (1e-12 slack): conjugation by the
    m-fold covering embedding rescales every area by A -> A/(1 - m*A) into
    the >= 1 regime, where the search recurses; an inner K or (k, l')
    corresponds to the outer pair (K, 1 + m*K) or (k, l' + m*k).

The evidence for a certificate is the barcode diagram contradiction: at
threshold a = k (or K) and degree 2nl (or 2n), the group for the big ambient
ball and for the large ball both have rank 1 and the small ball's group
vanishes, so a squeezing would factor an isomorphism through zero.  It
reads each ball's one limit bar in that degree, at its area on the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .equivar import _json_number, _limit_bars, is_odd_prime
from .errors import DomainError, SearchBoundExceeded
from .sympl import _integer

DEFAULT_MAX_PRIME = 10 ** 4


@dataclass
class SqueezeQuery:
    """Finite areas A1 >= A2 > 0 of the two balls (A_i = pi * R_i^2),
    optional ambient-room area A3 > A1, and the odd-prime search bound."""
    A1: float
    A2: float
    A3: Optional[float] = None
    max_prime: int = DEFAULT_MAX_PRIME

    def __post_init__(self):
        if not all(math.isfinite(a) for a in (self.A1, self.A2, self.A3 or 0)):
            raise DomainError("areas must be finite")
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

    def found(self):
        return self.kind != "none"


def room_transform(m, A):
    """Area of the image of a ball of area A under the m-fold covering
    embedding: A / (1 + m*A), increasing in A, 0 at A = 0 and 1/m at
    A = inf."""
    if A < 0:
        raise DomainError("area A must be non-negative")
    if math.isinf(A):
        return 1.0 / m
    return A / (1.0 + m * A)


def _room_inverse(m, A):
    """Inverse of room_transform: the area whose image has area A."""
    if 1.0 - m * A <= 0:
        raise DomainError("area %g too large for conjugation index m=%d"
                          % (A, m))
    return A / (1.0 - m * A)


def _integer_k_admissible(K, A1, A2):
    """The integerK rule: K an integer (`sympl._integer`), A2 < K < A1."""
    return _integer(K) is not None and A2 < K < A1


def _prime_fraction_admissible(k, l, A1, A2):
    """The primeFraction rule: k an odd prime and l an integer (`equivar`'s
    rules), 0 < l < k and l*A2 <= k < l*A1, the arithmetic tested first."""
    return (k is not None and l is not None and 0 < l < k
            and l * A2 <= k < l * A1 and _integer(l) is not None
            and is_odd_prime(k))


def _equal_radii_admissible(A1, A2):
    """The equalRadii rule: A1 = A2 >= 1."""
    return A1 == A2 >= 1.0


def _conjugation_indices(A1, A2, A3):
    """Admissible conjugation indices m >= 1: none unless A1 < A3, else
    1/(m+1) <= A2 and A3 <= 1/m, each with a 1e-12 slack; none either where
    1/A2 or 1/A3 overflows, which leaves no m in float range."""
    if not A1 < A3:
        return range(0)
    lo, hi = 1.0 / A2 - 1.0 - 1e-12, 1.0 / A3 + 1e-12
    if max(lo, hi) == math.inf:
        return range(0)
    return range(max(1, math.ceil(lo)), math.floor(hi) + 1)


def _outer_pair(inner, m):
    """The outer pair (k, l) of the m-fold conjugation of an inner
    certificate: (K, 1 + m*K) or (k, l + m*k); (None, None) otherwise."""
    if inner.kind == "integerK":
        return inner.K, 1 + m * inner.K
    if inner.kind == "primeFraction":
        return inner.k, inner.l + m * inner.k
    return None, None


def _prime_fraction(A1, A2, max_prime):
    """The lexicographically first admissible (k, l) with k <= max_prime, or
    None.  For each k only the least l with k < l*A1 can be first: both
    products grow with l.  Needs A1 > 1."""
    for k in range(3, max_prime + 1, 2):
        l = max(1, math.floor(k / A1) - 1)     # below that least l
        while not k < l * A1:
            l += 1
        if _prime_fraction_admissible(k, l, A1, A2):
            return k, l
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
    indices = _conjugation_indices(q.A1, q.A2, q.A3)
    if not indices:
        raise DomainError(
            "no conjugation index m with A1 < A3, 1/(m+1) <= %g and "
            "%g <= 1/m" % (q.A2, q.A3))
    for m in indices:
        inner_q = SqueezeQuery(_room_inverse(m, q.A1), _room_inverse(m, q.A2),
                               max_prime=q.max_prime)
        inner = find_obstruction(inner_q)
        if not inner.found():
            continue
        outer_k, outer_l = _outer_pair(inner, m)
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

    K = math.floor(q.A2) + 1   # the least integer above A2
    if _integer_k_admissible(K, q.A1, q.A2):
        return SqueezeCertificate(kind="integerK", K=K, areas=areas)

    if q.A2 >= 1.0:
        if _equal_radii_admissible(q.A1, q.A2):   # no prime window to scan
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
    certificate: it replays the same admissibility rules on the recorded
    integers.  A1 and A2 default to the areas recorded on the certificate;
    a conjugated certificate also needs its recorded A3."""
    A1 = cert.areas.get("A1") if A1 is None else A1
    A2 = cert.areas.get("A2") if A2 is None else A2
    if cert.kind == "integerK":
        return _integer_k_admissible(cert.K, A1, A2)
    if cert.kind == "primeFraction":
        return _prime_fraction_admissible(cert.k, cert.l, A1, A2)
    if cert.kind == "equalRadii":
        return _equal_radii_admissible(A1, A2)
    if cert.kind == "conjugated":
        A3, m = cert.areas.get("A3"), _integer(cert.m)
        if (cert.inner is None or A3 is None
                or m not in _conjugation_indices(A1, A2, A3)):
            return False
        try:
            t1 = _room_inverse(m, A1)
            t2 = _room_inverse(m, A2)
        except DomainError:
            return False
        outer = (cert.k, cert.l)
        return (validate_certificate(cert.inner, t1, t2)
                and outer == _outer_pair(cert.inner, m)
                and all(x is None or _integer(x) is not None for x in outer))
    return False


def evidence(cert, amb):
    """Barcode evidence for the certificate: the diagram contradiction.

    Returns the threshold `a` and `degree`, the limit-barcode `ranks` there
    for the big ambient ball, the large ball and the small ball (expected
    pattern 1, 1, 0), each off the ball's one limit bar in that degree, the
    two `inclusion_ranks` of the inclusions (expected 1 and 0) and the
    `prequantized` ranks at `degree` and `degree + 1`, both the large ball's
    by Kunneth with the circle (every limit bar sits in an even degree); a
    conjugated certificate reads its inner one and adds its `outer_pair`.
    Only the dimension amb.n is read: each ball is given by its area on the
    certificate.
    """
    if not cert.found():
        raise DomainError("evidence requires a certificate, got kind 'none'")
    n = amb.n
    A1, A2 = cert.areas["A1"], cert.areas["A2"]
    A3 = cert.areas.get("A3")

    if cert.kind == "conjugated":
        report = evidence(cert.inner, amb)
        report["outer_pair"] = {"k": cert.k, "l": cert.l}
        return report

    if cert.kind == "primeFraction":
        k, l, a, mode = cert.k, cert.l, float(cert.k), "equivariant"
    elif cert.kind in ("integerK", "equalRadii"):
        k, l, mode = 1, 1, "plain"
        a = float(cert.K) if cert.kind == "integerK" else 0.75 * A1
    else:
        raise DomainError("no evidence scheme for kind %r" % cert.kind)
    degree = 2 * n * l

    big_area = A3 if A3 is not None else A1 + 1.0
    # each ball's one bar in this degree, read by `Barcode.rank_at`'s rule
    ranks = [sum(b.rank for b in _limit_bars(n, A, k, mode, [l])
                 if b.birth <= a < b.death) for A in (big_area, A1, A2)]
    # Persistence ranks of the inclusions big <- large and big <- small; the
    # rank functions are right-continuous so reading them directly stays
    # valid even when a sits on a bar endpoint.
    incl = [min(ranks[0], ranks[1]), min(ranks[0], ranks[2])]

    expected = [1, 1, 1] if cert.kind == "equalRadii" else [1, 1, 0]
    if ranks != expected:
        raise DomainError(
            "evidence ranks %r do not reproduce the expected pattern %r"
            % (ranks, expected))

    return {
        "a": a,
        "degree": degree,
        "ranks": ranks,
        "inclusion_ranks": incl,
        "prequantized": {
            "degrees": [degree, degree + 1],
            "ranks": [ranks[1], ranks[1]],
        },
    }


def certificate_json(cert, report=None):
    """Deterministic JSON for a certificate (schema gfs/1) and, given an
    `evidence` report, its evidence: the text of `json.dumps(obj, indent=2)`
    and a newline, written directly with `_json_number`'s rule for numbers."""
    text = "".join(',\n  "%s": %s' % (key, _json_number(getattr(cert, key)))
                   for key in "Kklm" if getattr(cert, key) is not None)
    if cert.inner is not None:      # its own text without the schema line
        text += ',\n  "inner": ' + certificate_json(cert.inner).replace(
            '  "schema": "gfs/1",\n', "", 1)[:-1].replace("\n", "\n  ")
    areas = ",\n".join('    "%s": %s' % (key, _json_number(cert.areas[key]))
                       for key in ("A1", "A2", "A3") if key in cert.areas)
    text += ',\n  "areas": ' + ("{\n%s\n  }" % areas if areas else "{}")
    if report is not None:
        pre = report["prequantized"]
        text += (',\n  "evidence": {\n    "degree": %s,\n    "a": %s,\n'
                 '    "ranks": [\n      %s,\n      %s,\n      %s\n    ],\n'
                 '    "inclusion_ranks": [\n      %s,\n      %s\n    ],\n'
                 '    "prequantized": {\n      "degrees": [\n        %s,\n'
                 '        %s\n      ],\n      "ranks": [\n        %s,\n'
                 '        %s\n      ]\n    }\n  }' % tuple(map(_json_number, (
                     report["degree"], report["a"], *report["ranks"],
                     *report["inclusion_ranks"], *pre["degrees"],
                     *pre["ranks"]))))
    return ('{\n  "schema": "gfs/1",\n  "kind": %s%s\n}\n'
            % (_json_number(cert.kind), text))
