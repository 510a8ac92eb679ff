"""Ambient conventions, radial Hamiltonian dynamics, contact lifts, translated chains.

Conventions fixed here and used by every other module:

* Phase space is R^{2n} with interleaved coordinates (x_1, y_1, ..., x_n, y_n);
  z_j = x_j + i y_j gives the complex view.  `complex_view` and `interleave`
  convert between the two, and `j0_apply` is J0 (x, y) = (-y, x) on them;
  every other module reads the convention through these three.
* H(z) = sum_j |z_j|^2 / R^2, the scaled squared radius of the ambient ball.
* A radial profile rho (supported in [0, 1], convex, non-increasing) generates
  the truncated radial flow

      flow_t(z) = exp(2 i t rho'(H(z)) / R^2) * z     (per complex coordinate),

  which is closed-form, conserves H, and fixes every z with H(z) >= 1 exactly.
* The calibrated primitive of the time-t map is

      S_t(z) = t * (rho(m) - m rho'(m)) = t * a(m) >= 0,   m = H(z),

  where a(m) is the action density of `RadialMap.S`.  This sign makes
  translated-chain actions positive and the small-map formula in `genfun`
  (S + half the symplectic cross term) an honest generating function of
  flow_t with the graph covector used by `genfun.graph_of`.
* The contact lift of the time-1 map acts on R^{2n} x S^1 by
  (z, theta) |-> (flow_1(z), theta - S_1(z)) and has conformal factor g == 0.
  The Reeb flow is translation in theta.
"""

import bisect
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvenK, NonMonotoneProfile


def _integer(k):
    """k as an int; None for a bool or any k that `operator.index` refuses."""
    try:
        return None if isinstance(k, bool) else operator.index(k)
    except TypeError:
        return None


def _number(x):
    """x as a float when it is a finite JSON number; None for a bool, a
    string or any other x (an int too large for a float raises
    OverflowError)."""
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    return float(x) if number and math.isfinite(x) else None


def _odd(k, message):
    """k as an int when `_integer` reads it as odd and >= 1; EvenK(message)
    otherwise (3.0 and True are no count)."""
    count = _integer(k)
    if count is None or count < 1 or count % 2 == 0:
        raise EvenK(message)
    return count


# ---------------------------------------------------------------------------
# ambient space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ambient:
    """Ambient ball data: complex dimension n and finite ball radius R > 0."""

    n: int = 1
    R: float = 1.0

    def __post_init__(self):
        n = _integer(self.n)                # 2.0 and True are no dimension
        if n is None or n < 1:
            raise DomainError("ambient dimension n must be a positive integer")
        try:                        # True, "2", None and 10**400 are no radius
            R = _number(self.R)
        except OverflowError:
            R = None
        if R is None or not (R > 0 and 0 < math.pi * R * R < math.inf):
            raise DomainError("ambient radius R must be positive, with the "
                              "area pi R^2 positive and finite")

    @property
    def dim(self):
        """Real phase-space dimension 2n."""
        return 2 * self.n

    def H(self, z):
        """Scaled squared radius sum |z_j|^2 / R^2: a float for one point, an
        array for a stack (N, 2n), one per row; one batched product, which
        rounds each row as np.dot(z, z) does."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            return float(np.dot(z, z)) / self.R**2
        return (z[..., None, :] @ z[..., :, None])[..., 0, 0] / self.R**2


def complex_view(z):
    """(z_1, ..., z_n), z_j = x_j + i y_j, of an interleaved vector."""
    z = np.asarray(z, dtype=float)
    return z[0::2] + 1j * z[1::2]


def interleave(zc):
    """The interleaved vector (x_1, y_1, ..., x_n, y_n) of (z_1, ..., z_n)."""
    out = np.empty(2 * len(zc))
    out[0::2] = zc.real
    out[1::2] = zc.imag
    return out


def j0_matrix(n2):
    """Standard complex structure on interleaved coordinates:
    J0 (x, y) = (-y, x) in each coordinate plane."""
    J = np.zeros((n2, n2))
    for i in range(0, n2, 2):
        J[i, i + 1] = -1.0
        J[i + 1, i] = 1.0
    return J


def j0_apply(v):
    """J0 on the last axis: one interleaved vector, or a stack of rows."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

BLEND_WIDTH = 1e-3


def _derivative(coeffs):
    """Derivative of every piece (rows of descending-power coefficients; an
    empty row is the zero polynomial)."""
    return coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1.0)


def _poly_value(ascending, s):
    """sum_p a_p s^p for ascending a_p, summed with a running power of s."""
    res, z = 0.0, 1.0
    for a in ascending:
        res = res + a * z
        z = z * s
    return res


def _trim(row, knot):
    """The ascending row less its trailing zeros while every power s^p it
    keeps, s = m - knot with m in [0, 1], stays finite: dropping a 0.0 * z
    term from a running sum that starts at +0.0 changes no bit while z is
    finite."""
    while (len(row) > 1 and row[-1] == 0.0
           and max(abs(knot), abs(1.0 - knot)) < 1e300 ** (1 / len(row))):
        row = row[:-1]
    return row or [0.0]


class RadialProfile:
    """Convex, non-increasing profile rho supported in [0, 1].

    rho is piecewise polynomial: row i of `coeffs` lists its coefficients on
    [knots[i], knots[i+1]] in descending powers of (m - knots[i]).  The
    first and last pieces extend past the end knots; rho, rho', rho'' return
    exact 0.0 for m >= 1.  Invariants (checked by `validate`): rho >= 0,
    rho' <= 0, rho'' >= 0, rho and rho' tend to 0 as m -> 1, rho' constant
    = c on [0, delta].

    Every read of a level is one `_scalar`: the level's piece looked up,
    then `_rows` summed by `_poly_value`, one list of ascending coefficients
    per order and piece, less trailing zeros that change no sum (`_trim`),
    so it reads the bits of the full polynomial.  `read` calls it once per
    level of an array; the per-leaf loops (`RadialMap._level_beta`, the
    small-map jet) and `shells` call it straight.
    """

    def __init__(self, knots, coeffs, c=None, delta=None):
        knots = np.asarray(knots, dtype=float)
        coeffs = np.asarray(coeffs, dtype=float)
        if not (knots.ndim == 1 and len(knots) >= 2
                and np.all(np.isfinite(knots)) and np.all(np.diff(knots) > 0)):
            raise DomainError("profile knots must be at least two finite, "
                              "strictly increasing values")
        if not (coeffs.ndim == 2 and coeffs.shape[1] > 0
                and len(coeffs) == len(knots) - 1
                and np.all(np.isfinite(coeffs))):
            raise DomainError("a profile needs one piece per knot interval, "
                              "all pieces finite and of one nonzero length")
        self.knots = knots
        self.coeffs = coeffs
        self.c = c
        self.delta = delta
        d1 = _derivative(coeffs)
        self._knot_list = knots.tolist()
        # _rows[order][i]: ascending coefficients of rho^(order) on piece i
        self._rows = [[_trim(row, x) for row, x in zip(t[:, ::-1].tolist(),
                                                        self._knot_list)]
                      for t in (coeffs, d1, _derivative(d1))]
        self._inner = self._knot_list[1:-1]     # piece i holds m < knots[i+1]

    # -- evaluation -------------------------------------------------------

    def read(self, m, lo, hi):
        """(rho^(lo)(m), ..., rho^(hi)(m)), 0 <= lo <= hi <= 2, by `_scalar`
        at a level m, or level by level on an array as one float64 array
        per order shaped like m; m < 0 reads as 0, m >= 1 (or nan) 0.0."""
        if isinstance(m, float) or np.ndim(m) == 0:
            return self._scalar(float(m), lo, hi)
        m = np.asarray(m, dtype=float)
        out = np.array([self._scalar(x, lo, hi) for x in m.ravel().tolist()])
        return tuple(out.T.reshape((hi - lo + 1,) + m.shape))

    def _scalar(self, m, lo, hi):
        """`read` at one float level m, with no array dispatch: m's piece
        looked up once, then its rows of orders lo..hi summed."""
        if not m < 1.0:
            return (0.0, 0.0, 0.0)[:hi - lo + 1]
        if m < 0.0:
            m = 0.0
        i = bisect.bisect_right(self._inner, m)
        s, rows = m - self._knot_list[i], self._rows
        if hi == lo:
            return (_poly_value(rows[lo][i], s),)
        r0, r1 = _poly_value(rows[lo][i], s), _poly_value(rows[lo + 1][i], s)
        if hi - lo == 1:
            return (r0, r1)
        return (r0, r1, _poly_value(rows[2][i], s))

    def drho_level(self, target, lo):
        """The m in [lo, 1] with rho'(m) = target, by bisection to 1e-12.
        Each rho'(mid) is summed from the row `read` sums, so every m is
        bit-equal to a bisection over `drho`.  The piece is looked up until a
        and b share it, as every later mid then does; a linear rho' reads
        c0 + c1 s."""
        inner, knots, rows = self._inner, self._knot_list, self._rows[1]
        a, b = lo, 1.0
        ia = bisect.bisect_right(inner, max(a, 0.0))
        ib = bisect.bisect_right(inner, max(b, 0.0))
        while ia != ib and b - a > 1e-12:
            mid = 0.5 * (a + b)
            x = mid if mid >= 0.0 else 0.0
            i = bisect.bisect_right(inner, x)
            if _poly_value(rows[i], x - knots[i]) - target <= 0.0:
                a, ia = mid, i
            else:
                b, ib = mid, i
        row, k0 = rows[ia], knots[ia]
        linear, (c0, c1) = len(row) <= 2, (row + [0.0])[:2]
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            s = (mid if mid >= 0.0 else 0.0) - k0
            dr = c0 + c1 * s if linear else _poly_value(row, s)
            if dr - target <= 0.0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    def rho(self, m):
        return self.read(m, 0, 0)[0]

    def drho(self, m):
        return self.read(m, 1, 1)[0]

    def d2rho(self, m):
        return self.read(m, 2, 2)[0]

    # -- serialization ----------------------------------------------------

    def to_json(self):
        """JSON object {c, delta, knots, pieces}; pieces[i] lists the
        coefficients of rho on [knots[i], knots[i+1]] in descending powers
        of (m - knots[i])."""
        return {
            "c": self.c,
            "delta": self.delta,
            "knots": [float(x) for x in self.knots],
            "pieces": [[float(v) for v in row] for row in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj):
        """Profile from its JSON object, JSON text, or UTF-8 bytes."""
        if isinstance(obj, (bytes, str)):
            try:
                obj = json.loads(obj.decode("utf-8")
                                 if isinstance(obj, bytes) else obj)
            except ValueError as exc:           # not UTF-8, or not JSON
                raise DomainError("invalid profile: not UTF-8 JSON (%s)" % exc)

        def number(x):                  # a finite JSON number, or refused
            if _number(x) is None:
                raise ValueError("%r is no finite JSON number" % (x,))
            return float(x)

        try:
            knots = np.array([number(x) for x in obj["knots"]])
            coeffs = np.array([[number(v) for v in row]
                               for row in obj["pieces"]])
            c, delta = (None if obj.get(key) is None else number(obj[key])
                        for key in ("c", "delta"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError("invalid profile: knots and pieces must be "
                              "lists of finite JSON numbers, pieces all of "
                              "one length, c and delta such numbers or null "
                              "(%s)" % exc)
        if delta is not None and not 0 <= delta < 1:
            raise DomainError("invalid profile: delta must lie in [0, 1)")
        prof = cls(knots, coeffs, c=c, delta=delta)
        problems = prof.validate()
        if problems:
            raise DomainError("invalid profile: " + "; ".join(problems))
        return prof

    # -- invariants -------------------------------------------------------

    def validate(self):
        """Return a list of invariant violations (empty when valid)."""
        problems = []
        r, dr, d2r = self.read(np.linspace(0.0, 1.0, 2001), 0, 2)
        if not all(np.isfinite(x).all() for x in (r, dr, d2r)):
            problems.append("rho, rho' or rho'' is not finite on [0, 1]")
        if np.min(r) < -1e-10:
            problems.append("rho takes negative values")
        inner, r0 = self.knots[1:-1], self._rows[0]  # no grid sees a jump
        jump = np.array([b[0] - _poly_value(a, w) for a, b, w in
                         zip(r0, r0[1:], np.diff(self.knots).tolist())])
        bad = inner[(abs(jump) > 1e-9 * (1.0 + np.max(np.abs(r))))
                    & (inner > 0.0) & (inner < 1.0)]
        problems += ["rho is discontinuous at knot %g" % x for x in bad[:1]]
        if np.max(dr) > 1e-10:
            problems.append("rho' takes positive values")
        if np.min(d2r) < -1e-8:
            problems.append("rho'' takes negative values (not convex)")
        i = bisect.bisect_left(self._inner, 1.0)    # the piece left of m = 1
        if any(abs(_poly_value(rows[i], 1.0 - self._knot_list[i]))
               > 1e-9 * (1.0 + np.max(np.abs(x)))
               for rows, x in zip(self._rows, (r, dr))):
            problems.append("rho or rho' does not vanish as m -> 1")
        if self.c is not None and self.delta is not None:
            flat = np.linspace(0.0, self.delta, 101)
            if not np.max(np.abs(self.drho(flat) - self.c)) <= 1e-10:
                problems.append("rho' is not constant = c on [0, delta]")
        return problems


def ref_profile(c, delta):
    """Reference profile family REF(c, delta).

    rho' == c on [0, delta], then follows the straight chord c (1 - m)/(1 - delta)
    to rho'(1) = 0, with C^1 cubic corner blends of width w = BLEND_WIDTH; rho
    is the exact antiderivative with rho(1) = 0.  rho'' >= 0 throughout, so
    level solving for rho' is monotone on [delta, 1].
    """
    if not -math.inf < c < 0:
        raise DomainError("profile slope c must be negative and finite, "
                          "got %r" % (c,))
    w = BLEND_WIDTH
    if not 0 < delta < 1 - 2 * w:
        raise DomainError("delta must lie in (0, 1 - 2*blend)")
    s = -c / (1.0 - delta)          # chord slope, > 0
    knots = np.array([0.0, delta, delta + w, 1.0 - w, 1.0])
    # rho' piecewise, descending powers of the local variable t = m - knot:
    dcoeffs = np.array([
        [0.0,        0.0,      0.0,  c],            # constant c
        [-s / w**2,  2 * s / w, 0.0, c],            # blend up to the chord
        [0.0,        0.0,      s,    c + s * w],    # chord
        [-s / w**2,  s / w,    s,    -s * w],       # blend down to 0 with slope 0
    ])
    # rho: antiderivative of rho', continuous at the knots, then shifted so
    # that rho(1) = 0 exactly
    coeffs = np.zeros((4, 5))
    coeffs[:, :-1] = dcoeffs / np.arange(4, 0, -1.0)
    for i in range(1, 4):
        coeffs[i, -1] = _poly_value(coeffs[i - 1, ::-1],
                                    knots[i] - knots[i - 1])
    coeffs[:, -1] -= _poly_value(coeffs[-1, ::-1], 1.0 - knots[-2])
    return RadialProfile(knots, coeffs, c=c, delta=delta)


# ---------------------------------------------------------------------------
# flow and maps
# ---------------------------------------------------------------------------

def flow(amb, rho, t, z):
    """Time-t truncated radial flow: z |-> exp(2 i t rho'(H(z)) / R^2) z.

    Total on R^{2n}, one point z of shape (2n,) at a time; conserves H to
    round-off; fixes every z with H >= 1 exactly (rho' is zero there)."""
    if np.shape(z) != (amb.dim,):
        raise DomainError("flow maps one point z, of shape (2n,)")
    ang = 2.0 * t * rho.drho(amb.H(z)) / amb.R**2
    return interleave(complex_view(z) * np.exp(1j * ang))


class RadialMap:
    """Time-t map of the truncated radial flow with the calibrated primitive
    S_t(z) = t * (rho(m) - m rho'(m)).

    `genfun.gf_small_map` reads the map through `midpoint_inverse` and the
    profile alone; the exact Jacobian is kept as the oracle of its tests and
    as a probe of the benchmark (bench/run.py, bench/spans.py)."""

    def __init__(self, amb, rho, t=1.0):
        self.amb = amb
        self.rho = rho
        self.t = float(t)
        # h -> tan(beta/2), in a current and an old generation of levels
        self._tans, self._old = {}, {}

    def __call__(self, z):
        return flow(self.amb, self.rho, self.t, z)

    def jacobian(self, z):
        z = np.asarray(z, dtype=float)
        amb = self.amb
        m = amb.H(z)
        beta = 2.0 * self.t * self.rho.drho(m) / amb.R**2
        dbeta = 2.0 * self.t * self.rho.d2rho(m) / amb.R**2
        n2 = amb.dim
        cb, sb = math.cos(beta), math.sin(beta)
        Rb = np.zeros((n2, n2))
        for i in range(0, n2, 2):
            Rb[i, i] = cb
            Rb[i, i + 1] = -sb
            Rb[i + 1, i] = sb
            Rb[i + 1, i + 1] = cb
        grad_m = (2.0 / amb.R**2) * z
        inner = np.eye(n2) + dbeta * np.outer(j0_apply(z), grad_m)
        return Rb @ inner

    def S(self, z):
        m = self.amb.H(np.asarray(z, dtype=float))
        return self.t * (self.rho.rho(m) - m * self.rho.drho(m))

    def midpoint_inverse(self, q):
        """The z with (z + phi(z))/2 = q, for one point q or a stack (N, 2n)
        of points, one per row.

        phi(z) = e^{i beta(m)} z with beta(m) = 2 t rho'(m) / R^2, m = H(z),
        so H(q) = m cos^2(beta(m)/2), strictly increasing in m on [H(q), 1]
        while |beta| < pi (rho'' >= 0): a bracketed Newton iteration finds m,
        row by row, then z = q - tan(beta/2) J0 q for all rows at once.  For
        H(q) >= 1, z = q exactly.  Each Newton step takes (rho', rho'') from
        one `rho._scalar`, one piece lookup.

        tan(beta/2) is a function of the map and the exact float h alone, so
        each distinct h is solved once, and not at all if a recent stack
        already solved it: symmetric configurations and a point read a few
        calls after its image repeat levels bit for bit.  The levels are kept
        in two generations; a level found in the old one is copied into the
        current one, and once the current one holds twice as many levels as
        the stack has rows, it becomes the old one and a new one starts.  So
        at least this stack and the previous one are kept, and the memo holds
        at most a small multiple of the recent stack sizes."""
        q = np.asarray(q, dtype=float)
        Q = q.reshape(-1, q.shape[-1])
        h = self.amb.H(Q).tolist()
        if len(self._tans) >= 2 * len(h):
            self._old, self._tans = self._tans, {}
        tans, old, col, outside = self._tans, self._old, [], []
        for i, x in enumerate(h):
            t = tans.get(x)
            if t is None:
                if x < 1.0:
                    t = old.get(x)
                    if t is None:
                        t = math.tan(0.5 * self._level_beta(x))
                    tans[x] = t
                else:
                    t = 0.0
                    outside.append(i)
            col.append(t)
        Z = Q - np.array(col)[:, None] * j0_apply(Q)
        if outside:
            Z[outside] = Q[outside]
        return Z.reshape(q.shape)

    def _level_beta(self, h):
        """beta(m) at the level m in [h, 1) with m cos^2(beta(m)/2) = h."""
        scale = 2.0 * self.t / self.amb.R**2
        read = self.rho._scalar
        lo, hi = h, 1.0
        dlo, dhi = read(h, 1, 1)[0], 0.0    # rho' at lo and at hi
        m = min(h / math.cos(0.5 * scale * dlo) ** 2, hi)
        for _ in range(100):
            dr, d2r = read(m, 1, 2)
            half = 0.5 * scale * dr
            cos2 = math.cos(half) ** 2
            f = m * cos2 - h
            if f == 0.0:
                break
            if f < 0.0:
                lo, dlo = m, dr
            else:
                hi, dhi = m, dr
            slope = cos2 - 0.5 * m * math.sin(2.0 * half) * scale * d2r
            m_new = m - f / slope
            if not lo < m_new < hi:
                m_new = 0.5 * (lo + hi)
            m, m_old = m_new, m
            if abs(m - m_old) <= 1e-16 * m_old or m == lo or m == hi:
                break
        # f == 0.0 only on a break at the level just read, whose rho' is dr;
        # every other break leaves m on a bracket end, already read
        if f != 0.0:
            dr = dlo if m == lo else dhi if m == hi else read(m, 1, 1)[0]
        return scale * dr

    def max_rotation(self):
        """Upper bound for the rotation angle |2 t rho'(m) / R^2| over all m."""
        m = np.linspace(0.0, 1.0, 512)
        return float(np.max(np.abs(2.0 * self.t * self.rho.drho(m)))) / self.amb.R**2


class LinearRotation:
    """Product of planar rotations by fixed angles (counterclockwise for
    positive angle); S == 0."""

    def __init__(self, amb, angles):
        self.amb = amb
        self.angles = np.atleast_1d(np.asarray(angles, dtype=float))
        if len(self.angles) != amb.n:
            raise DomainError("need one rotation angle per complex coordinate")

    def __call__(self, z):
        return interleave(complex_view(z) * np.exp(1j * self.angles))

    def midpoint_inverse(self, q):
        """The z with (z + phi(z))/2 = q: per coordinate plane
        q = e^{i alpha/2} cos(alpha/2) z, so z = q - tan(alpha/2) J0 q
        (|alpha| < pi)."""
        q = np.asarray(q, dtype=float)
        return q - np.repeat(np.tan(0.5 * self.angles), 2) * j0_apply(q)

    def S(self, z):
        return 0.0


class ComposedMap:
    """Composition map_K o ... o map_1 with additive primitive S (sum of
    factor primitives along the orbit)."""

    def __init__(self, maps):
        self.maps = list(maps)
        self.amb = self.maps[0].amb

    def __call__(self, z):
        for mp in self.maps:
            z = mp(z)
        return z

    def S(self, z):
        total = 0.0
        for mp in self.maps:
            total += mp.S(z)
            z = mp(z)
        return total


# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------

@dataclass
class ShellDatum:
    """One component of the k-periodic-point set of the time-1 radial map:
    either a sphere shell (level m with rho'(m) = -(l/k) pi R^2) or the
    isolated origin."""

    l: int
    m: float
    value: float
    index: int
    kind: str               # "sphereShell" | "isolated"
    free_orbit: bool
    nullity: int


def _bernstein(row, alpha, w):
    """Bernstein coefficients on [alpha, alpha + w] of sum_p row[p] s^p: a
    Taylor shift to alpha, scaling by w^r / C(n, r), binomial sums."""
    f, n = list(row), len(row) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            f[j] += alpha * f[j + 1]
    f = [x * w ** r / math.comb(n, r) for r, x in enumerate(f)]
    for i in range(n):
        for j in range(n, i, -1):
            f[j] += f[j - 1]
    return f


def _certify_monotone(rho, lo):
    """True only if `_check_monotone(rho, lo)` passes, proved from the
    rho' and rho'' rows.  On each piece's part of [lo, 1), s = x - knot in
    [alpha, beta] (the grid's own rounded differences), rho'' >= -sigma by
    its Bernstein coefficients less their rounding bound (their sums over
    |coefficients|, at most the value at t = 1), the grid's rho' sums err by
    at most e, and rho' drops by `drop` in all at the knots and at m = 1
    (read as 0.0); so each grid step changes rho' by at least -(sigma h +
    2 e + drop) > -1e-10.  False (run the grid) if a bound fails or is nan."""
    x0, u = max(lo, 0.0), 2.0 ** -53
    ends = [x0] + [min(max(x0, t), 1.0) for t in rho._inner] + [1.0]
    h = ((1.0 - lo) / 4000 * 1.001 + (2 * len(ends) + 2) * u
         * (2.0 + abs(lo) + max(map(abs, rho._knot_list))))
    drop, end = 0.0, -math.inf
    for a, d2, k, x, y in zip(*rho._rows[1:], rho._knot_list, ends, ends[1:]):
        if not x < y:
            continue
        alpha, beta = x - k, y - k
        e = 2 * (len(a) + 1) * u * _poly_value(map(abs, a), max(-alpha, beta))
        w = (beta - alpha) * (1 + 4 * u)
        bound = 2 * (3 * len(d2) + 7) * u * _poly_value(map(abs, d2),
                                                         abs(alpha) + w)
        if not (e <= 1.25e-11 and all((bound - b) * h <= 2.5e-11
                                      for b in _bernstein(d2, alpha, w))):
            return False
        drop += max(0.0, end - a[0])
        end = _poly_value(a, beta) + e
    return drop + max(0.0, end) <= 2.5e-11


def _check_monotone(rho, lo):
    """Refuse rho if rho' is not finite or falls by over 1e-10 on a step of a
    4001-point grid of [lo, 1]."""
    dr = rho.drho(np.linspace(lo, 1.0, 4001))
    if not np.isfinite(dr).all():
        raise NonMonotoneProfile("rho' is not finite on [%g, 1]" % lo)
    if np.min(np.diff(dr)) < -1e-10:
        raise NonMonotoneProfile("rho' is not non-decreasing on [%g, 1]" % lo)


def shell_count(amb, rho, k):
    """L, the number of integers l > 0 with -(l/k) pi R^2 > rho'(0), in O(1)
    steps from the estimate -rho'(0) k / (pi R^2); DomainError unless that is
    below 2^53, where (l/k) pi R^2 no longer tells consecutive l apart."""
    c0 = rho.drho(0.0)
    area = math.pi * amb.R**2

    def is_shell(l):
        return -(l / k) * area > c0

    estimate = -c0 * k / area
    if not (math.isfinite(estimate) and estimate < 2.0**53):
        raise DomainError("%g shells: the ball area pi R^2 = %g is too small "
                          "for rho'(0) = %g" % (estimate, area, c0))
    L = max(int(estimate), 0)
    while is_shell(L + 1):
        L += 1
    while L > 0 and not is_shell(L):
        L -= 1
    return L


def shells(amb, rho, k, lmax=None):
    """Solve rho'(m) = -(l/k) pi R^2 for every integer l with
    0 < l/k < -rho'(0) / (pi R^2), each by `rho.drho_level` on [delta, 1].
    NonMonotoneProfile when rho' is not non-decreasing there: by the grid of
    `_check_monotone`, which runs unless `_certify_monotone` proves from the
    coefficients that it passes.  DomainError from `shell_count`, or when a
    returned value is not finite.

    Returns one ShellDatum per shell (ascending l) followed by the origin
    datum (kind "isolated", value k rho(0), index 2n(L+1), L the number of
    shells).  With `lmax`, only the shells l <= lmax are bisected and
    returned, bit-equal to the first entries of the full list; L still counts
    every shell (`shell_count`).  The bracket rho'(lo) < target is checked
    once, at the deepest level L, before any bisection: rho'(lo) + (l/k) pi
    R^2 is non-decreasing in l in floating point, so a truncated call refuses
    every profile the full call refuses.  EvenK, before any work, unless
    k is an odd integer >= 1 (`_odd`)."""
    k = _odd(k, "shells requires odd k >= 1")
    lo = rho.delta if rho.delta is not None else 0.0
    if not _certify_monotone(rho, lo):
        _check_monotone(rho, lo)
    area = math.pi * amb.R**2
    L = shell_count(amb, rho, k)
    if L > 0:
        deepest = -(L / k) * area
        fa = rho.drho(lo) - deepest
        if fa == 0.0:
            raise NonMonotoneProfile(
                "rho' meets the level on its flat plateau; shell is not isolated")
        if fa > 0.0:
            raise NonMonotoneProfile("cannot bracket rho' level %g" % deepest)
    out, two_n, read = [], 2 * amb.n, rho._scalar
    for l in range(1, L + 1 if lmax is None else min(L, lmax) + 1):
        m = rho.drho_level(-(l / k) * area, lo)
        value = l * m * area + k * read(m, 0, 0)[0]
        out.append(ShellDatum(l, m, value, two_n * l, "sphereShell",
                              math.gcd(l, k) == 1, two_n - 1))
    out.append(ShellDatum(0, 0.0, k * rho.rho(0.0), two_n * (L + 1),
                          "isolated", False, 0))
    if not all(math.isfinite(s.value) for s in out):
        raise DomainError("a shell or origin value is not finite")
    return out


# ---------------------------------------------------------------------------
# contact layer
# ---------------------------------------------------------------------------

@dataclass
class ContactPoint:
    """Point (z, theta) of R^{2n} x S^1; theta is kept as a real lift and
    never reduced mod 1."""

    base: np.ndarray
    theta: float

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)


class ContactLift:
    """Lift (z, theta) |-> (flow_1(z), theta - S(z)) of the time-1 truncated
    radial map.  Strict contactomorphism: conformal factor g == 0."""

    def __init__(self, amb, rho):
        self.amb = amb
        self.rho = rho
        self.base_map = RadialMap(amb, rho, 1.0)

    def __call__(self, p):
        theta = p.theta - self.base_map.S(p.base)
        return ContactPoint(self.base_map(p.base), theta)

    def conformal_factor(self, p):
        return 0.0


def reeb_translate(p, t):
    """Reeb flow: translation by t in theta."""
    return ContactPoint(p.base.copy(), p.theta + t)


@dataclass
class TranslatedChain:
    """Cyclic k-tuple of contact points with p_{j+1} = Reeb_t(lift(p_j));
    action = k t exactly."""

    points: list
    t: float
    action: float
    orbit_id: str
    l: int                  # the index of the chain's shell, 0 at the origin

    @property
    def k(self):
        return len(self.points)


def translated_chains(amb, rho, k):
    """One chain representative per component of the k-periodic point set of
    the time-1 map: each shell contributes a free S^1-family (representative
    starting at (R sqrt(m), 0, ..., 0)), the origin an isolated chain.

    For each chain, t = (1/k) sum_j S(z_j) and action = k t = sum_j S(z_j).
    EvenK (from `shells`) unless k is an odd integer >= 1."""
    phi = RadialMap(amb, rho, 1.0)
    out = []
    for sh in shells(amb, rho, k):
        z = np.zeros(amb.dim)
        if sh.kind == "sphereShell":
            z[0] = amb.R * math.sqrt(sh.m)
            orbit_id = "shell-l%d" % sh.l
        else:
            orbit_id = "origin"
        pts_base = [z]
        svals = [phi.S(z)]
        for _ in range(k - 1):
            z = phi(z)
            pts_base.append(z)
            svals.append(phi.S(z))
        t = sum(svals) / k
        points = [ContactPoint(pts_base[0], 0.0)]
        for j in range(k - 1):
            theta = points[-1].theta + t - svals[j]
            points.append(ContactPoint(pts_base[j + 1], theta))
        out.append(TranslatedChain(points=points, t=t, action=t * k,
                                   orbit_id=orbit_id, l=sh.l))
    return out


# Absolute gate of each translated-chain condition in `verify_chain`.
CHAIN_TOL = 1e-9


def verify_chain(contact_map, chain):
    """Check the translated-chain conditions for `contact_map`, each to
    CHAIN_TOL:

    * the conformal factors along the chain sum to zero;
    * p_{j+1} = Reeb_t(contact_map(p_j)) cyclically (p_{k+1} = p_1);
    * action = k t (relative to max(1, |action|)).

    Returns False when a condition fails or its error is nan."""
    pts = chain.points
    k = len(pts)
    if not abs(sum(contact_map.conformal_factor(p) for p in pts)) <= CHAIN_TOL:
        return False
    for j in range(k):
        q = reeb_translate(contact_map(pts[j]), chain.t)
        nxt = pts[(j + 1) % k]
        if not (float(np.max(np.abs(q.base - nxt.base))) <= CHAIN_TOL
                and abs(q.theta - nxt.theta) <= CHAIN_TOL):
            return False
    return bool(abs(chain.action - chain.t * k)
                <= CHAIN_TOL * max(1.0, abs(chain.action)))

