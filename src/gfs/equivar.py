"""Exact homological algebra over the cyclic group ring Z_k[T]/(T^k - 1).

Critical manifolds of the cyclic compositions assemble into small filtered
chain complexes with group-ring coefficients: each sphere shell contributes a
lens-type block of 2n generators whose differentials alternate between
multiplication by T - 1 and by the norm element N = 1 + T + ... + T^{k-1},
consecutive blocks are connected by N, and the origin contributes one
isolated generator.

Every reading needs the integer 1 or an odd prime k (`is_odd_prime`), the
one rule of `_field`.  For k prime, T^k - 1 = (T - 1)^k mod k, so the ring
is F_k[x]/(x^k) with x = T - 1, and N = x^{k-1} since C(k-1, i) = (-1)^i
mod k.  Each entry x^v is stored as its valuation v in [0, k).  The plain
sentinel k = 1 is F_2 with T = 1, where the only nonzero entry is x^0 = N = 1.

Homology is read in two modes, the one rule of `_block`.  "plain" forgets
the module structure: each generator is a block of k field generators, on
which x^v has rank k - v; "equivariant" computes homology of the
coinvariant quotient, one field generator per generator, with x^v sent to
its augmentation [v == 0].  For the free strata handled here the
coinvariant complex computes equivariant homology, which is why a ball's
action window stops below its first non-free shell (l a multiple of k).

Each generator has at most one entry in and one out, so the boundary matrix
is already reduced and `barcode` reads its pairs off the entries in closed
form; `matrix`, `rank_mod_p` and `homology_ranks` keep the dense expansion
over F_p as an oracle.  Degrees are stored in the normalized convention:
the raw Morse index minus the composition bookkeeping shift k*iota + n(k-1).
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPrimeK
from .sympl import _integer, shell_count, shells

# The most generators of one ball complex, and bars of one limit barcode.
MAX_BALL_GENERATORS = 10 ** 5


def is_prime(k):
    """Trial-division primality; ample for the desk-scale k in play."""
    if k < 2:
        return False
    if k < 4:
        return True
    if k % 2 == 0:
        return False
    d = 3
    while d * d <= k:
        if k % d == 0:
            return False
        d += 2
    return True


def _number(x):
    """x as a float when it is a finite JSON number; None for a bool, a
    string or any other x (an int too large for a float raises
    OverflowError)."""
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    return float(x) if number and math.isfinite(x) else None


def is_odd_prime(k):
    """The one odd-prime rule, of the readings and the certificates alike."""
    k = _integer(k)
    return k is not None and k % 2 == 1 and is_prime(k)


def _field(k):
    """The prime p of the homology field F_p: k, or 2 for the sentinel 1;
    NonPrimeK unless k is the integer 1 or an odd prime (3.0 is neither)."""
    if _integer(k) != 1 and not is_odd_prime(k):
        raise NonPrimeK("k must be 1 or an odd prime, got %r" % (k,))
    return 2 if k == 1 else k


def _block(k, mode):
    """Field generators per group-ring generator in the reading `mode`: k
    for "plain", 1 for "equivariant"; DomainError for any other mode."""
    if mode in ("plain", "equivariant"):
        return k if mode == "plain" else 1
    raise DomainError("mode must be 'plain' or 'equivariant', got %r"
                      % (mode,))


def rank_mod_p(M, p):
    """Rank of an integer matrix over F_p by exact Gaussian elimination."""
    M = np.asarray(M, dtype=np.int64)
    if M.size == 0:
        return 0
    A = M % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        r += 1
        if r == rows:
            break
    return r


@dataclass
class Generator:
    """One group-ring generator of the complex."""
    degree: int
    value: float = 0.0
    label: str = ""


class GroupRingComplex:
    """Chain complex of free Z_k[T]/(T^k-1) modules, filtered by value.

    Differentials are stored as the valuation v of the entry x^v, x = T - 1,
    indexed by (target, source) generator positions; d(target.degree) =
    source.degree - 1 always, and a generator is the source of at most one
    entry and the target of at most one.  Homology is over F_field.
    """

    def __init__(self, k, generators):
        self.k, self.field = k, _field(k)
        self.generators = list(generators)
        self.diff = {}  # (target_index, source_index) -> valuation v
        self._out, self._targets = {}, set()  # source -> (target, v)
        self._of_degree, self._blocks = {}, {}
        for i, g in enumerate(self.generators):
            self._of_degree.setdefault(g.degree, []).append(i)
        self.meta = {}

    def add_diff(self, target, source, v):
        """Store the entry x^v from source to target.  DomainError unless v
        is an int in [0, k), the degree drops by one, the value does not
        rise, and neither end has an entry on that side yet."""
        if not (type(v) is int and 0 <= v < self.k):
            raise DomainError("entry must be a valuation v in [0, %d), got %r"
                              % (self.k, v))
        gt, gs = self.generators[target], self.generators[source]
        if gt.degree != gs.degree - 1:
            raise DomainError("differential must drop degree by one")
        if not gt.value <= gs.value + 1e-12:
            raise DomainError("differential must not increase value")
        if source in self._out or target in self._targets:
            raise DomainError("a generator takes one entry in and one out")
        self._out[source] = target, v
        self._targets.add(target)
        self.diff[target, source] = v

    def indices_of_degree(self, d, alive=None):
        return [i for i in self._of_degree.get(d, ())
                if alive is None or alive[i]]

    def degrees(self):
        ds = self._of_degree
        return list(range(min(ds), max(ds) + 1)) if ds else []

    def check_d2(self):
        """d o d = 0: x^a x^b = x^(a+b) vanishes iff a + b >= k, so each path
        u -> s -> t needs v(u -> s) + v(s -> t) >= k.  Returns the (t, u) of
        every path that fails."""
        out = self._out
        return [(out[s][0], u) for (s, u), v in self.diff.items()
                if s in out and v + out[s][1] < self.k]

    def matrix(self, d, mode, alive=None):
        """Dense F_p matrix of d_d : C_d -> C_{d-1} restricted to alive
        generators.  Plain: the k x k block of x^v on the basis T^i, the
        circulant of the row C(v, j)(-1)^(v-j); equivariant: the
        augmentation, 1 if v = 0 and 0 otherwise."""
        rows = self.indices_of_degree(d - 1, alive)
        cols = self.indices_of_degree(d, alive)
        b = _block(self.k, mode)
        M = np.zeros((b * len(rows), b * len(cols)), dtype=np.int64)
        pos_r, i = {g: j * b for j, g in enumerate(rows)}, np.arange(b)
        for c, s in enumerate(cols):
            t, v = self._out.get(s, (None, None))
            if t not in pos_r:
                continue
            if (v, mode) not in self._blocks:       # once per complex
                row = [math.comb(v, j) * (-1) ** (v - j) % self.field
                       for j in range(b)] if mode == "plain" else [v == 0]
                self._blocks[v, mode] = np.asarray(row)[(i[:, None] - i) % b]
            M[pos_r[t]:pos_r[t] + b, c * b:(c + 1) * b] = self._blocks[v, mode]
        return M

    def homology_ranks(self, mode, alive=None):
        """F_p-dimension of H_d of the (restricted) complex, per degree."""
        block = _block(self.k, mode)
        out = {}
        for d in self.degrees():
            dim = block * len(self.indices_of_degree(d, alive))
            r_in = rank_mod_p(self.matrix(d, mode, alive), self.field)
            r_out = rank_mod_p(self.matrix(d + 1, mode, alive), self.field)
            out[d] = dim - r_in - r_out
        return out


def _lens_steps(k, n):
    """The (i, v) entries of a 2n-generator lens block, generator i - 1 <-
    generator i: v alternates 1 (T - 1, i odd) and k - 1 (N, i even); v >= k
    is zero and dropped (T - 1 when k = 1)."""
    return [(i, v) for i, v in enumerate([1, k - 1] * n, 1)
            if i < 2 * n and v < k]


def lens_complex(n, k):
    """2n-term complex computing the sphere S^{2n-1} with its free cyclic
    action: generators in degrees 0..2n-1, differentials alternating T-1
    (odd -> even) and N (even -> odd).

    Plain homology is H(S^{2n-1}; F_k) (ranks 1, 0, ..., 0, 1); coinvariant
    homology is F_k in every degree (the lens space); n = 1 is the circle.
    """
    if n < 1:
        raise DomainError("lens_complex needs n >= 1")
    gens = [Generator(d, 0.0, "e%d" % d) for d in range(2 * n)]
    cx = GroupRingComplex(k, gens)
    for i, v in _lens_steps(k, n):
        cx.add_diff(i - 1, i, v)
    return cx


def ball_complex(amb, rho, k):
    """Filtered Morse-Bott complex of the k-fold composition over a ball.

    One lens block per sphere shell l (2n generators in degrees
    2nl..2nl+2n-1, all at the shell value c_l), one isolated generator for
    the origin (value k*rho(0), degree 2n(L+1), no differentials), and a
    connecting differential N from each shell-l bottom generator to the
    shell-(l-1) top generator.  Degrees are already normalized: stored
    degree = raw Morse index - (k*iota + n(k-1)).

    Only generators with value in the derived action window (0, hi) are
    kept.  The coinvariant computation is only valid on free strata, so for
    k > 1, hi is the smallest value of a stratum that is not free (a shell
    with l = 0 mod k, or the origin); for the plain sentinel k = 1,
    hi = inf.  For k > 1 `shells` bisects only l <= k, which is exact:
    shell l sits where rho'(m_l) = -(l/k) A (A = pi R^2), so its value
    c_l = l m_l A + k rho(m_l) has dc_l/dl = m_l A > 0 (the rho' terms
    cancel), and every shell l > k lies above c_k >= hi.  DomainError, before
    any bisection, when 2n generators per shell to bisect plus the origin
    exceed MAX_BALL_GENERATORS.  `cx.meta` holds the window, the kept
    (l, c_l) and the kept origin value (or None).
    """
    _field(k)           # refuse a bad k before bisecting any shell
    n = amb.n
    lmax = k if k > 1 else None
    count = min(shell_count(amb, rho, k), lmax or math.inf)
    size = 2 * n * count + 1
    if size > MAX_BALL_GENERATORS:
        raise DomainError("the ball needs %d generators (2n = %d for each of "
                          "%d shells, plus the origin), above the bound %d"
                          % (size, 2 * n, count, MAX_BALL_GENERATORS))
    *shell_data, origin = shells(amb, rho, k, lmax=lmax)
    hi = (min(s.value for s in [*shell_data, origin] if not s.free_orbit)
          if k > 1 else math.inf)

    kept = [s for s in shell_data if 0.0 < s.value < hi]
    gens = []
    block_of = {}
    for s in kept:
        block_of[s.l] = len(gens)
        for i in range(2 * n):
            gens.append(Generator(s.index + i, s.value, "l%d-%d" % (s.l, i)))
    keep_origin = 0.0 < origin.value < hi
    if keep_origin:
        gens.append(Generator(origin.index, origin.value, "origin"))

    cx = GroupRingComplex(k, gens)
    steps = _lens_steps(k, n)
    for s in kept:
        base = block_of[s.l]
        for i, v in steps:
            cx.add_diff(base + i - 1, base + i, v)
        if s.l - 1 in block_of:
            cx.add_diff(block_of[s.l - 1] + 2 * n - 1, base, k - 1)

    cx.meta = {
        "window": (0.0, hi),
        "shells": [(s.l, s.value) for s in kept],
        "origin_value": origin.value if keep_origin else None,
    }
    return cx


def _json_number(x):
    """x as `json` writes it: float.__repr__ for a finite float."""
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


@dataclass
class Bar:
    """One barcode bar: rank `rank` on the half-open interval
    [birth, death) in the given degree."""
    degree: int
    birth: float
    death: float
    rank: int


class Barcode:
    """Per-degree interval decomposition of the relative-homology rank as a
    function of the action threshold a (right-continuous in a)."""

    def __init__(self, bars, field_order):
        self.bars = sorted(bars, key=lambda b: (b.degree, b.birth))
        self.field = int(field_order)

    def __len__(self):
        return len(self.bars)

    def degrees(self):
        return sorted({b.degree for b in self.bars})

    def rank_at(self, degree, a):
        return sum(b.rank for b in self.bars
                   if b.degree == degree and b.birth <= a < b.death)

    def endpoints(self, degree):
        """Sorted births and finite deaths of the degree's bars."""
        pts = set()
        for b in self.bars:
            if b.degree == degree:
                pts.add(b.birth)
                if math.isfinite(b.death):
                    pts.add(b.death)
        return sorted(pts)

    def to_json(self):
        """{schema, field, bars} as `json.dumps(obj, indent=2)` writes it,
        plus a newline; an infinite death is null."""
        bars = ",\n".join(
            '    {\n      "degree": %d,\n      "birth": %s,\n'
            '      "death": %s,\n      "rank": %d\n    }'
            % (b.degree, _json_number(b.birth),
               "null" if math.isinf(b.death) else _json_number(b.death),
               b.rank)
            for b in self.bars)
        return ('{\n  "schema": "gfs/1",\n  "field": %d,\n  "bars": %s\n}\n'
                % (self.field, "[\n%s\n  ]" % bars if bars else "[]"))

    @classmethod
    def from_json(cls, text):
        """Barcode from its JSON text.  DomainError unless it is a gfs/1
        object of integer prime field whose bars each have an integer
        degree, a finite birth before the death (null for infinite) and an
        integer rank >= 1, integers by `_integer` (1.5 and true are not),
        birth and death by `_number` ("0.5", Infinity and 1e400 are not)."""
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise DomainError("invalid barcode: not JSON (%s)" % exc)
        schema = obj.get("schema") if isinstance(obj, dict) else None
        if schema != "gfs/1":
            raise DomainError("unrecognized barcode schema %r" % (schema,))
        try:
            bars = [Bar(_integer(b["degree"]), _number(b["birth"]),
                        math.inf if b["death"] is None else _number(b["death"]),
                        _integer(b["rank"]))
                    for b in obj["bars"]]
            field = _integer(obj["field"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError("invalid barcode: %s: %s"
                              % (type(exc).__name__, exc))
        if field is None or not is_prime(field):
            raise DomainError("invalid barcode: field %r is not prime"
                              % (obj["field"],))
        for b in bars:
            if not (None not in (b.degree, b.birth, b.death, b.rank)
                    and b.birth < b.death and b.rank >= 1):
                raise DomainError("invalid barcode: bar %r needs an integer "
                                  "degree, a finite birth before its death, "
                                  "both JSON numbers (death null for "
                                  "infinite), and an integer rank >= 1"
                                  % (b,))
        return cls(bars, field)

    def to_tsv(self):
        """Step-plot data (columns a, degree, rank): for every breakpoint of
        every degree, the right-continuous rank just after it.

        The breakpoints of a degree are its births and finite deaths, with
        0.0 put first when none is <= 0.  One dict per degree, filled in bar
        order (so it keeps the zero `endpoints` keeps), maps each to its net
        rank change, summed in one sweep of the sorted keys: a bar adds its
        rank at its birth and takes it off at its death if birth < death."""
        lines = ["a\tdegree\trank"]
        for d, group in itertools.groupby(self.bars, lambda b: b.degree):
            steps = {}      # breakpoint -> net change of the rank there
            for b in group:
                r = b.rank if b.birth < b.death else 0
                steps[b.birth] = steps.get(b.birth, 0) + r
                if math.isfinite(b.death):
                    steps[b.death] = steps.get(b.death, 0) - r
            pts, rank = sorted(steps), 0
            if pts[0] > 0.0:
                lines.append("0\t%d\t0" % d)
            for a in pts:
                rank += steps[a]
                lines.append("%.12g\t%d\t%d" % (a, d, rank))
        return "\n".join(lines) + "\n"


def barcode(cx, mode):
    """Barcode of the filtered complex, read off its entries in closed form.

    With block size b = k (plain) or 1 (equivariant), an entry x^v from s to
    t pairs max(b - v, 0) basis vectors x^i of s with as many of t, as x^v
    sends x^i to x^(i+v).  Each generator has at most one entry in and one
    out, so the boundary matrix is already reduced and these are the
    persistence pairs; the rest of each block, b - r_in - r_out, is unpaired.

    C_{<=a} is a subcomplex, so H_d(C / C_{<=a}) has rank #{unpaired
    degree-d vectors of value > a} + #{pairs (s, t), deg s = d: c_t <= a <
    c_s}, read at 0 and at each positive value.  Each pair's [c_t, c_s) and
    each unpaired vector's [0, c) is two rank steps on those sorted points;
    one sweep over the stepped points gives the runs of constant rank, which
    are the bars.  DomainError unless d o d = 0."""
    b = _block(cx.k, mode)
    bad = cx.check_d2()
    if bad:
        raise DomainError("d o d != 0 on the paths (t, u) %r" % (bad,))
    gens = cx.generators
    points = [0.0] + sorted({g.value for g in gens if g.value > 0.0})
    at = [bisect_left(points, g.value) for g in gens]
    free = [b] * len(gens)
    runs = []       # (degree, first point index, end point index, rank)
    for (t, s), v in cx.diff.items():
        r = max(b - v, 0)
        free[t], free[s] = free[t] - r, free[s] - r
        runs.append((gens[s].degree, at[t], at[s], r))
    runs += [(g.degree, 0, q, r) for g, q, r in zip(gens, at, free)]
    steps = {}      # (degree, point index) -> net change of the rank there
    for d, lo, hi, r in runs:
        if r and lo < hi:
            steps[d, lo] = steps.get((d, lo), 0) + r
            steps[d, hi] = steps.get((d, hi), 0) - r
    bars, rank = [], 0      # each degree's steps sum to 0: no bar spans two
    for d, q in sorted(steps):
        if steps[d, q]:
            if rank > 0:
                bars.append(Bar(d, start, points[q], rank))
            rank, start = rank + steps[d, q], points[q]
    return Barcode(bars, cx.field)


def limit_barcode(amb, k, mode, lmax=4):
    """Idealized steep-profile limit barcode for the ball of area pi R^2;
    see limit_barcode_at_area."""
    return limit_barcode_at_area(amb.n, math.pi * amb.R * amb.R, k, mode,
                                 lmax)


def limit_barcode_at_area(n, A, k, mode, lmax=4):
    """Idealized steep-profile limit barcode for the ball of area A in
    dimension 2n.

    As the profile steepens, every shell value c_l climbs to l*A.  In the
    equivariant (coinvariant) reading the surviving groups sit in the shell
    degrees 2nl for 0 < l < k, each alive on (0, l*A); in the plain reading
    the connecting norm maps collapse each pair of adjacent shells, leaving
    the degree-2nl group alive exactly on [(l-1)*A, l*A).  The sentinel
    k = 1 has no equivariant limit (NonPrimeK).  DomainError, before any bar
    is built, above MAX_BALL_GENERATORS bars (lmax plain, k - 1 equivariant).
    """
    field, _ = _field(k), _block(k, mode)
    if _integer(lmax) is None:
        raise DomainError("lmax must be an integer, got %r" % (lmax,))
    top = lmax if mode == "plain" else k - 1
    if top > MAX_BALL_GENERATORS:
        raise DomainError("the limit barcode needs %d bars, above the bound "
                          "%d" % (top, MAX_BALL_GENERATORS))
    return Barcode(_limit_bars(n, A, k, mode, range(1, top + 1)), field)


def _limit_bars(n, A, k, mode, ls):
    """The bars of `limit_barcode_at_area` in the shell degrees 2nl, l in
    ls: [(l-1)*A, l*A) plain, [0, l*A) equivariant where l is in
    range(1, k).  Refuses what the barcode refuses, once per call."""
    _field(k)
    _block(k, mode)                 # refuse a bad mode
    if mode == "plain":
        return [Bar(2 * n * l, (l - 1) * A, l * A, 1) for l in ls]
    if k == 1:
        raise NonPrimeK("the equivariant limit barcode needs k an odd prime, "
                        "got 1")
    alive = range(1, k)
    return [Bar(2 * n * l, 0.0, l * A, 1) for l in ls if l in alive]


def thom_shift(bc, q_index, k):
    """Stabilization by an index-q_index fibre quadratic form on each of the
    k factors: shifts every bar degree by k*q_index, nothing else."""
    bars = [Bar(b.degree + k * int(q_index), b.birth, b.death, b.rank)
            for b in bc.bars]
    return Barcode(bars, bc.field)


def tensor_circle(bc):
    """Prequantization Kunneth: every bar is duplicated one degree up."""
    bars = []
    for b in bc.bars:
        bars.append(Bar(b.degree, b.birth, b.death, b.rank))
        bars.append(Bar(b.degree + 1, b.birth, b.death, b.rank))
    return Barcode(bars, bc.field)

