"""Exact homological algebra over the cyclic group ring Z_k[T]/(T^k - 1).

Critical manifolds of the cyclic compositions assemble into small filtered
chain complexes with group-ring coefficients: each sphere shell contributes a
lens-type block of 2n generators whose differentials alternate between
multiplication by T - 1 and by the norm element N = 1 + T + ... + T^{k-1},
consecutive blocks are connected by N, and the origin contributes one
isolated generator.  Everything here is exact integer arithmetic mod k
(mod 2 for the plain sentinel k = 1); ranks come from Gaussian elimination
over the prime field, never from floating point.

Homology is read in two modes.  "plain" forgets the module structure and
expands each ring entry into a k x k circulant over F_k; "equivariant"
computes homology of the coinvariant quotient, sending each ring generator to
a single field generator and each entry p(T) to p(1) mod k.  For the free
strata handled here the coinvariant complex computes equivariant homology,
which is why a ball's action window stops below its first non-free shell
(l a multiple of k).

Barcodes come from one persistence reduction per degree, whose pairs give
the maximal intervals of constant nonzero rank, in the threshold a, of the
homology of the generators with value > a.  Degrees are stored in the
normalized convention: the raw Morse index minus the composition
bookkeeping shift k*iota + n(k-1).
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPrimeK, ThresholdOnSpectrum
from .sympl import shells


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


class GroupRing:
    """Z_k[T]/(T^k - 1) with exact coefficient arithmetic mod k.

    An element is the immutable tuple of its k integer coefficients, each in
    [0, mod).  The sentinel k = 1 is the plain mode: length-1 coefficient
    tuples over F_2, under which T and N both become 1 and T - 1 becomes 0,
    so the same complex constructions specialize to ordinary F_2 chain
    complexes.  The constants zero, one, T, T_minus_1 and N are built once.
    """

    def __init__(self, k):
        if k != 1 and not is_prime(k):
            raise NonPrimeK("group ring needs k prime (or the sentinel 1), "
                            "got %r" % (k,))
        self.k = k
        self.mod = 2 if k == 1 else k
        self.zero, self.one, self.T, self.T_minus_1, self.N = (
            self.elem(c) for c in ([0], [1], [0, 1], [-1, 1], [1] * k))

    def elem(self, coeffs):
        """Ring element of a coefficient sequence: T^i -> T^(i mod k), then
        every coefficient mod `mod`."""
        c = [0] * self.k
        for i, x in enumerate(coeffs):
            c[i % self.k] += x
        return tuple(int(x) % self.mod for x in c)

    def add(self, a, b):
        return tuple((x + y) % self.mod for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.mod for x, y in zip(a, b))

    def mul(self, a, b):
        return self.elem(np.convolve(a, b).tolist())

    def is_zero(self, a):
        return not any(x % self.mod for x in a)

    def circulant(self, a):
        """k x k matrix of multiplication by the ring element a (as made by
        `elem`) on the regular representation: C[i, j] = a[(i - j) mod k]."""
        i = np.arange(self.k)
        return np.asarray(a)[(i[:, None] - i) % self.k]

    def aug(self, a):
        """Augmentation p(T) -> p(1) mod k: the coinvariant image."""
        return sum(a) % self.mod


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

    Differentials are stored as ring elements indexed by (target, source)
    generator positions; d(target.degree) = source.degree - 1 always.  All
    checks (d o d = 0, filtration compatibility) are exact.
    """

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = list(generators)
        self.diff = {}  # (target_index, source_index) -> ring elem
        self.meta = {}

    def add_diff(self, target, source, elem):
        gt, gs = self.generators[target], self.generators[source]
        if gt.degree != gs.degree - 1:
            raise DomainError("differential must drop degree by one")
        if not self._filtered(target, source):
            raise DomainError("differential must not increase value")
        elem = self.ring.elem(elem)
        if not self.ring.is_zero(elem):
            self.diff[(target, source)] = elem

    def indices_of_degree(self, d, alive=None):
        return [i for i, g in enumerate(self.generators)
                if g.degree == d and (alive is None or alive[i])]

    def degrees(self):
        if not self.generators:
            return []
        lo = min(g.degree for g in self.generators)
        hi = max(g.degree for g in self.generators)
        return list(range(lo, hi + 1))

    def _filtered(self, target, source):
        """An entry from source to target does not raise the value."""
        return (self.generators[target].value
                <= self.generators[source].value + 1e-12)

    def check_d2(self):
        """d o d = 0 in exact ring arithmetic; returns the violations."""
        ring = self.ring
        by_source = {}
        for (t, s), e in self.diff.items():
            by_source.setdefault(s, []).append((t, e))
        totals = {}
        for (mid, s), e1 in self.diff.items():
            for t, e2 in by_source.get(mid, []):
                totals[t, s] = ring.add(totals.get((t, s), ring.zero),
                                        ring.mul(e2, e1))
        return [key for key, tot in totals.items() if not ring.is_zero(tot)]

    def check_filtration(self):
        """Differential entries must not increase the critical value."""
        return [key for key in self.diff if not self._filtered(*key)]

    def matrix(self, d, mode, alive=None):
        """Expanded F_p matrix of d_d : C_d -> C_{d-1} restricted to alive
        generators; block size k in plain mode, 1 in equivariant mode."""
        ring = self.ring
        rows = self.indices_of_degree(d - 1, alive)
        cols = self.indices_of_degree(d, alive)
        block = ring.k if mode == "plain" else 1
        M = np.zeros((block * len(rows), block * len(cols)), dtype=np.int64)
        pos_r = {g: i for i, g in enumerate(rows)}
        pos_c = {g: i for i, g in enumerate(cols)}
        for (t, s), e in self.diff.items():
            if t in pos_r and s in pos_c:
                i, j = pos_r[t], pos_c[s]
                if mode == "plain":
                    M[i * block:(i + 1) * block,
                      j * block:(j + 1) * block] = ring.circulant(e)
                else:
                    M[i, j] = ring.aug(e)
        return M

    def homology_ranks(self, mode, alive=None):
        """F_p-dimension of H_d of the (restricted) complex, per degree."""
        if mode not in ("plain", "equivariant"):
            raise DomainError("mode must be 'plain' or 'equivariant'")
        p = self.ring.mod
        block = self.ring.k if mode == "plain" else 1
        out = {}
        for d in self.degrees():
            dim = block * len(self.indices_of_degree(d, alive))
            if dim == 0:
                out[d] = 0
                continue
            r_in = rank_mod_p(self.matrix(d, mode, alive), p)
            r_out = rank_mod_p(self.matrix(d + 1, mode, alive), p)
            out[d] = dim - r_in - r_out
        return out


def _lens_steps(ring, n):
    """The (i, e) entries of a 2n-generator lens block, generator i - 1 <-
    generator i: e alternates T - 1 (i odd) and N (i even); zero entries are
    dropped (T - 1 = 0 when k = 1)."""
    return [(i, e) for i, e in enumerate([ring.T_minus_1, ring.N] * n, 1)
            if i < 2 * n and not ring.is_zero(e)]


def lens_complex(n, k):
    """2n-term complex computing the sphere S^{2n-1} with its free cyclic
    action: generators in degrees 0..2n-1, differentials alternating T-1
    (odd -> even) and N (even -> odd).

    Plain homology is H(S^{2n-1}; F_k) (ranks 1, 0, ..., 0, 1); coinvariant
    homology is F_k in every degree (the lens space); n = 1 is the circle.
    """
    if n < 1:
        raise DomainError("lens_complex needs n >= 1")
    ring = GroupRing(k)
    gens = [Generator(d, 0.0, "e%d" % d) for d in range(2 * n)]
    cx = GroupRingComplex(ring, gens)
    for i, e in _lens_steps(ring, n):
        cx.add_diff(i - 1, i, e)
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
    cancel), and every shell l > k lies above c_k >= hi.  `cx.meta` holds
    the window, the kept (l, c_l) and the kept origin value (or None).
    """
    ring = GroupRing(k)
    *shell_data, origin = shells(amb, rho, k, lmax=k if k > 1 else None)
    n = amb.n
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

    cx = GroupRingComplex(ring, gens)
    steps = _lens_steps(ring, n)
    for s in kept:
        base = block_of[s.l]
        for i, e in steps:
            cx.add_diff(base + i - 1, base + i, e)
        if s.l - 1 in block_of:
            top_prev = block_of[s.l - 1] + 2 * n - 1
            cx.add_diff(top_prev, base, ring.N)

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


def _breakpoints(bars):
    """Sorted births and finite deaths of the bars."""
    pts = set()
    for b in bars:
        pts.add(b.birth)
        if math.isfinite(b.death):
            pts.add(b.death)
    return sorted(pts)


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

    def endpoints(self, degree=None):
        return _breakpoints(b for b in self.bars
                            if degree is None or b.degree == degree)

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
        object whose bars each have an integer degree, a finite birth before
        the death (null for infinite) and an integer rank >= 1."""
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise DomainError("invalid barcode: not JSON (%s)" % exc)
        schema = obj.get("schema") if isinstance(obj, dict) else None
        if schema != "gfs/1":
            raise DomainError("unrecognized barcode schema %r" % (schema,))
        try:
            bars = [Bar(int(b["degree"]), float(b["birth"]),
                        math.inf if b["death"] is None else float(b["death"]),
                        int(b["rank"]))
                    for b in obj["bars"]]
            field = int(obj["field"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError("invalid barcode: %s: %s"
                              % (type(exc).__name__, exc))
        for b in bars:
            if not (math.isfinite(b.birth) and b.birth < b.death
                    and b.rank >= 1):
                raise DomainError("invalid barcode: bar %r needs a finite "
                                  "birth before its death and rank >= 1"
                                  % (b,))
        return cls(bars, field)

    def to_tsv(self):
        """Step-plot data (columns a, degree, rank): for every breakpoint of
        every degree, the right-continuous rank just after it.

        The breakpoints of a degree are its births and finite deaths, with
        0.0 put first when none is <= 0.  One sweep per degree keeps a
        running rank: a bar adds its rank at its birth and takes it off at
        its death.  A bar with birth >= death adds its endpoints but never
        its rank, as in `rank_at`."""
        lines = ["a\tdegree\trank"]
        for d, group in itertools.groupby(self.bars, lambda b: b.degree):
            group = list(group)
            pts = _breakpoints(group)
            if pts[0] > 0.0:
                pts = [0.0] + pts
            live = [b for b in group if b.birth < b.death]
            births = [(b.birth, b.rank) for b in live]      # sorted already
            deaths = sorted((b.death, b.rank) for b in live)
            rank = i = j = 0
            for a in pts:
                while i < len(births) and births[i][0] <= a:
                    rank, i = rank + births[i][1], i + 1
                while j < len(deaths) and deaths[j][0] <= a:
                    rank, j = rank - deaths[j][1], j + 1
                lines.append("%.12g\t%d\t%d" % (a, d, rank))
        return "\n".join(lines) + "\n"


def barcode(cx, mode):
    """Barcode of the filtered complex from one persistence reduction.

    Generators expand into k columns (plain: the nonzero entries of each ring
    entry's k x k circulant) or one column (equivariant: its augmentation).
    Per degree d, the columns of d_d are sparse {row: coefficient mod p}
    dicts, rows and columns ordered by value, reduced left to right over
    F_p against the column that owns each low row; column operations never
    mix degrees, so its (low row s, column t) pivots are the pairs of the
    global reduction.  C_{<=a} is a subcomplex, so H_d(C / C_{<=a}) has rank
    #{unpaired degree-d t: v_t > a} + #{pairs (s, t), deg t = d: v_s <= a <
    v_t}, read at 0 and at each positive value.  Each column's interval
    [born, v_t) is two rank steps on those sorted points; one sweep over the
    stepped points gives the runs of constant rank, which are the bars."""
    if mode not in ("plain", "equivariant"):
        raise DomainError("mode must be 'plain' or 'equivariant'")
    ring, gens, degrees, p = cx.ring, cx.generators, cx.degrees(), cx.ring.mod
    block = ring.k if mode == "plain" else 1
    order = {e: [] for d in degrees for e in (d - 1, d)}
    for i in sorted(range(len(gens)), key=lambda i: gens[i].value):
        order[gens[i].degree].append(i)
    pos = {i: q * block for idx in order.values() for q, i in enumerate(idx)}
    value = {d: [gens[i].value for i in idx for _ in range(block)]
             for d, idx in order.items()}
    cols = {d: [{} for _ in value[d]] for d in degrees}
    for (t, s), e in cx.diff.items():
        into, r, c = cols[gens[s].degree], pos[t], pos[s]
        coeffs = e if mode == "plain" else [ring.aug(e)]
        for m, x in enumerate(coeffs):          # circulant: C[i, j] = e[i - j]
            if x:
                for j in range(block):
                    into[c + j][r + (m + j) % block] = x
    # column t adds one on [born, v_t); born = inf once t is a pivot row
    born = {d: [-math.inf] * len(v) for d, v in value.items()}
    for d in degrees:
        owner = {}          # low row -> (reduced column, 1 / its low entry)
        for j, col in enumerate(cols[d]):
            while col:
                low = max(col)
                if low not in owner:
                    owner[low] = col, pow(col[low], -1, p)
                    born[d][j], born[d - 1][low] = value[d - 1][low], math.inf
                    break
                piv, inv = owner[low]
                f = col[low] * inv % p
                for r, x in piv.items():
                    y = (col.get(r, 0) - f * x) % p
                    if y:
                        col[r] = y
                    else:
                        del col[r]
    points = [0.0] + sorted({g.value for g in gens if g.value > 0.0})
    bars = []
    for d in degrees:
        steps = {}          # point index -> net change of the rank there
        for b, v in zip(born[d], value[d]):
            lo, hi = bisect_left(points, b), bisect_left(points, v)
            if lo < hi:
                steps[lo] = steps.get(lo, 0) + 1
                steps[hi] = steps.get(hi, 0) - 1
        run_rank, run_start = 0, 0.0
        for q in sorted(steps):
            if steps[q]:
                if run_rank > 0:
                    bars.append(Bar(d, run_start, points[q], run_rank))
                run_rank, run_start = run_rank + steps[q], points[q]
        if run_rank > 0:
            bars.append(Bar(d, run_start, math.inf, run_rank))
    return Barcode(bars, p)


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
    the degree-2nl group alive exactly on [(l-1)*A, l*A).
    """
    bars = []
    if mode == "equivariant":
        if k < 3 or not is_prime(k):
            raise NonPrimeK("equivariant limit barcode needs k an odd prime")
        for l in range(1, k):
            bars.append(Bar(2 * n * l, 0.0, l * A, 1))
        field_order = k
    elif mode == "plain":
        for l in range(1, lmax + 1):
            bars.append(Bar(2 * n * l, (l - 1) * A, l * A, 1))
        field_order = 2 if k == 1 else k
    else:
        raise DomainError("mode must be 'plain' or 'equivariant'")
    return Barcode(bars, field_order)


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


def inclusion_map(bc_large, bc_small, degree, a):
    """Rank of the persistence map induced by including the small ball into
    the large one, read at threshold a in the given degree.

    The monotone-family mechanism matches bars by interval: the map is onto
    whatever survives on both sides, so its rank is the minimum of the two
    live ranks.  The threshold must avoid all bar endpoints (the rank
    function jumps there).
    """
    if not a > 0:
        raise DomainError("inclusion_map needs a threshold a > 0")
    for bc in (bc_large, bc_small):
        for e in bc.endpoints():
            if abs(a - e) < 1e-12:
                raise ThresholdOnSpectrum(
                    "threshold a = %.12g sits on a bar endpoint" % a)
    return min(bc_large.rank_at(degree, a), bc_small.rank_at(degree, a))
