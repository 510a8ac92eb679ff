"""Exact group-ring algebra, filtered complexes, barcodes."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from gfs import (Ambient, Bar, Barcode, DomainError, Generator, GroupRing,
                 GroupRingComplex, NonPrimeK,
                 ThresholdOnSpectrum, ball_complex, barcode, inclusion_map, is_prime, lens_complex, limit_barcode,
                 rank_mod_p, ref_profile, shells, tensor_circle, thom_shift)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)


def test_group_ring_axioms():
    ring = GroupRing(5)
    T = ring.T
    acc = ring.one
    for _ in range(5):
        acc = ring.mul(acc, T)
    assert np.array_equal(acc, ring.one)          # T^5 = 1 exactly
    assert ring.is_zero(ring.mul(ring.N, ring.T_minus_1))
    assert ring.is_zero(ring.mul(ring.T_minus_1, ring.N))
    assert ring.aug(ring.N) == 0                  # k = 0 mod k
    assert ring.aug(ring.T_minus_1) == 0
    assert ring.aug(ring.one) == 1
    with pytest.raises(NonPrimeK):
        GroupRing(9)


def test_group_ring_builds_no_k_by_k_table():
    # Only the dense `circulant` oracle needs a k x k index; a large ring
    # holds its k-coefficient constants and nothing quadratic in k.
    tracemalloc.start()
    try:
        GroupRing(10007)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def _elem_oracle(k, mod, coeffs):
    """The coefficient-by-coefficient reduction, written out as a loop."""
    c = [0] * k
    for i, a in enumerate(coeffs):
        c[i % k] = (c[i % k] + int(a)) % mod
    return c


def _mul_oracle(k, mod, a, b):
    """The cyclic convolution, written out as a double loop."""
    c = [0] * k
    for i in range(k):
        for j in range(k):
            c[(i + j) % k] = (c[(i + j) % k] + a[i] * b[j]) % mod
    return c


@pytest.mark.parametrize("k", [1, 3, 5, 23])
def test_group_ring_vectorised_ops(k):
    ring = GroupRing(k)
    mod = ring.mod
    rng = np.random.default_rng(k)
    for _ in range(20):
        raw = rng.integers(-50, 50, rng.integers(1, 3 * k + 2))
        assert list(ring.elem(raw)) == _elem_oracle(k, mod, raw)
        a = ring.elem(rng.integers(0, mod, k))
        b = ring.elem(rng.integers(0, mod, k))
        assert np.array_equal(ring.circulant(a) @ b % mod, ring.mul(a, b))
        C = ring.circulant(a)
        assert all(C[i, j] == a[(i - j) % k]
                   for i in range(k) for j in range(k))
        for got, want in (
                (ring.add(a, b), [(a[i] + b[i]) % mod for i in range(k)]),
                (ring.sub(a, b), [(a[i] - b[i]) % mod for i in range(k)]),
                (ring.mul(a, b), _mul_oracle(k, mod, a, b))):
            assert type(got) is tuple and list(got) == want
            assert all(type(x) is int for x in got)
        assert ring.aug(a) == sum(a[i] for i in range(k)) % mod
        assert ring.is_zero(list(a)) == all(x == 0 for x in a)
        assert ring.is_zero([(x - y) * mod for x, y in zip(a, b)])
    # add_diff stores the normalised tuple of a raw list with negative
    # entries, entries >= mod and more than k entries; of a zero one, nothing
    for raw, stored in (([-1] * (k + 1) + [mod + 1], True),
                        ([mod, -mod] * (k + 1), False)):
        cx = GroupRingComplex(ring, [Generator(0, 0.0), Generator(1, 0.0)])
        cx.add_diff(0, 1, raw)
        want = tuple(_elem_oracle(k, mod, raw))
        assert cx.diff == ({(0, 1): want} if stored else {})
        assert all(type(x) is int for e in cx.diff.values() for x in e)


def test_sentinel_ring_collapses_the_action():
    ring = GroupRing(1)
    assert ring.mod == 2
    assert np.array_equal(ring.T, ring.one)
    assert ring.is_zero(ring.T_minus_1)
    assert np.array_equal(ring.N, ring.one)


@pytest.mark.parametrize("k", [1, 3, 5, 23])
def test_group_ring_constants_are_built_once_and_read_only(k):
    ring = GroupRing(k)
    assert np.array_equal(ring.T_minus_1, ring.elem([-1, 1]))
    assert np.array_equal(ring.N, ring.elem([1] * k))
    assert np.array_equal(ring.T, ring.elem([0, 1]))
    assert ring.N is ring.N
    for const in (ring.zero, ring.one, ring.T, ring.T_minus_1, ring.N):
        with pytest.raises(TypeError):
            const[0] = 1


def test_rank_mod_p_exact():
    ring = GroupRing(5)
    assert rank_mod_p(ring.circulant(ring.T_minus_1), 5) == 4
    assert rank_mod_p(ring.circulant(ring.N), 5) == 1
    # a matrix that is full rank over Q but drops rank mod 3
    M = np.array([[1, 2], [2, 1]])    # det = -3
    assert rank_mod_p(M, 3) == 1
    assert rank_mod_p(M, 5) == 2
    assert rank_mod_p(np.zeros((3, 4), dtype=np.int64), 7) == 0


def test_circle_complex_both_modes():
    for k in (3, 5, 7):
        cx = lens_complex(1, k)
        assert cx.check_d2() == []
        assert cx.homology_ranks("plain") == {0: 1, 1: 1}
        assert cx.homology_ranks("equivariant") == {0: 1, 1: 1}


def test_lens_complex_ranks():
    lens = lens_complex(2, 5)
    assert lens.check_d2() == []
    assert lens.homology_ranks("plain") == {0: 1, 1: 0, 2: 0, 3: 1}
    assert lens.homology_ranks("equivariant") == {0: 1, 1: 1, 2: 1, 3: 1}
    with pytest.raises(DomainError):
        lens_complex(0, 5)


def test_filtration_guard():
    ring = GroupRing(3)
    cx = GroupRingComplex(ring, [Generator(0, 2.0, "low"),
                                 Generator(1, 1.0, "high")])
    with pytest.raises(DomainError):
        cx.add_diff(0, 1, ring.T_minus_1)   # would increase the value
    cx2 = GroupRingComplex(ring, [Generator(0, 1.0), Generator(2, 2.0)])
    with pytest.raises(DomainError):
        cx2.add_diff(0, 1, ring.one)        # degree must drop by exactly 1


def test_ball_complex_structure(amb1, rho_ref):
    # For k = 3 the window is capped at the origin value, so only the two
    # shell blocks survive.  The k = 1 window has no cap, so it keeps the
    # isolated origin generator, which carries no differentials.
    cx = ball_complex(amb1, rho_ref, 3)
    assert cx.check_d2() == []
    assert cx.check_filtration() == []
    assert sorted(g.degree for g in cx.generators) == [2, 3, 4, 5]
    assert cx.meta["origin_value"] is None

    rho = ref_profile(-2.5 * math.pi, 0.1)
    wide = ball_complex(amb1, rho, 1)
    assert wide.meta["window"] == (0.0, math.inf)
    assert sorted(g.degree for g in wide.generators) == [2, 3, 4, 5, 6]
    assert wide.meta["origin_value"] == rho.rho(0.0)
    oi = [i for i, g in enumerate(wide.generators) if g.degree == 6][0]
    assert not any(t == oi or s == oi for (t, s) in wide.diff)
    assert wide.check_d2() == [] and wide.check_filtration() == []


def test_ball_barcode_equivariant(amb1, rho_ref, shells3):
    cx = ball_complex(amb1, rho_ref, 3)
    bc = barcode(cx, "equivariant")
    c1 = [s for s in shells3 if s.l == 1][0].value
    c2 = [s for s in shells3 if s.l == 2][0].value
    by_deg = {}
    for b in bc.bars:
        by_deg.setdefault(b.degree, []).append(b)
    # every shell block contributes coinvariant rank 1 on (0, c_l)
    for d in (2, 3):
        assert [(b.birth, b.death, b.rank) for b in by_deg[d]] == \
            [(0.0, pytest.approx(c1), 1)]
    for d in (4, 5):
        assert [(b.birth, b.death, b.rank) for b in by_deg[d]] == \
            [(0.0, pytest.approx(c2), 1)]


def test_ball_barcode_plain_interleaves(amb1, rho_ref, shells3):
    cx = ball_complex(amb1, rho_ref, 3)
    bc = barcode(cx, "plain")
    c1 = [s for s in shells3 if s.l == 1][0].value
    c2 = [s for s in shells3 if s.l == 2][0].value
    assert bc.rank_at(2, 0.5 * c1) == 1
    assert bc.rank_at(2, 0.5 * (c1 + c2)) == 0   # dies at c1
    assert bc.rank_at(4, 0.5 * (c1 + c2)) == 1   # born at c1
    assert bc.rank_at(4, 0.5 * c1) == 0
    assert bc.rank_at(3, 0.5 * c1) == 0
    assert bc.rank_at(3, 0.5 * (c1 + c2)) == 0


def test_ball_default_window_stops_at_non_free_shell():
    # A steep profile for k=3 has shells l = 3, 6, ... whose orbits are not
    # free; the window must cap at the first of them.
    from gfs import shells
    amb = Ambient(n=1, R=1.0)
    rho = ref_profile(-3.5 * math.pi, 0.1)
    c3 = [s for s in shells(amb, rho, 3) if s.l == 3][0].value
    cx = ball_complex(amb, rho, 3)
    assert cx.meta["window"][1] == pytest.approx(c3)
    assert {l for l, _ in cx.meta["shells"]} == {1, 2}
    bc = barcode(cx, "equivariant")
    assert {b.degree for b in bc.bars} <= {2, 3, 4, 5}


def test_limit_barcodes(amb1):
    eq = limit_barcode(amb1, 5, "equivariant")
    assert eq.field == 5
    assert [(b.degree, b.birth, b.death, b.rank) for b in eq.bars] == \
        [(2 * l, 0.0, l * math.pi, 1) for l in range(1, 5)]
    pl = limit_barcode(amb1, 1, "plain", lmax=4)
    assert pl.field == 2
    assert [(b.degree, b.birth, b.death, b.rank) for b in pl.bars] == \
        [(2 * l, (l - 1) * math.pi, l * math.pi, 1) for l in range(1, 5)]
    for k in (1, 2, 9):
        with pytest.raises(NonPrimeK):
            limit_barcode(amb1, k, "equivariant")


def test_thom_shift_and_tensor_circle(amb1):
    bc = limit_barcode(amb1, 3, "equivariant")
    shifted = thom_shift(bc, 1, 3)
    assert [b.degree for b in shifted.bars] == \
        [b.degree + 3 for b in bc.bars]
    assert [(b.birth, b.death, b.rank) for b in shifted.bars] == \
        [(b.birth, b.death, b.rank) for b in bc.bars]
    pre = tensor_circle(bc)
    assert len(pre) == 2 * len(bc)
    for b in bc.bars:
        assert pre.rank_at(b.degree, 0.5 * b.death) >= 1
        assert pre.rank_at(b.degree + 1, 0.5 * b.death) >= 1


def test_inclusion_map_and_spectrum_guard():
    big = Ambient(n=1, R=1.0)
    small = Ambient(n=1, R=0.8)
    bc1 = limit_barcode(big, 5, "equivariant")
    bc2 = limit_barcode(small, 5, "equivariant")
    l = 2
    a_small = l * math.pi * 0.8 ** 2    # ~4.02: small-ball bar dies here
    a_large = l * math.pi               # ~6.28: large-ball bar dies here
    # thresholds chosen between spectrum points of both barcodes
    assert inclusion_map(bc1, bc2, 2 * l, 1.9) == 1      # both alive
    assert inclusion_map(bc1, bc2, 2 * l, 5.0) == 0      # small one dead
    assert a_small < 5.0 < a_large
    with pytest.raises(ThresholdOnSpectrum):
        inclusion_map(bc1, bc2, 2 * l, a_small)
    with pytest.raises(DomainError):
        inclusion_map(bc1, bc2, 2 * l, -1.0)


def test_barcode_serialization_round_trip(amb1):
    bc = limit_barcode(amb1, 3, "plain")
    text = bc.to_json()
    obj = json.loads(text)
    assert obj["schema"] == "gfs/1"
    clone = Barcode.from_json(text)
    assert [(b.degree, b.birth, b.death, b.rank) for b in clone.bars] == \
        [(b.degree, b.birth, b.death, b.rank) for b in bc.bars]
    assert clone.field == bc.field
    # deterministic: same object serializes to identical bytes
    assert bc.to_json() == text
    tsv = bc.to_tsv()
    assert tsv.splitlines()[0] == "a\tdegree\trank"


def test_bar_rank_at_is_half_open():
    bc = Barcode([Bar(2, 1.0, 2.0, 1)], 3)
    assert bc.rank_at(2, 1.0) == 1
    assert bc.rank_at(2, 1.999999) == 1
    assert bc.rank_at(2, 2.0) == 0
    assert bc.rank_at(2, 0.999) == 0

def _ball_complex_from_all_shells(amb, rho, k):
    """The default-window ball complex, built from the full shell list."""
    ring = GroupRing(k)
    *shell_data, origin = shells(amb, rho, k)
    hi = min([s.value for s in shell_data if s.l % k == 0] + [origin.value])
    kept = [s for s in shell_data if 0.0 < s.value < hi]
    n2 = 2 * amb.n
    gens = [Generator(n2 * s.l + i, s.value, "l%d-%d" % (s.l, i))
            for s in kept for i in range(n2)]
    keep_origin = 0.0 < origin.value < hi
    if keep_origin:
        gens.append(Generator(n2 * (len(shell_data) + 1), origin.value,
                              "origin"))
    cx = GroupRingComplex(ring, gens)
    for b, s in enumerate(kept):
        for i in range(1, n2):
            cx.add_diff(b * n2 + i - 1, b * n2 + i,
                        ring.T_minus_1 if i % 2 == 1 else ring.N)
        if b and kept[b - 1].l == s.l - 1:
            cx.add_diff(b * n2 - 1, b * n2, ring.N)
    cx.meta = {
        "window": (0.0, hi), "shells": [(s.l, s.value) for s in kept],
        "origin_value": origin.value if keep_origin else None,
    }
    return cx


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [3, 5, 7, 11, 23])
def test_default_window_matches_the_full_shell_list(n, k):
    # The default window bisects only l <= k; the cases run from L < k (no
    # non-free shell, the origin caps the window) to L >= k.
    amb = Ambient(n=n, R=1.0)
    for c_over_pi in (0.9, 1.3, 3.5, 12.0, 60.0):
        for delta in (0.1, 0.25):
            rho = ref_profile(-c_over_pi * math.pi, delta)
            got = ball_complex(amb, rho, k)
            want = _ball_complex_from_all_shells(amb, rho, k)
            assert got.generators == want.generators
            assert got.diff.keys() == want.diff.keys()
            assert all(np.array_equal(e, want.diff[key])
                       for key, e in got.diff.items())
            assert got.meta == want.meta
            for mode in ("plain", "equivariant"):
                a, b = barcode(got, mode), barcode(want, mode)
                assert a.to_json() == b.to_json()
                assert a.to_tsv() == b.to_tsv()


def _diff_from_every_entry(cx):
    """The differential of `cx` rebuilt with `add_diff` on every lens and
    connecting entry of its blocks, zero ring elements included."""
    ring, again = cx.ring, GroupRingComplex(cx.ring, cx.generators)
    top = {}
    for j, g in enumerate(cx.generators):
        if g.label == "origin":
            continue
        l, i = map(int, g.label[1:].split("-"))
        top[l] = j
        if i:
            again.add_diff(j - 1, j, ring.T_minus_1 if i % 2 else ring.N)
        elif l - 1 in top:
            again.add_diff(top[l - 1], j, ring.N)
    return again.diff


def test_ball_complex_differential_on_the_benchmark_balls():
    # `ball_complex` passes no zero entry (T - 1 when k = 1) to `add_diff`;
    # the differential stays the one every entry gives on the barcode_family
    # ball ranges
    rng = np.random.default_rng(21)
    balls = [(n, 1, c) for n, top in ((1, 60), (2, 52)) for c in
             rng.uniform(4.0, top, 8).tolist()]
    balls += [(1, k, c) for k, top in ((3, 53), (5, 33), (7, 27)) for c in
              rng.uniform(10.0, top, 3).tolist()]
    balls += [(1, k, float(rng.uniform(1.05, 1.45)))
              for k in (11, 13, 17, 19, 23)]
    for n, k, c_over_pi in balls:
        cx = ball_complex(Ambient(n=n), ref_profile(
            -c_over_pi * math.pi, float(rng.uniform(0.05, 0.3))), k)
        assert cx.diff == _diff_from_every_entry(cx)
        assert len(cx.diff) >= len(cx.generators) // 2 - 1


def _barcode_text(**bar):
    """A one-bar gfs/1 barcode whose bar has the given keys replaced."""
    return json.dumps({"schema": "gfs/1", "field": 3, "bars": [
        dict({"degree": 2, "birth": 0.0, "death": 1.0, "rank": 1}, **bar)]})


@pytest.mark.parametrize("text", [
    json.dumps({"schema": "gfs/1", "field": 3}),
    "{not json",
    _barcode_text(degree="x"),
    _barcode_text(birth=3.0, death=1.0),
    _barcode_text(birth=1.0, death=1.0),
    _barcode_text(rank=0),
], ids=["missing-bars", "not-json", "degree-not-int", "birth-after-death",
        "birth-at-death", "rank-zero"])
def test_barcode_from_json_rejects_bad_input(text):
    with pytest.raises(DomainError):
        Barcode.from_json(text)


def test_barcode_from_json_accepts_its_own_output(amb1, rho_ref):
    bc = barcode(ball_complex(amb1, rho_ref, 3), "equivariant")
    assert Barcode.from_json(bc.to_json()).to_json() == bc.to_json()
    assert len(Barcode.from_json(_barcode_text(death=None))) == 1
