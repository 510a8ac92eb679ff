"""Exact group-ring algebra, filtered complexes, barcodes."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import gfs
from gfs import (Ambient, Bar, Barcode, DomainError, EvenK, Generator,
                 GfsError, GroupRingComplex, NonPrimeK, ball_complex, barcode,
                 contact_lift_gf, contact_p, gf_compose_chain, is_prime,
                 lens_complex, limit_barcode, rank_mod_p, ref_profile, sharp_k,
                 shells, tensor_circle, thom_shift, translated_chains)
from gfs import equivar
from gfs.genfun import contact_sharp
from gfs.cli import main
from gfs.equivar import (MAX_BALL_GENERATORS, _limit_bars,
                         limit_barcode_at_area)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)


def _block(k, v, mode="plain"):
    """The `matrix` block of one entry x^v."""
    cx = GroupRingComplex(k, [Generator(0), Generator(1)])
    cx.add_diff(0, 1, v)
    return cx.matrix(1, mode)


def test_group_ring_axioms():
    # Z_5[T]/(T^5 - 1) through the dense blocks: T - 1 = x^1, N = x^4
    T = np.eye(5, dtype=np.int64) + _block(5, 1)
    assert np.array_equal(np.linalg.matrix_power(T, 5) % 5, np.eye(5))
    assert not (_block(5, 4) @ _block(5, 1) % 5).any()    # N (T - 1) = 0
    assert not (_block(5, 1) @ _block(5, 4) % 5).any()
    assert _block(5, 4, "equivariant").tolist() == [[0]]  # N(1) = k = 0
    assert _block(5, 1, "equivariant").tolist() == [[0]]
    assert _block(5, 0, "equivariant").tolist() == [[1]]
    with pytest.raises(NonPrimeK):
        GroupRingComplex(9, [])


def test_group_ring_builds_no_k_by_k_table():
    # Only the dense `matrix` oracle expands an entry into a k x k block; a
    # large-k complex stores one int per entry, far less than one k-tuple.
    k = 10007
    tracemalloc.start()
    try:
        cx = lens_complex(2, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cx.diff == {(0, 1): 1, (1, 2): k - 1, (2, 3): 1}
    assert peak < 8 * k / 2


@pytest.mark.parametrize("k", [1, 3, 5, 7, 23, 53])
def test_group_ring_vectorised_ops(k, ball_grid):
    """The plain `matrix` block of x^v, built from the binomial row, is the
    power (S - I)^v over F_p of the shift S, multiplication by T on the
    basis T^i; x^(k-1) is the all-ones N.  On the lens complexes and on the
    balls of the grid with this k, the dense d o d vanishes in both
    modes."""
    p = 2 if k == 1 else k
    eye = np.eye(k, dtype=np.int64)
    x, power = np.roll(eye, 1, axis=0) - eye, eye
    for v in range(k):
        assert np.array_equal(_block(k, v), power % p), v
        power = power @ x % p
    assert not power.any()                                # x^k = 0
    assert np.array_equal(_block(k, k - 1), np.ones((k, k)))
    balls = [cx for key, cx in ball_grid.items() if key[-1] == k]
    for cx in [lens_complex(1, k), lens_complex(2, k)] + balls:
        for mode in ("plain", "equivariant"):
            for d in cx.degrees():
                dd = cx.matrix(d, mode) @ cx.matrix(d + 1, mode)
                assert not (dd % cx.field).any(), (d, mode)


def test_sentinel_ring_collapses_the_action():
    # k = 1 is F_2 with T = 1: T - 1 = x^1 is zero and no valid entry, and
    # N = x^0 is the identity, the one entry a lens block keeps
    cx = lens_complex(2, 1)
    assert cx.field == 2 and cx.diff == {(1, 2): 0}
    for mode in ("plain", "equivariant"):
        assert _block(1, 0, mode).tolist() == [[1]]
    with pytest.raises(DomainError):
        _block(1, 1)


def test_rank_mod_p_exact():
    assert rank_mod_p(_block(5, 1), 5) == 4
    assert rank_mod_p(_block(5, 4), 5) == 1
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
    cx = GroupRingComplex(3, [Generator(0, 2.0, "low"),
                              Generator(1, 1.0, "high")])
    with pytest.raises(DomainError):
        cx.add_diff(0, 1, 1)                # would increase the value
    cx2 = GroupRingComplex(3, [Generator(0, 1.0), Generator(2, 2.0)])
    with pytest.raises(DomainError):
        cx2.add_diff(0, 1, 0)               # degree must drop by exactly 1


def test_add_diff_refusals():
    gens = [Generator(0, 1.0), Generator(0, 1.0), Generator(1, 2.0),
            Generator(1, 2.0)]
    for v in (-1, 3, 1.0, True, np.int64(1), None):     # not an int in [0, 3)
        with pytest.raises(DomainError):
            GroupRingComplex(3, gens).add_diff(0, 2, v)
    cx = GroupRingComplex(3, gens)
    cx.add_diff(0, 2, 1)
    with pytest.raises(DomainError):
        cx.add_diff(1, 2, 2)                # a second entry out of 2
    with pytest.raises(DomainError):
        cx.add_diff(0, 3, 2)                # a second entry into 0
    assert cx.diff == {(0, 2): 1}
    cx.add_diff(1, 3, 2)
    assert cx.diff == {(0, 2): 1, (1, 3): 2}


def test_ball_complex_structure(amb1, rho_ref):
    # For k = 3 the window is capped at the origin value, so only the two
    # shell blocks survive.  The k = 1 window has no cap, so it keeps the
    # isolated origin generator, which carries no differentials.
    cx = ball_complex(amb1, rho_ref, 3)
    assert cx.check_d2() == []
    assert sorted(g.degree for g in cx.generators) == [2, 3, 4, 5]
    assert cx.meta["origin_value"] is None

    rho = ref_profile(-2.5 * math.pi, 0.1)
    wide = ball_complex(amb1, rho, 1)
    assert wide.meta["window"] == (0.0, math.inf)
    assert sorted(g.degree for g in wide.generators) == [2, 3, 4, 5, 6]
    assert wide.meta["origin_value"] == rho.rho(0.0)
    oi = [i for i, g in enumerate(wide.generators) if g.degree == 6][0]
    assert not any(t == oi or s == oi for (t, s) in wide.diff)
    assert wide.check_d2() == []


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


@pytest.mark.parametrize("k", [1, 3, 5, 23])
def test_limit_bars_are_the_barcode_bars(k):
    # the one bar in each shell degree, and none where the barcode has none
    modes = (("plain", 6),) + ((("equivariant", k - 1),) if k > 1 else ())
    for n, A in ((1, math.pi), (2, 0.7), (3, 2.5)):
        for mode, top in modes:
            bars = limit_barcode_at_area(n, A, k, mode, lmax=6).bars
            assert len(bars) == top
            for l in range(1, top + 1):
                assert _limit_bars(n, A, k, mode, [l]) == [bars[l - 1]]
            if mode == "equivariant":
                for l in (0, k, k + 1, 1.5):
                    assert _limit_bars(n, A, k, mode, [l]) == []


def _refusal(read):
    with pytest.raises(GfsError) as err:
        read()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("k, mode", [(1, "equivariant"), (9, "plain"),
                                     (3.0, "equivariant"), (3, "bogus"),
                                     (1, "bogus")])
def test_limit_bars_refuse_what_the_barcode_refuses(k, mode):
    assert _refusal(lambda: _limit_bars(1, 1.0, k, mode, [1])) == \
        _refusal(lambda: limit_barcode_at_area(1, 1.0, k, mode))


def test_limit_barcode_refuses_more_bars_than_the_bound(tmp_path, capsys,
                                                        monkeypatch):
    # lmax bars plain, k - 1 equivariant, refused before any bar is built
    def build(*args):
        raise AssertionError("a bar was built")

    monkeypatch.setattr(equivar, "_limit_bars", build)
    top = MAX_BALL_GENERATORS + 1
    for k, mode, lmax in ((3, "plain", top), (100003, "equivariant", 4)):
        with pytest.raises(DomainError, match="above the bound"):
            limit_barcode_at_area(1, 3.0, k, mode, lmax)
    assert main(["barcode", "--k", "100003", "--limit",
                 "--out", str(tmp_path)]) == 2
    assert "above the bound" in capsys.readouterr().err
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("lmax", [2.5, "3", True, None])
@pytest.mark.parametrize("mode", ["plain", "equivariant"])
def test_limit_barcode_refuses_an_lmax_that_is_no_integer(lmax, mode):
    with pytest.raises(DomainError, match="lmax must be an integer"):
        limit_barcode_at_area(1, 3.0, 3, mode, lmax)


@pytest.mark.parametrize("lmax", [0, -5])
@pytest.mark.parametrize("mode", ["plain", "equivariant"])
def test_limit_barcode_refuses_an_lmax_below_one(monkeypatch, lmax, mode):
    def build(*args):
        raise AssertionError("a bar was built")

    monkeypatch.setattr(equivar, "_limit_bars", build)
    with pytest.raises(DomainError, match="lmax must be an integer >= 1"):
        limit_barcode_at_area(1, 3.0, 3, mode, lmax)


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
    cx = GroupRingComplex(k, gens)
    for b, s in enumerate(kept):
        for i in range(1, n2):
            cx.add_diff(b * n2 + i - 1, b * n2 + i, 1 if i % 2 == 1 else k - 1)
        if b and kept[b - 1].l == s.l - 1:
            cx.add_diff(b * n2 - 1, b * n2, k - 1)
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
            assert got.diff == want.diff
            assert got.meta == want.meta
            for mode in ("plain", "equivariant"):
                a, b = barcode(got, mode), barcode(want, mode)
                assert a.to_json() == b.to_json()
                assert a.to_tsv() == b.to_tsv()


def _diff_from_every_entry(cx):
    """The differential of `cx` rebuilt with `add_diff` on every lens and
    connecting entry of its blocks, read off the labels: T - 1 = x^1 and
    N = x^(k-1), with x^v = 0 for v >= k (T - 1 when k = 1) left out."""
    k, again = cx.k, GroupRingComplex(cx.k, cx.generators)
    top = {}
    for j, g in enumerate(cx.generators):
        if g.label == "origin":
            continue
        l, i = map(int, g.label[1:].split("-"))
        top[l] = j
        v = 1 if i % 2 else k - 1
        if i and v < k:
            again.add_diff(j - 1, j, v)
        elif not i and l - 1 in top:
            again.add_diff(top[l - 1], j, k - 1)
    return again.diff


def test_ball_complex_differential_on_the_benchmark_balls():
    # `ball_complex` passes no zero entry (T - 1 when k = 1) to `add_diff`,
    # which refuses one; the differential stays the one every entry gives on the barcode_family
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
    json.dumps({"schema": "gfs/1", "field": 4, "bars": []}),
    json.dumps({"schema": "gfs/1", "field": 0, "bars": []}),
    json.dumps({"schema": "gfs/1", "field": -3, "bars": []}),
    _barcode_text(degree=1.5),
    _barcode_text(rank=2.7),
    _barcode_text(degree=True),
    json.dumps({"schema": "gfs/1", "field": 3.9, "bars": []}),
    _barcode_text(birth="0.5"),
    _barcode_text(death="inf"),
    _barcode_text(death=math.inf),
    _barcode_text(birth=-math.inf),
    _barcode_text(death=1.0).replace("1.0", "1e400"),
    _barcode_text(birth=10 ** 400),
    _barcode_text(birth=True, death=2.0),
    _barcode_text(death=True),
    _barcode_text(birth=None),
], ids=["missing-bars", "not-json", "degree-not-int", "birth-after-death",
        "birth-at-death", "rank-zero", "field-4", "field-0", "field-minus-3",
        "degree-1.5", "rank-2.7", "degree-true", "field-3.9",
        "birth-string", "death-string-inf", "death-Infinity",
        "birth-minus-Infinity", "death-1e400", "birth-int-overflow",
        "birth-true", "death-true", "birth-null"])
def test_barcode_from_json_rejects_bad_input(text):
    with pytest.raises(DomainError):
        Barcode.from_json(text)


def test_barcode_from_json_accepts_its_own_output(amb1, rho_ref):
    bc = barcode(ball_complex(amb1, rho_ref, 3), "equivariant")
    assert Barcode.from_json(bc.to_json()).to_json() == bc.to_json()
    assert len(Barcode.from_json(_barcode_text(death=None))) == 1


def _assert_every_reading_refuses(k, amb1, rho_ref, tmp_path):
    for read in (lambda: GroupRingComplex(k, []),
                 lambda: lens_complex(1, k),
                 lambda: ball_complex(amb1, rho_ref, k),
                 lambda: limit_barcode(amb1, k, "plain"),
                 lambda: limit_barcode(amb1, k, "equivariant")):
        with pytest.raises(NonPrimeK, match="odd prime"):
            read()
    for flags in ([], ["--limit"], ["--mode", "plain"],
                  ["--limit", "--mode", "plain"]):
        assert main(["barcode", "--k", str(k), "--out", str(tmp_path),
                     *flags]) == 2
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("k", [-3, 0, 2, 4, 9, 15])
def test_every_reading_refuses_the_same_k(k, amb1, rho_ref, F, tmp_path):
    """A homology reading needs k = 1 or an odd prime, in every entry point:
    the complexes, both limit barcodes and `gfs barcode` (exit 2, before it
    writes anything).  The odd-count operations need an odd k, not a
    field, and keep their own EvenK rule."""
    _assert_every_reading_refuses(k, amb1, rho_ref, tmp_path)
    for count in (lambda: shells(amb1, rho_ref, k), lambda: sharp_k(F, k),
                  lambda: gf_compose_chain([F] * k)):
        if k in (9, 15):
            count()
        else:
            with pytest.raises(EvenK):
                count()


@pytest.mark.parametrize("k", [3.0, True])
def test_every_reading_refuses_a_k_that_is_no_integer(k, amb1, rho_ref, F,
                                                      tmp_path, monkeypatch):
    """3.0 passes the arithmetic of an odd prime and True that of the
    sentinel 1, but a reading takes only an integer k, and an odd-count
    operation only an integer count, refused before any work."""
    _assert_every_reading_refuses(k, amb1, rho_ref, tmp_path)
    lift = contact_lift_gf(F)

    def work(*args, **kwargs):
        raise AssertionError("work began before the refusal")

    for module, name in ((gfs.sympl, "_certify_monotone"),
                         (gfs.genfun, "_cyclic_compose"),
                         (gfs.genfun, "_Layout")):
        monkeypatch.setattr(module, name, work)
    for count in (lambda: shells(amb1, rho_ref, k),
                  lambda: translated_chains(amb1, rho_ref, k),
                  lambda: sharp_k(F, k), lambda: contact_sharp(lift, k),
                  lambda: contact_p(lift, k)):
        with pytest.raises(EvenK, match="odd k"):
            count()


def test_every_reading_refuses_the_same_mode(amb1, rho_ref, tmp_path):
    cx = ball_complex(amb1, rho_ref, 3)
    for read in (lambda: barcode(cx, "bogus"),
                 lambda: cx.homology_ranks("bogus"),
                 lambda: cx.matrix(2, "bogus"),
                 lambda: limit_barcode(amb1, 3, "bogus"),
                 lambda: limit_barcode(amb1, 1, "bogus")):
        with pytest.raises(DomainError, match="mode must be"):
            read()
    for flags in ([], ["--limit"]):
        assert main(["barcode", "--k", "3", "--mode", "bogus",
                     "--out", str(tmp_path), *flags]) == 2
    assert not (tmp_path / "barcode.json").exists()


@pytest.mark.parametrize("n, A", [
    (0, 3.0), (-1, 3.0), (1.5, 3.0), (2.0, 3.0), (True, 3.0), ("1", 3.0),
    (1, math.nan), (1, math.inf), (1, 0.0), (1, -3.0), (1, "3"), (1, True),
    (1, None), pytest.param(1, 10 ** 400, id="1-10**400")], ids=repr)
@pytest.mark.parametrize("mode", ["plain", "equivariant"])
def test_limit_barcode_refuses_an_n_or_area_that_is_no_number(
        monkeypatch, n, A, mode):
    # refused after k and the mode, before any bar: a nan area would
    # otherwise write "death": NaN, which is not JSON
    def build(*args):
        raise AssertionError("a bar was built")

    monkeypatch.setattr(equivar, "_limit_bars", build)
    with pytest.raises(DomainError, match="as must n, and A a number > 0"):
        limit_barcode_at_area(n, A, 3, mode)
    with pytest.raises(NonPrimeK):
        limit_barcode_at_area(n, A, 9, mode)


def test_limit_barcode_bars_of_an_int_area_are_json():
    bc = limit_barcode_at_area(np.int64(2), 3, 3, "plain", lmax=2)
    assert Barcode.from_json(bc.to_json()).bars == bc.bars
    assert [b.degree for b in bc.bars] == [4, 8]


@pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, True, "2", None], ids=repr)
def test_lens_complex_refuses_an_n_that_is_no_positive_integer(n):
    with pytest.raises(DomainError, match="lens_complex needs n >= 1"):
        lens_complex(n, 5)
    assert lens_complex(np.int64(2), 5).homology_ranks("plain") == \
        {0: 1, 1: 0, 2: 0, 3: 1}


@pytest.mark.parametrize("text", [
    json.dumps({"schema": "gfs/2", "field": 3, "bars": []}),
    json.dumps({"field": 3, "bars": []}),
    json.dumps([{"schema": "gfs/1"}]), "3"], ids=repr)
def test_barcode_from_json_refuses_another_schema(text):
    with pytest.raises(DomainError, match="unrecognized barcode schema"):
        Barcode.from_json(text)
