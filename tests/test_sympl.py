"""Flows, profiles, shells, contact lifts, translated chains."""

import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from gfs import (Ambient, ContactLift, ContactPoint, DomainError, EvenK,
                 LinearRotation, NonMonotoneProfile, RadialMap, RadialProfile,
                 SqueezeQuery, certificate_json, evidence, find_obstruction,
                 flow, ref_profile, room_transform, shells,
                 translated_chains, verify_chain)
from gfs import gf_small_map, sympl
from gfs.cli import _reference
from gfs.sympl import BLEND_WIDTH, ComposedMap, j0_apply, reeb_translate

from exact import exact_level, exact_read, magnitude


def test_ambient_basics():
    amb = Ambient(n=2, R=1.5)
    assert amb.dim == 4
    z = np.array([1.5, 0.0, 0.0, 0.0])
    assert amb.H(z) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        Ambient(n=0, R=1.0)
    with pytest.raises(DomainError):
        Ambient(n=1, R=-1.0)


@pytest.mark.parametrize("n", [2.0, True, "2", None, 0, -1])
def test_ambient_refuses_a_dimension_that_is_no_positive_integer(n):
    with pytest.raises(DomainError, match="positive integer"):
        Ambient(n=n, R=1.0)
    assert Ambient(n=np.int64(2)).dim == 4


@pytest.mark.parametrize("R", [True, "2", None, math.nan, 0, -1.0,
                               pytest.param(10**400, id="10**400")])
def test_ambient_refuses_a_radius_that_is_no_positive_number(R):
    with pytest.raises(DomainError, match="radius"):
        Ambient(n=1, R=R)
    assert Ambient(n=1, R=np.float64(2.0)).H([2.0, 0.0]) == 1.0


def _rows_at_the_boundary(R, dim, rng):
    """Rows z with float(np.dot(z, z)) / R^2 one ulp below and one above 1."""
    want, rows = (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)), {}
    while len(rows) < 2:
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        for j in range(-40, 41):
            z = (R * (1.0 + j * 2.0**-53)) * u
            h = float(np.dot(z, z)) / R**2
            if h in want:
                rows.setdefault(h, z)
    return [rows[h] for h in want]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_h_is_the_dot_rule_bit_for_bit(n):
    # H reads a stack by one batched product; each row must round as
    # np.dot(z, z) does, which `midpoint_inverse` and the small-map stack
    # rely on to read the same levels as a one-row read (element-wise sums
    # and einsum round differently)
    rng = np.random.default_rng(17 + n)
    for R in (1.0, 1.3, 0.7, 2.5):
        amb = Ambient(n=n, R=R)
        Q = np.vstack([rng.normal(0.0, 0.6 * R, (3000, 2 * n))
                       * rng.uniform(0.0, 2.0, (3000, 1)),
                       _rows_at_the_boundary(R, 2 * n, rng)])
        want = np.array([float(np.dot(z, z)) / R**2 for z in Q])
        assert want[-2] < 1.0 < want[-1]
        got = amb.H(Q)
        assert got.shape == (len(Q),)
        assert got.tobytes() == want.tobytes()
        assert [amb.H(z) for z in Q] == want.tolist()
        assert type(amb.H(Q[0])) is float


def test_ref_profile_shape(rho_ref):
    # rho' == c on [0, delta] then climbs linearly to 0, so
    # rho(0) = -integral of rho' = -c (1 + delta) / 2 up to blend corrections
    # that cancel exactly by symmetry.
    assert rho_ref.rho(0.0) == pytest.approx(0.9 * math.pi * 1.1 / 2, abs=1e-9)
    assert rho_ref.drho(0.05) == pytest.approx(-0.9 * math.pi, abs=1e-12)
    assert rho_ref.rho(1.0) == pytest.approx(0.0, abs=1e-12)
    assert rho_ref.drho(1.0) == pytest.approx(0.0, abs=1e-12)
    assert rho_ref.rho(1.5) == 0.0 and rho_ref.drho(1.5) == 0.0
    grid = np.linspace(0.0, 1.0, 1001)
    dr = rho_ref.drho(grid)
    assert np.all(np.diff(dr) >= -1e-10)
    assert rho_ref.validate() == []


def test_profile_json_round_trip(rho_ref):
    clone = RadialProfile.from_json(rho_ref.to_json())
    grid = np.linspace(0.0, 1.2, 301)
    assert np.allclose(clone.rho(grid), rho_ref.rho(grid), atol=0.0)
    assert np.allclose(clone.drho(grid), rho_ref.drho(grid), atol=0.0)


def test_invalid_profile_rejected(rho_ref):
    # Corrupting a serialized profile (sign-flipped piece makes rho' > 0
    # somewhere) must be caught on load.
    obj = rho_ref.to_json()
    obj["pieces"] = [[-v for v in piece] for piece in obj["pieces"]]
    with pytest.raises(DomainError):
        RadialProfile.from_json(obj)


def test_profile_whose_rho_jumps_at_a_knot_rejected():
    # rho jumps up by 0.25 at m = 0.5 while rho' and rho'' stay continuous,
    # which no grid of `validate` sees; REF profiles from gentle to steep
    # meet their knots within rounding and pass
    obj = {"knots": [0, 0.5, 1], "pieces": [[3, -4, 1.25], [1, -1, 0.25]]}
    with pytest.raises(DomainError) as err:
        RadialProfile.from_json(obj)
    assert str(err.value) == \
        "invalid profile: rho is discontinuous at knot 0.5"
    for c_over_pi in (0.3, 60.0, 4000.0, 1e9 / math.pi):
        for delta in (0.01, 0.5, 0.99 - 2 * BLEND_WIDTH):
            assert ref_profile(-c_over_pi * math.pi, delta).validate() == []


def _ppoly_profile(PPoly, c, delta):
    """REF(c, delta) built directly on scipy's PPoly, the construction the
    library's own piecewise polynomial has to reproduce bit for bit."""
    s = -c / (1.0 - delta)
    w = BLEND_WIDTH
    knots = np.array([0.0, delta, delta + w, 1.0 - w, 1.0])
    dcoeffs = np.array([
        [0.0, 0.0, 0.0, c],
        [-s / w**2, 2 * s / w, 0.0, c],
        [0.0, 0.0, s, c + s * w],
        [-s / w**2, s / w, s, -s * w],
    ]).T
    poly = PPoly(dcoeffs, knots).antiderivative()
    poly.c[-1, :] -= poly(1.0)
    return poly


def _ppoly_eval(poly, m):
    m = np.atleast_1d(np.asarray(m, dtype=float))
    out = np.zeros_like(m)
    inside = m < 1.0
    if np.any(inside):
        out[inside] = poly(np.clip(m[inside], 0.0, 1.0))
    return out


def _assert_scalar_reads_match_arrays(prof, m):
    """Each scalar rho, rho', rho'' and every entry of every read (lo, hi)
    of `prof` at the levels m bit-equal to the array path at m, nan
    included."""
    want = np.array([prof.rho(m), prof.drho(m), prof.d2rho(m)])
    for order, fn in enumerate((prof.rho, prof.drho, prof.d2rho)):
        assert np.array([fn(float(x)) for x in m]).tobytes() \
            == want[order].tobytes()
    for lo in range(3):
        for hi in range(lo, 3):
            got = np.array([prof.read(x, lo, hi) for x in m.tolist()])
            assert got.tobytes() == want[lo:hi + 1].T.tobytes()


def _assert_reads_match(prof, poly, m):
    """rho, rho', rho'' of `prof` on the array of levels m bit-equal to the
    PPoly `poly` and its derivatives, and every scalar read to the array."""
    for fn, p in ((prof.rho, poly), (prof.drho, poly.derivative()),
                  (prof.d2rho, poly.derivative().derivative())):
        assert fn(m).tobytes() == _ppoly_eval(p, m).tobytes()
    _assert_scalar_reads_match_arrays(prof, m)


def test_profile_matches_ppoly_oracle():
    PPoly = pytest.importorskip("scipy.interpolate").PPoly
    rng = np.random.default_rng(11)
    edges = [-0.0, -0.5, 1.0, np.nextafter(1.0, 0.0), 1.0 + 1e-12, 1.5]
    for _ in range(200):
        c = -rng.uniform(0.05, 60.0) * math.pi
        delta = rng.uniform(0.01, 0.9)
        prof = ref_profile(c, delta)
        poly = _ppoly_profile(PPoly, c, delta)
        assert np.array_equal(prof.knots, poly.x)
        assert np.array_equal(prof.coeffs, poly.c.T)
        expected_json = {
            "c": c, "delta": delta,
            "knots": [float(x) for x in poly.x],
            "pieces": [[float(v) for v in poly.c[:, i]]
                       for i in range(poly.c.shape[1])],
        }
        assert json.dumps(prof.to_json()) == json.dumps(expected_json)
        m = np.concatenate([poly.x, rng.uniform(-0.1, 1.1, 40),
                            [0.5 * delta, 1.0 - 1e-12]])
        for oracle, fn in ((poly, prof.rho),
                           (poly.derivative(), prof.drho),
                           (poly.derivative(2), prof.d2rho)):
            want = _ppoly_eval(oracle, m)
            assert np.array_equal(fn(m), want)
            assert [fn(float(x)) for x in m] == [float(v) for v in want]
        _assert_reads_match(prof, poly, np.concatenate([m, edges]))


@pytest.mark.parametrize("degree", [1, 2, 3, 6])
def test_profile_reads_of_another_degree_match_ppoly(degree):
    # rho = A (1 - m)^degree on three pieces, each expanded at its knot
    PPoly = pytest.importorskip("scipy.interpolate").PPoly
    knots = [0.0, 0.25, 0.6, 1.0]
    pieces = [list(2.0 * np.poly1d([-1.0, 1.0 - x]) ** degree)
              for x in knots[:-1]]
    prof = RadialProfile(knots, pieces)     # rho' = -2 as m -> 1 at degree 1
    assert prof.coeffs.shape == (3, degree + 1)
    poly = PPoly(np.array(pieces).T, knots)
    rng = np.random.default_rng(degree)
    m = np.concatenate([knots, rng.uniform(-0.1, 1.1, 60),
                        [-0.0, -0.5, np.nextafter(1.0, 0.0), 1.5]])
    _assert_reads_match(prof, poly, m)


@pytest.mark.parametrize("c, seed", [(-0.9, 3), (-1000.0, 4)])
def test_profile_reads_are_within_four_ulps_of_exact(c, seed):
    # uniform levels and levels inside each corner blend; an ulp is scaled
    # by the row's magnitude sum |a_p| |s|^p (worst measured: 0.87)
    rho = ref_profile(c * math.pi, 0.1)
    rng = np.random.default_rng(seed)
    m = np.concatenate([rng.uniform(0.0, 1.0, 1000),
                        rng.uniform(0.1, 0.1 + BLEND_WIDTH, 100),
                        rng.uniform(1.0 - BLEND_WIDTH, 1.0, 100)])
    eps = np.finfo(float).eps
    for order, got in enumerate(rho.read(m, 0, 2)):
        for x, value in zip(m.tolist(), got.tolist()):
            assert abs(value - exact_read(rho, x, order)) \
                <= 4 * eps * magnitude(rho, x, order), (order, x)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_shells_are_within_the_bisection_stop_and_round_off_of_exact(k):
    # each level within drho_level's stop b - a <= 1e-12 of the exact root
    # (worst measured: 3.5e-13), and each value within four ulps of
    # l m A + k rho(m) at that level, scaled as the reads are (worst: 0.27)
    amb, rho, _ = _reference()
    area, eps = math.pi * amb.R**2, np.finfo(float).eps
    for s in shells(amb, rho, k)[:-1]:
        root = exact_level(rho, -(s.l / k) * area, rho.delta)
        assert abs(s.m - root) <= 1e-12, s.l
        value = s.l * Fraction(s.m) * Fraction(area) \
            + k * exact_read(rho, s.m, 0)
        assert abs(s.value - value) <= 4 * eps * (
            s.l * s.m * area + k * magnitude(rho, s.m, 0)), s.l


@pytest.mark.parametrize("knots, pieces", [
    ([0.0, 0.5, 0.5, 1.0], [[0.0]] * 3),          # repeated knot
    ([0.0, 0.6, 0.4, 1.0], [[0.0]] * 3),          # decreasing knots
    ([0.0, float("nan"), 1.0], [[0.0]] * 2),      # non-finite knot
    ([0.0, 0.5, float("inf")], [[0.0]] * 2),
    ([0.0], []),                                  # no interval
    ([0.0, 0.5, 1.0], [[0.0]]),                   # one piece too few
    ([0.0, 0.5, 1.0], [[0.0]] * 3),               # one piece too many
    ([0.0, 0.5, 1.0], [[0.0, 1.0], [0.0]]),       # ragged pieces
    ([0.0, 0.5, 1.0], [[], []]),                  # empty pieces
    ([0.0, 0.5, 1.0], [0.0, 0.0]),                # pieces not lists
    ([0.0, 0.5, 1.0], [["a"], ["b"]]),            # non-numeric
    # rho = (1 - m)^2 on [0, 1], valid when its numbers are read as such
    (["0", "1"], [[1, -2, 1]]),                   # string knots
    ([0, 1], [["1", "-2", "1"]]),                 # string pieces
    ([False, True], [[1, -2, 1]]),                # bool knots
    ([0, 1], [[True, -2, True]]),                 # bool coefficients
    ([0, 10 ** 400], [[1, -2, 1]]),               # ints beyond a float
    ([0, 1], [[1, -2, 10 ** 400]]),
])
def test_malformed_profile_shape_rejected(knots, pieces):
    with pytest.raises(DomainError):
        RadialProfile.from_json({"knots": knots, "pieces": pieces})


@pytest.mark.parametrize("key, value", [
    ("c", "x"), ("delta", "y"),                   # not numbers
    ("c", True), ("delta", [0.1]),
    ("c", float("inf")), ("delta", float("nan")),  # not finite
    ("c", 10 ** 400),                             # an int beyond a float
    ("delta", -0.1), ("delta", 1.0),              # delta outside [0, 1)
])
def test_malformed_profile_c_delta_rejected(rho_ref, key, value):
    with pytest.raises(DomainError):
        RadialProfile.from_json(dict(rho_ref.to_json(), **{key: value}))


def test_profile_c_delta_may_be_null(rho_ref):
    prof = RadialProfile.from_json(dict(rho_ref.to_json(), c=None,
                                        delta=None))
    assert prof.c is None and prof.delta is None


def test_profile_without_knots_rejected():
    with pytest.raises(DomainError):
        RadialProfile.from_json({"pieces": [[0.0]]})


@pytest.mark.parametrize("text", ["not json", b"not json", b"\xff\xfe"])
def test_profile_text_that_is_not_utf8_json_rejected(text):
    with pytest.raises(DomainError):
        RadialProfile.from_json(text)


def test_flow_conserves_h_and_composes(amb1, rho_ref):
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.normal(0.0, 0.6, 2)
        m = amb1.H(z)
        z1 = flow(amb1, rho_ref, 0.3, z)
        assert amb1.H(z1) == pytest.approx(m, rel=1e-12, abs=1e-15)
        z2 = flow(amb1, rho_ref, 0.4, z1)
        z12 = flow(amb1, rho_ref, 0.7, z)
        assert np.allclose(z2, z12, atol=1e-13)


def test_flow_refuses_a_stack(amb1, rho_ref):
    Z = np.array([[0.1, 0.2], [0.3, -0.1]])
    for move in (lambda z: flow(amb1, rho_ref, 1.0, z),
                 RadialMap(amb1, rho_ref, 1.0)):
        with pytest.raises(DomainError, match="one point"):
            move(Z)
        assert np.array_equal(move(Z[0]), move(list(Z[0])))


def test_radial_map_jacobian_is_symplectic(amb1, rho_ref):
    phi = RadialMap(amb1, rho_ref, 1.0)
    J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.normal(0.0, 0.5, 2)
        Dz = phi.jacobian(z)
        assert np.allclose(Dz.T @ J0 @ Dz, J0, atol=1e-10)
        # exact Jacobian vs finite differences
        h = 1e-7
        fd = np.column_stack([
            (phi(z + h * e) - phi(z - h * e)) / (2 * h)
            for e in np.eye(2)])
        assert np.allclose(Dz, fd, atol=1e-6)


def _midpoint_residual(mp, z, q):
    return float(np.max(np.abs(0.5 * (z + mp(z)) - q)))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("R", [1.0, 1.3])
def test_radial_midpoint_inverse(n, R):
    amb = Ambient(n=n, R=R)
    rho = ref_profile(-0.9 * math.pi, 0.1)
    # a time-1/5 slice and a steep slice rotating by up to 3pi/4
    steep_t = 0.75 * math.pi * R**2 / (2.0 * 0.9 * math.pi)
    rng = np.random.default_rng(17 + n)
    for t in (0.2, steep_t):
        mp = RadialMap(amb, rho, t)
        assert mp.max_rotation() < math.pi
        for _ in range(400):
            q = rng.normal(0.0, 0.6 * R, 2 * n)
            z = mp.midpoint_inverse(q)
            bound = 4e-15 * max(1.0, float(np.max(np.abs(q))))
            assert _midpoint_residual(mp, z, q) <= bound
            if amb.H(q) >= 1.0:
                assert np.array_equal(z, q)
        # outside the support (H >= 1, including the boundary) the inverse
        # returns q itself
        for scale in (1.0, 1.0 + 1e-12, 1.7):
            q = rng.normal(size=2 * n)
            q *= scale * R / np.linalg.norm(q)
            if amb.H(q) >= 1.0:
                assert np.array_equal(mp.midpoint_inverse(q), q)


def _level_stacks(amb, rng):
    """Seeded stacks whose rows repeat levels: a row, its J0 images and
    permutations of them, levels one ulp and 1e-13 apart, rows at H = 1 and
    beyond, and -0.0 entries inside and outside."""
    R, n2 = amb.R, amb.dim
    base = list(rng.normal(0.0, 0.5 * R, (5, n2)))
    near = [q * s for q in base[:2] for s in (1.0 + 2.0**-52, 1.0 + 1e-13)]
    turns = [j0_apply(base[0]), -base[0], -j0_apply(base[0])]
    edge = [np.array(head + [-0.0] * (n2 - 2)) for head in (
        [-0.0, 0.3 * R], [R, -0.0], [-0.0, -1.5 * R], [-0.0, -0.0])]
    rows = base + near + turns + edge
    first = np.array(rows + [rows[i] for i in rng.permutation(len(rows))])
    other = rng.normal(0.0, 0.5 * R, (4, n2))
    return [first, first[::-1], other, first[3:9], first]


@pytest.mark.parametrize("n, R", [(1, 1.0), (2, 1.3)])
def test_midpoint_inverse_reuses_levels_bit_for_bit(rho_ref, n, R):
    # two maps on one profile read the same stacks alternately: every row
    # equals a freshly built map's read and q - tan(beta(h)/2) J0 q
    amb = Ambient(n=n, R=R)
    times = (0.2, 0.75 * math.pi * R**2 / (2.0 * 0.9 * math.pi))
    maps = [RadialMap(amb, rho_ref, t) for t in times]
    hs = []
    for Q in _level_stacks(amb, np.random.default_rng(5 + n)):
        for mp, t in zip(maps, times):
            Z = mp.midpoint_inverse(Q)
            fresh = RadialMap(amb, rho_ref, t)
            assert Z.tobytes() == fresh.midpoint_inverse(Q).tobytes()
            for q, z in zip(Q, Z):
                h = amb.H(q)
                want = (q - math.tan(0.5 * fresh._level_beta(h)) * j0_apply(q)
                        if h < 1.0 else q)
                assert z.tobytes() == want.tobytes()
                hs.append(h)
    assert 1.0 in hs and max(hs) > 1.0


def test_midpoint_inverse_solves_each_level_once_per_two_stacks(amb1,
                                                                 rho_ref):
    mp = RadialMap(amb1, rho_ref, 0.2)
    solved = []
    level_beta = mp._level_beta
    mp._level_beta = lambda h: solved.append(h) or level_beta(h)

    def solves(*rows):
        del solved[:]
        mp.midpoint_inverse(np.array(rows, dtype=float))
        return len(solved)

    # a level is solved once within its stack, and reused by later stacks
    # while either generation of levels holds it; the rows at H >= 1 solve
    # nothing.  A generation turns old once it holds twice the stack's rows.
    x = 0.4
    assert solves((x, 0.0), (0.0, x), (-x, 0.0)) == 1
    assert solves((x, 0.0), (0.0, x), (-x, 0.0)) == 0
    assert solves((0.5, 0.0), (1.0, 0.0), (2.0, 0.0)) == 1
    assert solves((0.6, 0.0)) == 1          # {0.16, 0.25} turn old
    assert solves((0.0, -0.5)) == 0         # 0.25 again, two stacks on
    assert solves((0.0, -x)) == 1           # {0.36, 0.25} turn old
    assert solves((x, 0.0), (0.6, 0.0), (0.0, x)) == 0     # 0.36 from the old
    # one-row stacks turn the generations over every other call: 0.36 is
    # solved again once they have turned over twice since its last read
    assert solves((0.7, 0.0)) == 1          # {0.16, 0.36} turn old
    assert solves((0.8, 0.0)) == 1
    assert solves((0.9, 0.0)) == 1          # {0.49, 0.64} turn old
    assert solves((0.6, 0.0)) == 1
    assert solves((0.0, 0.9)) == 0


def _stacks_with_returning_levels(amb, rng, count=60):
    """Seeded stacks whose rows repeat rows (or their negatives, which have
    the same H bit for bit) of the stack itself and of the six before it,
    with rows at H >= 1 and every fifth stack a one-point q."""
    R, n2, stacks = amb.R, amb.dim, []
    for i in range(count):
        if i % 5 == 4:
            stacks.append(rng.normal(0.0, 0.5 * R, n2))
            continue
        rows = list(rng.normal(0.0, 0.5 * R, (int(rng.integers(1, 6)), n2)))
        rows += list(rng.normal(0.0, 2.0 * R, (int(rng.integers(0, 2)), n2)))
        for back in rng.integers(0, 7, int(rng.integers(1, 6))).tolist():
            pool = np.atleast_2d(stacks[-back]) if 0 < back <= i else rows
            row = pool[int(rng.integers(len(pool)))]
            rows.append(row * rng.choice([-1, 1]))
        stacks.append(np.array(rows)[rng.permutation(len(rows))])
    return stacks


@pytest.mark.parametrize("n, R", [(1, 1.0), (2, 1.3)])
def test_midpoint_inverse_memo_is_transparent(rho_ref, n, R):
    # levels that come back 0-6 stacks later read bit for bit as on a
    # freshly built map, and more of them are reused than the previous
    # stack alone would hold
    amb = Ambient(n=n, R=R)
    mp = RadialMap(amb, rho_ref, 0.2)
    solved = []
    level_beta = mp._level_beta
    mp._level_beta = lambda h: solved.append(h) or level_beta(h)
    prev, one_back, hs = set(), 0, []
    for Q in _stacks_with_returning_levels(amb, np.random.default_rng(3 + n)):
        Z = mp.midpoint_inverse(Q)
        assert Z.shape == Q.shape
        assert Z.tobytes() == RadialMap(amb, rho_ref, 0.2).midpoint_inverse(
            Q).tobytes()
        stack_hs = np.atleast_1d(amb.H(Q)).tolist()
        hs += stack_hs
        levels = {h for h in stack_hs if h < 1.0}
        one_back += len(levels - prev)
        prev = levels
    assert max(hs) > 1.0
    assert len(solved) < one_back


def test_midpoint_inverse_memo_stays_small(amb1, rho_ref):
    # 10^4 distinct one-row levels: the two generations hold at most two
    # levels each
    mp = RadialMap(amb1, rho_ref, 0.2)
    sizes = set()
    for x in np.linspace(0.01, 0.99, 10**4).tolist():
        mp.midpoint_inverse(np.array([x, 0.0]))
        sizes.add(len(mp._tans) + len(mp._old))
    assert max(sizes) <= 4


def _rereading_level_beta(mp, h):
    """`RadialMap._level_beta` as it was when it read rho' at the final
    level once more: the reference for the solver that keeps the reads at
    the bracket ends instead."""
    scale = 2.0 * mp.t / mp.amb.R**2
    read = mp.rho.read
    lo, hi = h, 1.0
    m = min(h / math.cos(0.5 * scale * read(h, 1, 1)[0]) ** 2, hi)
    for _ in range(100):
        dr, d2r = read(m, 1, 2)
        half = 0.5 * scale * dr
        cos2 = math.cos(half) ** 2
        f = m * cos2 - h
        if f == 0.0:
            break
        lo, hi = (m, hi) if f < 0.0 else (lo, m)
        slope = cos2 - 0.5 * m * math.sin(2.0 * half) * scale * d2r
        m_new = m - f / slope
        if not lo < m_new < hi:
            m_new = 0.5 * (lo + hi)
        m, m_old = m_new, m
        if abs(m - m_old) <= 1e-16 * m_old or m in (lo, hi):
            break
    return scale * (dr if f == 0.0 else read(m, 1, 1)[0])


@pytest.mark.parametrize("delta, t, levels", [
    (0.2, 1.0 / 3.0, np.linspace(0.0, 1.0, 868)[1:-1]),
    (0.1, 0.2, np.random.default_rng(13).uniform(0.0, 1.0, 500))])
def test_level_beta_matches_brentq(amb1, delta, t, levels):
    # beta = scale rho'(m*) at the root m* of m cos^2(scale rho'(m) / 2) = h
    # on [h, 1], found by scipy's brentq to the last float: measured
    # 8.9e-16 (delta 0.2) and 3.6e-16 (delta 0.1) at most; and bit for bit
    # the solver that reads rho' at the final level again
    brentq = pytest.importorskip("scipy.optimize").brentq
    rho = ref_profile(-0.9 * math.pi, delta)
    mp = RadialMap(amb1, rho, t)
    scale = 2.0 * t / amb1.R**2
    worst = 0.0
    for h in levels.tolist():
        beta = mp._level_beta(h)
        assert beta.hex() == _rereading_level_beta(mp, h).hex()
        root = brentq(lambda m: m * math.cos(0.5 * scale * rho.read(
            m, 1, 1)[0]) ** 2 - h, h, 1.0, xtol=1e-300, rtol=8.9e-16,
            maxiter=500)
        worst = max(worst, abs(beta - scale * rho.read(root, 1, 1)[0]))
    assert worst <= 1e-14


def _quartic_profile():
    """Quartic pieces around a zero piece (every row trimmed to [0.0]) and a
    piece whose top coefficient is zero; rho' jumps at the knots and does
    not vanish as m -> 1, so it is not validated.  The zero piece starts at
    0.25, whose mean with the next float rounds to 0.25: a level solve from
    h = 0.25 that reads the wrong piece there stops on h and returns it."""
    pieces = [list(2.0 * np.poly1d([-1.0, 0.8]) ** 4), [0.0] * 5,
              [0.0] + list(3.0 * np.poly1d([-1.0, 0.25]) ** 3),
              list(2.0 * np.poly1d([-1.0, 0.5]) ** 4)]
    rho = RadialProfile([0.0, 0.25, 0.55, 0.8, 1.0], pieces)
    assert all(rows[1] == [0.0] for rows in rho._rows)
    return rho


def _read_rows(mp, Z):
    """Each row's value, 2 tan(b) and (4/R^2) d tan b/dh of the small-map
    jet at the inverted midpoints Z, from one array `RadialProfile.read`."""
    t, R2, out = mp.t, mp.amb.R**2, []
    ms = mp.amb.H(Z)
    for m, r, dr, d2r in zip(ms.tolist(), *(x.tolist() for x in
                                            mp.rho.read(ms, 0, 2))):
        b = t * dr / R2
        s2b, dbeta, cos2 = math.sin(2.0 * b), 2.0 * t * d2r / R2, math.cos(b)**2
        dtb = 0.5 * dbeta / cos2 / (cos2 - 0.5 * m * s2b * dbeta)
        out.append((t * (r - m * dr) + 0.5 * R2 * m * s2b, 2.0 * math.tan(b),
                    4.0 * dtb / R2))
    return np.array(out).T


@pytest.mark.parametrize("c, delta, t", [
    (-0.9, 0.1, 0.2), (-0.9, 0.2, 1.0 / 3.0), (-3.3, 0.4, 0.1),
    (-40.5, 0.05, 0.01), (None, None, 0.15)])
def test_piece_locked_reads_match_read_bit_for_bit(amb1, c, delta, t):
    # every knot and its neighbours one ulp away, 0.0, levels >= 1 and nan:
    # the one-level reader that `read`, the level solve and the small-map
    # rows share sums each order as `read` does on an array of levels
    rho = _quartic_profile() if c is None else ref_profile(c * math.pi, delta)
    knots = rho.knots
    edges = np.concatenate([knots, np.nextafter(knots, -np.inf),
                            np.nextafter(knots, np.inf),
                            [0.0, -0.0, 1.5, 2.0, np.inf, np.nan]])
    edges = [x for x in edges.tolist() if not x < 0.0]
    for m, (lo, hi) in itertools.product(edges, [(0, 0), (0, 1), (0, 2),
                                                  (1, 1), (1, 2), (2, 2)]):
        want = [x[0].hex() for x in rho.read(np.array([m]), lo, hi)]
        assert [x.hex() for x in rho._scalar(m, lo, hi)] == want, (m, lo, hi)
    mp = RadialMap(amb1, rho, t)
    for h in (x for x in edges if x < 1.0):
        assert mp._level_beta(h).hex() == _rereading_level_beta(mp, h).hex()
    # rows [x, 0] whose levels x*x lie within a few ulps of each edge
    roots = [math.sqrt(x) for x in edges if x < 1.0]
    xs = [y for r in roots for y in (np.nextafter(r, -1.0), r,
                                     np.nextafter(r, 2.0))]
    Z = np.array([[x, 0.0] for x in xs] + [[1.0, 0.0], [0.9, 0.7],
                                           [np.nan, 0.5]])
    G = gf_small_map(amb1, mp)
    mp.midpoint_inverse = lambda Q: Z
    value, g, H = G._jet.stack(np.ones_like(Z), 2)
    want = _read_rows(mp, Z)
    for got, ref in ((value, want[0]), (g[:, 0], want[1]),
                     (H[:, 0, 1], want[2])):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("m", [
    np.array(0.3), np.array(np.nan),                       # 0-d arrays
    [np.nan, -0.0, -0.5, 0.0, 0.1, 1.0, 2.0],              # a list
    np.array([np.nan, -0.0, -0.5, 0.0, 0.05, 0.1, 0.1005, 0.5,
              0.9995, 1.0, 2.0, np.inf]).reshape(3, 4),
    np.empty(0), np.empty((2, 0))])                        # empty
@pytest.mark.parametrize("quartic", [False, True])
def test_read_of_an_array_is_the_per_level_read(rho_ref, m, quartic):
    # every (lo, hi): one float64 array per order, shaped like m, each
    # entry bit-equal to `_scalar` at that level
    rho = _quartic_profile() if quartic else rho_ref
    flat = np.asarray(m, dtype=float).ravel().tolist()
    for lo in range(3):
        for hi in range(lo, 3):
            got = rho.read(m, lo, hi)
            assert isinstance(got, tuple) and len(got) == hi - lo + 1
            want = np.array([rho._scalar(x, lo, hi) for x in flat],
                            dtype=float).reshape(-1, hi - lo + 1)
            for order, x in enumerate(got):
                x = np.asarray(x)
                assert x.shape == np.shape(m) and x.dtype == np.float64
                assert x.tobytes() == want[:, order].tobytes(), (lo, hi)


def test_midpoint_inverse_mixed_stack_reads_row_by_row(amb1, rho_ref):
    # inside rows, levels repeated (a J0 image, a negative, the row itself),
    # rows at H = 1 and beyond and a nan row: one call returns every row
    # bit for bit as a one-point call on a new map, and solves each distinct
    # inside level once
    base = list(np.random.default_rng(41).normal(0.0, 0.4, (4, 2)))
    Q = np.array(base + [j0_apply(base[0]), -base[1], [1.0, -0.0],
                         [1.5, -0.5], [np.nan, 0.3], base[2]])
    mp = RadialMap(amb1, rho_ref, 0.2)
    solved = []
    level_beta = mp._level_beta
    mp._level_beta = lambda h: solved.append(h) or level_beta(h)
    Z = mp.midpoint_inverse(Q)
    rows = [RadialMap(amb1, rho_ref, 0.2).midpoint_inverse(q) for q in Q]
    assert Z.tobytes() == np.array(rows).tobytes()
    inside = [h for h in amb1.H(Q).tolist() if h < 1.0]
    assert len(inside) == 7 and len(set(inside)) == 4
    assert sorted(solved) == sorted(set(inside))


def test_linear_rotation_midpoint_inverse():
    rng = np.random.default_rng(23)
    for n in (1, 2):
        amb = Ambient(n=n, R=1.0)
        for _ in range(50):
            mp = LinearRotation(amb, rng.uniform(-0.75, 0.75, n) * math.pi)
            q = rng.normal(0.0, 1.5, 2 * n)
            z = mp.midpoint_inverse(q)
            bound = 4e-15 * max(1.0, float(np.max(np.abs(q))))
            assert _midpoint_residual(mp, z, q) <= bound


def test_primitive_matches_action_density(amb1, rho_ref):
    # S_t(z) = t * a(m) with a(m) = rho(m) - m rho'(m) >= 0 on the support.
    phi = RadialMap(amb1, rho_ref, 0.37)
    for m in (0.0, 0.2, 0.5, 0.9):
        z = np.array([math.sqrt(m), 0.0])
        a = rho_ref.rho(m) - m * rho_ref.drho(m)
        assert phi.S(z) == pytest.approx(0.37 * a, rel=1e-12, abs=1e-15)
        assert phi.S(z) >= -1e-15
    # gradient of S, -t m rho''(m) (2/R^2) z, vs finite differences
    z = np.array([0.41, -0.33])
    m = amb1.H(z)
    grad_S = -0.37 * m * rho_ref.d2rho(m) * (2.0 / amb1.R**2) * z
    h = 1e-6
    fd = np.array([(phi.S(z + h * e) - phi.S(z - h * e)) / (2 * h)
                   for e in np.eye(2)])
    assert np.allclose(grad_S, fd, atol=1e-8)


def test_composed_map_chains_primitives(amb1, rho_ref):
    parts = [RadialMap(amb1, rho_ref, 0.2) for _ in range(5)]
    whole = RadialMap(amb1, rho_ref, 1.0)
    comp = ComposedMap(parts)
    z = np.array([0.55, 0.21])
    assert np.allclose(comp(z), whole(z), atol=1e-12)
    assert comp.S(z) == pytest.approx(whole.S(z), rel=1e-12)


def test_shells_reference_values(amb1, rho_ref, shells3):
    # k=3, c=-0.9pi: shells at rho'(m) = -(l/3)pi for l = 1, 2, then origin.
    assert [s.l for s in shells3] == [1, 2, 0]
    s1, s2, s0 = shells3
    assert s1.kind == "sphereShell" and s2.kind == "sphereShell"
    assert s0.kind == "isolated"
    assert s1.m == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert s1.value == pytest.approx(5 * math.pi / 6, abs=1e-6)
    assert s2.value == pytest.approx(4 * math.pi / 3, abs=1e-6)
    assert s0.value == pytest.approx(3 * rho_ref.rho(0.0), abs=1e-12)
    assert s1.value < s2.value < s0.value
    assert (s1.index, s2.index, s0.index) == (2, 4, 6)
    assert s1.free_orbit and s2.free_orbit and not s0.free_orbit
    with pytest.raises(EvenK):
        shells(amb1, rho_ref, 4)
    with pytest.raises(EvenK):
        translated_chains(amb1, rho_ref, 4)


def test_shell_levels_are_periodic_points(amb1, rho_ref, shells3):
    # Points on shell l return to themselves after k steps of the time-1 map
    # (total rotation 2 pi l / k per step).
    phi = RadialMap(amb1, rho_ref, 1.0)
    for s in shells3:
        if s.kind != "sphereShell":
            continue
        z = np.array([math.sqrt(s.m), 0.0])
        w = z.copy()
        for _ in range(3):
            w = phi(w)
        assert np.allclose(w, z, atol=1e-9)


def _rotated(ch):
    """The chain started one point later (again a valid chain)."""
    pts = ch.points[1:] + ch.points[:1]
    return dataclasses.replace(ch, points=[
        ContactPoint(p.base.copy(), p.theta) for p in pts])


def test_contact_lift_and_chains(amb1, rho_ref):
    lift = ContactLift(amb1, rho_ref)
    p = ContactPoint(np.array([0.3, 0.4]), 0.25)
    q = lift(p)
    assert lift.conformal_factor(p) == 0.0
    assert q.theta == pytest.approx(0.25 - lift.base_map.S(p.base))
    r = reeb_translate(p, 0.5)
    assert r.theta == pytest.approx(0.75)
    for k in (1, 3, 5):
        chains = translated_chains(amb1, rho_ref, k)
        for ch in chains:
            assert ch.k == k
            assert ch.action == pytest.approx(k * ch.t, rel=1e-12)
            assert verify_chain(lift, ch)
            assert verify_chain(lift, _rotated(ch))


def test_verify_chain_refuses_each_broken_condition(amb1, rho_ref):
    lift = ContactLift(amb1, rho_ref)
    ch = translated_chains(amb1, rho_ref, 3)[0]

    def moved(dbase, dtheta):
        pts = [ContactPoint(p.base.copy(), p.theta) for p in ch.points]
        pts[1].base[0] += dbase
        pts[1].theta += dtheta
        return dataclasses.replace(ch, points=pts)

    class Conformal(ContactLift):
        factor = 1e-9

        def conformal_factor(self, p):
            return self.factor

    class NanFactor(Conformal):
        factor = float("nan")

    nan = float("nan")
    assert verify_chain(lift, moved(1e-10, 1e-10))      # within 1e-9
    assert not verify_chain(lift, moved(1e-8, 0.0))
    assert not verify_chain(lift, moved(0.0, 1e-8))
    assert not verify_chain(lift, dataclasses.replace(ch, action=ch.action
                                                      + 1e-8))
    assert not verify_chain(Conformal(amb1, rho_ref), ch)
    # a nan error fails every `err <= CHAIN_TOL` gate
    assert not verify_chain(lift, moved(nan, 0.0))
    assert not verify_chain(lift, dataclasses.replace(ch, t=nan))
    assert not verify_chain(lift, dataclasses.replace(ch, action=nan))
    assert not verify_chain(lift, dataclasses.replace(ch, t=nan, action=nan))
    assert not verify_chain(NanFactor(amb1, rho_ref), ch)


def test_shells_refuse_a_value_that_is_not_finite():
    # (m + 1e200)^2 overflows, and 0.0 * inf is nan: the origin value
    # k rho(0) of this profile, built in code, is nan
    rho = RadialProfile([-1e200, 0.5, 1], np.zeros((2, 3)))
    with pytest.raises(DomainError, match="not finite"):
        shells(Ambient(), rho, 1)


def test_chain_ids_and_actions(amb1, rho_ref, shells3):
    chains = translated_chains(amb1, rho_ref, 3)
    ids = [ch.orbit_id for ch in chains]
    assert ids == ["shell-l1", "shell-l2", "origin"]
    assert [ch.l for ch in chains] == [1, 2, 0]
    by_id = dict(zip(ids, chains))
    for s in shells3:
        key = "origin" if s.kind == "isolated" else "shell-l%d" % s.l
        assert by_id[key].action == pytest.approx(s.value, rel=1e-12)


def test_room_conjugation_map():
    assert room_transform(2, 1.0) == pytest.approx(1.0 / 3.0)
    assert room_transform(3, math.inf) == pytest.approx(1.0 / 3.0)
    assert room_transform(2, 0.0) == 0.0
    # monotone in A
    xs = np.linspace(0.0, 10.0, 50)
    ys = [room_transform(2, x) for x in xs]
    assert np.all(np.diff(ys) > 0)


@pytest.mark.parametrize("n, R", [(1, 1.0), (2, 1.3)])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_truncated_shells_are_bit_equal_to_the_full_list(n, R, k):
    amb = Ambient(n=n, R=R)
    for c_over_pi in (0.9, 3.5, 12.0):
        rho = ref_profile(-c_over_pi * math.pi, 0.1)
        full = shells(amb, rho, k)
        for lmax in (0, 1, k, len(full) - 1, len(full) + 5):
            part = shells(amb, rho, k, lmax=lmax)
            assert part[:-1] == full[:min(lmax, len(full) - 1)]
            assert part[-1] == full[-1]     # origin datum, index 2n(L+1)


def test_truncated_shells_refuse_what_the_full_list_refuses(amb1):
    # rho' jumps from -10 to -5 at delta = 0.5, so the levels between cannot
    # be bracketed on [delta, 1].  They lie beyond l = 3, and only the check
    # on the deepest level (l = 9) makes the truncated call refuse them too.
    prof = RadialProfile([0.0, 0.5, 1.0], [[0.0, -10.0, 6.25],
                                           [5.0, -5.0, 1.25]],
                         c=-10.0, delta=0.5)
    for lmax in (None, 3):
        with pytest.raises(NonMonotoneProfile):
            shells(amb1, prof, 3, lmax=lmax)


def _shell_count_by_loop(c0, k, area):
    l = 1
    while -(l / k) * area > c0:
        l += 1
    return l - 1


def test_shell_count_matches_the_level_loop():
    # The O(1) count against the loop it replaces, read off the origin
    # index 2n(L+1) of a call that bisects nothing.  Boundary slopes sit on
    # a level, c = -(l/k) A, or one ulp to either side of it.
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(300):
        k = int(rng.choice([1, 3, 5, 7, 11, 23, 51]))
        R = float(rng.choice([1.0, 1.3, rng.uniform(0.2, 3.0)]))
        area = math.pi * R**2
        c = -float(rng.uniform(0.01, 200.0)) * area
        edge = -(int(rng.integers(1, 400)) / k) * area
        cases += [(k, R, c), (k, R, edge), (k, R, math.nextafter(edge, 0.0)),
                  (k, R, math.nextafter(edge, -math.inf))]
    for k, R, c in cases:
        amb = Ambient(n=1, R=R)
        rho = ref_profile(c, 0.1)
        assert rho.drho(0.0) == c
        L = _shell_count_by_loop(c, k, math.pi * R**2)
        assert shells(amb, rho, k, lmax=0)[-1].index == 2 * (L + 1)


def test_truncated_shells_bound_the_profile_reads():
    # REF(-1e9, 0.1) has about 1e9 shells for k = 3; the default window
    # bisects three of them, about 40 reads each.  The wrapper raises past
    # the bound, so a regression fails rather than running for hours.
    from gfs import ball_complex
    rho = ref_profile(-1e9, 0.1)
    drho, reads = rho.drho, [0]

    def counted(m):
        if np.ndim(m) == 0:
            reads[0] += 1
            if reads[0] > 200:
                raise AssertionError("more than 200 scalar rho' reads")
        return drho(m)

    rho.drho = counted
    level, solves = rho.drho_level, [0]

    def counted_level(target, lo):
        solves[0] += 1
        if solves[0] > 5:
            raise AssertionError("more than 5 level solves")
        return level(target, lo)

    rho.drho_level = counted_level
    cx = ball_complex(Ambient(n=1), rho, 3)
    assert [l for l, _ in cx.meta["shells"]] == [1, 2]
    assert reads[0] <= 200 and solves[0] == 3


def _level_by_drho(rho, target, lo):
    """The bisection `shells` ran before `drho_level`: rho' read through
    `drho` at every mid."""
    a, b = lo, 1.0
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        if rho.drho(mid) - target <= 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def test_shells_match_the_drho_bisection():
    # m and value bit for bit against the loop over `drho`, on seeded REF
    # profiles from gentle to steep (c down to -4000 pi), n = 1, 2, R != 1
    # and truncated calls.
    rng = np.random.default_rng(46)
    cases = [(1, 1.0, 1, None, 4000.0), (2, 1.3, 3, 7, 4000.0)]
    for _ in range(24):
        k = int(rng.choice([1, 3, 5, 7]))
        c_over_pi = float(rng.choice([rng.uniform(0.5, 6.0),
                                      rng.uniform(6.0, 80.0)]))
        cases.append((int(rng.choice([1, 2])),
                      float(rng.choice([1.0, rng.uniform(0.5, 2.0)])), k,
                      rng.choice([None, k, int(rng.integers(0, 40))]),
                      c_over_pi))
    profiles = []
    for n, R, k, lmax, c_over_pi in cases:
        delta = float(rng.uniform(0.02, 0.5))
        profiles.append((n, R, k, lmax,
                         ref_profile(-c_over_pi * math.pi, delta)))
    # seeded convex profiles off the REF layout: rho' rows of 1 to 5
    # coefficients with interior and trailing zeros, rho' flat on the first
    # piece with delta inside it or at its end, and R set so that the l = 1
    # level is rho' at a knot
    for i in range(40):
        prof = _piecewise_profile(rng, 2 + i % 5, flat=True)
        knots, k = prof.knots, int(rng.choice([1, 3]))
        delta = float(rng.choice([rng.uniform(0.0, knots[1]), knots[1]]))
        prof = RadialProfile(knots, prof.coeffs, delta=delta)
        R = float(rng.uniform(0.3, 1.5))
        levels = [-prof.drho(x) for x in knots[2:-1].tolist()]  # past flat
        if i % 2 and max(levels, default=0.0) > 0.01:
            R = math.sqrt(max(levels) * k / math.pi)
        profiles.append((int(rng.choice([1, 2])), R, k, None, prof))
    compared = 0
    for n, R, k, lmax, rho in profiles:
        amb, area, lo = Ambient(n=n, R=R), math.pi * R**2, rho.delta
        got = shells(amb, rho, k, lmax=lmax)[:-1]
        compared += len(got)
        for s in got:
            m = _level_by_drho(rho, -(s.l / k) * area, lo)
            value = s.l * m * area + k * rho.rho(m)
            assert (s.m.hex(), s.value.hex()) == (m.hex(), value.hex())
    assert compared > 5000


def _piecewise_profile(rng, ncoef, convex=True, jump=0.0, end=0.0,
                       flat=False, delta=None):
    """Seeded profile on 1-4 pieces of `ncoef` coefficients each (rho' rows
    of ncoef - 1), not validated.  rho' = c_i + sum_p a_p s^p on piece i is
    continuous across the knots except for `jump` added at each, with some
    a_p zero inside the row and the top ones zero on some pieces; a_p >= 0
    (rho'' >= 0) when `convex`, and a_p = 0 on the first piece when `flat`.
    rho' is shifted so that rho'(1-) = end."""
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, int(
        rng.integers(0, 4)))), [1.0]])
    d = ncoef - 2
    rows, c = [], -float(rng.uniform(1.0, 40.0))
    for w in np.diff(knots):
        a = rng.exponential(float(rng.choice([0.3, 3.0, 30.0])), d)
        if not convex:
            a *= rng.choice([-1.0, 1.0], d)
        a[rng.uniform(size=d) < 0.3] = 0.0                      # interior
        a[max(1, int(rng.integers(0, d + 1))):] *= rng.integers(0, 2)  # top
        if flat and not rows:
            a[:] = 0.0
        rows.append([c] + a.tolist())
        c = sympl._poly_value(rows[-1], float(w)) + jump
    shift = end - sympl._poly_value(rows[-1], float(1.0 - knots[-2]))
    pieces, r = [], 3.0
    for row, w in zip(rows, np.diff(knots)):
        row = [row[0] + shift] + row[1:]
        pieces.append([x / (p + 1) for p, x in enumerate(row)][::-1] + [r])
        r = sympl._poly_value([r] + pieces[-1][-2::-1], float(w))
    return RadialProfile(knots, pieces, delta=delta)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the far knot's arrays
def test_level_solver_matches_the_drho_bisection_off_ref():
    # a cubic profile whose knots sit off the REF layout, from a negative
    # lower end (mids below 0 read rho'(0)) and from inside a piece
    cubic = RadialProfile.from_json(
        {"knots": [0.0, 0.3, 0.7, 1.0],
         "pieces": [list(2.0 * np.poly1d([-1.0, 1.0 - x]) ** 3)
                    for x in (0.0, 0.3, 0.7)]})
    for target in np.linspace(-5.9, -1e-3, 97).tolist():
        for lo in (-0.4, 0.0, 0.35):
            assert cubic.drho_level(target, lo).hex() == \
                _level_by_drho(cubic, target, lo).hex()
    # the cubic again and seeded profiles of 2 to 6 coefficients a piece
    # whose rho' rows hold interior and trailing zeros, from a negative lower
    # end, from each knot and from the middle of each piece's part of [0, 1]
    # (inside the first and every later piece), with targets at rho' of both
    # pieces at each knot
    profs = [cubic]
    rng = np.random.default_rng(47)
    profs += [_piecewise_profile(rng, 2 + i % 5, convex=bool(i % 3))
              for i in range(30)]
    # a knot far below 0: s^2 overflows on the first piece, so its rho' row
    # keeps the zero coefficients (0.0 * inf reads nan, as `read` sums it)
    profs.append(RadialProfile([-1e200, 0.5, 1.0], [[0.0, 0.0, -2.0, 1.0],
                                                   [0.0, 1.0, -2.0, 0.75]]))
    solved = inside = 0
    for prof in profs:
        knots = prof.knots.tolist()
        at_knots = [prof.drho(x) for x in knots[1:-1]] + [
            sympl._poly_value(row, w) for row, w in
            zip(prof._rows[1], np.diff(knots)[:-1].tolist())]
        targets = np.linspace(prof.drho(0.0), -1e-3, 37).tolist() + at_knots
        mids = [0.5 * (max(x, 0.0) + y) for x, y in zip(knots, knots[1:])]
        inside += len(mids) - 1
        starts = [-0.4, 0.0] + knots[1:-1] + mids
        levels = list(starts)
        for lo in starts:
            for target in targets:
                m = prof.drho_level(target, lo)
                assert m.hex() == _level_by_drho(prof, target, lo).hex()
                levels.append(m)
                solved += 1
        # the scalar reads at these levels, off scipy's oracle; the far
        # knot's rows keep their zeros, so they read nan where the array does
        _assert_scalar_reads_match_arrays(prof, np.array(levels))
    assert solved > 7000 and inside > 40    # starts inside a non-final piece


def _grid_passes(rho, lo):
    try:
        sympl._check_monotone(rho, lo)
    except NonMonotoneProfile:
        return False
    return True


def _shells_or_refusal(amb, rho, k):
    try:
        return [(s.l, s.m.hex(), s.value.hex(), s.index)
                for s in shells(amb, rho, k, lmax=3)]
    except (DomainError, NonMonotoneProfile) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the far knot's grid
def test_monotone_certificate_passes_nothing_the_grid_refuses(monkeypatch):
    # The 4001-point grid of `_check_monotone` is the oracle: every profile
    # the coefficient certificate accepts passes it, and `shells` accepts,
    # refuses and words its refusals as the grid-only code does.  Seeded:
    # REF from -0.3 pi to -4000 pi and -1e9; convex and non-convex pieces of
    # degree 2 to 6; rho' jumping down at the knots; rho'(1-) != 0.
    rng = np.random.default_rng(48)
    cases = [("ref", ref_profile(-x * math.pi, float(rng.uniform(0.01, 0.6))))
             for x in np.geomspace(0.3, 4000.0, 40).tolist() + [1e9 / math.pi]]
    for i in range(240):
        kind = ("convex", "non-convex", "jump", "end")[i % 4]
        cases.append((kind, _piecewise_profile(
            rng, 3 + i % 5, convex=kind != "non-convex", flat=True,
            jump=-float(rng.choice([1e-12, 1e-10, 1e-3])) * (kind == "jump"),
            end=float(rng.choice([-1.0, -1e-11, 1e-11, 1e-3]))
            * (kind == "end"))))
    cases.append(("far knot", RadialProfile(       # s^2 overflows on piece 0
        [-1e200, 0.5, 1.0], [[0.0, 0.0, -2.0, 1.0], [0.0, 1.0, -2.0, 0.75]])))
    tally = {}
    for kind, prof in cases:
        for lo in (0.0, float(rng.uniform(-0.2, 0.9))):
            rho = RadialProfile(prof.knots, prof.coeffs, c=prof.c, delta=lo)
            fast = sympl._certify_monotone(rho, lo)
            grid = _grid_passes(rho, lo)
            assert grid or not fast, (kind, lo, rho.to_json())
            key = (kind, fast, grid)
            tally[key] = tally.get(key, 0) + 1
            amb = Ambient(n=1, R=float(rng.uniform(0.5, 2.0)))
            got = _shells_or_refusal(amb, rho, 3)
            with monkeypatch.context() as mp:
                mp.setattr(sympl, "_certify_monotone", lambda rho, lo: False)
                assert _shells_or_refusal(amb, rho, 3) == got
    # the oracle has profiles the grid refuses and non-REF ones certified
    assert sum(n for (_, _, grid), n in tally.items() if not grid) >= 50
    assert sum(n for (kind, fast, _), n in tally.items()
               if fast and kind != "ref") >= 50
    fast = sum(n for (_, fast, _), n in tally.items() if fast)
    print("certified: %d of %d seeded profiles" % (fast, 2 * len(cases)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the far knot's grid
def test_grid_refuses_a_non_finite_drho():
    # (m + 1e200)^2 overflows on piece 0, so rho' reads 0.0 * inf = nan on
    # the whole grid, which no comparison of its steps refuses
    rho = RadialProfile([-1e200, 0.5, 1.0], np.zeros((2, 4)))
    assert not sympl._certify_monotone(rho, 0.0)
    with pytest.raises(NonMonotoneProfile, match="rho' is not finite"):
        shells(Ambient(n=1), rho, 3)


def test_monotone_certificate_refuses_where_grid_rounding_decides():
    # rho'(m) = A (m - c)^p - A (1 - c)^p - 1 on one piece from knot 0, read
    # from lo = c: rho'' >= 0 by its Bernstein bound and rho' drops at no
    # knot, but the grid sums rho' from coefficients up to ~1e8 that cancel
    # to about A (m - c)^p, flat near c, so its rounding noise alone makes
    # grid steps fall by over 1e-10 there.  Only the certificate's running
    # error bound on those sums (e <= 1.25e-11) refuses these profiles.
    refused = 0
    for p, A, c in itertools.product((5, 6, 7), (2e5, 5e5, 1e6, 2e6),
                                     (0.1, 0.17, 0.7)):
        row = [A * math.comb(p, j) * (-c) ** (p - j) for j in range(p + 1)]
        row[0] -= A * (1.0 - c) ** p + 1.0
        rho = RadialProfile([0.0, 1.0], [
            [x / (q + 1) for q, x in enumerate(row)][::-1] + [5.0]], delta=c)
        grid = _grid_passes(rho, c)
        assert grid or not sympl._certify_monotone(rho, c), (p, A, c)
        refused += not grid
        if not grid:
            assert _shells_or_refusal(Ambient(n=1), rho, 3) == \
                "NonMonotoneProfile: rho' is not non-decreasing on [%g, 1]" % c
    assert refused >= 10


def test_benchmark_ref_profiles_take_the_certificate(monkeypatch):
    # every REF(c, delta) of the barcode_family ranges (|c|/pi from 1.05 to
    # 58, delta from 0.05 to 0.3) and of |c| <= 200 pi is certified, so
    # `shells` reads no grid for it
    rng = np.random.default_rng(7)
    cases = [(x, d) for x in (1.05, 58.0, 200.0) for d in (0.05, 0.3)]
    cases += zip(rng.uniform(1.05, 58.0, 300).tolist(),
                 rng.uniform(0.05, 0.3, 300).tolist())
    cases += zip(rng.uniform(0.3, 200.0, 300).tolist(),
                 rng.uniform(0.01, 0.9, 300).tolist())
    for c_over_pi, delta in cases:
        rho = ref_profile(-c_over_pi * math.pi, delta)
        assert sympl._certify_monotone(rho, delta), (c_over_pi, delta)

    def refuse(*args):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(sympl, "_check_monotone", refuse)
    for k in (1, 3):
        assert len(shells(Ambient(n=1), ref_profile(-30.5 * math.pi, 0.17),
                          k)) > 30


def test_shells_read_the_profile_a_fixed_number_of_times(monkeypatch):
    # each shell's rho(m_l) is summed by `_scalar` straight, so `read` runs
    # as often for 59 shells as for 19
    calls, read = [], RadialProfile.read

    def counted(self, m, lo, hi):
        calls.append((lo, hi))
        return read(self, m, lo, hi)

    monkeypatch.setattr(RadialProfile, "read", counted)
    counts = []
    for L in (19, 59):
        calls.clear()
        rho = ref_profile(-(L + 0.5) * math.pi, 0.1)
        assert len(shells(Ambient(n=1), rho, 1)) == L + 1
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("n, R", [(1, 1.0), (1, 1.3), (2, 1.0), (2, 1.3)])
def test_shell_values_increase_with_l(n, R):
    # rho'(m_l) = -(l/k) A gives dc_l/dl = m_l A > 0, with m_l decreasing in
    # l: so c_{l+1} - c_l lies between m_{l+1} A and m_l A.  This is what
    # lets the default window of ball_complex stop bisecting at l = k.
    amb = Ambient(n=n, R=R)
    area = math.pi * R**2
    for k in (1, 3, 5):
        for c_over_pi in (0.9, 1.3, 3.5, 12.0, 60.0):
            for delta in (0.05, 0.1, 0.25):
                rho = ref_profile(-c_over_pi * math.pi, delta)
                sh = shells(amb, rho, k)[:-1]
                for s, t in zip(sh, sh[1:]):
                    assert t.value > s.value
                    step = t.value - s.value
                    assert t.m * area - 1e-9 <= step <= s.m * area + 1e-9


@pytest.mark.parametrize("x", [
    pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400"),
    math.nan, math.inf, -math.inf, True, False, "1", None, [1.0],
    np.int64(2)])
def test_number_refuses_and_never_raises(x):
    assert sympl._number(x) is None


def test_number_reads_ints_and_floats_as_floats():
    for x, want in ((np.float64(1.5), 1.5), (3, 3.0), (-0.0, -0.0),
                    (2**1023, 2.0**1023), (sys.float_info.max,) * 2):
        got = sympl._number(x)
        assert type(got) is float and got == want
    assert sympl._number(int(sys.float_info.max) + 1) is None


def test_ambient_keeps_the_int_and_float_it_read():
    amb = Ambient(n=np.int64(2), R=np.float64(1.3))
    assert type(amb.n) is int and type(amb.R) is float
    assert amb == Ambient(n=2, R=1.3)
    assert (type(Ambient(n=1, R=2).R), Ambient(n=1, R=2).R) == (float, 2.0)
    cert = find_obstruction(SqueezeQuery(1.5, 1.2))
    assert certificate_json(cert, evidence(cert, Ambient(n=np.int64(2)))) == \
        certificate_json(cert, evidence(cert, Ambient(n=2)))


@pytest.mark.parametrize("c", ["-1", None, True, math.nan, -math.inf, 0.0,
                               1.0, pytest.param(-10**400, id="-10**400")])
def test_ref_profile_refuses_a_slope_that_is_no_negative_number(c):
    with pytest.raises(DomainError, match="slope c must be negative"):
        ref_profile(c, 0.1)


@pytest.mark.parametrize("delta", ["0.1", None, True, math.nan, 0.0, 1.0,
                                   1 - 2 * BLEND_WIDTH])
def test_ref_profile_refuses_a_delta_that_is_no_number_in_range(delta):
    with pytest.raises(DomainError, match="delta must lie in"):
        ref_profile(-1.0, delta)


def test_ref_profile_keeps_its_numbers_as_given():
    rho = ref_profile(-2, 0.25)
    assert (rho.c, rho.delta) == (-2, 0.25) and type(rho.c) is int
    assert rho.to_json()["pieces"] == ref_profile(-2.0, 0.25).to_json()["pieces"]


@pytest.mark.parametrize("t", ["0.5", True, None, math.nan, math.inf])
def test_radial_map_refuses_a_time_that_is_no_number(amb1, rho_ref, t):
    with pytest.raises(DomainError, match="map time t"):
        RadialMap(amb1, rho_ref, t)
    assert type(RadialMap(amb1, rho_ref, 1).t) is float


def test_linear_rotation_needs_one_angle_per_coordinate():
    with pytest.raises(DomainError, match="one rotation angle per complex"):
        LinearRotation(Ambient(n=2), [0.5])
    with pytest.raises(DomainError, match="one rotation angle per complex"):
        LinearRotation(Ambient(n=1), [0.5, 0.25])


def test_shell_count_refuses_a_ball_too_small_for_its_count(rho_ref):
    # -rho'(0) k / (pi R^2) is inf at R = 1e-160 and about 3e300 at 1e-150
    for R in (1e-160, 1e-150):
        with pytest.raises(DomainError, match="is too small"):
            sympl.shell_count(Ambient(n=1, R=R), rho_ref, 3)
