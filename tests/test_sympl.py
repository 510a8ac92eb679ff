"""Flows, profiles, shells, contact lifts, translated chains."""

import json
import math

import numpy as np
import pytest

from gfs import (Ambient, ContactPoint, DomainError, EvenK, LinearRotation,
                 RadialMap, RadialProfile, flow, lift_contact, phi_m,
                 ref_profile, room_transform, shells, translated_chains,
                 verify_chain)
from gfs.sympl import (BLEND_WIDTH, ComposedMap, action_density,
                       reeb_translate)


def test_ambient_basics():
    amb = Ambient(n=2, R=1.5)
    assert amb.dim == 4
    z = np.array([1.5, 0.0, 0.0, 0.0])
    assert amb.H(z) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        Ambient(n=0, R=1.0)
    with pytest.raises(DomainError):
        Ambient(n=1, R=-1.0)


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


def test_profile_matches_ppoly_oracle():
    PPoly = pytest.importorskip("scipy.interpolate").PPoly
    rng = np.random.default_rng(11)
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
])
def test_malformed_profile_shape_rejected(knots, pieces):
    with pytest.raises(DomainError):
        RadialProfile.from_json({"knots": knots, "pieces": pieces})


@pytest.mark.parametrize("key, value", [
    ("c", "x"), ("delta", "y"),                   # not numbers
    ("c", True), ("delta", [0.1]),
    ("c", float("inf")), ("delta", float("nan")),  # not finite
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
        assert phi.S(z) == pytest.approx(0.37 * action_density(rho_ref, m),
                                         rel=1e-12, abs=1e-15)
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


def test_contact_lift_and_chains(amb1, rho_ref):
    lift = lift_contact(amb1, rho_ref)
    p = ContactPoint(np.array([0.3, 0.4]), 0.25)
    q = lift(p)
    assert lift.conformal_factor(p) == 0.0
    assert q.theta == pytest.approx(0.25 - lift.S(p.base))
    r = reeb_translate(p, 0.5)
    assert r.theta == pytest.approx(0.75)
    for k in (1, 3, 5):
        chains = translated_chains(amb1, rho_ref, k)
        for ch in chains:
            assert ch.k == k
            assert ch.action == pytest.approx(k * ch.t, rel=1e-12)
            assert verify_chain(lift, ch, 1e-9)
            assert verify_chain(lift, ch.rotated(), 1e-9)


def test_chain_ids_and_actions(amb1, rho_ref, shells3):
    chains = translated_chains(amb1, rho_ref, 3)
    ids = [ch.orbit_id for ch in chains]
    assert ids == ["shell-l1", "shell-l2", "origin"]
    by_id = dict(zip(ids, chains))
    for s in shells3:
        key = "origin" if s.kind == "isolated" else "shell-l%d" % s.l
        assert by_id[key].action == pytest.approx(s.value, rel=1e-12)


def test_room_conjugation_map():
    # phi_m contracts toward the squeezed radius and is injective on a ball.
    p = ContactPoint(np.array([0.5, 0.1]), 0.3)
    q = phi_m(2, p)
    assert float(np.dot(q.base, q.base)) == pytest.approx(
        float(np.dot(p.base, p.base)) / (1.0 + 2 * math.pi * float(np.dot(p.base, p.base))))
    assert q.theta == p.theta
    with pytest.raises(DomainError):
        phi_m(-1, p)
    assert room_transform(2, 1.0) == pytest.approx(1.0 / 3.0)
    assert room_transform(3, math.inf) == pytest.approx(1.0 / 3.0)
    assert room_transform(2, 0.0) == 0.0
    # monotone in A
    xs = np.linspace(0.0, 10.0, 50)
    ys = [room_transform(2, x) for x in xs]
    assert np.all(np.diff(ys) > 0)
