"""Generating functions: generation identities, compositions, contact forms."""

import math

import numpy as np
import pytest

from gfs import (Ambient, AngleOutOfRange, DomainError, EvenK, LinearRotation,
                 NotNormalized, RadialMap, RadialProfile, contact_lift_gf,
                 contact_p, contact_sharp, fibre_critical_config,
                 gf_compose_chain, gf_linear_rotation, gf_small_map,
                 gf_time_one, graph_of, reeb_shift, ref_profile, sharp_k,
                 shells)
from gfs.genfun import alternating_resolve, chain_config
from gfs.sympl import j0_apply, j0_matrix

from conftest import fd_grad, fd_hess


def test_linear_rotation_generates_its_graph(amb1):
    gf = gf_linear_rotation(amb1, [0.8])
    mp = gf.map_handle
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.normal(0.0, 1.0, 2)
        gp = graph_of(mp, z)
        # the base variable of a fibreless gf is the graph base itself
        assert np.allclose(gf.grad(gp.base), gp.covector, atol=1e-13)
    with pytest.raises(AngleOutOfRange):
        gf_linear_rotation(amb1, [math.pi])


def test_small_map_generates_its_graph(amb1, rho_ref):
    phi = RadialMap(amb1, rho_ref, 0.2)
    gf = gf_small_map(amb1, phi)
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = rng.normal(0.0, 0.6, 2)
        gp = graph_of(phi, z)
        assert np.allclose(gf.grad(gp.base), gp.covector, atol=1e-10)
        # value = primitive + half symplectic cross term
        assert gf.value(gp.base) == pytest.approx(
            phi.S(z) + 0.5 * (z[0] * phi(z)[1] - z[1] * phi(z)[0]),
            rel=1e-10, abs=1e-12)
    # exact Hessian vs finite differences
    q = np.array([0.31, -0.12])
    assert np.allclose(gf.hess(q), fd_hess(gf.grad, q), atol=1e-6)


def test_small_map_rejects_rotation_of_pi(amb1, rho_ref):
    # rho'(0) = -0.9 pi: t = 1 rotates by 1.8 pi, t = 0.6 by 1.08 pi; a
    # rotation by pi makes (id + phi)/2 singular
    for t in (1.0, 0.6):
        with pytest.raises(AngleOutOfRange):
            gf_small_map(amb1, RadialMap(amb1, rho_ref, t))


# An unvalidated profile whose far knot overflows: rho' reads nan on
# [0, 0.5), so every rotation of its maps is nan.
_NAN_ROTATION = ([-1e200, 0.5, 1.0], [[0, 0, -2, 1], [0, 1, -2, 0.75]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the far knot's arrays
def test_small_map_rejects_a_nan_rotation(amb1):
    mp = RadialMap(amb1, RadialProfile(*_NAN_ROTATION), 0.01)
    assert math.isnan(mp.max_rotation())
    with pytest.raises(AngleOutOfRange):
        gf_small_map(amb1, mp)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the far knot's arrays
def test_time_one_rejects_a_nan_peak(amb1):
    with pytest.raises(AngleOutOfRange):
        gf_time_one(amb1, RadialProfile(*_NAN_ROTATION))


@pytest.mark.parametrize("amb, radial", [
    (Ambient(n=1), False), (Ambient(n=2), True), (Ambient(n=1, R=1.3), True),
], ids=["not-radial", "other-n", "other-R"])
def test_small_map_rejects_a_foreign_map(amb, radial, amb1, rho_ref):
    mp = (RadialMap(amb1, rho_ref, 0.2) if radial
          else LinearRotation(amb1, [0.8]))
    with pytest.raises(DomainError):
        gf_small_map(amb, mp)


def _small_map_case(n, R, steep, seed=29):
    """A time-1/5 slice or a steep slice rotating by up to 3pi/4, and seeded
    points: a cloud reaching past the ball, plus points just inside it."""
    amb = Ambient(n=n, R=R)
    t = 0.75 * math.pi * R**2 / (2.0 * 0.9 * math.pi) if steep else 0.2
    mp = RadialMap(amb, ref_profile(-0.9 * math.pi, 0.1), t)
    rng = np.random.default_rng(seed)
    points = list(rng.normal(0.0, 0.6 * R, (200, 2 * n)))
    for eps in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
        q = rng.normal(size=2 * n)
        points.append(q * R * math.sqrt(1.0 - eps) / np.linalg.norm(q))
    assert any(amb.H(q) >= 1.0 for q in points)
    assert any(1.0 - 1e-9 <= amb.H(q) < 1.0 for q in points)
    return amb, mp, points


def _flow_jet(mp, q):
    """The small-map jet through the flow: S(zbar) plus the cross term, the
    graph covector at zbar, and sym(2 J0 (I - D)(I + D)^{-1}), D = Dphi(zbar)."""
    z = mp.midpoint_inverse(q)
    X = mp(z)
    value = mp.S(z) + 0.5 * float(np.dot(z[0::2], X[1::2])
                                  - np.dot(z[1::2], X[0::2]))
    D = mp.jacobian(z)
    eye = np.eye(len(q))
    H = 2.0 * j0_matrix(len(q)) @ np.linalg.solve(eye + D, eye - D)
    return value, graph_of(mp, z).covector, 0.5 * (H + H.T)


SMALL_MAP_CASES = [(n, R, steep) for n, R in ((1, 1.0), (2, 1.3))
                   for steep in (False, True)]


@pytest.mark.parametrize("n, R, steep", SMALL_MAP_CASES)
def test_small_map_jet_matches_the_flow(n, R, steep):
    # values vanish as H(q) -> 1, so each order is compared to its largest
    # entry over the case
    amb, mp, points = _small_map_case(n, R, steep)
    G = gf_small_map(amb, mp)
    closed = [G.jet(q, 2) for q in points]
    oracle = [_flow_jet(mp, q) for q in points]
    for i, name in enumerate(("value", "grad", "hess")):
        scale = max(np.max(np.abs(jet[i])) for jet in closed)
        err = max(np.max(np.abs(a[i] - b[i])) for a, b in zip(closed, oracle))
        assert err <= 1e-13 * scale, name


def _row_midpoint(mp, q):
    """One midpoint inverse the scalar way: q itself where H(q) >= 1."""
    h = mp.amb.H(q)
    if not h < 1.0:
        return q.copy()
    return q - math.tan(0.5 * mp._level_beta(h)) * j0_apply(q)


def _row_small_map_jet(mp, q, order):
    """One small-map jet the scalar way: np.outer and a diagonal walk."""
    amb, t, R2 = mp.amb, mp.t, mp.amb.R**2
    m = amb.H(_row_midpoint(mp, q))
    r, dr, d2r = mp.rho.read(m, 0, 2)
    b = t * dr / R2
    s2b = math.sin(2.0 * b)
    value, tb = t * (r - m * dr) + 0.5 * R2 * m * s2b, math.tan(b)
    dbeta, cos2 = 2.0 * t * d2r / R2, math.cos(b) ** 2
    dtb = 0.5 * dbeta / cos2 / (cos2 - 0.5 * m * s2b * dbeta)
    H = (4.0 * dtb / R2) * np.outer(q, q)
    H.flat[::len(q) + 1] += 2.0 * tb
    return value, 2.0 * tb * q, H


def _one_ulp_inside(amb):
    """A point (x, y, 0, ..) with H one ulp below 1."""
    x = amb.R
    for _ in range(8):
        x = np.nextafter(x, 0.0)
        for j in range(200):
            q = np.zeros(amb.dim)
            q[:2] = x, j * 2.0**-28
            if amb.H(q) == np.nextafter(1.0, 0.0):
                return q
    raise AssertionError("no point one ulp inside the ball")


@pytest.mark.parametrize("n, R", [(1, 1.0), (2, 1.3)])
def test_stacked_small_map_reads_equal_row_by_row_reads(rho_ref, n, R):
    # rows inside the ball, on and beyond its boundary, with -0.0 entries
    # inside and outside, and one at H(q) one ulp below 1: the stacked
    # inversion and jet match the scalar reads of each row bit for bit
    amb = Ambient(n=n, R=R)
    rng = np.random.default_rng(41 + n)
    rows = list(rng.normal(0.0, 0.5 * R, (6, 2 * n))) + list(
        rng.normal(0.0, 1.5 * R, (3, 2 * n)))
    for head in ([-0.0, 0.3 * R], [-0.0, -1.5 * R], [R, -0.0], [-0.0, -0.0]):
        rows.append(np.array(head + [-0.0] * (2 * n - 2)))
    Q = np.array(rows + [_one_ulp_inside(amb)])
    hs = [amb.H(q) for q in Q]
    assert 1.0 in hs and max(hs) > 1.0
    for t in (0.2, 0.75 * math.pi * R**2 / (2.0 * 0.9 * math.pi)):
        mp = RadialMap(amb, rho_ref, t)
        G = gf_small_map(amb, mp)
        Z = mp.midpoint_inverse(Q)
        assert Z.shape == Q.shape
        for q, z in zip(Q, Z):
            assert z.tobytes() == mp.midpoint_inverse(q).tobytes()
            assert z.tobytes() == _row_midpoint(mp, q).tobytes()
        assert np.signbit(Z[-4, 0]) and np.signbit(Z[-4, 2:]).all()
        for order in (0, 1, 2):
            stacked = G._jet.stack(Q, order)
            for i, q in enumerate(Q):
                want = _row_small_map_jet(mp, q, order)
                one = G.jet(q, order)
                for k in range(order + 1):
                    got = np.asarray(stacked[k][i]).tobytes()
                    assert got == np.asarray(want[k]).tobytes(), (i, order, k)
                    assert got == np.asarray(one[k]).tobytes(), (i, order, k)


@pytest.mark.parametrize("n, R, steep", SMALL_MAP_CASES)
def test_small_map_jet_vanishes_outside_the_ball(n, R, steep):
    amb, mp, points = _small_map_case(n, R, steep)
    G = gf_small_map(amb, mp)
    rng = np.random.default_rng(31)
    for scale in (1.0, 1.0 + 1e-12, 1.7):
        q = rng.normal(size=2 * n)
        points.append(q * scale * R / np.linalg.norm(q))
    outside = [q for q in points if amb.H(q) >= 1.0]
    assert len(outside) >= 3
    for q in outside:
        for order in (0, 1, 2):
            value, g, H = G.jet(q, order)
            assert value == 0.0
            assert order < 1 or np.all(g == 0.0)
            assert order < 2 or np.all(H == 0.0)


def test_small_map_jet_runs_no_flow(amb1, rho_ref, monkeypatch):
    G = gf_small_map(amb1, RadialMap(amb1, rho_ref, 0.2))

    def refuse(*args):
        raise AssertionError("the small-map jet called the flow")

    monkeypatch.setattr(RadialMap, "__call__", refuse)
    monkeypatch.setattr(RadialMap, "jacobian", refuse)
    value, g, H = G.jet(np.array([0.31, -0.12]), 2)
    assert math.isfinite(value) and np.all(np.isfinite(H))
    assert np.all(g != 0.0)


def test_compose_chain_parity_guard(amb1, rho_ref):
    phi = RadialMap(amb1, rho_ref, 0.5)
    g = gf_small_map(amb1, phi)
    with pytest.raises(EvenK):
        gf_compose_chain([g, g])


def test_alternating_resolve_inverts_midpoints():
    rng = np.random.default_rng(2)
    ws = [rng.normal(size=2) for _ in range(5)]
    mids = [0.5 * (ws[s] + ws[(s + 1) % 5]) for s in range(5)]
    back = alternating_resolve(mids)
    for a, b in zip(ws, back):
        assert np.allclose(a, b, atol=1e-14)
    with pytest.raises(EvenK):
        alternating_resolve(mids[:4])


@pytest.mark.parametrize("K", [1, 3, 5, 7, 15])
def test_alternating_resolve_is_bit_equal_to_the_slot_loop(K):
    mids = list(np.random.default_rng(K).normal(0.0, 1.0, (K, 4)))
    want = []
    for s in range(K):
        acc = np.zeros(4)
        for l in range(K):
            acc += ((-1) ** l) * mids[(s + l) % K]
        want.append(acc)
    got = alternating_resolve(mids)
    assert len(got) == K
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_time_one_slices_and_generation(F, amb1, rho_ref):
    # five slices keep each rotation under pi/2 for c = -0.9 pi
    assert F.meta["K"] == 5
    assert F.base_dim == 2 and F.fibre_dim == 4 * 2
    phi = F.map_handle
    whole = RadialMap(amb1, rho_ref, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.normal(0.0, 0.55, 2)
        assert np.allclose(phi(z), whole(z), atol=1e-10)
        base, zeta = fibre_critical_config(F, z)
        w = np.concatenate([base, zeta])
        g = F.grad(w)
        gp = graph_of(phi, z)
        assert np.max(np.abs(g[2:])) < 1e-10          # fibre-critical
        assert np.allclose(base, gp.base, atol=1e-10)  # over the graph base
        assert np.allclose(g[:2], gp.covector, atol=1e-10)
        assert F.value(w) == pytest.approx(
            whole.S(z) + 0.5 * (z[0] * whole(z)[1] - z[1] * whole(z)[0]),
            rel=1e-9, abs=1e-11)


def test_composed_grad_hess_consistency(F):
    rng = np.random.default_rng(4)
    w = rng.normal(0.0, 0.4, F.total_dim)
    assert np.allclose(F.grad(w), fd_grad(F.value, w), atol=1e-7)
    assert np.allclose(F.hess(w), fd_hess(F.grad, w), atol=1e-6)


def test_far_field_is_quadratic(F):
    # Outside a bounded region all slice maps are the identity, so F is
    # exactly (fibre quadratic) + (terms linear in the fibre): the fibre
    # gradient minus that of the quadratic extension, 2 Q zeta, must be
    # constant along fibre rays.
    rng = np.random.default_rng(5)
    q = rng.normal(0.0, 1.0, 2)
    direction = rng.normal(size=F.fibre_dim)
    direction /= np.linalg.norm(direction)
    diffs = []
    for scale in (80.0, 160.0):
        zeta = scale * direction
        w = np.concatenate([q, zeta])
        diffs.append(F.grad(w)[F.base_dim:] - 2.0 * F.quad_part @ zeta)
    assert np.allclose(diffs[0], diffs[1], atol=1e-9)


def test_sharp_structure_and_parity(F, F3):
    assert F3.meta["kind"] == "sharp" and F3.meta["k"] == 3
    assert F3.base_dim == 2
    assert F3.total_dim == 3 * F.total_dim
    with pytest.raises(EvenK):
        sharp_k(F, 2)


def test_sharp_cyclic_invariance_sample(F3):
    rng = np.random.default_rng(6)
    cyc = F3.sym_ops["cyclic"]
    for _ in range(25):
        w = rng.normal(0.0, 0.5, F3.total_dim)
        assert F3.value(cyc(w)) == pytest.approx(F3.value(w), abs=1e-12)


def _block_jet(G, w, order):
    """Jet of a cyclic composition assembled slot by slot: each factor's jet
    (recursively, for a composed factor) at its midpoint and fibre, spread
    over the z_j, z_{j+1} and zeta_j blocks, plus the twist 0.5<z_j, J0
    z_{j+1}>.  The oracle for the flat form."""
    if G.meta.get("kind") not in ("cyclicComposition", "sharp"):
        return G.jet(w, order)
    lay, factors = G.meta["layout"], G.meta["factors"]
    K, n2, J0 = lay.K, lay.n2, j0_matrix(lay.n2)
    value, g, H = 0.0, np.zeros(lay.total), np.zeros((lay.total, lay.total))
    for j in range(K):
        zj, zn = lay.z[j], lay.z[(j + 1) % K]
        fj = lay.f[j]
        vj, gj, Hj = _block_jet(factors[j], lay.factor_args(w, j), order)
        value += vj + 0.5 * float(w[zj] @ J0 @ w[zn])
        if order >= 1:
            g[zj] += 0.5 * gj[:n2] + 0.5 * J0 @ w[zn]
            g[zn] += 0.5 * gj[:n2] + 0.5 * J0.T @ w[zj]
            g[fj] += gj[n2:]
        if order >= 2:
            for a in (zj, zn):
                for b in (zj, zn):
                    H[a, b] += 0.25 * Hj[:n2, :n2]
                H[a, fj] += 0.5 * Hj[:n2, n2:]
                H[fj, a] += 0.5 * Hj[n2:, :n2]
            H[fj, fj] += Hj[n2:, n2:]
            H[zj, zn] += 0.5 * J0
            H[zn, zj] += 0.5 * J0.T
    return value, g if order >= 1 else None, H if order >= 2 else None


def _composition_cases(F, amb1, rho_ref):
    amb2 = Ambient(n=2, R=1.3)
    small = gf_small_map(amb1, RadialMap(amb1, rho_ref, 0.2))
    rot = gf_linear_rotation(amb1, [0.8])
    return {"F": F, "F3": sharp_k(F, 3), "F5": sharp_k(F, 5),
            "n2-F3": sharp_k(gf_time_one(amb2, rho_ref), 3),
            "mixed": gf_compose_chain([rot, small, F]),
            # a fibred leaf between two fibreless ones: unequal leaf sizes
            "uneven": gf_compose_chain([rot, reeb_shift(F, 0.3), small]),
            "nested": sharp_k(sharp_k(F, 3), 3)}


def test_flat_jet_matches_the_slot_assembly(F, amb1, rho_ref):
    rng = np.random.default_rng(41)
    for name, G in _composition_cases(F, amb1, rho_ref).items():
        points = rng.normal(0.0, 0.5, (12, G.total_dim))
        for order in (0, 1, 2):
            flat = [G.jet(w, order) for w in points]
            oracle = [_block_jet(G, w, order) for w in points]
            for i in range(order + 1):
                scale = max(np.max(np.abs(jet[i])) for jet in oracle)
                err = max(np.max(np.abs(np.subtract(a[i], b[i])))
                          for a, b in zip(flat, oracle))
                assert err <= 1e-13 * scale, (name, order, i, err / scale)


def test_reeb_shifted_factor_is_not_inlined(F):
    # reeb_shift copies F's meta; the shifted factor must stay one leaf
    G = gf_compose_chain([reeb_shift(F, 0.3), F, F])
    plain = gf_compose_chain([F, F, F])
    rng = np.random.default_rng(42)
    for w in rng.normal(0.0, 0.5, (10, G.total_dim)):
        assert abs(G.value(w) - (plain.value(w) - 0.3)) <= 1e-13


@pytest.mark.parametrize("w, order", [
    (np.zeros(31), 0), (np.zeros(29), 1), (np.zeros(30), 5),
    (np.zeros(30), -1)], ids=["long", "short", "order-5", "order-minus-1"])
def test_jet_rejects_a_bad_shape_or_order(F3, w, order):
    assert F3.total_dim == 30
    with pytest.raises(DomainError):
        F3.jet(w, order)


def test_reeb_shift_bookkeeping(F):
    G = reeb_shift(F, 0.7)
    w = np.zeros(F.total_dim)
    assert G.value(w) == pytest.approx(F.value(w) - 0.7)
    assert not G.normalized
    with pytest.raises(NotNormalized):
        contact_lift_gf(G)


def test_reeb_shifted_config_is_fibre_critical(F):
    # F - t has the critical points of F: the config reads through the shift
    G = reeb_shift(F, 0.3)
    rng = np.random.default_rng(35)
    for _ in range(10):
        z = rng.normal(0.0, 0.55, 2)
        base, zeta = fibre_critical_config(G, z)
        want = fibre_critical_config(F, z)
        assert np.array_equal(base, want[0]) and np.array_equal(zeta, want[1])
        assert len(zeta) == G.fibre_dim
        g = G.grad(np.concatenate([base, zeta]))
        assert np.max(np.abs(g[G.base_dim:])) <= 1e-12


def test_chain_config_over_reeb_shifted_factors(F, amb1, rho_ref):
    shifted = [reeb_shift(F, 0.3), F, reeb_shift(F, -0.2)]
    G = gf_compose_chain(shifted)
    shell = next(s for s in shells(amb1, rho_ref, 3) if s.l == 1)
    rng = np.random.default_rng(36)
    for _ in range(5):
        u = rng.normal(size=2)
        points = [math.sqrt(shell.m) * u / np.linalg.norm(u)]
        for _ in range(2):
            points.append(F.map_handle(points[-1]))
        zs, zetas = chain_config(shifted, points)
        plain = chain_config([F] * 3, points)
        for a, b in zip(zs + zetas, plain[0] + plain[1]):
            assert np.array_equal(a, b)
        g = G.grad(np.concatenate(zs + zetas))
        assert np.max(np.abs(g[G.base_dim:])) <= 1e-12


def test_contact_lift_theta_independent(F):
    L = contact_lift_gf(F)
    assert L.contact and L.base_dim == 3
    rng = np.random.default_rng(7)
    w = rng.normal(0.0, 0.5, L.total_dim)
    v0 = L.value(w)
    for th in (0.0, 0.3, -1.7):
        w2 = w.copy()
        w2[2] = th
        assert L.value(w2) == v0
    g = L.grad(w)
    assert g[2] == 0.0


def _rotation_contact_sharp(k=3, angle=0.8):
    amb = Ambient(n=1, R=1.0)
    base = gf_linear_rotation(amb, [angle])
    return contact_sharp(contact_lift_gf(base), k)


def test_contact_sharp_exact_homogeneity():
    G = _rotation_contact_sharp()
    ops = G.sym_ops
    rng = np.random.default_rng(8)
    for _ in range(25):
        w = rng.normal(0.0, 0.7, G.total_dim)
        a = float(rng.normal())
        assert G.value(ops["r_action"](w, a)) == pytest.approx(
            math.exp(a) * G.value(w), rel=1e-12, abs=1e-12)
        assert G.value(ops["cyclic"](w)) == pytest.approx(G.value(w),
                                                          abs=1e-12)
        assert G.value(ops["z_shift"](w)) == pytest.approx(G.value(w),
                                                           abs=1e-12)
    with pytest.raises(EvenK):
        _rotation_contact_sharp(k=2)


def test_contact_sharp_grad_hess_consistency():
    G = _rotation_contact_sharp()
    rng = np.random.default_rng(9)
    w = rng.normal(0.0, 0.5, G.total_dim)
    assert np.allclose(G.grad(w), fd_grad(G.value, w), atol=1e-7)
    assert np.allclose(G.hess(w), fd_hess(G.grad, w), atol=1e-6)


def _theta_factor(n, seed):
    """Contact-base factor that reads theta:
    F(u, theta; zeta) = u^T A u (1 + 0.3 sin 2 pi theta) + zeta^T B zeta
                        + 0.2 cos(2 pi theta) <u, zeta>."""
    from gfs import GenFn
    rng = np.random.default_rng(seed)
    n2 = 2 * n
    A = rng.normal(size=(n2, n2))
    A = A + A.T
    B = rng.normal(size=(n2, n2))
    B = B + B.T + 6.0 * np.eye(n2)
    tp = 2.0 * math.pi

    def jet(w, order):
        u, th, z = w[:n2], w[n2], w[n2 + 1:]
        s, c = math.sin(tp * th), math.cos(tp * th)
        Au = A @ u
        q, uz = float(u @ Au), float(u @ z)
        value = q * (1 + 0.3 * s) + float(z @ B @ z) + 0.2 * c * uz
        g = H = None
        if order >= 1:
            g = np.concatenate([2 * Au * (1 + 0.3 * s) + 0.2 * c * z,
                                [tp * (0.3 * c * q - 0.2 * s * uz)],
                                2 * B @ z + 0.2 * c * u])
        if order >= 2:
            H = np.zeros((2 * n2 + 1, 2 * n2 + 1))
            H[:n2, :n2] = 2 * A * (1 + 0.3 * s)
            H[:n2, n2] = H[n2, :n2] = tp * (0.6 * c * Au - 0.2 * s * z)
            H[:n2, n2 + 1:] = H[n2 + 1:, :n2] = 0.2 * c * np.eye(n2)
            H[n2, n2] = -tp * tp * (0.3 * s * q + 0.2 * c * uz)
            H[n2, n2 + 1:] = H[n2 + 1:, n2] = -0.2 * tp * s * u
            H[n2 + 1:, n2 + 1:] = 2 * B
        return value, g, H

    return GenFn(base_dim=n2 + 1, fibre_dim=n2, jet=jet, quad_part=B,
                 contact=True)


@pytest.mark.parametrize("n", [1, 2])
def test_contact_sharp_of_a_theta_dependent_factor(n):
    from gfs.sympl import j0_apply, j0_matrix
    fac = _theta_factor(n, seed=n)
    k = 3
    G = contact_sharp(fac, k)
    lay = G.meta["layout"]
    J0 = j0_matrix(2 * n)
    rng = np.random.default_rng(20 + n)
    for _ in range(3):
        w = rng.normal(0.0, 0.5, G.total_dim)
        want = 0.0
        for j in range(k):
            jn, jp = (j + 1) % k, (j - 1) % k
            r = w[lay.r[j]]
            u = math.exp(-r / 2) * (w[lay.z[j]] + w[lay.z[jn]]) / 2
            want += math.exp(r) * fac.value(
                np.concatenate([u, [w[lay.th[jn]]], w[lay.f[j]]]))
            want += 0.5 * float(w[lay.z[j]] @ J0 @ w[lay.z[jn]])
            want += math.exp(w[lay.r[jp]]) * (w[lay.th[j]] - w[lay.th[jn]])
        assert G.value(w) == pytest.approx(want, rel=1e-13)
        assert np.allclose(G.grad(w), fd_grad(G.value, w), atol=1e-7)
        assert np.allclose(G.hess(w), fd_hess(G.grad, w), atol=1e-6)


@pytest.mark.parametrize("n", [1, 2])
def test_p_of_a_theta_dependent_factor(n):
    fac = _theta_factor(n, seed=n)
    k = 3
    P = contact_p(fac, k)
    lay = P.meta["layout"]
    J0 = j0_matrix(2 * n)
    rng = np.random.default_rng(30 + n)
    for _ in range(3):
        w = rng.normal(0.0, 0.5, P.total_dim)
        slots = 0.0
        for j in range(k):
            jn, jp = (j + 1) % k, (j - 1) % k
            r = w[lay.r[j]]
            u = math.exp(-r / 2) * (w[lay.z[j]] + w[lay.z[jn]]) / 2
            slots += math.exp(r) * fac.value(
                np.concatenate([u, [w[lay.th[jn]]], w[lay.f[j]]]))
            slots += 0.5 * float(w[lay.z[j]] @ J0 @ w[lay.z[jn]])
            slots += math.exp(w[lay.r[jp]]) * (w[lay.th[j]] - w[lay.th[jn]])
        want = k / sum(math.exp(w[r]) for r in lay.r) * slots
        assert P.value(w) == pytest.approx(want, rel=1e-13)
        assert np.allclose(P.grad(w), fd_grad(P.value, w), atol=1e-7)
        assert np.allclose(P.hess(w), fd_hess(P.grad, w), atol=1e-6)


def test_p_is_conformal_correction_of_sharp(P3, F):
    sharp = P3.meta["sharp"]
    lay = P3.meta["layout"]
    k = P3.meta["k"]
    rng = np.random.default_rng(10)
    for _ in range(10):
        w = rng.normal(0.0, 0.5, P3.total_dim)
        scale = k / float(np.sum(np.exp(w[lay.r])))
        assert P3.value(w) == pytest.approx(scale * sharp.value(w),
                                            rel=1e-12, abs=1e-12)
    # with all r = 0 the correction is exactly 1
    w0 = rng.normal(0.0, 0.5, P3.total_dim)
    w0[lay.r] = 0.0
    assert P3.value(w0) == sharp.value(w0)


def test_p_invariances_sample(P3):
    ops = P3.sym_ops
    rng = np.random.default_rng(11)
    for _ in range(25):
        w = rng.normal(0.0, 0.5, P3.total_dim)
        v = P3.value(w)
        assert P3.value(ops["cyclic"](w)) == pytest.approx(v, abs=1e-12)
        assert P3.value(ops["r_action"](w, 0.7)) == pytest.approx(v, abs=1e-12)
        assert P3.value(ops["z_shift"](w)) == pytest.approx(v, abs=1e-12)


def test_p_grad_hess_consistency(P3):
    rng = np.random.default_rng(12)
    w = rng.normal(0.0, 0.3, P3.total_dim)
    assert np.allclose(P3.grad(w), fd_grad(P3.value, w), atol=2e-6)
    assert np.allclose(P3.hess(w), fd_hess(P3.grad, w), atol=2e-5)


def test_domain_point_requires_handle(amb1):
    from gfs import GenFn
    g = GenFn(base_dim=2, fibre_dim=0,
              jet=lambda w, order: (0.0, np.zeros(2), np.zeros((2, 2))),
              quad_part=np.zeros((0, 0)))
    with pytest.raises(DomainError):
        g.domain_point(np.zeros(2))


def test_one_factor_compositions_are_the_factor(F):
    assert sharp_k(F, 1) is F
    assert gf_compose_chain([F]) is F


def test_compose_chain_refuses_mixed_or_contact_factors(amb1):
    g1 = gf_linear_rotation(amb1, [0.8])
    g2 = gf_linear_rotation(Ambient(n=2), [0.8, 0.3])
    with pytest.raises(DomainError, match="same base dimension"):
        gf_compose_chain([g1, g1, g2])
    lift = contact_lift_gf(g1)
    with pytest.raises(DomainError, match="symplectic-base factors"):
        gf_compose_chain([lift, lift, lift])


def test_contact_sharp_refuses_a_symplectic_factor(amb1):
    with pytest.raises(DomainError, match="contact-base factor"):
        contact_sharp(gf_linear_rotation(amb1, [0.8]), 3)
