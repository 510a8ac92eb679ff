"""Critical-point solving, classification, orbit reconstruction, chain scans."""

import dataclasses
import math

import numpy as np
import pytest

from gfs import (Ambient, ContactPoint, DomainError, GenFn, NoConvergence,
                 NotFibreCritical, OrbitRelationViolated, RadialMap,
                 chain_scan, contact_lift_gf, contact_p,
                 gf_time_one, maslov,
                 newton_critical, reconstruct, seed_from_chain,
                 sharp_critical_seed, sharp_k, shells, to_csv,
                 translated_chains)
from gfs.genfun import alternating_resolve


def _quadratic_genfn(diag):
    diag = np.asarray(diag, dtype=float)

    def jet(w, order):
        return float(np.dot(diag * w, w)), 2.0 * diag * w, np.diag(2.0 * diag)

    return GenFn(base_dim=len(diag), fibre_dim=0, jet=jet,
                 quad_part=np.zeros((0, 0)))


def test_newton_on_quadratic_is_exact():
    G = _quadratic_genfn([1.0, -2.0, 3.0, -0.5])
    m = newton_critical(G, np.array([0.3, -0.4, 1.2, 0.8]))
    assert np.allclose(m.representative, 0.0, atol=1e-12)
    assert m.value == pytest.approx(0.0, abs=1e-14)
    assert m.index == 2 and m.nullity == 0
    assert m.kind == "isolated" and m.morse_bott


def test_newton_flags_degenerate_direction():
    G = _quadratic_genfn([1.0, 0.0, -1.0])
    m = newton_critical(G, np.array([0.1, 0.5, -0.2]))
    assert m.nullity == 1 and m.index == 1
    assert m.kind == "sphereShell"


def test_newton_no_convergence():
    # gradient never vanishes: grad = 1 everywhere, so every trial stalls
    G = GenFn(base_dim=1, fibre_dim=0,
              jet=lambda w, order: (float(w[0]), np.ones(1), np.zeros((1, 1))),
              quad_part=np.zeros((0, 0)))
    with pytest.raises(NoConvergence, match="stalled"):
        newton_critical(G, np.array([0.0]))
    # grad = w with a claimed Hessian of 1000: each step shrinks |grad| by
    # 0.1%, so the solve runs out of iterations well above NEWTON_TOL
    G = GenFn(base_dim=1, fibre_dim=0,
              jet=lambda w, order: (0.5 * float(w @ w), w.copy(),
                                    np.full((1, 1), 1e3)),
              quad_part=np.zeros((0, 0)))
    with pytest.raises(NoConvergence, match="after 100 iterations"):
        newton_critical(G, np.array([1.0]))


def _half_nan_genfn():
    # 0.5 w^2 with Hessian 0.8, except NaN for w < 0: the full Newton step
    # w - w / 0.8 = -0.25 w shrinks |grad| but lands where H is NaN
    def jet(w, order):
        return (0.5 * float(w @ w), w.copy(),
                np.full((1, 1), 0.8 if w[0] >= 0.0 else np.nan))

    return GenFn(base_dim=1, fibre_dim=0, jet=jet,
                 quad_part=np.zeros((0, 0)))


def test_newton_halves_a_trial_with_a_nan_hessian(capfd):
    m = newton_critical(_half_nan_genfn(), np.array([1.0]))
    # every accepted iterate stays where the Hessian is finite
    assert 0.0 <= m.representative[0] < 1e-10
    assert m.index == 0 and m.nullity == 0
    assert capfd.readouterr().err == ""


def test_newton_rejects_a_non_finite_jet_at_the_seed(capfd):
    with pytest.raises(NoConvergence, match="at the seed"):
        newton_critical(_half_nan_genfn(), np.array([-1.0]))
    G = GenFn(base_dim=2, fibre_dim=0, quad_part=np.zeros((0, 0)),
              jet=lambda w, order: (0.0, np.array([np.inf, 0.0]),
                                    np.eye(2)))
    with pytest.raises(NoConvergence, match="at the seed"):
        newton_critical(G, np.zeros(2))
    assert capfd.readouterr().err == ""


def test_shell_orbit_from_perturbed_seed(F, F3, shells3):
    s1 = [s for s in shells3 if s.l == 1][0]
    z = np.array([math.sqrt(s1.m), 0.0])
    seed = sharp_critical_seed(F, 3, z)
    rng = np.random.default_rng(0)
    m = newton_critical(F3, seed + 0.01 * rng.normal(size=len(seed)))
    assert m.value == pytest.approx(s1.value, abs=1e-9)
    assert m.nullity == 1
    assert m.zk_orbit == "free"
    assert m.l == 1
    assert m.maslov == 2
    # the exact seed is already critical
    assert np.max(np.abs(F3.grad(seed))) < 1e-9


def test_reconstruct_round_trip(F, F3, shells3):
    s1 = [s for s in shells3 if s.l == 1][0]
    z = np.array([math.sqrt(s1.m), 0.0])
    p = sharp_critical_seed(F, 3, z)
    orbit = reconstruct(F, 3, p)
    assert len(orbit) == 3
    amb = Ambient(n=1, R=1.0)
    for X in orbit:
        assert amb.H(X) == pytest.approx(s1.m, abs=1e-9)
    # the correspondence identity F^{#k}(p) = sum_j S(X_j)
    total = sum(float(F.map_handle.S(X)) for X in orbit)
    assert abs(float(F3.value(p)) - total) < 1e-9
    # a corrupted configuration is not fibre-critical
    bad = p.copy()
    bad[3] += 0.2
    with pytest.raises((NotFibreCritical, OrbitRelationViolated)):
        reconstruct(F, 3, bad)


def test_reconstruct_refuses_nan(F, F3, shells3, monkeypatch):
    # a nan fibre gradient or orbit residual passes a gate `worst > tol`
    s1 = [s for s in shells3 if s.l == 1][0]
    p = sharp_critical_seed(F, 3, np.array([math.sqrt(s1.m), 0.0]))
    one_fibre = p.copy()
    one_fibre[F3.base_dim] = math.nan
    for bad in (np.full(F3.total_dim, math.nan), one_fibre):
        with pytest.raises(NotFibreCritical, match="nan"):
            reconstruct(F, 3, bad)
    import gfs.crit
    monkeypatch.setattr(gfs.crit, "sharp_k", lambda G, k: F3)
    monkeypatch.setattr(F, "map_handle", lambda z: z * math.nan)
    with pytest.raises(OrbitRelationViolated, match="nan"):
        reconstruct(F, 3, p)


def test_maslov_normalization():
    # measured index = 2nl + k*iota + n(k-1) unwinds to 2nl
    assert maslov(16, k=3, iota=4, n=1) == 2
    assert maslov(26, k=5, iota=4, n=1) == 2
    assert maslov(32, k=3, iota=8, n=2) == 4


def test_chain_scan_families(P3, amb1, rho_ref):
    chains = translated_chains(amb1, rho_ref, 3)
    seeds = [seed_from_chain(P3, ch) for ch in chains]
    fams = chain_scan(P3, 3, seeds, chains=chains)
    assert len(fams) == 3
    by_link = {f.linked_orbit_id: f for f in fams}
    assert set(by_link) == {"shell-l1", "shell-l2", "origin"}
    for ch in chains:
        f = by_link[ch.orbit_id]
        assert f.value == pytest.approx(ch.action, abs=1e-8)
        assert f.diagnostics["t"] == pytest.approx(ch.t, abs=1e-8)
    assert by_link["shell-l1"].zk_orbit == "free"
    assert by_link["shell-l2"].zk_orbit == "free"
    assert by_link["origin"].zk_orbit == "fixed"
    # gauge-fixed families: S^1 x Reeb on shells, Reeb alone at the origin
    assert by_link["shell-l1"].nullity == 3
    assert by_link["origin"].nullity == 2


@pytest.mark.parametrize("k", [3, 5])
def test_chain_scan_reads_l_off_the_linked_chain(F, P3, amb1, rho_ref, k):
    P = P3 if k == 3 else contact_p(contact_lift_gf(F), k)
    chains = translated_chains(amb1, rho_ref, k)
    assert [ch.l for ch in chains] == list(range(1, k)) + [0]
    fams = chain_scan(P, k, [seed_from_chain(P, ch) for ch in chains],
                      chains=chains)
    assert ({f.linked_orbit_id: f.l for f in fams}
            == {ch.orbit_id: ch.l for ch in chains})


def test_chain_scan_dedups_rotated_seeds(P3, amb1, rho_ref):
    chains = translated_chains(amb1, rho_ref, 3)
    ch = chains[0]
    pts = ch.points[1:] + ch.points[:1]
    rotated = dataclasses.replace(ch, points=[
        ContactPoint(p.base.copy(), p.theta) for p in pts])
    seeds = [seed_from_chain(P3, ch), seed_from_chain(P3, rotated)]
    fams = chain_scan(P3, 3, seeds)
    assert len(fams) == 1


def test_csv_rendering(P3, amb1, rho_ref):
    chains = translated_chains(amb1, rho_ref, 3)
    fams = chain_scan(P3, 3, [seed_from_chain(P3, chains[0])],
                      chains=chains)
    text = to_csv(fams)
    lines = text.strip().splitlines()
    assert lines[0] == "kind,l,value,index,nullity,maslov,orbit"
    assert len(lines) == 2
    assert lines[1].startswith("chainFamily,1,")

def _counting(monkeypatch, G):
    """Record (order, point) of every jet G evaluates."""
    calls = []
    jet = G.jet

    def counting(w, order):
        calls.append((order, np.array(w, dtype=float)))
        return jet(w, order)

    monkeypatch.setattr(G, "jet", counting)
    return calls


def _assert_each_point_once(calls, iterations):
    # the seed, then one order-2 jet per iterate: the accepted trial's jet
    # is the next iterate's, so no point is evaluated twice
    assert [order for order, _ in calls] == [2] * (iterations + 1)
    points = [w for _, w in calls]
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            assert not np.array_equal(a, b)


def _assert_first_step_halved(calls, iterations):
    # every jet is order 2; the full first step is rejected, so the second
    # and third points lie on one ray from the seed, the third halfway
    assert all(order == 2 for order, _ in calls)
    assert len(calls) > iterations + 1
    seed, full, half = (w for _, w in calls[:3])
    assert np.allclose(half - seed, 0.5 * (full - seed), rtol=0, atol=1e-12)
    assert not np.allclose(full, half)


def test_newton_evaluates_each_point_once(monkeypatch):
    G = _quadratic_genfn([1.0, -2.0, 3.0, -0.5])
    calls = _counting(monkeypatch, G)
    m = newton_critical(G, np.array([0.3, -0.4, 1.2, 0.8]))
    assert m.diagnostics["iterations"] == 1
    _assert_each_point_once(calls, 1)


def test_newton_halves_an_overshooting_step(monkeypatch):
    # sum log cosh: the full Newton step w - sinh(w) cosh(w) from 2.0
    # lands near -11.6, where |tanh| is larger, so it must be damped
    def jet(w, order):
        return (float(np.sum(np.log(np.cosh(w)))), np.tanh(w),
                np.diag(1.0 / np.cosh(w) ** 2))

    G = GenFn(base_dim=2, fibre_dim=0, jet=jet, quad_part=np.zeros((0, 0)))
    calls = _counting(monkeypatch, G)
    m = newton_critical(G, np.array([2.0, -1.7]))
    assert np.allclose(m.representative, 0.0, atol=1e-10)
    assert m.index == 0 and m.nullity == 0
    _assert_first_step_halved(calls, m.diagnostics["iterations"])


def test_chain_scan_halves_an_overshooting_step(P3, amb1, rho_ref,
                                                monkeypatch):
    chains = translated_chains(amb1, rho_ref, 3)
    ch = [c for c in chains if c.orbit_id == "shell-l2"][0]
    seed = seed_from_chain(P3, ch)
    seed = seed + 0.05 * np.random.default_rng(11).normal(size=len(seed))
    calls = _counting(monkeypatch, P3)
    fams = chain_scan(P3, 3, [seed], chains=chains)
    _assert_first_step_halved(calls, fams[0].diagnostics["iterations"])
    assert len(fams) == 1 and fams[0].linked_orbit_id == "shell-l2"
    assert fams[0].value == pytest.approx(ch.action, abs=1e-8)


def test_chain_scan_evaluates_each_point_once(P3, amb1, rho_ref, monkeypatch):
    chains = translated_chains(amb1, rho_ref, 3)
    seed = seed_from_chain(P3, chains[0])
    seed = seed + 1e-4 * np.random.default_rng(0).normal(size=len(seed))
    calls = _counting(monkeypatch, P3)
    fams = chain_scan(P3, 3, [seed])
    iterations = fams[0].diagnostics["iterations"]
    assert iterations >= 1
    _assert_each_point_once(calls, iterations)


@pytest.mark.parametrize("k", [1, 5])
def test_chain_scan_k_must_be_the_period_of_p(P3, amb1, rho_ref, k):
    chains = translated_chains(amb1, rho_ref, 3)
    with pytest.raises(DomainError, match="k = %d" % k):
        chain_scan(P3, k, [seed_from_chain(P3, chains[0])], chains=chains)


def test_seed_from_chain_needs_p(P3, amb1, rho_ref):
    chain = translated_chains(amb1, rho_ref, 3)[0]
    with pytest.raises(DomainError, match="contact_p"):
        seed_from_chain(P3.meta["sharp"], chain)


def test_chain_scan_needs_p(P3, amb1, rho_ref):
    # the sharp is homogeneous, not scale-invariant: its scan would stall
    seed = seed_from_chain(P3, translated_chains(amb1, rho_ref, 3)[0])
    with pytest.raises(DomainError, match="contact_p"):
        chain_scan(P3.meta["sharp"], 3, [seed])


def _parent_config(F, zbar):
    """fibre_critical_config built the old way, as an oracle: the slice
    chain by repeated map_handle, then each slot's own flow."""
    zbar = np.asarray(zbar, dtype=float)
    if F.meta.get("kind") in ("cyclicComposition", "sharp"):
        factors = F.meta["factors"]
        ys = [zbar]
        for f in factors[:-1]:
            ys.append(f.map_handle(ys[-1]))
        zs, zetas = _parent_chain_config(factors, ys)
        return zs[0], np.concatenate(zs[1:] + zetas)
    return 0.5 * (zbar + F.map_handle(zbar)), np.zeros(0)


def _parent_chain_config(factors, points):
    configs = [_parent_config(f, p) for f, p in zip(factors, points)]
    return (alternating_resolve([base for base, _ in configs]),
            [zeta for _, zeta in configs])


def _count_flows(monkeypatch):
    flows = []
    call = RadialMap.__call__

    def counting(self, z):
        flows.append(1)
        return call(self, z)

    monkeypatch.setattr(RadialMap, "__call__", counting)
    return flows


@pytest.mark.parametrize("n,k", [(1, 3), (1, 5), (2, 3)])
def test_sharp_seed_matches_the_orbit_oracle(rho_ref, monkeypatch, n, k):
    F = gf_time_one(Ambient(n=n), rho_ref)
    rng = np.random.default_rng(10 * n + k)
    for _ in range(8):
        z = rng.normal(0.0, 0.5, 2 * n)
        orbit = [z]
        for _ in range(k - 1):
            orbit.append(F.map_handle(orbit[-1]))
        zs, zetas = _parent_chain_config([F] * k, orbit)
        flows = _count_flows(monkeypatch)
        seed = sharp_critical_seed(F, k, z)
        monkeypatch.undo()
        assert np.array_equal(seed, np.concatenate(zs + zetas))
        # one flow per slice of each slot: k * K
        assert len(flows) == k * F.meta["K"]


def test_chain_seed_matches_the_oracle(F, P3, amb1, rho_ref, monkeypatch):
    lay = P3.meta["layout"]
    for ch in translated_chains(amb1, rho_ref, 3):
        zs, zetas = _parent_chain_config([F] * 3,
                                         [pt.base for pt in ch.points])
        flows = _count_flows(monkeypatch)
        seed = seed_from_chain(P3, ch)
        monkeypatch.undo()
        assert len(flows) == 3 * F.meta["K"]
        for j, pt in enumerate(ch.points):
            assert np.array_equal(seed[lay.z[j]], zs[j])
            assert np.array_equal(seed[lay.f[j]], zetas[j])
            assert seed[lay.th[j]] == pt.theta and seed[lay.r[j]] == 0.0


# The critical data of a seeded batch of solves: newton_critical on every
# l < k shell of F^{#3}, F^{#5} and the n = 2 F^{#3}, then chain_scan of P3
# from each chain, every seed perturbed by 1e-4; each solve takes 2 steps.
GOLDEN_CSV = """\
kind,l,value,index,nullity,maslov,orbit
sphereShell,1,2.61799309259,16,1,2,free
sphereShell,2,4.18878941939,18,1,4,free
sphereShell,1,2.82743207923,26,1,2,free
sphereShell,2,5.02654693675,28,1,4,free
sphereShell,3,6.59734326354,30,1,6,free
sphereShell,4,7.53982105962,32,1,8,free
sphereShell,1,2.61799309259,32,3,4,free
sphereShell,2,4.18878941939,36,3,8,free
chainFamily,1,2.61799309259,18,3,,free
chainFamily,2,4.18878941939,20,3,,free
chainFamily,0,4.66526509058,22,2,,fixed
"""


def _pinned_batch(F, P3, amb1, rho_ref):
    """The seeded batch of solves that GOLDEN_CSV pins."""
    rng = np.random.default_rng(7)
    found = []
    for n, k in ((1, 3), (1, 5), (2, 3)):
        amb = Ambient(n=n)
        Fn = F if n == 1 else gf_time_one(amb, rho_ref)
        Fk = sharp_k(Fn, k)
        for s in shells(amb, rho_ref, k):
            if s.kind != "sphereShell" or s.l >= k:
                continue
            u = rng.normal(size=2 * n)
            seed = sharp_critical_seed(Fn, k, math.sqrt(s.m) * u
                                       / np.linalg.norm(u))
            found.append(newton_critical(
                Fk, seed + 1e-4 * rng.normal(size=len(seed))))
    chains = translated_chains(amb1, rho_ref, 3)
    for ch in chains:
        seed = seed_from_chain(P3, ch)
        found += chain_scan(P3, 3, [seed + 1e-4 * rng.normal(size=len(seed))],
                            chains=chains)
    return found


def test_newton_outputs_are_pinned(F, P3, amb1, rho_ref):
    found = _pinned_batch(F, P3, amb1, rho_ref)
    assert to_csv(found) == GOLDEN_CSV
    assert [m.diagnostics["iterations"] for m in found] == [2] * 11


def _bordered_solves(monkeypatch, F, P3, amb1, rho_ref):
    """(M, rhs, LU solution) of every Newton step of the pinned batch, run
    with np.linalg.lstsq patched to fail the test if it is called."""
    solves = []
    solve = np.linalg.solve

    def recording(M, rhs):
        x = solve(M, rhs)
        solves.append((M.copy(), rhs.copy(), x))
        return x

    def refused(*args, **kwargs):
        raise AssertionError("lstsq called on a nonsingular bordered system")

    monkeypatch.setattr(np.linalg, "solve", recording)
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    found = _pinned_batch(F, P3, amb1, rho_ref)
    monkeypatch.undo()
    return found, solves


def test_newton_steps_never_fall_back_to_lstsq(F, P3, amb1, rho_ref,
                                                monkeypatch):
    # every step of the batch is one LU solve, bordered (2 gauge rows) on P3
    found, solves = _bordered_solves(monkeypatch, F, P3, amb1, rho_ref)
    assert to_csv(found) == GOLDEN_CSV
    assert len(solves) == 2 * len(found)
    dims = [len(M) - len(m.representative)
            for (M, _, _), m in zip(solves[::2], found)]
    assert dims == [0] * 8 + [2] * 3


def test_newton_lu_step_matches_the_min_norm_step(F, P3, amb1, rho_ref,
                                                  monkeypatch):
    # where M is nonsingular its solution is unique: the least-squares
    # minimum-norm solution of the same M agrees with the LU one to within
    # round-off, cond(M) eps.  The 22 systems (cond 16 to 2.8e8) read a
    # relative difference of at most 0.82 cond(M) eps (2.8e-8 at worst).
    _, solves = _bordered_solves(monkeypatch, F, P3, amb1, rho_ref)
    eps = np.finfo(float).eps
    for M, rhs, x in solves:
        ref = np.linalg.lstsq(M, rhs, rcond=None)[0]
        diff = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert diff <= 10.0 * np.linalg.cond(M) * eps
