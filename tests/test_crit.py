"""Critical-point solving, classification, orbit reconstruction, chain scans."""

import math

import numpy as np
import pytest

from gfs import (Ambient, DomainError, GenFn, NoConvergence,
                 NotFibreCritical, OrbitRelationViolated, chain_scan,
                 check_value, maslov,
                 newton_critical, reconstruct, seed_from_chain,
                 sharp_critical_seed, to_csv, translated_chains)


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
    # gradient never vanishes: grad = 1 everywhere
    G = GenFn(base_dim=1, fibre_dim=0,
              jet=lambda w, order: (float(w[0]), np.ones(1), np.zeros((1, 1))),
              quad_part=np.zeros((0, 0)))
    with pytest.raises(NoConvergence):
        newton_critical(G, np.array([0.0]), max_iter=8)


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
    assert check_value(F, 3, p) < 1e-9
    # a corrupted configuration is not fibre-critical
    bad = p.copy()
    bad[3] += 0.2
    with pytest.raises((NotFibreCritical, OrbitRelationViolated)):
        reconstruct(F, 3, bad)


def test_check_value_builds_the_sharp_once(F, shells3, monkeypatch):
    import gfs.crit
    s1 = [s for s in shells3 if s.l == 1][0]
    p = sharp_critical_seed(F, 3, np.array([math.sqrt(s1.m), 0.0]))
    built = []
    real = gfs.crit.sharp_k

    def counting(G, k):
        built.append(k)
        return real(G, k)

    monkeypatch.setattr(gfs.crit, "sharp_k", counting)
    assert check_value(F, 3, p) < 1e-9
    assert built == [3]


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


def test_chain_scan_dedups_rotated_seeds(P3, amb1, rho_ref):
    chains = translated_chains(amb1, rho_ref, 3)
    ch = chains[0]
    seeds = [seed_from_chain(P3, ch), seed_from_chain(P3, ch.rotated())]
    fams = chain_scan(P3, 3, seeds)
    assert len(fams) == 1


def test_csv_rendering(P3, amb1, rho_ref, tmp_path):
    chains = translated_chains(amb1, rho_ref, 3)
    fams = chain_scan(P3, 3, [seed_from_chain(P3, chains[0])],
                      chains=chains)
    path = tmp_path / "families.csv"
    text = to_csv(fams, str(path))
    assert path.read_text() == text
    lines = text.strip().splitlines()
    assert lines[0] == "kind,l,value,index,nullity,maslov,orbit"
    assert len(lines) == 2
    assert lines[1].startswith("chainFamily,1,")

def test_newton_evaluates_each_point_once():
    # seed at order 2, the exact Newton trial at order 1, the limit at order 2
    G = _quadratic_genfn([1.0, -2.0, 3.0, -0.5])
    orders = []
    jet = G.jet

    def counting(w, order):
        orders.append(order)
        return jet(w, order)

    G.jet = counting
    newton_critical(G, np.array([0.3, -0.4, 1.2, 0.8]))
    assert orders == [2, 1, 2]


def _counting(monkeypatch, G):
    """Record (order, point) of every jet G evaluates."""
    calls = []
    jet = G.jet

    def counting(w, order):
        calls.append((order, np.array(w, dtype=float)))
        return jet(w, order)

    monkeypatch.setattr(G, "jet", counting)
    return calls


def test_newton_halves_an_overshooting_step(monkeypatch):
    # sum log cosh: the full Newton step w - sinh(w) cosh(w) from 2.0
    # lands near -11.6, where |tanh| is larger, so it must be damped
    def jet(w, order):
        return (float(np.sum(np.log(np.cosh(w)))), np.tanh(w),
                np.diag(1.0 / np.cosh(w) ** 2))

    G = GenFn(base_dim=2, fibre_dim=0, jet=jet, quad_part=np.zeros((0, 0)))
    calls = _counting(monkeypatch, G)
    m = newton_critical(G, np.array([2.0, -1.7]))
    orders = [order for order, _ in calls]
    assert np.allclose(m.representative, 0.0, atol=1e-10)
    assert m.index == 0 and m.nullity == 0
    assert orders[:3] == [2, 1, 1]
    assert orders.count(1) > m.diagnostics["iterations"]


def test_chain_scan_halves_an_overshooting_step(P3, amb1, rho_ref,
                                                monkeypatch):
    chains = translated_chains(amb1, rho_ref, 3)
    ch = [c for c in chains if c.orbit_id == "shell-l2"][0]
    seed = seed_from_chain(P3, ch)
    seed = seed + 0.05 * np.random.default_rng(11).normal(size=len(seed))
    calls = _counting(monkeypatch, P3)
    fams = chain_scan(P3, 3, [seed], chains=chains)
    orders = [order for order, _ in calls]
    # the first full step is rejected and halved
    assert orders[:3] == [2, 1, 1]
    assert orders.count(1) > fams[0].diagnostics["iterations"]
    assert len(fams) == 1 and fams[0].linked_orbit_id == "shell-l2"
    assert fams[0].value == pytest.approx(ch.action, abs=1e-8)


def test_chain_scan_evaluates_each_point_once(P3, amb1, rho_ref, monkeypatch):
    # each iterate once at order 2, each trial once at order 1: the accepted
    # trial is the next iterate
    chains = translated_chains(amb1, rho_ref, 3)
    seed = seed_from_chain(P3, chains[0])
    seed = seed + 1e-4 * np.random.default_rng(0).normal(size=len(seed))
    calls = _counting(monkeypatch, P3)
    fams = chain_scan(P3, 3, [seed])
    iterations = fams[0].diagnostics["iterations"]
    assert iterations >= 1
    assert [order for order, _ in calls] == [2] + [1, 2] * iterations
    for (_, trial), (_, iterate) in zip(calls[1::2], calls[2::2]):
        assert np.array_equal(trial, iterate)


@pytest.mark.parametrize("k", [1, 5])
def test_chain_scan_k_must_be_the_period_of_p(P3, amb1, rho_ref, k):
    chains = translated_chains(amb1, rho_ref, 3)
    with pytest.raises(DomainError, match="k = %d" % k):
        chain_scan(P3, k, [seed_from_chain(P3, chains[0])], chains=chains)
