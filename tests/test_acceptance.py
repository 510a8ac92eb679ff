"""End-to-end acceptance checks.

Each test pins one externally visible guarantee of the library at its stated
tolerance: the limit barcodes, steep-profile convergence, the generation
identity, critical values and indices of cyclic compositions, translated-chain
scans, symmetry invariances, the exact group-ring algebra, stabilization and
prequantization behavior, inclusion ranks, and the non-squeezing certificate
search with its barcode evidence.
"""

import json
import math

import numpy as np
import pytest

from gfs import (Ambient, RadialMap, SqueezeQuery, ball_complex,
                 barcode, certificate_json, chain_scan, contact_lift_gf,
                 contact_p, evidence, fibre_critical_config, find_obstruction,
                 gf_time_one, graph_of, lens_complex,
                 limit_barcode, ref_profile, seed_from_chain, sharp_k,
                 sharp_critical_seed, shells, tensor_circle, thom_shift,
                 translated_chains, validate_certificate)
from gfs.cli import main


# ---------------------------------------------------------------------------
# 1. limit barcode over F_5 through the command line


def test_equivariant_limit_barcode_k5_exact(tmp_path):
    assert main(["barcode", "--n", "1", "--R", "1", "--k", "5", "--limit",
                 "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "barcode.json").read_text())
    assert obj["field"] == 5
    expected = [{"degree": 2 * l, "birth": 0.0, "death": l * math.pi,
                 "rank": 1} for l in range(1, 5)]
    assert obj["bars"] == expected
    # nothing else anywhere in degrees 2..9
    for d in range(2, 10):
        found = [b for b in obj["bars"] if b["degree"] == d]
        assert found == ([e for e in expected if e["degree"] == d])


# ---------------------------------------------------------------------------
# 2. plain-mode limit barcode over F_2


@pytest.mark.parametrize("n,R", [(1, 1.0), (2, 1.3)])
def test_plain_limit_barcode_exact(n, R):
    bc = limit_barcode(Ambient(n=n, R=R), 1, "plain", lmax=4)
    assert bc.field == 2
    A = math.pi * R * R
    got = [(b.degree, b.birth, b.death, b.rank) for b in bc.bars]
    assert got == [(2 * n * l, (l - 1) * A, l * A, 1) for l in range(1, 5)]


# ---------------------------------------------------------------------------
# 3. steep-profile convergence of finite barcode endpoints


def test_endpoints_climb_to_the_limit():
    amb = Ambient(n=1, R=1.0)
    deaths = {2: [], 4: []}
    cs = [-2 * math.pi, -5 * math.pi, -10 * math.pi, -20 * math.pi,
          -60 * math.pi]
    for c in cs:
        bc = barcode(ball_complex(amb, ref_profile(c, 0.1), 3), "equivariant")
        for degree in (2, 4):
            ends = bc.endpoints(degree)
            deaths[degree].append(max(ends))
    for degree, l in ((2, 1), (4, 2)):
        seq = deaths[degree]
        assert all(a < b for a, b in zip(seq, seq[1:]))   # monotone in j
        # |c| = 60 pi exceeds 50 pi R^2: endpoint within 1% of l pi R^2
        assert abs(seq[-1] - l * math.pi) <= 0.01 * l * math.pi


# ---------------------------------------------------------------------------
# 4. generation identity for the broken-geodesic function


def test_fibre_critical_samples_sit_on_the_graph(F):
    phi = F.map_handle
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        zbar = rng.normal(0.0, 0.55, 2)
        base, zeta = fibre_critical_config(F, zbar)
        w = np.concatenate([base, zeta])
        g = F.grad(w)
        gp = graph_of(phi, zbar)
        worst = max(worst,
                    float(np.max(np.abs(g[2:]))),
                    float(np.max(np.abs(base - gp.base))),
                    float(np.max(np.abs(g[:2] - gp.covector))))
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# 5. critical value on the first shell


def test_threefold_value_on_first_shell(F, F3, amb1, rho_ref, shells3):
    s1 = [s for s in shells3 if s.l == 1][0]
    z1 = np.array([math.sqrt(s1.m) * amb1.R, 0.0])
    w = sharp_critical_seed(F, 3, z1)
    v = F3.value(w)
    assert abs(v - 5 * math.pi / 6) < 1e-6
    phi = RadialMap(amb1, rho_ref, 1.0)
    z, ssum = z1, 0.0
    for _ in range(3):
        ssum += phi.S(z)
        z = phi(z)
    assert abs(v - ssum) < 1e-6


# ---------------------------------------------------------------------------
# 6. index theorem across (n, k) pairs


@pytest.fixture(scope="module")
def sharp_cases(F):
    amb2 = Ambient(n=2, R=1.0)
    rho = ref_profile(-0.9 * math.pi, 0.1)
    F2 = gf_time_one(amb2, rho)
    return {
        (1, 3): (Ambient(n=1, R=1.0), rho, F, sharp_k(F, 3)),
        (1, 5): (Ambient(n=1, R=1.0), rho, F, sharp_k(F, 5)),
        (2, 3): (amb2, rho, F2, sharp_k(F2, 3)),
    }


def test_shell_indices_nullities_gaps(sharp_cases):
    for (n, k), (amb, rho, fac, Fk) in sharp_cases.items():
        iota = fac.quad_index
        shell_list = [s for s in shells(amb, rho, k)
                      if s.kind == "sphereShell" and s.l < k]
        assert shell_list, "no shells for (n,k) = (%d,%d)" % (n, k)
        for s in shell_list:
            z = np.zeros(2 * n)
            z[0] = math.sqrt(s.m) * amb.R
            w = sharp_critical_seed(fac, k, z)
            evals = np.linalg.eigvalsh(Fk.hess(w))
            radius = float(np.max(np.abs(evals)))
            ztol = 1e-8 * radius
            index = int(np.sum(evals < -ztol))
            nullity = int(np.sum(np.abs(evals) <= ztol))
            gap = float(np.min(np.abs(evals)[np.abs(evals) > ztol]) / radius)
            assert index - (k * iota + n * (k - 1)) == 2 * n * s.l, \
                "(n,k,l) = (%d,%d,%d)" % (n, k, s.l)
            assert nullity == 2 * n - 1
            assert gap >= 1e-4


def test_shell_values_match_shells_exactly(sharp_cases):
    # Companion to the 1e-6 gates on 5pi/6: F^{#k} at the analytic seed must
    # reproduce the shell value l m pi R^2 + k rho(m) to round-off, so a
    # regression cannot hide under the corner-blend offset of those gates.
    for (n, k), (amb, rho, fac, Fk) in sharp_cases.items():
        for s in shells(amb, rho, k):
            if s.kind != "sphereShell" or s.l >= k:
                continue
            z = np.zeros(2 * n)
            z[0] = math.sqrt(s.m) * amb.R
            v = Fk.value(sharp_critical_seed(fac, k, z))
            assert abs(v - s.value) <= 1e-12, "(n,k,l) = (%d,%d,%d)" % (
                n, k, s.l)


# ---------------------------------------------------------------------------
# 7. translated-chain scan


def test_chain_scan_matches_predicted_families(P3, amb1, rho_ref):
    chains = translated_chains(amb1, rho_ref, 3)
    seeds = [seed_from_chain(P3, ch) for ch in chains]
    fams = chain_scan(P3, 3, seeds, chains=chains)
    assert len(fams) == len(chains) == 3
    by_link = {f.linked_orbit_id: f for f in fams}
    assert set(by_link) == {ch.orbit_id for ch in chains}
    assert abs(by_link["shell-l1"].value - 5 * math.pi / 6) < 1e-6
    # free-orbit count: both shells are free (gcd(l, 3) = 1), origin is fixed
    free = sorted(f.linked_orbit_id for f in fams if f.zk_orbit == "free")
    assert free == ["shell-l1", "shell-l2"]
    assert by_link["origin"].zk_orbit == "fixed"


# ---------------------------------------------------------------------------
# 8. symmetry invariance at 1e-12 on 1000 points


def test_cyclic_invariance_of_sharp(F3):
    rng = np.random.default_rng(1)
    cyc = F3.sym_ops["cyclic"]
    worst = 0.0
    for _ in range(1000):
        w = rng.normal(0.0, 0.5, F3.total_dim)
        worst = max(worst, abs(F3.value(cyc(w)) - F3.value(w)))
    assert worst < 1e-12


def test_three_invariances_of_p(P3):
    ops = P3.sym_ops
    rng = np.random.default_rng(2)
    worst = {"cyclic": 0.0, "r": 0.0, "z": 0.0}
    for _ in range(1000):
        w = rng.normal(0.0, 0.5, P3.total_dim)
        v = P3.value(w)
        worst["cyclic"] = max(worst["cyclic"],
                              abs(P3.value(ops["cyclic"](w)) - v))
        worst["r"] = max(worst["r"],
                         abs(P3.value(ops["r_action"](w, 0.7)) - v))
        worst["z"] = max(worst["z"], abs(P3.value(ops["z_shift"](w)) - v))
    assert max(worst.values()) < 1e-12


# ---------------------------------------------------------------------------
# 9. exact group-ring algebra


def test_exact_algebra_identities():
    lens = lens_complex(2, 5)
    assert lens.homology_ranks("plain") == {0: 1, 1: 0, 2: 0, 3: 1}
    assert lens.homology_ranks("equivariant") == {0: 1, 1: 1, 2: 1, 3: 1}
    for k in (3, 5):
        cx = lens_complex(1, k)
        assert cx.check_d2() == []
        assert cx.homology_ranks("plain") == {0: 1, 1: 1}
        assert cx.homology_ranks("equivariant") == {0: 1, 1: 1}
    # lens(2, 5) has d_1 = T - 1, d_2 = N, d_3 = T - 1: (T - 1) N = 0 and
    # N (T - 1) = 0 as products of their dense 5 x 5 blocks
    assert not (lens.matrix(1, "plain") @ lens.matrix(2, "plain") % 5).any()
    assert not (lens.matrix(2, "plain") @ lens.matrix(3, "plain") % 5).any()


# ---------------------------------------------------------------------------
# 10. stabilization shifts degrees by exactly k


def test_index_one_stabilization_shifts_by_k(amb1, rho_ref):
    for k in (3, 5):
        bc = barcode(ball_complex(amb1, rho_ref, k), "equivariant")
        shifted = thom_shift(bc, 1, k)
        assert [b.degree for b in shifted.bars] == \
            [b.degree + k for b in bc.bars]
        assert [(b.birth, b.death, b.rank) for b in shifted.bars] == \
            [(b.birth, b.death, b.rank) for b in bc.bars]
        assert shifted.field == bc.field


# ---------------------------------------------------------------------------
# 11. inclusion ranks across a threshold grid


def test_inclusion_ranks_follow_the_two_endpoints():
    R1, R2 = 1.0, 0.8          # large and small ball
    bc1 = limit_barcode(Ambient(n=1, R=R1), 5, "equivariant")
    bc2 = limit_barcode(Ambient(n=1, R=R2), 5, "equivariant")
    for l in (1, 2, 3):
        lo_death = l * math.pi * R2 * R2
        hi_death = l * math.pi * R1 * R1
        grid = [(i + 0.5) / 20.0 * hi_death for i in range(20)]
        for a in grid:
            # the inclusion rank as `evidence` reads it: the smaller of the
            # two right-continuous rank functions at a
            expected = 1 if a < lo_death else 0
            rank = min(bc1.rank_at(2 * l, a), bc2.rank_at(2 * l, a))
            assert rank == expected, \
                "l = %d, a = %.6f" % (l, a)


# ---------------------------------------------------------------------------
# 12. prequantization duplicates bars one degree up


def test_tensor_circle_duplicates_every_bar(amb1, rho_ref):
    bc = barcode(ball_complex(amb1, rho_ref, 3), "equivariant")
    pre = tensor_circle(bc)
    base = [(b.degree, b.birth, b.death, b.rank) for b in bc.bars]
    lifted = sorted(base + [(d + 1, b, dth, r) for d, b, dth, r in base])
    assert sorted((b.degree, b.birth, b.death, b.rank)
                  for b in pre.bars) == lifted


def test_prequantized_limit_barcode_paired_degrees():
    pre = tensor_circle(limit_barcode(Ambient(n=1, R=1.0), 5, "equivariant"))
    got = sorted((b.degree, b.birth, b.death, b.rank) for b in pre.bars)
    expected = sorted(
        [(2 * l, 0.0, l * math.pi, 1) for l in range(1, 5)]
        + [(2 * l + 1, 0.0, l * math.pi, 1) for l in range(1, 5)])
    assert got == expected


# ---------------------------------------------------------------------------
# 13. certificate search, soundness, evidence


def test_certificate_integer_gap():
    cert = find_obstruction(SqueezeQuery(2.5, 1.7))
    assert cert.kind == "integerK" and cert.K == 2
    assert validate_certificate(cert, 2.5, 1.7)


def test_certificate_prime_fraction():
    cert = find_obstruction(SqueezeQuery(1.5, 1.2))
    assert (cert.kind, cert.k, cert.l) == ("primeFraction", 5, 4)
    assert validate_certificate(cert, 1.5, 1.2)


def test_certificate_near_critical_ratio_pinned_tuple():
    cert = find_obstruction(SqueezeQuery(1.01, 1.0))
    assert cert.kind == "primeFraction"
    assert validate_certificate(cert, 1.01, 1.0)
    # The search scans primes in increasing order and returns the first
    # admissible pair, which for areas (1.01, 1.0) is (103, 102):
    # 103/102 = 1.00980... lies in [1.0, 1.01) and no smaller odd prime
    # admits an l with k/l in that window.  The pinned reference tuple
    # (1009, 1000) is admissible (1009/1000 = 1.009) but not minimal, so
    # this assertion documents the discrepancy and fails under a faithful
    # first-hit search.
    assert (cert.k, cert.l) == (1009, 1000)


def test_certificate_conjugated():
    cert = find_obstruction(SqueezeQuery(0.45, 0.40, 0.5))
    assert cert.kind == "conjugated" and cert.m == 2
    assert cert.inner is not None and cert.inner.found()
    assert validate_certificate(cert, 0.45, 0.40)


def test_certificate_evidence_rank_pattern():
    cert = find_obstruction(SqueezeQuery(1.5, 1.2))
    report = evidence(cert, Ambient(n=1, R=1.0))
    assert report["ranks"] == [1, 1, 0]
    assert report["inclusion_ranks"] == [1, 0]
    text = certificate_json(cert, report)
    assert json.loads(text)["evidence"]["ranks"] == [1, 1, 0]