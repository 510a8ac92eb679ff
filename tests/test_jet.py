"""One jet per generating function: every order from one pass, lower orders
bit-equal to the value-only and gradient-only jets."""

import hashlib
import struct

import numpy as np
import pytest

from gfs import (Ambient, RadialMap, RadialProfile, contact_lift_gf, contact_p,
                 contact_sharp, gf_compose_chain, gf_linear_rotation,
                 gf_small_map, gf_time_one, reeb_shift, sharp_k)

from exact import fixed_by_cyclic
from test_genfun import _theta_factor

KINDS = {"linearRotation", "smallMap", "cyclicComposition", "sharp",
         "contactLift", "reebShift", "contactSharp", "contactP"}


@pytest.fixture(scope="module")
def every_kind(amb1, F, F3, P3):
    lift = contact_lift_gf(F)
    gfs = [gf_linear_rotation(amb1, [0.8]), F.meta["factors"][0], F, F3,
           lift, reeb_shift(lift, 0.7), contact_sharp(lift, 3), P3]
    assert {G.meta["kind"] for G in gfs} == KINDS
    return gfs


def test_jet_orders_agree_bitwise(every_kind):
    rng = np.random.default_rng(11)
    for G in every_kind:
        for _ in range(3):
            w = rng.normal(0.0, 0.5, G.total_dim)
            v0, g0, H0 = G.jet(w, 0)
            v1, g1, H1 = G.jet(w, 1)
            v2, g2, H2 = G.jet(w, 2)
            assert g0 is None and H0 is None and H1 is None
            assert v0 == v1 == v2, G.meta["kind"]
            assert np.array_equal(g1, g2), G.meta["kind"]
            assert H2.shape == (G.total_dim, G.total_dim)
            assert G.value(w) == v0
            assert np.array_equal(G.grad(w), g1)
            assert np.array_equal(G.hess(w), H2)


def test_each_order_inverts_every_midpoint_once(F, F3, P3, monkeypatch):
    # P3 and F^{#3} have k = 3 slots over a five-slice F, F^{#5} has five:
    # k*K slice midpoints inverted per pass, whichever order is asked for
    slices = P3.meta["factor"].meta["factor"].meta["K"]
    assert slices == 5
    rows = []
    real = RadialMap.midpoint_inverse

    def counting(mp, q):
        rows.append(len(np.atleast_2d(q)))
        return real(mp, q)

    monkeypatch.setattr(RadialMap, "midpoint_inverse", counting)
    for G, k in ((P3, 3), (F3, 3), (sharp_k(F, 5), 5)):
        w = np.random.default_rng(3).normal(0.0, 0.5, G.total_dim)
        for read in (G.value, G.grad, G.hess):
            rows.clear()
            read(w)
            assert sum(rows) == k * slices, (G.meta["kind"], read.__name__)


def test_a_sharp_reads_its_slices_as_one_stack(F, monkeypatch):
    # the five slices of F are one small map, so all fifteen leaves of
    # F^{#3} are one group: one stacked small-map jet per read, not fifteen
    small = F.meta["factors"][0]
    assert F.meta["factors"] == [small] * 5
    calls = []
    real = small._jet.stack

    def counting(Q, order):
        calls.append(len(Q))
        return real(Q, order)

    monkeypatch.setattr(small._jet, "stack", counting)
    F3 = sharp_k(F, 3)
    w = np.random.default_rng(5).normal(0.0, 0.5, F3.total_dim)
    for order in (0, 1, 2):
        calls.clear()
        F3.jet(w, order)
        assert calls == [15], order


def test_a_fresh_jet_reads_the_profile_without_read(amb1, rho_ref,
                                                  monkeypatch):
    # the level solve and the small-map rows read the profile through its
    # one-level reader: at points no map has seen, an F^{#3} jet solves
    # levels but never goes through `read`'s dispatch
    F3 = sharp_k(gf_time_one(amb1, rho_ref), 3)
    reads, solves = [], []
    read, level_beta = RadialProfile.read, RadialMap._level_beta

    def counting_read(rho, m, lo, hi):
        reads.append(m)
        return read(rho, m, lo, hi)

    def counting_solve(mp, h):
        solves.append(h)
        return level_beta(mp, h)

    monkeypatch.setattr(RadialProfile, "read", counting_read)
    monkeypatch.setattr(RadialMap, "_level_beta", counting_solve)
    rng = np.random.default_rng(43)
    for order in (0, 1, 2):
        solves.clear()
        F3.jet(rng.normal(0.0, 0.5, F3.total_dim), order)
        assert solves and not reads, order


# sha256 of the repr of the four invariance defects (F^{#3} cyclic, P cyclic,
# P r-action at a = 0.7, P theta-shift) at 24 points drawn as the
# symmetry_sweep workload draws them (seed 7, N(0, 0.5^2), REF(-0.9 pi, 0.1)),
# recorded with numpy 2.4 on x86-64; the workload's own outputs_sha256 hashes
# no output.
INVARIANCE_DEFECTS = (
    "d7ca7c7356bee0e554a22e9352adbb6c5902eefbae5b80dd0e266e30546b06ba")


def test_invariance_defects_are_pinned(F3, P3):
    rng, ops, defects = np.random.default_rng(7), P3.sym_ops, []
    for _ in range(24):
        w = rng.normal(0.0, 0.5, F3.total_dim)
        wp = rng.normal(0.0, 0.5, P3.total_dim)
        v = P3.value(wp)
        defects.append((abs(F3.value(F3.sym_ops["cyclic"](w)) - F3.value(w)),
                        abs(P3.value(ops["cyclic"](wp)) - v),
                        abs(P3.value(ops["r_action"](wp, 0.7)) - v),
                        abs(P3.value(ops["z_shift"](wp)) - v)))
    assert max(map(max, defects)) < 1e-12
    assert hashlib.sha256(repr(defects).encode()).hexdigest() \
        == INVARIANCE_DEFECTS


def _shared_slice_pair(amb, rho):
    F = gf_time_one(amb, rho)
    return {"F3": sharp_k(F, 3), "P3": contact_p(contact_lift_gf(F), 3)}, F


def test_interleaved_jets_read_the_level_memo_bit_for_bit(amb1, rho_ref,
                                                          monkeypatch):
    # F^{#3} and P3 over one F share its slice map and so its level memo.
    # Read them interleaved at orders 0-2: at new points (some slices at
    # H >= 1), at points read 1-7 reads of the same kind back, and at their
    # symmetry images.  Every jet equals the same read on freshly built
    # objects, and the shared map solves fewer levels than the fresh ones.
    shared, F = _shared_slice_pair(amb1, rho_ref)
    slice_map = F.meta["factors"][0].map_handle
    solves = {True: 0, False: 0}
    real = RadialMap._level_beta

    def counting(mp, h):
        solves[mp is slice_map] += 1
        return real(mp, h)

    monkeypatch.setattr(RadialMap, "_level_beta", counting)
    rng = np.random.default_rng(31)
    past = {"F3": [], "P3": []}
    for _ in range(60):
        name = ("F3", "P3")[int(rng.integers(2))]
        G, seen, pick = shared[name], past[name], int(rng.integers(3))
        if pick == 0 or not seen:
            w = rng.normal(0.0, (0.5, 1.5)[int(rng.integers(2))], G.total_dim)
        elif pick == 1:
            w = seen[-int(rng.integers(1, min(7, len(seen)) + 1))]
        else:
            op = sorted(G.sym_ops)[int(rng.integers(len(G.sym_ops)))]
            w = G.sym_ops[op](seen[-1], *((0.7,) if op == "r_action" else ()))
        seen.append(w)
        order = int(rng.integers(3))
        got = G.jet(w, order)
        want = _shared_slice_pair(amb1, rho_ref)[0][name].jet(w, order)
        for k in range(order + 1):
            assert (np.asarray(got[k]).tobytes()
                    == np.asarray(want[k]).tobytes()), (name, order, k)
    assert 0 < solves[True] < solves[False], solves


# sha256 of value, grad.tobytes() and hess.tobytes() at twelve seeded points
# (seed 15, scales 0.3, 0.6 and 1.5 in turn: about a quarter of the slice
# midpoints have H(q) >= 1), recorded with numpy 2.4 on x86-64.  A change to
# the profile reads, the midpoint inversion or the flat form must leave every
# byte of every order-2 jet as it is.  P5 covers a k = 5 contact composition
# and T3 the contact sharp of a factor that reads theta (not a lift).
GOLDEN_JETS = {
    ("F3", 1): "76a28fd12e0cc5d48425ebcc5b0e94a1f4ac4ac6b926e14b6f80f99f82c8b2fe",
    ("F5", 1): "8646c57f0608c8e4e9d7359ae880a600e096044c95e8ea8fb751ebad56d61714",
    ("P3", 1): "2426fbb168717ff2a1119d6c42c0e53613a185bfad5fae8e92e986b1324eb5c9",
    ("F3", 2): "fe7c00f9835e665eb86b244e0e6bc80d698f2eb69fb1d057f117fbb7294177a5",
    ("F5", 2): "e7946e9d20852a8d0d4ae597ac1ebaae8c562ecbcdae897cd5f95e70ddcaf926",
    ("P3", 2): "c7a2b4db30d8dfd4af0abc6c34a8950435eace63d9f1a77133bec00b6df05134",
    ("P5", 1): "38da49a3e65450c45c894fb54a5c7b8dde66b057af8e00ba8a8a28e08e9ad405",
    ("T3", 1): "37bdec15a34bbe9373851f9b97866f2f4e5d25a1f34376257eb5bed8cad6bbfb",
    ("T3", 2): "e4b40d44eab63458c7c0271b26a1e2fe13c83659c138d3adf1028dbe11f8f567",
}


def _golden_digest(G):
    rng = np.random.default_rng(15)
    digest = hashlib.sha256()
    for scale in (0.3, 0.6, 1.5) * 4:
        value, g, H = G.jet(rng.normal(0.0, scale, G.total_dim), 2)
        digest.update(struct.pack("<d", value) + g.tobytes() + H.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n", [1, 2])
def test_jets_are_bit_identical_to_the_golden_hashes(F, rho_ref, n):
    Fn = F if n == 1 else gf_time_one(Ambient(n=n), rho_ref)
    for name, G in (("F3", sharp_k(Fn, 3)), ("F5", sharp_k(Fn, 5)),
                    ("P3", contact_p(contact_lift_gf(Fn), 3))):
        assert _golden_digest(G) == GOLDEN_JETS[name, n], (name, n)


@pytest.mark.parametrize("name, n", [("P5", 1), ("T3", 1), ("T3", 2)])
def test_contact_jets_are_bit_identical_to_the_golden_hashes(F, name, n):
    G = (contact_p(contact_lift_gf(F), 5) if name == "P5"
         else contact_sharp(_theta_factor(n, seed=n), 3))
    assert _golden_digest(G) == GOLDEN_JETS[name, n]


# sha256 of `_golden_digest` for compositions whose leaves are not all one
# small map: the uneven chain (a rotation, a Reeb-shifted composition and a
# small map of another time) and a sharp of a sharp (nested inlining),
# recorded with numpy 2.4 on x86-64.
GOLDEN_MIXED_JETS = {
    ("uneven", 1): "1175ad1eb2914612d4d0df3897dd164780b2252d2cf510133631a035b3533263",
    ("uneven", 2): "e5037a76a79fd53a6408353e27aee4fd211c167a375e7afbb85fd7f1a01e5b19",
    ("F33", 1): "96d2660cad02559087cdc7c8401219e328cecfe5c2021b93496e287c379e61e5",
    ("F33", 2): "9944cc87022b46f5e0b1f434f11a92f3f99541db5afcee2544c62f44e84a042c",
}


@pytest.mark.parametrize("n", [1, 2])
def test_mixed_leaf_jets_are_bit_identical_to_the_golden_hashes(F, rho_ref, n):
    cases = _layout_cases(F, rho_ref, n)
    for name, G in (("uneven", cases["uneven"]),
                    ("F33", sharp_k(cases["F3"], 3))):
        assert _golden_digest(G) == GOLDEN_MIXED_JETS[name, n], (name, n)


def _layout_cases(F, rho_ref, n):
    """The compositions whose fibre form and symmetry actions the slot layout
    builds: sharps, an uneven chain (a fibred leaf between two fibreless
    ones), contact sharps of a lift and the contact compositions P."""
    amb = Ambient(n=n)
    Fn = F if n == 1 else gf_time_one(amb, rho_ref)
    lift = contact_lift_gf(Fn)
    small = gf_small_map(amb, RadialMap(amb, rho_ref, 0.2))
    rot = gf_linear_rotation(amb, [0.8] * n)
    return {"F": Fn, "F3": sharp_k(Fn, 3), "F5": sharp_k(Fn, 5),
            "uneven": gf_compose_chain([rot, reeb_shift(Fn, 0.3), small]),
            "C1": contact_sharp(lift, 1), "C3": contact_sharp(lift, 3),
            "P3": contact_p(lift, 3), "P5": contact_p(lift, 5)}


def _layout_digest(G):
    """sha256 of quad_part's bytes, quad_index, and each symmetry action
    (by name) at one seeded point; r_action at a = 0.7."""
    digest = hashlib.sha256(G.quad_part.tobytes()
                            + struct.pack("<q", G.quad_index))
    w = np.random.default_rng(17).normal(0.0, 0.5, G.total_dim)
    for name in sorted(G.sym_ops):
        op = G.sym_ops[name]
        out = op(w, 0.7) if name == "r_action" else op(w)
        digest.update(name.encode() + np.asarray(out, dtype=float).tobytes())
    return digest.hexdigest()


# sha256 of `_layout_digest`, recorded with numpy 2.4 on x86-64.  The golden
# jets never read quad_part or sym_ops; these pin the slot layout's fibre
# quadratic form and its cyclic, R- and Z-actions byte for byte.
GOLDEN_LAYOUTS = {
    ("F", 1): "3f3d1631f9c0ec3e3f5a96508aeaf7dcc0cf694eedfe0388afdb4939383c2e4c",
    ("F3", 1): "d10ae82d75594bd30d5e4317da5626cbeedb0c03f45916723c0516a83db29142",
    ("F5", 1): "acc2ee6dd5a88f6eb7b9cd746516dd0bb56fc1c6337d4f97e97861953a5645ec",
    ("uneven", 1): "16e1dc2a5a550c8cf34384a72c00a49da80bc66a8bc5139fc49acc932f76504e",
    ("C1", 1): "5cf89ffa6847fdc7be7bd6fd88930f6ea7430e180bd9dc3759cdd39859c4172e",
    ("C3", 1): "f245770caaa70357fa4466196c5c3921d3211c27365235f6c3633201566e7337",
    ("P3", 1): "f245770caaa70357fa4466196c5c3921d3211c27365235f6c3633201566e7337",
    ("P5", 1): "85e8c54447602fd9ac1c0bbe9000a83d6666d707f02451c4e5436bf8e7035f28",
    ("F", 2): "7c23e7b5d7eee9751386403049a1a00f66c6a4d7df7fdf28a646f473b21b7069",
    ("F3", 2): "0de935c2ca12f1947ae1906ce84384038c94df8e1330a073de10797e82ad0413",
    ("F5", 2): "9d25e2ce4a87010f98f7d00c309b67ba58e803e4e0bc0fd9db4a8c143c3c8f2a",
    ("uneven", 2): "e02358353b804298340917f2c13fa830d943df142f21cb9b0a3400487ee0aea3",
    ("C1", 2): "8ecc1bcbe57e753fe782da09733fa0d3a3f3a5fbb72e7f7d7e382398c11ce5a9",
    ("C3", 2): "42240199d8d55459238f0ce0b5127cffc8103a7bdb12820a923494bd70922047",
    ("P3", 2): "42240199d8d55459238f0ce0b5127cffc8103a7bdb12820a923494bd70922047",
    ("P5", 2): "6d4b626b50ec396864d985b8e9fa10eaf32d8e4ecc295f65a6c185f80b927ab4",
}


@pytest.mark.parametrize("n", [1, 2])
def test_layout_forms_and_actions_are_bit_identical(F, rho_ref, n):
    for name, G in _layout_cases(F, rho_ref, n).items():
        assert _layout_digest(G) == GOLDEN_LAYOUTS[name, n], (name, n)


def _contact_form(P):
    """P's terms as a flat form on its layout, each term a leaf that reads
    its columns as they are: slot j (the columns `cols[j]`), the theta
    difference e^{r_{j-1}}(theta_j - theta_{j+1}), the conformal e^{r_j},
    and the twist."""
    lay = P.meta["layout"]
    k, th, r = lay.K, lay.th, lay.r
    terms = ([("slot", c) for c in lay.cols]
             + [("theta", np.array([th[j], th[(j + 1) % k], r[j - 1]]))
                for j in range(k)]
             + [("exp", r[j:j + 1]) for j in range(k)])
    return ([name for name, _ in terms], [c for _, c in terms],
            [np.eye(len(c)) for _, c in terms], lay.twist())


def _zk_cases(F, rho_ref, n):
    """(name, flat form, the Z_k permutation of its layout), the
    permutation read off the layout's own cyclic action."""
    cases = _layout_cases(F, rho_ref, n)
    Fn, F3 = cases["F"], cases["F3"]
    lift = contact_lift_gf(Fn)
    forms = {"F": Fn, "F33": sharp_k(F3, 3), "uneven": cases["uneven"],
             **{"F%d" % k: sharp_k(Fn, k) for k in (3, 5, 7)}}
    contact = {"P%d" % k: contact_p(lift, k) for k in (3, 5)}
    out = [(name, G._jet.flat, G.meta["layout"]) for name, G in forms.items()]
    out += [(name, _contact_form(P), P.meta["layout"])
            for name, P in contact.items()]
    return [(name, form, lay.cyclic(np.arange(lay.total)).astype(int))
            for name, form, lay in out]


@pytest.mark.parametrize("n", [1, 2])
def test_flat_forms_are_exactly_zk_symmetric(F, rho_ref, n):
    # a time-one F and every sharp of it repeat one slice, so the layout's
    # cyclic action permutes their leaf maps; the uneven chain's three
    # leaves differ, so no rotation of its slots can fix it
    for name, form, perm in _zk_cases(F, rho_ref, n):
        assert fixed_by_cyclic(form, perm) == (name != "uneven"), (name, n)


def test_a_miswired_column_or_twist_entry_is_refused(F, rho_ref):
    rng = np.random.default_rng(29)
    for name, (leaves, cols, A, T), perm in _zk_cases(F, rho_ref, 1):
        if name == "uneven":
            continue
        for _ in range(3):
            i = int(rng.integers(len(leaves)))
            c = int(rng.integers(np.count_nonzero(np.any(A[i], axis=0))))
            wired = [np.array(x) for x in cols]
            wired[i][c] = (wired[i][c] + 1 + rng.integers(len(T) - 1)) \
                % len(T)
            assert not fixed_by_cyclic((leaves, wired, A, T), perm), name
        twisted = T.copy()
        a, b = np.argwhere(T)[rng.integers(np.count_nonzero(T))]
        twisted[a, b] *= 1.5
        assert not fixed_by_cyclic((leaves, cols, A, twisted), perm), name
