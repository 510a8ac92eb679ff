"""One jet per generating function: every order from one pass, lower orders
bit-equal to the value-only and gradient-only jets."""

import numpy as np
import pytest

from gfs import (RadialMap, contact_lift_gf, contact_sharp, gf_linear_rotation,
                 reeb_shift, sharp_k)

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
    # k*K slice midpoints per pass, whichever order is asked for
    slices = P3.meta["factor"].meta["factor"].meta["slices"]
    assert slices == 5
    calls = []
    real = RadialMap.midpoint_inverse

    def counting(mp, q):
        calls.append(1)
        return real(mp, q)

    monkeypatch.setattr(RadialMap, "midpoint_inverse", counting)
    for G, k in ((P3, 3), (F3, 3), (sharp_k(F, 5), 5)):
        w = np.random.default_rng(3).normal(0.0, 0.5, G.total_dim)
        for read in (G.value, G.grad, G.hess):
            calls.clear()
            read(w)
            assert len(calls) == k * slices, (G.meta["kind"], read.__name__)
