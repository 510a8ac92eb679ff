"""Shared fixtures: the reference profile, its broken-geodesic generating
function, and the cyclic compositions built from it.

The expensive objects (time-1 composition, k-fold sharps, the contact
composition) are session-scoped so the whole suite builds each exactly once.
"""

import itertools
import math

import numpy as np
import pytest

from gfs import (Ambient, ball_complex, contact_lift_gf, contact_p,
                 gf_time_one, ref_profile, sharp_k, shells)


@pytest.fixture(scope="session")
def amb1():
    return Ambient(n=1, R=1.0)


@pytest.fixture(scope="session")
def rho_ref():
    return ref_profile(-0.9 * math.pi, 0.1)


@pytest.fixture(scope="session")
def F(amb1, rho_ref):
    """Time-1 broken-geodesic generating function (five slices)."""
    return gf_time_one(amb1, rho_ref)


@pytest.fixture(scope="session")
def F3(F):
    return sharp_k(F, 3)


@pytest.fixture(scope="session")
def P3(F):
    return contact_p(contact_lift_gf(F), 3)


@pytest.fixture(scope="session")
def shells3(amb1, rho_ref):
    return shells(amb1, rho_ref, 3)


@pytest.fixture(scope="session")
def ball_grid():
    """240 ball complexes, keyed (n, R, c/pi, delta, k) in the product order
    of their axes."""
    axes = ((1, 2), (1.0, 1.3), (-0.9, -1.25, -3.3, -10, -40.5), (0.1, 0.2),
            (1, 3, 5, 7, 23, 53))
    return {(n, R, c, delta, k): ball_complex(
                Ambient(n=n, R=R), ref_profile(c * math.pi, delta), k)
            for n, R, c, delta, k in itertools.product(*axes)}


def fd_grad(fn, w, h=1e-6):
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (fn(w + e) - fn(w - e)) / (2.0 * h)
    return g


def fd_hess(grad, w, h=1e-6):
    w = np.asarray(w, dtype=float)
    d = len(w)
    H = np.zeros((d, d))
    for i in range(d):
        e = np.zeros_like(w)
        e[i] = h
        H[:, i] = (grad(w + e) - grad(w - e)) / (2.0 * h)
    return 0.5 * (H + H.T)
