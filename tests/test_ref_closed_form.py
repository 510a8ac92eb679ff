"""Closed forms for the shells of the reference profile REF(c, delta).

On the chord (delta + w < m < 1 - w, w the blend width) rho' is the
straight line c (1 - m) / (1 - delta), so the shell level solving
rho'(m) = -(l/k) A with A = pi R^2 is

    m_l = 1 - l A (1 - delta) / (k |c|),

and its value l m A + k rho(m) is

    c_l = l A - l^2 A^2 (1 - delta) / (2 k |c|) - k |c| w^2 / (12 (1 - delta)):

the first correction is the chord, the second the cubic corner blend at
m = 1.  The value is stationary in m, so c_l alone would not see an error
in the level; m_l is checked on its own.  The same c_l is the critical value
of F^{#k} over a shell orbit, and l A - c_l is the exact rate at which the
finite bars approach the limit bar [0, l A).
"""

import itertools
import math

import numpy as np

from gfs import (Ambient, ball_complex, barcode, gf_time_one, ref_profile,
                 sharp_critical_seed, sharp_k, shells)
from gfs.sympl import BLEND_WIDTH

GRID = list(itertools.product((1, 2), (1.0, 1.3), (0.1, 0.3), (1, 3, 5, 7),
                              (10, 60, 200)))


def _closed_form(A, c, delta, k, l):
    """(m_l, c_l) for REF(-c, delta), or None off the chord."""
    w = BLEND_WIDTH
    m_l = 1 - l * A * (1 - delta) / (k * c)
    if not delta + w < m_l < 1 - w:
        return None
    c_l = (l * A - l * l * A * A * (1 - delta) / (2 * k * c)
           - k * c * w * w / (12 * (1 - delta)))
    return m_l, c_l


def _reference(n, R, delta, k, c_over_pi):
    """B^2n(R), REF(-c_over_pi pi, delta), the area pi R^2 and |c|."""
    c = c_over_pi * math.pi
    return Ambient(n=n, R=R), ref_profile(-c, delta), math.pi * R * R, c


def test_chord_shells_match_the_closed_form():
    worst_m = worst_c = 0.0
    for n, R, delta, k, c_over_pi in GRID:
        amb, rho, A, c = _reference(n, R, delta, k, c_over_pi)
        on_chord = 0
        for s in shells(amb, rho, k):
            form = _closed_form(A, c, delta, k, s.l)    # None at the origin
            if form:
                worst_m = max(worst_m, abs(s.m - form[0]))
                worst_c = max(worst_c, abs(s.value - form[1]) / form[1])
                on_chord += 1
        assert on_chord
    assert worst_m < 1e-11
    assert worst_c < 1e-12


def test_equivariant_bars_die_at_the_closed_form():
    # the bars die at shell values, which the test above covers on the
    # whole grid; the steepest profiles are left out here for time
    for n, R, delta, k, c_over_pi in GRID:
        if k == 1 or c_over_pi == 200:
            continue
        amb, rho, A, c = _reference(n, R, delta, k, c_over_pi)
        bars = barcode(ball_complex(amb, rho, k), "equivariant").bars
        # shell l (0 < l < k), on the chord here, carries one bar (0, c_l)
        # in each of its degrees 2nl .. 2nl + 2n - 1
        assert len(bars) == 2 * n * (k - 1)
        for bar in bars:
            _, c_l = _closed_form(A, c, delta, k, bar.degree // (2 * n))
            assert bar.birth == 0.0 and bar.rank == 1
            assert abs(bar.death - c_l) / c_l < 1e-12


def test_sharp_critical_values_match_the_closed_form():
    # F^{#k} at the analytic seed over a point of shell l is c_l
    worst = 0.0
    for n, k in ((1, 3), (1, 5), (2, 3)):
        amb, rho, A, c = _reference(n, 1.0, 0.1, k, 0.9)
        F = gf_time_one(amb, rho)
        Fk = sharp_k(F, k)
        ls = []
        for s in shells(amb, rho, k):
            if s.l == 0:
                continue
            _, c_l = _closed_form(A, c, 0.1, k, s.l)
            z = np.zeros(2 * n)
            z[0] = math.sqrt(s.m) * amb.R
            value = Fk.value(sharp_critical_seed(F, k, z))
            worst = max(worst, abs(value - c_l) / c_l)
            ls.append(s.l)
        assert sorted(ls) == list(range(1, k))
    assert worst < 1e-12


def test_endpoints_approach_the_limit_at_the_exact_rate():
    # the rate behind test_endpoints_climb_to_the_limit: the last death in
    # degree 2l falls short of l A by the chord and blend terms of c_l
    k, delta, w = 3, 0.1, BLEND_WIDTH
    for c_over_pi in (2, 5, 10, 20, 60):
        amb, rho, A, c = _reference(1, 1.0, delta, k, c_over_pi)
        bc = barcode(ball_complex(amb, rho, k), "equivariant")
        for l in (1, 2):
            gap = l * A - max(bc.endpoints(2 * l))
            rate = (l * l * A * A * (1 - delta) / (2 * k * c)
                    + k * c * w * w / (12 * (1 - delta)))
            assert abs(gap - rate) <= 1e-10 * rate
