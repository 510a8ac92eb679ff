"""Closed forms for the shells of the reference profile REF(c, delta).

On the chord (delta + w < m < 1 - w, w the blend width) rho' is the
straight line c (1 - m) / (1 - delta), so the shell level solving
rho'(m) = -(l/k) A with A = pi R^2 is

    m_l = 1 - l A (1 - delta) / (k |c|),

and its value l m A + k rho(m) is

    c_l = l A - l^2 A^2 (1 - delta) / (2 k |c|) - k |c| w^2 / (12 (1 - delta)):

the first correction is the chord, the second the cubic corner blend at
m = 1.  The value is stationary in m, so c_l alone would not see an error
in the level; m_l is checked on its own.
"""

import itertools
import math

from gfs import Ambient, ball_complex, barcode, ref_profile, shells
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
