"""Exact rational reads of a `RadialProfile`: the oracle of its round-off.

A float coefficient and a float level are exact rationals, so summing the
`_rows` polynomial that `read` sums, in `fractions.Fraction`, gives the true
value of what `read` rounds: the same piece and coefficients, no rounding.
"""

import bisect
from fractions import Fraction


def _row(rho, m, order):
    """The ascending row of rho^(order) on the piece that holds the level m
    in [0, 1), and s = m - knot as an exact rational."""
    i = bisect.bisect_right(rho._inner, m)
    return rho._rows[order][i], Fraction(m) - Fraction(rho._knot_list[i])


def exact_read(rho, m, order):
    """rho^(order)(m) exactly, for a float or Fraction level m in [0, 1)."""
    row, s = _row(rho, m, order)
    return sum(Fraction(a) * s**p for p, a in enumerate(row))


def magnitude(rho, m, order):
    """sum_p |a_p| |s|^p over the row `exact_read` sums: the scale of the
    round-off of `read`."""
    row, s = _row(rho, m, order)
    return float(sum(abs(Fraction(a)) * abs(s)**p for p, a in enumerate(row)))


def exact_level(rho, target, lo, halvings=80):
    """The m in [lo, 1) with rho'(m) = target, by exact bisection of the
    rows' rho' (non-decreasing): within 2^-halvings of the root."""
    a, b, target = Fraction(lo), Fraction(1), Fraction(target)
    for _ in range(halvings):
        mid = (a + b) / 2
        if exact_read(rho, mid, 1) <= target:
            a = mid
        else:
            b = mid
    return (a + b) / 2
