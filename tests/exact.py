"""Exact oracles: rational reads of a `RadialProfile`, and the Z_k symmetry
of a flat form.

A float coefficient and a float level are exact rationals, so summing the
`_rows` polynomial that `read` sums, in `fractions.Fraction`, gives the true
value of what `read` rounds: the same piece and coefficients, no rounding.

A cyclic composition is sum_i f_i(A_i w) + 0.5 w^T T w.  Its Z_k action
w |-> w[perm] fixes it when the leaf maps A_i, read through the permutation,
are the same leaves' maps again and P^T T P == T; both are checked with ==,
without evaluating a leaf.
"""

import bisect
from fractions import Fraction

import numpy as np


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


def _dense(cols, A, D):
    """The packed leaf map (columns `cols`, block `A`) as a dense
    (depth, D) matrix; a padding column adds an exact zero."""
    M = np.zeros((A.shape[0], D))
    np.add.at(M.T, cols, A.T)
    return M


def fixed_by_cyclic(flat, perm):
    """Whether w |-> w[perm] fixes the flat form (leaves, cols, A, T)
    exactly: T[perm][:, perm] == T, and each leaf's dense map read at
    w[perm] is the map of one leaf equal to it, one to one."""
    leaves, cols, A, T = flat
    D, perm = len(T), np.asarray(perm)
    if not np.array_equal(T[np.ix_(perm, perm)], T):
        return False
    maps = [_dense(c, a, D) for c, a in zip(cols, A)]
    free = list(range(len(leaves)))
    for f, c, a in zip(leaves, cols, A):
        moved = _dense(perm[c], a, D)
        hit = next((j for j in free if leaves[j] == f
                    and np.array_equal(maps[j], moved)), None)
        if hit is None:
            return False
        free.remove(hit)
    return True
