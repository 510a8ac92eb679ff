"""Numerical critical-point detection and classification.

Critical points of the cyclic composition F^{#k} encode k-periodic orbits of
the underlying map: at a fibre-critical configuration the slot midpoints
(z_j + z_{j+1})/2 reconstruct domain points X_1, ..., X_k with
X_{j+1} = phi(X_j) cyclically, and the critical value equals the total
primitive sum_j S(X_j).  Critical points of the scale-normalized contact
composition P encode translated chains, with critical value t*k.

`newton_critical` (on F^{#k}) and `chain_scan` (on P, gauge-fixed) share one
damped-Newton solver, `_newton`: least-squares steps on the bordered system,
halved while they fail to shrink the gradient.

The classifiers here measure Morse data honestly: eigenvalues of the full
Hessian, a relative zero threshold (1e-8 times the spectral radius), and a
Morse-Bott verdict that requires a clear relative spectral gap (1e-4) between
the null cluster and the rest of the spectrum.  Expected nullities are
2n - 1 on sphere shells of F^{#k} (the orbit sphere), 0 at isolated points,
and the gauge dimension for chain families of P.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (DomainError, NoConvergence, NotFibreCritical,
                     OrbitRelationViolated)
from .genfun import _orbit_config, chain_config, sharp_k

# Relative eigenvalue threshold below which a Hessian direction counts as null.
ZERO_TOL_REL = 1e-8
# Minimal relative spectral gap between the null cluster and the rest for a
# critical manifold to be declared Morse-Bott nondegenerate.
MORSE_BOTT_GAP = 1e-4
# Newton gates on max(|grad|, |gauge residual|), for newton_critical on F^{#k}
# and chain_scan on P, and the iteration cap of both.
NEWTON_TOL = 1e-10
SCAN_TOL = 1e-9
NEWTON_MAX_ITER = 100
# reconstruct's fibre-gradient gate; the cyclic displacement of a free point.
FIBRE_TOL = FREE_TOL = 1e-8


@dataclass
class CriticalManifold:
    """A detected critical set: one representative plus its Morse data.

    kind is "isolated", "sphereShell", or "chainFamily"; zk_orbit records
    whether the cyclic permutation moves the representative ("free") or fixes
    it ("fixed"); linked_orbit_id ties a chain family back to the enumerated
    translated chain it realizes.
    """

    kind: str
    representative: np.ndarray
    value: float
    index: int
    nullity: int
    zk_orbit: str = "fixed"
    linked_orbit_id: Optional[str] = None
    maslov: Optional[int] = None
    l: Optional[int] = None
    gap: Optional[float] = None
    morse_bott: bool = True
    diagnostics: dict = field(default_factory=dict)


def classify_hessian(evals):
    """Morse data (index, nullity, relative gap, Morse-Bott verdict) from a
    Hessian spectrum, using the relative zero threshold."""
    evals = np.asarray(evals, dtype=float)
    radius = float(np.max(np.abs(evals))) if evals.size else 0.0
    if radius == 0.0:
        return 0, int(evals.size), None, False
    zero_tol = ZERO_TOL_REL * radius
    index = int(np.sum(evals < -zero_tol))
    nullity = int(np.sum(np.abs(evals) <= zero_tol))
    nonzero = np.abs(evals)[np.abs(evals) > zero_tol]
    gap = float(np.min(nonzero) / radius) if nonzero.size else None
    morse_bott = nullity == 0 or (gap is not None and gap >= MORSE_BOTT_GAP)
    return index, nullity, gap, morse_bott


def _zk_orbit(G, w):
    """"free" when the cyclic permutation moves w, "fixed" otherwise (or when
    G carries no cyclic action)."""
    op = getattr(G, "sym_ops", {}).get("cyclic")
    if op is None:
        return "fixed"
    moved = float(np.max(np.abs(op(w) - w))) if len(w) else 0.0
    return "free" if moved > FREE_TOL else "fixed"


def _auto_maslov(G, index, nullity):
    """Maslov number, and the shell label when the manifold is an orbit
    sphere (nullity 2n-1), for a cyclic self-composition whose factor has a
    nondegenerate fibre quadratic form; (None, None) otherwise."""
    meta = getattr(G, "meta", {})
    if meta.get("kind") != "sharp":
        return None, None
    factor = meta["factor"]
    if factor.quad_degenerate:
        return None, None
    k = meta["k"]
    iota = factor.quad_index
    n = factor.base_dim // 2
    nu = maslov(index, k, iota, n)
    on_shell = nullity == 2 * n - 1 and nu > 0 and nu % (2 * n) == 0
    l = nu // (2 * n) if on_shell else None
    return nu, l


def _sup(x):
    """Sup norm, 0 for an empty vector; nan when an entry is nan."""
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def _finite(jet):
    """Whether the gradient and Hessian of an order-2 jet are finite."""
    return bool(np.isfinite(jet[1]).all() and np.isfinite(jet[2]).all())


def _newton(G, w, tol, gauge=None):
    """Damped Newton on grad G = 0 from w, subject to the linear gauge
    A w = 0 when the rows A are given; returns (w, value, hess, |grad|,
    iterations) at the limit.

    Each step solves the bordered system [[H, A^T], [A, 0]] s = -(g, A w) in
    the least-squares sense (with no gauge rows, H s = -g), so singular
    Hessian directions (critical manifolds) take the minimum-norm step.
    Each point is evaluated once, by one order-2 jet: a trial with a finite
    jet that shrinks |grad| is the next iterate, any other is halved; when
    8 trials fail the solve has stalled.  Stops when max(|grad|, |A w|) <
    tol; raises NoConvergence on a non-finite jet at the seed, a stall or
    after NEWTON_MAX_ITER iterations.
    """
    w = np.asarray(w, dtype=float).copy()
    if not np.all(np.isfinite(w)):
        raise DomainError("Newton needs a finite seed")
    dim = len(w)
    A = np.zeros((0, dim)) if gauge is None else gauge
    border = np.zeros((len(A), len(A)))
    value, g, H = jet = G.jet(w, 2)
    if not _finite(jet):
        raise NoConvergence("Newton: non-finite jet at the seed")
    gnorm = _sup(g)
    it = 0
    while not max(gnorm, _sup(A @ w)) < tol:
        if it == NEWTON_MAX_ITER:
            raise NoConvergence("Newton: |grad| = %.3e after %d iterations"
                                % (gnorm, NEWTON_MAX_ITER))
        it += 1
        M = np.block([[H, A.T], [A, border]])
        rhs = -np.concatenate([g, A @ w])
        step = np.linalg.lstsq(M, rhs, rcond=None)[0][:dim]
        scale = 1.0
        for _ in range(8):
            trial = w + scale * step
            jet = G.jet(trial, 2)
            tnorm = _sup(jet[1])
            if _finite(jet) and (tnorm < gnorm or tnorm < tol):
                break
            scale *= 0.5
        else:
            raise NoConvergence("Newton stalled at |grad| = %.3e" % gnorm)
        w, gnorm = trial, tnorm
        value, g, H = jet
    return w, value, H, gnorm, it


def _manifold(G, w, value, H, kind=None, **diagnostics):
    """The critical point w of G (value, Hessian H) with its Morse data; the
    kind defaults to "isolated" or "sphereShell" by nullity."""
    index, nullity, gap, morse_bott = classify_hessian(np.linalg.eigvalsh(H))
    nu, l = _auto_maslov(G, index, nullity)
    if kind is None:
        kind = "isolated" if nullity == 0 else "sphereShell"
    return CriticalManifold(
        kind=kind, representative=w, value=value, index=index,
        nullity=nullity, zk_orbit=_zk_orbit(G, w), maslov=nu, l=l, gap=gap,
        morse_bott=morse_bott, diagnostics=diagnostics)


def newton_critical(G, seed):
    """Damped Newton (`_newton`, no gauge, NEWTON_TOL) on grad G from seed;
    classifies the limit as an isolated point or a sphere shell, with its
    Maslov number on a cyclic self-composition.  Raises NoConvergence when
    the solve stalls or runs out of iterations."""
    w, value, H, gnorm, it = _newton(G, seed, NEWTON_TOL)
    return _manifold(G, w, value, H, grad_norm=gnorm, iterations=it)


def reconstruct(F, k, p):
    """k-periodic orbit encoded by a critical point p of F^{#k}.

    Checks fibre-criticality of p (to FIBRE_TOL), reads off the slot
    midpoints, maps each through the factor's fibre-critical domain-point
    chart, and verifies the orbit relation X_{j+1} = phi(X_j) (cyclically);
    a nan residual fails either check.
    """
    return _orbit(F, sharp_k(F, k), k, p)


def _orbit(F, sharp, k, p):
    p = np.asarray(p, dtype=float)
    worst = _sup(sharp.grad(p)[sharp.base_dim:])
    if not worst <= FIBRE_TOL:
        raise NotFibreCritical(
            "fibre gradient norm %.3e exceeds %.1e" % (worst, FIBRE_TOL))

    if k == 1:
        points = [F.domain_point(p)]
    else:
        lay = sharp.meta["layout"]
        points = [F.domain_point(lay.factor_args(p, j)) for j in range(k)]

    phi = F.map_handle
    if phi is None:
        raise DomainError("reconstruct needs the factor's map handle")
    worst = _sup([phi(x) - y for x, y in zip(points, points[1:] + points[:1])])
    if not worst <= 1e-8:
        raise OrbitRelationViolated(
            "orbit relation residual %.3e exceeds 1e-8" % worst)
    return points


def check_value(F, k, p):
    """|F^{#k}(p) - sum_j S(X_j)| for the orbit reconstructed from p; the
    correspondence theorem says this is zero for normalized F."""
    sharp = sharp_k(F, k)
    points = _orbit(F, sharp, k, p)
    phi = F.map_handle
    total = sum(float(phi.S(x)) for x in points)
    return abs(float(sharp.value(np.asarray(p, dtype=float))) - total)


def maslov(index_of_hessian, k, iota, n):
    """Maslov-type number of a critical point of F^{#k}: the measured Hessian
    index minus the composition's fibre bookkeeping k*iota + n(k-1)."""
    return int(index_of_hessian) - k * int(iota) - int(n) * (k - 1)


def sharp_critical_seed(F, k, zbar1):
    """Analytic critical seed of F^{#k} over the phi-orbit of zbar1: each
    orbit point's slot at its fibre-critical configuration, the outer
    z-blocks from the cyclic midpoint system; each slice is flowed once."""
    zs, zetas, _ = _orbit_config([F] * k, zbar1)
    return np.concatenate(zs + zetas)


def _contact_p(P, caller):
    """P's layout and period, or DomainError unless P is from contact_p."""
    if getattr(P, "meta", {}).get("kind") != "contactP":
        raise DomainError("%s needs the contact composition P of contact_p"
                          % caller)
    return P.meta["layout"], P.meta["k"]


def seed_from_chain(P, chain):
    """Critical seed of the scale-normalized contact composition P at a
    translated chain: z-blocks and fibres from the chain's slot
    configurations in the underlying symplectic factor (`chain_config`),
    block thetas from the chain, r = 0."""
    lay, k = _contact_p(P, "seed_from_chain")
    if chain.k != k:
        raise DomainError("chain period %d does not match P (k = %d)"
                          % (chain.k, k))
    factor = P.meta["factor"].meta["factor"]
    zs, zetas = chain_config([factor] * k, [pt.base for pt in chain.points])
    w = np.zeros(P.total_dim)
    w[np.r_[tuple(lay.z)]] = np.concatenate(zs)
    w[lay.th] = [pt.theta for pt in chain.points]
    w[np.r_[tuple(lay.f)]] = np.concatenate(zetas)
    return w


def chain_scan(P, k, seeds, chains=None):
    """Gauge-fixed Newton scan of the contact composition P from the given
    seeds; one representative per critical family.

    The stationarity system {grad P = 0} is invariant under the scale action,
    common theta translation, and (on shells) the loop of chain rotations, so
    plain Newton has a rank-deficient Hessian everywhere on a family.  The
    scan fixes the first two with the linear gauges sum_j r_j = 0 and
    theta_1 = 0 and runs the same damped Newton as `newton_critical` (to
    SCAN_TOL) on the bordered system, which leaves motion along the
    remaining family directions free but convergent.  k must be the period
    of P.

    Families are merged by critical value (distance 1e-6); each manifold
    records value = t*k, the measured full-Hessian nullity (the gauge
    dimension of the family), and — when `chains` from the analytic
    enumeration are supplied — the orbit id and l of the matching chain.
    """
    lay, period = _contact_p(P, "chain_scan")
    if k != period:
        raise DomainError("chain_scan: k = %r, but P composes %r factors"
                          % (k, period))
    A = np.zeros((2, P.total_dim))
    A[0, lay.r] = 1.0
    A[1, lay.th[0]] = 1.0

    found = []
    for seed in seeds:
        w, value, H, gnorm, it = _newton(P, seed, SCAN_TOL, gauge=A)
        if any(abs(value - m.value) < 1e-6 for m in found):
            continue
        mani = _manifold(P, w, value, H, "chainFamily", t=value / k,
                         grad_norm=gnorm, iterations=it)
        if chains is not None:
            for ch in chains:
                if abs(ch.action - value) < 1e-6:
                    mani.linked_orbit_id = ch.orbit_id
                    mani.l = ch.l
                    break
        found.append(mani)
    found.sort(key=lambda m: m.value)
    return found


def to_csv(manifolds):
    """Critical data as CSV text with columns
    (kind, l, value, index, nullity, maslov, orbit)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "l", "value", "index", "nullity", "maslov",
                     "orbit"])
    for m in manifolds:
        writer.writerow([
            m.kind,
            "" if m.l is None else m.l,
            "%.12g" % m.value,
            m.index,
            m.nullity,
            "" if m.maslov is None else m.maslov,
            m.zk_orbit,
        ])
    return buf.getvalue()
