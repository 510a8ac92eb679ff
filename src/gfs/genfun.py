"""Generating functions quadratic at infinity, cyclic compositions, contact sharps.

The objects here are `GenFn` handles: one exact `jet(w, order)` callable on
base x fibre variables that returns the value, gradient and Hessian (up to
`order`) from a single pass over the composition's slots, together with the
quadratic fibre part, normalization data, symmetry actions, and a recursive
`domain_point` map that recovers the domain point of the generated map from a
fibre-critical point.

Variable layouts (fixed here, relied on by `crit`):

* small map / linear rotation:   w = base q in R^{2n}        (no fibre)
* cyclic composition of K factors (K odd):
      w = [z_1 | z_2 ... z_K | zeta_1 ... zeta_K],  base = z_1,
      F(w) = sum_j F_j((z_j + z_{j+1})/2, zeta_j) + sum_j 0.5 <z_j, J0 z_{j+1}>
  with cyclic indices (z_{K+1} = z_1).
* contact sharp of a contact-base factor F(x, y, theta; zeta):
      w = [B_1 ... B_k | zeta_1 ... zeta_k],  B_j = (z_j, theta_j, r_j),
      F^#k(w) = sum_j [ e^{r_j} F(e^{-r_j/2}(z_j + z_{j+1})/2, theta_{j+1}, zeta_j)
                        + 0.5 <z_j, J0 z_{j+1}> + e^{r_{j-1}}(theta_j - theta_{j+1}) ],
  the k-fold sharp of the conformal slot G(v; theta, zeta, r) =
  e^r F(e^{-r/2} v, theta, zeta) plus the theta-differences.

All derivatives are exact (the small-map jet is a closed form in the level
m of the inverted midpoint; compositions use the explicit chain rule);
finite differences are only used in the test suite to validate them.
"""

import math

import numpy as np

from .errors import (AngleOutOfRange, DomainError, EvenFactorCount, EvenK,
                     NotNormalized)
from .sympl import ComposedMap, LinearRotation, RadialMap, j0_apply, j0_matrix


# ---------------------------------------------------------------------------
# GenFn container
# ---------------------------------------------------------------------------

class GenFn:
    """Generating function handle.

    `jet(w, order)` returns (value, grad, hess) at the full variable vector
    w = [base | fibre], from one evaluation of the underlying formula; the
    entries above `order` (0, 1 or 2) are None.  value/grad/hess read one
    entry of the jet of the matching order.
    `quad_part` is the symmetric matrix Q of the fibre quadratic form
    (value zeta^T Q zeta); `quad_index` counts its negative eigenvalues.
    `normalized` records that the far critical value is zero.
    `domain_point(w)` returns the domain point of the generated map at a
    fibre-critical w.  `sym_ops` maps symmetry names to variable actions.
    """

    def __init__(self, base_dim, fibre_dim, jet, quad_part,
                 normalized=False, map_handle=None, domain_point=None,
                 contact=False, sym_ops=None, meta=None):
        self.base_dim = int(base_dim)
        self.fibre_dim = int(fibre_dim)
        self._jet = jet
        self.quad_part = np.asarray(quad_part, dtype=float)
        self.normalized = bool(normalized)
        self.map_handle = map_handle
        self._domain_point = domain_point
        self.contact = bool(contact)
        self.sym_ops = sym_ops or {}
        self.meta = meta or {}
        if self.quad_part.size:
            evals = np.linalg.eigvalsh(self.quad_part)
            self.quad_index = int(np.sum(evals < 0.0))
            self.quad_degenerate = bool(np.min(np.abs(evals))
                                        < 1e-10 * max(1.0, np.max(np.abs(evals))))
        else:
            self.quad_index = 0
            self.quad_degenerate = False

    # -- evaluation --------------------------------------------------------

    @property
    def total_dim(self):
        return self.base_dim + self.fibre_dim

    def jet(self, w, order):
        value, grad, hess = self._jet(np.asarray(w, dtype=float), order)
        return (float(value),
                np.asarray(grad, dtype=float) if order >= 1 else None,
                np.asarray(hess, dtype=float) if order >= 2 else None)

    def value(self, w):
        return self.jet(w, 0)[0]

    def grad(self, w):
        return self.jet(w, 1)[1]

    def hess(self, w):
        return self.jet(w, 2)[2]

    def domain_point(self, w):
        if self._domain_point is None:
            raise DomainError("this generating function has no domain_point map")
        return self._domain_point(np.asarray(w, dtype=float))


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

class GraphPoint:
    """Point of the twisted graph of a map: midpoint base + graph covector."""

    def __init__(self, base, covector):
        self.base = np.asarray(base, dtype=float)
        self.covector = np.asarray(covector, dtype=float)


def graph_of(mp, p):
    """Twisted-graph point of a symplectic map at p: base = (p + phi(p))/2,
    covector per coordinate (phi_y - y, x - phi_x)."""
    z = np.asarray(p, dtype=float)
    X = mp(z)
    cov = np.empty_like(z)
    cov[0::2] = X[1::2] - z[1::2]
    cov[1::2] = z[0::2] - X[0::2]
    return GraphPoint((z + X) / 2.0, cov)


# ---------------------------------------------------------------------------
# elementary generating functions
# ---------------------------------------------------------------------------

def gf_linear_rotation(amb, angles):
    """F(q) = sum_j tan(alpha_j / 2) |q_j|^2, the fibreless generating
    function of the product of rotations by alpha_j (|alpha_j| < pi)."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if np.any(np.abs(angles) >= math.pi):
        raise AngleOutOfRange("rotation angles must satisfy |alpha| < pi")
    coeffs = np.tan(angles / 2.0)
    diag = np.repeat(coeffs, 2)

    def jet(w, order):
        return float(np.dot(diag * w, w)), 2.0 * diag * w, np.diag(2.0 * diag)

    mp = LinearRotation(amb, angles)
    return GenFn(base_dim=amb.dim, fibre_dim=0, jet=jet,
                 quad_part=np.zeros((0, 0)), normalized=True, map_handle=mp,
                 domain_point=mp.midpoint_inverse,
                 meta={"kind": "linearRotation"})


def gf_small_map(amb, mp):
    """Fibreless generating function of a radial map rotating by less than pi.

    phi commutes with U(n), so F depends on h = H(q) alone.  With zbar =
    mp.midpoint_inverse(q), m = H(zbar), beta = 2 t rho'(m) / R^2 and
    b = beta/2 (so h = m cos^2 b), in closed form:

        F(q) = t a(m) + 0.5 R^2 m sin 2b   (S(zbar) + the cross term),
        grad F = 2 tan(b) q                (the graph covector),
        hess F = 2 tan(b) I + (4/R^2) (d tan b/dh) q q^T,
        d tan b/dh = (beta'/(2 cos^2 b)) / (cos^2 b - 0.5 m sin 2b beta'),

    whose denominator is dh/dm; every order is zero where H(q) >= 1."""
    if not (isinstance(mp, RadialMap) and mp.amb == amb):
        raise DomainError("gf_small_map needs a RadialMap on %r" % (amb,))
    if mp.max_rotation() >= math.pi:
        raise AngleOutOfRange("the map rotates by pi or more; its midpoint "
                              "map (id + phi)/2 is not invertible")
    n2, R2, t, rho = amb.dim, amb.R**2, mp.t, mp.rho

    def jet(q, order):
        m = amb.H(mp.midpoint_inverse(q))
        dr = rho.drho(m)
        b = t * dr / R2
        s2b = math.sin(2.0 * b)
        value = t * (rho.rho(m) - m * dr) + 0.5 * R2 * m * s2b
        g = H = None
        if order >= 1:
            tb = math.tan(b)
            g = 2.0 * tb * q
        if order >= 2:
            dbeta, cos2 = 2.0 * t * rho.d2rho(m) / R2, math.cos(b) ** 2
            dtb = 0.5 * dbeta / cos2 / (cos2 - 0.5 * m * s2b * dbeta)
            H = (4.0 * dtb / R2) * np.outer(q, q)
            H.flat[::n2 + 1] += 2.0 * tb
        return value, g, H

    # normalized: where phi = id, S = 0 and the cross term is 0
    return GenFn(base_dim=n2, fibre_dim=0, jet=jet,
                 quad_part=np.zeros((0, 0)), normalized=True, map_handle=mp,
                 domain_point=mp.midpoint_inverse,
                 meta={"kind": "smallMap"})


# ---------------------------------------------------------------------------
# cyclic composition (shared by gf_compose_chain and sharp_k)
# ---------------------------------------------------------------------------

class _CyclicLayout:
    """Index bookkeeping for w = [z_1 .. z_K | zeta_1 .. zeta_K]."""

    def __init__(self, n2, fibre_dims):
        self.n2 = n2
        self.K = len(fibre_dims)
        self.z_slices = [slice(j * n2, (j + 1) * n2) for j in range(self.K)]
        off = self.K * n2
        self.f_slices = []
        for d in fibre_dims:
            self.f_slices.append(slice(off, off + d))
            off += d
        self.total = off

    def factor_args(self, w, j):
        jn = (j + 1) % self.K
        mid = 0.5 * (w[self.z_slices[j]] + w[self.z_slices[jn]])
        return np.concatenate([mid, w[self.f_slices[j]]])


def _cyclic_compose(factors):
    """Cyclic composition generating function over K factors (K odd)."""
    K = len(factors)
    n2 = factors[0].base_dim
    if any(f.base_dim != n2 for f in factors):
        raise DomainError("all factors must share the same base dimension")
    if any(f.contact for f in factors):
        raise DomainError("cyclic composition acts on symplectic-base factors")
    lay = _CyclicLayout(n2, [f.fibre_dim for f in factors])
    J0 = j0_matrix(n2)

    def jet(w, order):
        value = 0.0
        g = np.zeros(lay.total) if order >= 1 else None
        H = np.zeros((lay.total, lay.total)) if order >= 2 else None
        for j in range(K):
            zj, zn = lay.z_slices[j], lay.z_slices[(j + 1) % K]
            fj = lay.f_slices[j]
            vj, gj, Hj = factors[j].jet(lay.factor_args(w, j), order)
            twist = j0_apply(w[zn])
            value += vj
            value += 0.5 * float(np.dot(w[zj], twist))
            if order >= 1:
                gu = gj[:n2]
                g[zj] += 0.5 * gu
                g[zn] += 0.5 * gu
                g[fj] += gj[n2:]
                g[zj] += 0.5 * twist
                g[zn] -= 0.5 * j0_apply(w[zj])
            if order >= 2:
                Huu = Hj[:n2, :n2]
                Huf = Hj[:n2, n2:]
                for a in (zj, zn):
                    for b in (zj, zn):
                        H[a, b] += 0.25 * Huu
                    H[a, fj] += 0.5 * Huf
                    H[fj, a] += 0.5 * Huf.T
                H[fj, fj] += Hj[n2:, n2:]
                H[zj, zn] += 0.5 * J0
                H[zn, zj] += 0.5 * J0.T
        return value, g, H

    # fibre quadratic part: factor quadratics plus the cyclic twist with z_1 = 0
    fdim = lay.total - n2
    Q = np.zeros((fdim, fdim))
    for j in range(K):
        fs = lay.f_slices[j]
        Q[fs.start - n2:fs.stop - n2, fs.start - n2:fs.stop - n2] = \
            factors[j].quad_part
    for j in range(1, K - 1):      # pairs (z_j, z_{j+1}) with both slots >= 2
        a = lay.z_slices[j]
        b = lay.z_slices[j + 1]
        Q[a.start - n2:a.stop - n2, b.start - n2:b.stop - n2] += 0.25 * J0
        Q[b.start - n2:b.stop - n2, a.start - n2:a.stop - n2] += 0.25 * J0.T

    def domain_point(w):
        return factors[0].domain_point(lay.factor_args(w, 0))

    maps = [f.map_handle for f in factors]
    mp = ComposedMap(maps) if all(m is not None for m in maps) else None
    return GenFn(base_dim=n2, fibre_dim=fdim, jet=jet, quad_part=Q,
                 normalized=all(f.normalized for f in factors),
                 map_handle=mp, domain_point=domain_point,
                 meta={"kind": "cyclicComposition", "K": K, "layout": lay,
                       "factors": list(factors)})


def gf_compose_chain(factors):
    """Generating function of phi_K o ... o phi_1 from K fibreless (or fibred)
    factor generating functions, K odd:

        F(z_1; z_2..z_K, zetas) = sum_j F_j((z_j + z_{j+1})/2, zeta_j)
                                  + sum_j 0.5 <z_j, J0 z_{j+1}>   (cyclic).

    K = 1 returns the single factor unchanged."""
    K = len(factors)
    if K % 2 == 0:
        raise EvenFactorCount("cyclic composition requires an odd factor count")
    if K == 1:
        return factors[0]
    return _cyclic_compose(list(factors))


def sharp_k(F, k):
    """k-fold cyclic self-composition F^{#k} (k odd); generates the k-th
    iterate of F's map and carries the cyclic Z_k symmetry action.

    k = 1 returns F itself."""
    if k % 2 == 0 or k < 1:
        raise EvenK("sharp_k requires odd k >= 1")
    if k == 1:
        return F
    gf = _cyclic_compose([F] * k)
    lay = gf.meta["layout"]
    perm = np.arange(lay.total)
    for j in range(k):
        jn = (j + 1) % k
        perm[lay.z_slices[j]] = np.arange(lay.total)[lay.z_slices[jn]]
        perm[lay.f_slices[j]] = np.arange(lay.total)[lay.f_slices[jn]]

    def cyclic(w):
        return np.asarray(w, dtype=float)[perm]

    gf.sym_ops = {"cyclic": cyclic}
    gf.meta["kind"] = "sharp"
    gf.meta["factor"] = F
    gf.meta["k"] = k
    return gf


def gf_time_one(amb, rho, max_angle=math.pi / 2):
    """Generating function of the time-1 truncated radial map, built from the
    smallest odd number K of equal time slices whose per-slice rotation stays
    below `max_angle` (so each slice admits the fibreless midpoint form)."""
    peak = RadialMap(amb, rho, 1.0).max_rotation()
    K = max(1, int(math.ceil(peak / max_angle)))
    if K % 2 == 0:
        K += 1
    while peak / K >= max_angle:
        K += 2
    slices = [gf_small_map(amb, RadialMap(amb, rho, 1.0 / K)) for _ in range(K)]
    gf = gf_compose_chain(slices)
    gf.meta["slices"] = K
    return gf


def fibre_critical_config(F, zbar):
    """Fibre-critical configuration of F over the orbit of zbar:
    returns (base, zeta) with base = (zbar + phi(zbar))/2.

    For a cyclic composition the slice chain y_{s+1} = phi_s(y_s) places
    every slot at its own factor's configuration (`chain_config`)."""
    zbar = np.asarray(zbar, dtype=float)
    if F.meta.get("kind") in ("cyclicComposition", "sharp"):
        factors = F.meta["factors"]
        ys = [zbar]
        for f in factors[:-1]:
            ys.append(f.map_handle(ys[-1]))
        zs, zetas = chain_config(factors, ys)
        return zs[0], np.concatenate(zs[1:] + zetas)
    return 0.5 * (zbar + F.map_handle(zbar)), np.zeros(0)


def chain_config(factors, points):
    """Critical configuration of the cyclic composition of `factors` along
    a chain: slot j sits at the fibre-critical configuration of factors[j]
    over points[j], and the z-blocks resolve the slot bases cyclically.
    Returns (z-blocks, zetas), one of each per slot."""
    bases, zetas = [], []
    for f, p in zip(factors, points):
        base, zeta = fibre_critical_config(f, p)
        bases.append(base)
        zetas.append(zeta)
    return alternating_resolve(bases), zetas


def alternating_resolve(mids):
    """Given K midpoints (K odd), return the unique w_1..w_K with
    (w_s + w_{s+1})/2 = mids_s cyclically: w_s = sum_l (-1)^l mids_{s+l}."""
    K = len(mids)
    if K % 2 == 0:
        raise EvenFactorCount("alternating resolution needs an odd count")
    out = []
    for s in range(K):
        acc = np.zeros_like(np.asarray(mids[0], dtype=float))
        for l in range(K):
            acc += ((-1) ** l) * np.asarray(mids[(s + l) % K], dtype=float)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# contact-side generating functions
# ---------------------------------------------------------------------------

def contact_lift_gf(f):
    """Lift a normalized symplectic-base generating function to contact base
    (x, y, theta): the value is theta-independent, hence 1-periodic."""
    if not f.normalized:
        raise NotNormalized("contact lifting requires a normalized function")
    n2 = f.base_dim
    th = n2               # index of theta in the contact layout [z, theta, zeta]

    def strip(w):
        return np.concatenate([w[:n2], w[th + 1:]])

    def jet(w, order):
        value, g, H = f.jet(strip(w), order)
        if order >= 1:
            g = np.concatenate([g[:n2], [0.0], g[n2:]])
        if order >= 2:
            idx = np.concatenate([np.arange(n2), np.arange(th + 1, len(w))])
            out = np.zeros((len(w), len(w)))
            out[np.ix_(idx, idx)] = H
            H = out
        return value, g, H

    def domain_point(w):
        zbar = f.domain_point(strip(w))
        return np.concatenate([zbar, [w[th]]])

    return GenFn(base_dim=n2 + 1, fibre_dim=f.fibre_dim, jet=jet,
                 quad_part=f.quad_part, normalized=True,
                 map_handle=f.map_handle, domain_point=domain_point,
                 contact=True, meta={"kind": "contactLift", "factor": f})


def reeb_shift(F, t):
    """Generating function of Reeb_t composed with F's map: F - t."""

    def jet(w, order):
        value, g, H = F.jet(w, order)
        return value - t, g, H

    return GenFn(base_dim=F.base_dim, fibre_dim=F.fibre_dim, jet=jet,
                 quad_part=F.quad_part,
                 normalized=False if t != 0.0 else F.normalized,
                 map_handle=F.map_handle, domain_point=F._domain_point,
                 contact=F.contact,
                 meta=dict(F.meta, kind="reebShift", offset=t, factor=F))


class _ContactLayout:
    """Index bookkeeping for w = [B_1 .. B_k | zeta_1 .. zeta_k] with
    B_j = (z_j in R^{2n}, theta_j, r_j)."""

    def __init__(self, n2, k, fibre_dim):
        self.n2 = n2
        self.k = k
        self.N = fibre_dim
        b = n2 + 2
        self.z = [slice(j * b, j * b + n2) for j in range(k)]
        self.th = [j * b + n2 for j in range(k)]
        self.r = [j * b + n2 + 1 for j in range(k)]
        off = k * b
        self.f = [slice(off + j * fibre_dim, off + (j + 1) * fibre_dim)
                  for j in range(k)]
        self.total = off + k * fibre_dim


def _conformal_slot(F):
    """Conformal slot of a contact-base factor F(u, theta; zeta):

        G(v; theta, zeta, r) = e^r F(e^{-r/2} v, theta, zeta),

    with base v and fibre (theta, zeta, r); its jet is the chain rule through
    u = e^{-r/2} v, so G_vv is F_uu itself."""
    n2 = F.base_dim - 1
    d = F.total_dim + 1

    def jet(w, order):
        r = w[-1]
        e = math.exp(r)
        h = math.exp(0.5 * r)
        u = w[:n2] / h
        val, gF, HF = F.jet(np.concatenate([u, w[n2:-1]]), order)
        g = H = None
        if order >= 1:
            Fu = gF[:n2]
            g = np.empty(d)
            g[:n2] = h * Fu
            g[n2:-1] = e * gF[n2:]
            g[-1] = e * (val - 0.5 * float(np.dot(Fu, u)))
        if order >= 2:
            Huu = HF[:n2, :n2]
            H = np.empty((d, d))
            H[:n2, :n2] = Huu
            H[:n2, n2:-1] = h * HF[:n2, n2:]
            H[n2:-1, n2:-1] = e * HF[n2:, n2:]
            H[:n2, -1] = 0.5 * h * (Fu - Huu @ u)
            H[n2, -1] = e * (gF[n2] - 0.5 * float(np.dot(HF[:n2, n2], u)))
            H[n2 + 1:-1, -1] = e * (gF[n2 + 1:]
                                    - 0.5 * (HF[:n2, n2 + 1:].T @ u))
            H[-1, -1] = e * (val - 0.75 * float(np.dot(Fu, u))
                             + 0.25 * float(u @ Huu @ u))
            H[n2:-1, :n2] = H[:n2, n2:-1].T
            H[-1, :-1] = H[:-1, -1]
        return e * val, g, H

    return GenFn(base_dim=n2, fibre_dim=F.fibre_dim + 2, jet=jet,
                 quad_part=np.pad(F.quad_part, 1))


def contact_sharp(F, k):
    """Cyclic contact composition F^{#k} of a contact-base factor (k odd):

        sum_j [ e^{r_j} F(e^{-r_j/2}(z_j+z_{j+1})/2, theta_{j+1}, zeta_j)
                + 0.5 <z_j, J0 z_{j+1}> + e^{r_{j-1}}(theta_j - theta_{j+1}) ]

    (cyclic indices, r_0 = r_k): the k-fold sharp of the conformal slot
    e^r F(e^{-r/2} v, theta, zeta), read through a fixed permutation of the
    variables, plus the theta-differences.  Exactly homogeneous under the
    R-action (z |-> e^{a/2} z, r |-> r + a): the value scales by e^a."""
    if k % 2 == 0 or k < 1:
        raise EvenK("contact_sharp requires odd k >= 1")
    if not F.contact:
        raise DomainError("contact_sharp needs a contact-base factor")
    n2 = F.base_dim - 1
    lay = _ContactLayout(n2, k, F.fibre_dim)
    slots = sharp_k(_conformal_slot(F), k)
    # w[at] lists w in the sharp's order [z_j | (theta_{j+1}, zeta_j, r_j)]
    idx = np.arange(lay.total)
    at = np.concatenate([idx[z] for z in lay.z] + [
        np.concatenate([[lay.th[(j + 1) % k]], idx[lay.f[j]], [lay.r[j]]])
        for j in range(k)])
    back = np.argsort(at)

    def jet(w, order):
        value, g, H = slots.jet(w[at], order)
        g = g[back] if order >= 1 else g
        H = H[np.ix_(back, back)] if order >= 2 else H
        for j in range(k):
            jn, jp = (j + 1) % k, (j - 1) % k
            ep = math.exp(w[lay.r[jp]])
            dth = w[lay.th[j]] - w[lay.th[jn]]
            value += ep * dth
            if order >= 1:
                g[lay.th[j]] += ep
                g[lay.th[jn]] -= ep
                g[lay.r[jp]] += ep * dth
            if order >= 2:
                H[lay.th[j], lay.r[jp]] += ep
                H[lay.r[jp], lay.th[j]] += ep
                H[lay.th[jn], lay.r[jp]] -= ep
                H[lay.r[jp], lay.th[jn]] -= ep
                H[lay.r[jp], lay.r[jp]] += ep * dth
        return value, g, H

    # quadratic part: the sharp's, without the gauge directions (theta, r)
    keep = ~np.isin(at[n2:], lay.th + lay.r)
    Q = slots.quad_part[np.ix_(keep, keep)]

    # the sharp's cyclic block rotation, conjugated by at (k = 1: identity)
    perm = slots.sym_ops.get("cyclic", np.asarray)(at).astype(int)[back]

    def cyclic(w):
        return np.asarray(w, dtype=float)[perm]

    def r_action(w, a):
        w = np.asarray(w, dtype=float).copy()
        scale = math.exp(0.5 * a)
        for j in range(k):
            w[lay.z[j]] *= scale
            w[lay.r[j]] += a
        return w

    def z_shift(w):
        w = np.asarray(w, dtype=float).copy()
        for j in range(k):
            w[lay.th[j]] += 1.0
        return w

    return GenFn(base_dim=n2 + 1, fibre_dim=lay.total - (n2 + 1), jet=jet,
                 quad_part=Q, normalized=F.normalized,
                 map_handle=F.map_handle, contact=True,
                 sym_ops={"cyclic": cyclic, "r_action": r_action,
                          "z_shift": z_shift},
                 meta={"kind": "contactSharp", "k": k, "layout": lay,
                       "factor": F})


def contact_p(F, k):
    """Conformally corrected cyclic composition

        P = (k / sum_j e^{r_j}) * F^{#k},

    invariant (exactly, up to round-off) under the cyclic Z_k block rotation,
    the R-action (z |-> e^{a/2} z, r |-> r + a), and the Z-action
    (all theta_j |-> theta_j + 1)."""
    sharp = contact_sharp(F, k)
    lay = sharp.meta["layout"]

    def escale(w):
        return np.array([math.exp(w[lay.r[j]]) for j in range(k)])

    def jet(w, order):
        es = escale(w)
        E = float(np.sum(es))
        c = k / E
        V, gV, HV = sharp.jet(w, order)
        g = H = None
        if order >= 1:
            gc = np.zeros(lay.total)
            for j in range(k):
                gc[lay.r[j]] = -c * es[j] / E
            g = c * gV
            for j in range(k):
                g[lay.r[j]] += V * gc[lay.r[j]]
        if order >= 2:
            H = c * HV + np.outer(gc, gV) + np.outer(gV, gc)
            for j in range(k):
                for l in range(k):
                    Hc = 2.0 * c * es[j] * es[l] / E**2
                    if j == l:
                        Hc -= c * es[j] / E
                    H[lay.r[j], lay.r[l]] += V * Hc
        return c * V, g, H

    return GenFn(base_dim=sharp.base_dim, fibre_dim=sharp.fibre_dim,
                 jet=jet, quad_part=sharp.quad_part,
                 normalized=sharp.normalized, map_handle=sharp.map_handle,
                 contact=True, sym_ops=dict(sharp.sym_ops),
                 meta={"kind": "contactP", "k": k, "layout": lay,
                       "factor": F, "sharp": sharp})
