"""Generating functions quadratic at infinity, cyclic compositions, contact sharps.

The objects here are `GenFn` handles: one exact `jet(w, order)` callable on
base x fibre variables that returns the value, gradient and Hessian (up to
`order`) from a single pass over the composition's slots, together with the
quadratic fibre part, normalization data, symmetry actions, and a recursive
`domain_point` map that recovers the domain point of the generated map from a
fibre-critical point.

Variable layouts (relied on by `crit`):

* small map / linear rotation:   w = base q in R^{2n}        (no fibre)
* K slots: w = [B_1 ... B_K | zeta_1 ... zeta_K], slot j reading z_j, z_{j+1}
  (cyclic, z_{K+1} = z_1) and zeta_j.  `_Layout` is its one owner: the
  indices, the twist sum_j 0.5 <z_j, J0 z_{j+1}>, the fibre quadratic form
  and the symmetry actions (cyclic, R and Z).
  - cyclic composition of K factors (K odd): B_j = z_j, base = z_1,
      F(w) = sum_j F_j((z_j + z_{j+1})/2, zeta_j) + twist;
  - contact sharp of a contact-base factor F(x, y, theta; zeta):
    B_j = (z_j, theta_j, r_j), base = (z_1, theta_1),
      F^#k(w) = sum_j [ e^{r_j} F(e^{-r_j/2}(z_j + z_{j+1})/2, theta_{j+1}, zeta_j)
                        + e^{r_{j-1}}(theta_j - theta_{j+1}) ] + twist,
    read as k groups of F's flat form at u_j = e^{-r_j/2}(z_j + z_{j+1})/2,
    then the chain rule through u_j and r_j, vectorised over the groups.

All derivatives are exact: the small-map jet is a closed form in the level
m of the inverted midpoint, and a cyclic composition is read through its flat
form sum_i f_i(A_i w) + 0.5 w^T T w over its leaves, nested compositions
inlined.  Finite differences are only used in the test suite to check them.
"""

import math

import numpy as np

from .errors import AngleOutOfRange, DomainError, EvenK, NotNormalized
from .sympl import ComposedMap, LinearRotation, RadialMap, j0_matrix


# ---------------------------------------------------------------------------
# GenFn container
# ---------------------------------------------------------------------------

class GenFn:
    """Generating function handle.

    `jet(w, order)` returns (value, grad, hess) at the full variable vector
    w = [base | fibre] (another shape, or an order outside 0, 1, 2, raises
    DomainError) from one evaluation; the entries above `order` are None.
    value/grad/hess read one entry of the jet of the matching order.
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
        w = np.asarray(w, dtype=float)
        if w.shape != (self.total_dim,) or order not in (0, 1, 2):
            raise DomainError("jet needs w of shape (%d,) and order 0-2, got "
                              "%s and %r" % (self.total_dim, w.shape, order))
        value, grad, hess = self._jet(w, order)
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
    if not mp.max_rotation() < math.pi:
        raise AngleOutOfRange("the map does not rotate by less than pi; its "
                              "midpoint map (id + phi)/2 is not invertible")
    n2, R2, t, rho = amb.dim, amb.R**2, mp.t, mp.rho

    def jet(q, order):
        m = amb.H(mp.midpoint_inverse(q))
        r, dr, d2r = rho.read(m, 0, 2)
        b = t * dr / R2
        s2b = math.sin(2.0 * b)
        value = t * (r - m * dr) + 0.5 * R2 * m * s2b
        g = H = None
        if order >= 1:
            tb = math.tan(b)
            g = 2.0 * tb * q
        if order >= 2:
            dbeta, cos2 = 2.0 * t * d2r / R2, math.cos(b) ** 2
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
# slot layout (shared by the cyclic compositions and the contact sharp)
# ---------------------------------------------------------------------------

def _midpoint_map(n2, d):
    """E: [z_j | z_{j+1} | rest] |-> [(z_j + z_{j+1})/2 | rest], d - n2 rest."""
    E = np.hstack([np.eye(d, n2), np.eye(d)])
    E[:n2] *= 0.5
    return E


class _Layout:
    """Slot indices of w = [B_1 .. B_K | zeta_1 .. zeta_K], B_j = z_j, or
    (z_j, theta_j, r_j) when `contact`; slot j reads the columns `cols[j]`
    = [z_j | z_{j+1} | theta_{j+1} | zeta_j | r_j] (cyclic).  `cyclic` is
    the Z_K symmetry only where every fibre has the first one's size."""

    def __init__(self, n2, fibre_dims, contact=False):
        self.n2 = n2
        self.K = K = len(fibre_dims)
        b = n2 + 2 if contact else n2                # entries of each B_j
        self.z = [slice(s, s + n2) for s in range(0, K * b, b)]
        self.th = np.arange(n2, K * b, b) if contact else np.zeros(0, int)
        self.r = self.th + 1
        ends = K * b + np.cumsum([0] + list(fibre_dims))
        self.f = [slice(a, e) for a, e in zip(ends[:-1], ends[1:])]
        self.total = int(ends[-1])
        idx = np.arange(self.total)
        self.zi = idx[:K * b].reshape(K, b)[:, :n2]  # (K, n2) z indices
        self.fi = idx[K * b:]                         # fibre indices
        th, r = self.th.reshape(K, -1), self.r.reshape(K, -1)
        self.cols = [np.concatenate([self.zi[j], self.zi[(j + 1) % K],
                                     th[(j + 1) % K], idx[fs], r[j]])
                     for j, fs in enumerate(self.f)]
        self._perm = np.concatenate([np.roll(idx[:K * b], -b),  # B_j <- B_j+1
                                     np.roll(self.fi, -fibre_dims[0])])

    def factor_args(self, w, j):
        mid = 0.5 * (w[self.z[j]] + w[self.z[(j + 1) % self.K]])
        return np.concatenate([mid, w[self.f[j]]])

    def twist(self):
        """T with 0.5 w^T T w = sum_j 0.5 <z_j, J0 z_{j+1}> (cyclic)."""
        J0, T = j0_matrix(self.n2), np.zeros((self.total, self.total))
        for zj, zn in zip(self.z, self.z[1:] + self.z[:1]):
            T[zj, zn] += 0.5 * J0
            T[zn, zj] += 0.5 * J0.T
        return T

    def fibre_form(self, quads):
        """Fibre quadratic part: zeta_j's own form quads[j] and the twist
        among z_2 .. z_K (z_1 is base; theta and r stay out)."""
        Q = 0.5 * self.twist()
        for fs, q in zip(self.f, quads):
            Q[fs, fs] = q
        keep = np.concatenate([self.zi.ravel()[self.n2:], self.fi])
        return Q[np.ix_(keep, keep)]

    def cyclic(self, w):
        return np.asarray(w, dtype=float)[self._perm]

    def r_action(self, w, a):
        """z |-> e^{a/2} z, r |-> r + a."""
        w = np.asarray(w, dtype=float).copy()
        w[self.zi.ravel()] *= math.exp(0.5 * a)
        w[self.r] += a
        return w

    def z_shift(self, w):
        """Every theta_j |-> theta_j + 1."""
        w = np.asarray(w, dtype=float).copy()
        w[self.th] += 1.0
        return w


# ---------------------------------------------------------------------------
# cyclic composition (shared by gf_compose_chain and sharp_k)
# ---------------------------------------------------------------------------

def _flat_form(factors, lay):
    """Leaves f_i, argument maps A_i and twist T of a cyclic composition,
    whose value is sum_i f_i(A_i w) + 0.5 w^T T w.  Each A_i is packed as its
    nonzero columns `cols[i]` and the block `A[i]` on them, both padded to a
    common size (with zeros in A).  A factor built by `_cyclic_compose` (its
    jet carries `flat`; a wrapper such as `reeb_shift` stays a leaf) is
    inlined through its argument map E_j: A_i <- A_i E_j, T += E_j^T T E_j."""
    leaves, maps, T = [], [], lay.twist()
    for at, f in zip(lay.cols, factors):
        E = _midpoint_map(lay.n2, f.total_dim)  # lay.factor_args on columns at
        sub = _flat_of(f)
        leaves += sub[0]
        for leaf, c, a in zip(*sub[:3]):
            m = a[:leaf.total_dim] @ E[c]
            keep = m.any(axis=0)
            maps.append((at[keep], m[:, keep]))
        T[np.ix_(at, at)] += E.T @ sub[3] @ E
    depth, width = np.max([m.shape for _, m in maps], axis=0)
    A = np.zeros((len(maps), depth, width))
    for Ai, (c, m) in zip(A, maps):
        Ai[:len(m), :len(c)] = m
    # pad with each leaf's own last column: the zero block adds nothing there
    cols = np.array([c[np.minimum(range(width), len(c) - 1)] for c, _ in maps])
    return leaves, cols, A, T


def _flat_of(f):
    """f's flat form if `_cyclic_compose` built it, else f as one leaf."""
    d = f.total_dim
    return getattr(f._jet, "flat", None) or (
        [f], np.arange(d)[None], np.eye(d)[None], np.zeros((d, d)))


def _flat_jet(flat, rows):
    """Per-row jets of a flat form sum_i f_i(A_i y) + 0.5 y^T T y at the rows
    y of a (rows, D) array: one gather, one `_jet` per leaf and row, the leaf
    values of a row summed by math.fsum, one scatter per order."""
    leaves, cols, A, T = flat
    L, depth, width = A.shape
    D = len(T)
    leaves, A = leaves * rows, np.tile(A, (rows, 1, 1))
    even = all(f.total_dim == depth for f in leaves)
    at = cols + D * np.arange(rows)[:, None, None]   # row r's columns in Y.flat
    pairs = (at[..., None] * D + cols[:, None, :]).ravel()
    at = at.reshape(-1, width)

    def stack(parts):               # leaf gradients or Hessians, zero-padded
        return np.array(parts if even else [
            np.pad(p, [(0, depth - s) for s in p.shape]) for p in parts])

    def jet(Y, order):
        X = A @ Y.ravel()[at][:, :, None]
        jets = [f._jet(x[:f.total_dim, 0], order) for f, x in zip(leaves, X)]
        TY = T @ Y[..., None]
        value = np.array([math.fsum([v for v, _, _ in jets[i:i + L]])
                          for i in range(0, len(jets), L)])
        value += 0.5 * (Y[:, None, :] @ TY)[:, 0, 0]
        g = H = None
        if order >= 1:
            G = stack([j[1] for j in jets])[:, None, :] @ A
            g = np.bincount(at.ravel(), G.ravel(), rows * D)
            g = g.reshape(rows, D) + TY[..., 0]
        if order >= 2:
            B = A.transpose(0, 2, 1) @ stack([j[2] for j in jets]) @ A
            H = np.bincount(pairs, B.ravel(), rows * T.size).reshape(rows, D, D) + T
        return value, g, H

    return jet


def _cyclic_compose(factors):
    """Cyclic composition over K factors (K odd), read through its flat form
    by `_flat_jet` at the one row w."""
    K = len(factors)
    n2 = factors[0].base_dim
    if any(f.base_dim != n2 for f in factors):
        raise DomainError("all factors must share the same base dimension")
    if any(f.contact for f in factors):
        raise DomainError("cyclic composition acts on symplectic-base factors")
    lay = _Layout(n2, [f.fibre_dim for f in factors])
    flat = _flat_form(factors, lay)
    one_row = _flat_jet(flat, 1)

    def jet(w, order):
        return [x if x is None else x[0] for x in one_row(w[None], order)]

    def domain_point(w):
        return factors[0].domain_point(lay.factor_args(w, 0))

    maps = [f.map_handle for f in factors]
    mp = ComposedMap(maps) if all(m is not None for m in maps) else None
    jet.flat = flat
    return GenFn(base_dim=n2, fibre_dim=lay.total - n2, jet=jet,
                 quad_part=lay.fibre_form([f.quad_part for f in factors]),
                 normalized=all(f.normalized for f in factors),
                 map_handle=mp, domain_point=domain_point,
                 meta={"kind": "cyclicComposition", "K": K, "layout": lay,
                       "factors": list(factors)})


def gf_compose_chain(factors):
    """Generating function of phi_K o ... o phi_1 from K fibreless (or fibred)
    factor generating functions, K odd:

        F(z_1; z_2..z_K, zetas) = sum_j F_j((z_j + z_{j+1})/2, zeta_j)
                                  + sum_j 0.5 <z_j, J0 z_{j+1}>   (cyclic),

    read through the flat form sum_i f_i(A_i w) + 0.5 w^T T w, a factor that
    is itself a composition inlined.  K = 1 returns the factor unchanged."""
    K = len(factors)
    if K % 2 == 0:
        raise EvenK("cyclic composition requires an odd factor count")
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
    gf.sym_ops = {"cyclic": gf.meta["layout"].cyclic}
    gf.meta.update(kind="sharp", factor=F, k=k)
    return gf


def gf_time_one(amb, rho):
    """Generating function of the time-1 truncated radial map, built from the
    smallest odd number K of equal time slices whose per-slice rotation stays
    below pi/2 (so each slice admits the fibreless midpoint form)."""
    max_angle = math.pi / 2
    peak = RadialMap(amb, rho, 1.0).max_rotation()
    if not math.isfinite(peak):
        raise AngleOutOfRange("the time-one map's peak rotation %r is not "
                              "finite" % (peak,))
    K = max(1, int(math.ceil(peak / max_angle)))
    if K % 2 == 0:
        K += 1
    while peak / K >= max_angle:
        K += 2
    slices = [gf_small_map(amb, RadialMap(amb, rho, 1.0 / K)) for _ in range(K)]
    return gf_compose_chain(slices)


def fibre_critical_config(F, zbar):
    """Fibre-critical configuration of F over the orbit of zbar:
    returns (base, zeta) with base = (zbar + phi(zbar))/2.

    For a cyclic composition the slice chain y_{s+1} = phi_s(y_s) places
    every slot at its own factor's configuration, each slice flowed once."""
    return _config(F, zbar)[:2]


def _config(F, zbar):
    """(base, zeta, phi(zbar)): `fibre_critical_config` and the image, so
    that a walk along an orbit flows each slice once."""
    zbar = np.asarray(zbar, dtype=float)
    kind = F.meta.get("kind")
    if kind == "reebShift":             # F - t: the critical points of F
        return _config(F.meta["factor"], zbar)
    if kind in ("cyclicComposition", "sharp"):
        zs, zetas, image = _orbit_config(F.meta["factors"], zbar)
        return zs[0], np.concatenate(zs[1:] + zetas), image
    image = F.map_handle(zbar)
    return 0.5 * (zbar + image), np.zeros(0), image


def _orbit_config(factors, zbar):
    """`chain_config` along the orbit of zbar, each slot's image passed on
    as the next point; also returns the last slot's image."""
    bases, zetas = [], []
    for f in factors:
        base, zeta, zbar = _config(f, zbar)
        bases.append(base)
        zetas.append(zeta)
    return alternating_resolve(bases), zetas, zbar


def chain_config(factors, points):
    """Critical configuration of the cyclic composition of `factors` along
    a chain: slot j sits at the fibre-critical configuration of factors[j]
    over points[j], and the z-blocks resolve the slot bases cyclically.
    Returns (z-blocks, zetas), one of each per slot."""
    bases, zetas, _ = zip(*map(_config, factors, points))
    return alternating_resolve(bases), list(zetas)


def alternating_resolve(mids):
    """Given K midpoints (K odd), return the unique w_1..w_K with
    (w_s + w_{s+1})/2 = mids_s cyclically: w_s = sum_l (-1)^l mids_{s+l},
    summed over l in order for all slots at once."""
    K = len(mids)
    if K % 2 == 0:
        raise EvenK("alternating resolution needs an odd count")
    M = np.asarray(mids, dtype=float)
    acc = np.zeros_like(M)
    for l in range(K):
        acc += ((-1) ** l) * np.roll(M, -l, axis=0)
    return list(acc)


# ---------------------------------------------------------------------------
# contact-side generating functions
# ---------------------------------------------------------------------------

def contact_lift_gf(f):
    """Lift a normalized symplectic-base generating function to contact base
    (x, y, theta): the value is theta-independent, hence 1-periodic."""
    if not f.normalized:
        raise NotNormalized("contact lifting requires a normalized function")
    th = f.base_dim       # index of theta in the contact layout [z, theta, zeta]

    def jet(w, order):
        value, g, H = f._jet(np.delete(w, th), order)
        if order >= 1:
            g = np.insert(g, th, 0.0)
        if order >= 2:
            H = np.insert(np.insert(H, th, 0.0, axis=0), th, 0.0, axis=1)
        return value, g, H

    def domain_point(w):
        return np.append(f.domain_point(np.delete(w, th)), w[th])

    return GenFn(base_dim=th + 1, fibre_dim=f.fibre_dim, jet=jet,
                 quad_part=f.quad_part, normalized=True,
                 map_handle=f.map_handle, domain_point=domain_point,
                 contact=True, meta={"kind": "contactLift", "factor": f})


def reeb_shift(F, t):
    """Generating function of Reeb_t composed with F's map: F - t."""

    def jet(w, order):
        value, g, H = F._jet(w, order)
        return value - t, g, H

    return GenFn(base_dim=F.base_dim, fibre_dim=F.fibre_dim, jet=jet,
                 quad_part=F.quad_part,
                 normalized=False if t != 0.0 else F.normalized,
                 map_handle=F.map_handle, domain_point=F._domain_point,
                 contact=F.contact,
                 meta=dict(F.meta, kind="reebShift", factor=F))


def contact_sharp(F, k):
    """Cyclic contact composition F^{#k} of a contact-base factor (k odd):

        sum_j [ e^{r_j} F(e^{-r_j/2}(z_j+z_{j+1})/2, theta_{j+1}, zeta_j)
                + 0.5 <z_j, J0 z_{j+1}> + e^{r_{j-1}}(theta_j - theta_{j+1}) ]

    (cyclic indices, r_0 = r_k): one gather of every slot, one `_jet` loop
    over the leaves of k groups of F's flat form at u_j = e^{-r_j/2} mid_j,
    the chain rule through u_j and r_j vectorised over the groups, one
    scatter per order, then the theta-differences.  Exactly homogeneous
    under the R-action (z |-> e^{a/2} z, r |-> r + a): the value scales by
    e^a."""
    if k % 2 == 0 or k < 1:
        raise EvenK("contact_sharp requires odd k >= 1")
    if not F.contact:
        raise DomainError("contact_sharp needs a contact-base factor")
    n2 = F.base_dim - 1
    lay = _Layout(n2, [F.fibre_dim] * k, contact=True)
    D, T, zi = lay.total, lay.twist(), lay.zi.ravel()
    # group j reads F at [u_j | theta_{j+1} | zeta_j], or a lift's factor
    # (a composition's leaves inlined) at [u_j | zeta_j]
    lift = F.meta.get("kind") == "contactLift"
    inner = F.meta["factor"] if lift else F
    t, d = int(not lift), inner.total_dim
    slots = _flat_jet(_flat_of(inner), k)
    # slot j's columns [z_j | z_{j+1} | theta_{j+1}, zeta_j | r_j] and E:
    # the midpoint of its z-blocks, the rest as it is
    cols = np.array(lay.cols)
    if lift:
        cols = np.delete(cols, 2 * n2, axis=1)
    E = _midpoint_map(n2, d + 1)
    pairs = (cols[:, :, None] * D + cols[:, None, :]).ravel()

    def jet(w, order):
        S = w[cols]
        e = np.array([math.exp(r) for r in S[:, -1]])
        h = np.array([math.exp(0.5 * r) for r in S[:, -1]])
        Y = S[:, n2:-1]
        Y[:, :n2] = 0.5 * (S[:, :n2] + Y[:, :n2]) / h[:, None]
        U, Uc = Y[:, :n2], Y[:, :n2, None]
        val, gY, HY = slots(Y, order)
        Tw = T @ w
        # 0.5 z^T T z as a dot over D entries [z_1 .. z_k | 0]: the rounding
        # that tests/test_jet.py pins
        zT = np.zeros((2, D))
        zT[:, :len(zi)] = w[zi], Tw[zi]
        value = math.fsum(e * val) + 0.5 * float(zT[0] @ zT[1])
        g = H = None
        # slot j is e^r F(u, ..): its jet in [mid_j | theta, zeta | r_j]
        if order >= 1:
            Fu = gY[:, :n2]
            uFu = (Fu[:, None, :] @ Uc)[:, 0, 0]
            gs = np.hstack([h[:, None] * Fu, e[:, None] * gY[:, n2:],
                            (e * (val - 0.5 * uFu))[:, None]])
            g = np.bincount(cols.ravel(), (gs[:, None, :] @ E).ravel(), D) + Tw
        if order >= 2:
            Huu = HY[:, :n2, :n2]
            Hs = np.empty((k, d + 1, d + 1))
            Hs[:, :n2, :n2] = Huu
            Hs[:, :n2, n2:-1] = h[:, None, None] * HY[:, :n2, n2:]
            Hs[:, n2:-1, n2:-1] = e[:, None, None] * HY[:, n2:, n2:]
            Hs[:, :n2, -1] = (0.5 * h)[:, None] * (Fu - (Huu @ Uc)[..., 0])
            if t:       # theta's row by its own dot, as the golden jets pin
                Hs[:, n2, -1] = e * (gY[:, n2] - 0.5 * (
                    HY[:, None, :n2, n2] @ Uc)[:, 0, 0])
            Hs[:, n2 + t:-1, -1] = e[:, None] * (gY[:, n2 + t:] - 0.5 * (
                HY[:, :n2, n2 + t:].transpose(0, 2, 1) @ Uc)[..., 0])
            uHu = (U[:, None, :] @ Huu @ Uc)[:, 0, 0]
            Hs[:, -1, -1] = e * (val - 0.75 * uFu + 0.25 * uHu)
            Hs[:, n2:-1, :n2] = Hs[:, :n2, n2:-1].transpose(0, 2, 1)
            Hs[:, -1, :-1] = Hs[:, :-1, -1]
            H = np.bincount(pairs, (E.T @ Hs @ E).ravel(), D * D).reshape(D, D) + T
        for j in range(k):
            jn, jp = (j + 1) % k, (j - 1) % k
            ep = e[jp]
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

    return GenFn(base_dim=n2 + 1, fibre_dim=D - (n2 + 1), jet=jet,
                 quad_part=lay.fibre_form([F.quad_part] * k),
                 normalized=F.normalized, map_handle=F.map_handle, contact=True,
                 sym_ops={"cyclic": lay.cyclic, "r_action": lay.r_action,
                          "z_shift": lay.z_shift},
                 meta={"kind": "contactSharp", "k": k, "layout": lay,
                       "factor": F})


def contact_p(F, k):
    """Conformally corrected cyclic composition

        P = (k / sum_j e^{r_j}) * F^{#k} = c V,   E = sum_j e_j, e_j = e^{r_j},

    whose Hessian is c H_V + dc g_V^T + g_V dc^T plus the rank-two
    V (2c e e^T / E^2 - diag(c e / E)) on the r block; it is
    invariant (exactly, up to round-off) under the cyclic Z_k block rotation,
    the R-action (z |-> e^{a/2} z, r |-> r + a), and the Z-action
    (all theta_j |-> theta_j + 1)."""
    sharp = contact_sharp(F, k)
    lay = sharp.meta["layout"]

    def jet(w, order):
        es = np.array([math.exp(w[r]) for r in lay.r])
        E = float(np.sum(es))
        c = k / E
        V, gV, HV = sharp._jet(w, order)
        g = H = None
        if order >= 1:
            gc = np.zeros(lay.total)
            gc[lay.r] = -c * es / E
            g = c * gV
            g[lay.r] += V * gc[lay.r]
        if order >= 2:
            H = c * HV + np.outer(gc, gV) + np.outer(gV, gc)
            H[np.ix_(lay.r, lay.r)] += V * (np.outer(2.0 * c * es, es) / E**2
                                            - np.diag(c * es / E))
        return c * V, g, H

    return GenFn(base_dim=sharp.base_dim, fibre_dim=sharp.fibre_dim,
                 jet=jet, quad_part=sharp.quad_part,
                 normalized=sharp.normalized, map_handle=sharp.map_handle,
                 contact=True, sym_ops=dict(sharp.sym_ops),
                 meta={"kind": "contactP", "k": k, "layout": lay,
                       "factor": F, "sharp": sharp})
