#!/usr/bin/env python3
"""
Generating functions as finite-dimensional stand-ins for a map.

A map phi close enough to the identity is encoded by a single function of the
midpoint variable; a time-1 flow that rotates too far is chained from K odd
slices ("broken geodesics"), giving a function F(base, fibre) whose
fibre-critical points are exactly the graph points of the composition:

    grad_fibre F = 0   at   w  <=>  grad_base F = graph covector of phi.

Cyclic k-fold composition F^{#k} then has one critical orbit per k-periodic
component of phi, with critical value equal to the summed primitives along
the orbit.  On the contact side the conformally corrected composition P is
invariant under the cyclic rotation, a global scale action, and integer
shifts of theta -- the symmetries that later force Morse-Bott (rather than
Morse) critical sets.

This script checks all of that numerically at machine precision.
"""
import math

import numpy as np

from gfs import (Ambient, RadialMap, contact_lift_gf, contact_p,
                 fibre_critical_config, gf_time_one, graph_of, ref_profile,
                 sharp_k, sharp_critical_seed, shells)

amb = Ambient(n=1, R=1.0)
rho = ref_profile(c=-0.9 * math.pi, delta=0.1)

F = gf_time_one(amb, rho)
print("time-1 function: %d slices, base dim %d, fibre dim %d"
      % (F.meta["K"], F.base_dim, F.fibre_dim))

# -- generation identity ------------------------------------------------------

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    zbar = rng.normal(0.0, 0.55, 2)
    base, zeta = fibre_critical_config(F, zbar)
    w = np.concatenate([base, zeta])
    g = F.grad(w)
    gp = graph_of(F.map_handle, zbar)
    worst = max(worst, float(np.max(np.abs(g[2:]))),
                float(np.max(np.abs(g[:2] - gp.covector))))
print("generation identity over 200 samples: max residual %.3e" % worst)

# -- k-fold composition and its critical value --------------------------------

k = 3
Fk = sharp_k(F, k)
s1 = shells(amb, rho, k)[0]
z1 = np.array([math.sqrt(s1.m), 0.0])
w = sharp_critical_seed(F, k, z1)
v = Fk.value(w)

phi = RadialMap(amb, rho, 1.0)
ssum, z = 0.0, z1
for _ in range(k):
    ssum += phi.S(z)
    z = phi(z)

print("\nF^{#%d} at the l=1 shell orbit:" % k)
print("  critical value      %.12f" % v)
print("  sum of primitives   %.12f" % ssum)
print("  closed form 5pi/6   %.12f" % (5 * math.pi / 6))
print("  gradient norm at the seed: %.3e" % np.max(np.abs(Fk.grad(w))))

# -- symmetries of the contact composition ------------------------------------

P = contact_p(contact_lift_gf(F), k)
ops = P.sym_ops
worst = {"cyclic": 0.0, "scale": 0.0, "shift": 0.0}
for _ in range(200):
    w = rng.normal(0.0, 0.5, P.total_dim)
    v = P.value(w)
    worst["cyclic"] = max(worst["cyclic"], abs(P.value(ops["cyclic"](w)) - v))
    worst["scale"] = max(worst["scale"],
                         abs(P.value(ops["r_action"](w, 0.7)) - v))
    worst["shift"] = max(worst["shift"], abs(P.value(ops["z_shift"](w)) - v))
print("\ninvariances of P over 200 samples (should all be ~1e-15):")
for name, res in worst.items():
    print("  %-6s %.3e" % (name, res))
