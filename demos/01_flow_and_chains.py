#!/usr/bin/env python3
"""
Truncated radial flows and their translated chains.

A radial profile rho(|z|^2/R^2) generates a flow that rotates each circle
|z| = const at angular speed 2 rho'(m)/R^2 and freezes outside the ball.
After time 1, points on the shell where rho'(m) = -(l/k) pi R^2 advance by
exactly l/k of a turn, so their k-fold iterates close up: these shells, plus
the origin, are the k-periodic components.  On the contact side (an extra
circle coordinate theta) each component lifts to a "translated chain": a
cyclic k-tuple of points that the lifted map advances along the Reeb
direction by a common time t, with action k*t.

This script builds the reference profile, checks the conservation law, lists
the shells for k = 3, and verifies every translated chain exactly.
"""
import math

import numpy as np

from gfs import (Ambient, ContactLift, RadialMap, flow, ref_profile, shells,
                 translated_chains, verify_chain)

amb = Ambient(n=1, R=1.0)
rho = ref_profile(c=-0.9 * math.pi, delta=0.1)

print("profile: rho'(0) = %.6f  (= -0.9 pi), rho(0) = %.6f" %
      (rho.drho(0.0), rho.rho(0.0)))

# -- the flow conserves |z|^2 and freezes outside the ball ------------------

rng = np.random.default_rng(0)
z = rng.normal(0.0, 0.5, 2)
z1 = flow(amb, rho, 1.0, z)
print("conservation: H(z) = %.12f  ->  H(flow_1 z) = %.12f" %
      (amb.H(z), amb.H(z1)))

z_out = np.array([1.2, 0.3])
print("outside the ball the flow is the identity: |flow_1 z - z| = %g" %
      np.max(np.abs(flow(amb, rho, 1.0, z_out) - z_out)))

# -- periodic shells for k = 3 ----------------------------------------------

k = 3
print("\nk =", k, "periodic components:")
for s in shells(amb, rho, k):
    tag = "shell l=%d at m=%.6f" % (s.l, s.m) if s.kind == "sphereShell" \
        else "origin           "
    print("  %s  value %.9f  degree %d  %s" %
          (tag, s.value, s.index, "free orbit" if s.free_orbit else "fixed"))

phi = RadialMap(amb, rho, 1.0)
s1 = shells(amb, rho, k)[0]
p = np.array([math.sqrt(s1.m), 0.0])
q = p.copy()
for _ in range(k):
    q = phi(q)
print("three iterations return the shell point: |phi^3 p - p| = %g" %
      np.max(np.abs(q - p)))

# -- translated chains on the contact lift ----------------------------------

lift = ContactLift(amb, rho)
print("\ntranslated chains (k = %d):" % k)
for ch in translated_chains(amb, rho, k):
    ok = verify_chain(lift, ch)
    print("  %-9s  t = %.9f  action = k t = %.9f  verified: %s" %
          (ch.orbit_id, ch.t, ch.action, ok))

print("\nthe l=1 chain action is the closed-form value 5 pi / 6 = %.9f"
      % (5 * math.pi / 6))
