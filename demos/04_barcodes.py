#!/usr/bin/env python3
"""
From critical data to barcodes.

The critical manifolds of the k-fold composition assemble into a filtered
chain complex over the group ring Z_k[T]/(T^k - 1) = F_k[x]/(x^k), x = T - 1:
one lens block of 2n generators per shell, a lone generator for the origin,
with differentials T - 1 = x (inside blocks) and the norm
N = 1 + T + ... + T^{k-1} = x^{k-1} (between blocks).  Each entry is stored
as its exponent, and d o d = 0 is the check that the exponents along every
path of two entries add up to at least k.

Reading the complex two ways gives two barcodes, each in closed form:
  * plain      -- every generator is k copies, and x^v pairs k - v of them;
                  over F_2 with k = 1 this is the classical picture, where
                  the degree-2nl group lives on [(l-1) pi R^2, l pi R^2);
  * equivariant - collapse each entry through the augmentation (x^v -> 0
                  for v > 0); every shell block contributes rank 1 on
                  (0, c_l), which is what the non-squeezing argument
                  consumes.

As the profile steepens the endpoints c_l climb to the areas l pi R^2 of the
ideal ball, which the limit barcodes encode exactly.
"""
import math

from gfs import (Ambient, ball_complex, barcode, limit_barcode, ref_profile)

amb = Ambient(n=1, R=1.0)
k = 3


def show(bc, title):
    print(title)
    for b in bc.bars:
        death = "inf" if math.isinf(b.death) else "%.6f" % b.death
        print("  degree %d: [%8.6f, %s)  rank %d" %
              (b.degree, b.birth, death, b.rank))


rho = ref_profile(c=-0.9 * math.pi, delta=0.1)
cx = ball_complex(amb, rho, k)
print("ball complex: generators in degrees %s, window (%.3f, %.3f)"
      % (sorted(g.degree for g in cx.generators), *cx.meta["window"]))
print("d^2 = 0 violations:", cx.check_d2())

show(barcode(cx, "equivariant"), "\nequivariant barcode (F_%d):" % k)
show(barcode(cx, "plain"), "\nplain barcode:")

# -- endpoints climb toward l pi R^2 as the profile steepens -----------------

print("\nsteepening the profile pushes the degree-2 endpoint toward pi:")
for c_mult in (2, 5, 10, 20, 60):
    rho_j = ref_profile(c=-c_mult * math.pi, delta=0.1)
    bc = barcode(ball_complex(amb, rho_j, k), "equivariant")
    death = max(bc.endpoints(2))
    print("  c = -%3d pi: endpoint %.6f  (pi = %.6f)"
          % (c_mult, death, math.pi))

show(limit_barcode(amb, 5, "equivariant"),
     "\nidealized limit barcode, k = 5 (the ball of area pi):")
show(limit_barcode(amb, 1, "plain"),
     "\nidealized plain limit barcode (k = 1, F_2):")
