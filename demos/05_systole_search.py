"""Exact enumeration of the shortest congruence geodesics.

Walks the coset 1 + I*Q inside certified coefficient boxes, solves the
norm-one equation for the last coefficient, and reports the minimum
translation length, certified by the trace coset 2 + I^2.  The five short
principal congruence covers reproduce the published systole values.
"""

import time

from quatsys import IdealHNF
from quatsys.geodesics import RadiusSchedule, enumerate_gamma, systole_search
from quatsys.numfield import factor_rational_prime
from quatsys.orders import hurwitz_algebra, hurwitz_order

D = hurwitz_algebra()
K = D.field
eta = K.gen()
QH = hurwitz_order(D)

p7 = IdealHNF.principal(K, K.from_rational(2) - eta)

print("short elements of the level-(2-eta) group within displacement 5.5:")
cands, visited = enumerate_gamma(QH, p7, 5.5)
for c in cands:
    print("  ", c.record())
print(f"({visited} lattice nodes visited)\n")

ideals = [("<2-eta>", p7, 3.936),
          ("<2>", IdealHNF.principal(K, K.from_rational(2)), 5.796)]
ideals += [(f"p13#{k}", pr, None) for k, (pr, _e, _f)
           in enumerate(factor_rational_prime(K, 13))]

print("ideal     systole    reference  mode        seconds")
for name, ideal, ref in ideals:
    t0 = time.time()
    result = systole_search(QH, ideal, RadiusSchedule(4.5, 1.0, 14.0))
    val = float(result.min_length.mid)
    print(f"{name:<9} {val:<10.4f} {ref if ref else '(table)':<10} "
          f"{result.mode:<11} {time.time() - t0:.1f}")

# at the improper ideal the search sees the whole norm-one group: torsion
# classes show up as elliptic alarms instead of geodesics
whole = K.whole_ring()
cands, _ = enumerate_gamma(QH, whole, 2.0)
print("\nfull group, radius 2: elliptic trace magnitudes:",
      sorted(round(c.abs_trace, 5) for c in cands if c.is_elliptic))
hyp = [c for c in cands if not c.is_elliptic]
if hyp:
    print("shortest orbifold geodesic:", round(float(hyp[0].length.mid), 5))
