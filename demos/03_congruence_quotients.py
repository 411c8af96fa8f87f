"""Finite quotients of the maximal order and the counting identities.

For a prime power p^t the quotient ring has Norm(p^t)^4 residues; its
norm-one count is compared against the closed form q^{3t}(1 - q^{-2})
for maximal orders at split primes, and the index bound lambda * Norm^3.
The semisimple type of the t=1 quotient and the size of its radical are
read off its unit count.
"""

from quatsys import FiniteQuotRing, IdealHNF, index_bound, lambda_factor, maxim_formula
from quatsys.numfield import factor_rational_prime
from quatsys.orders import hurwitz_algebra, hurwitz_order, standard_order

D = hurwitz_algebra()
K = D.field
eta = K.gen()
QH = hurwitz_order(D)

ideals = [("<2-eta>", IdealHNF.principal(K, K.from_rational(2) - eta)),
          ("<2>    ", IdealHNF.principal(K, K.from_rational(2))),
          ("p13    ", factor_rational_prime(K, 13)[0][0])]

for name, prime in ideals:
    ring = FiniteQuotRing(QH, prime, 1)
    units, norm_one = ring.count_units_and_norm_one()
    radical, tag = ring.radical_and_type()
    lam = lambda_factor(D, QH, prime)
    print(f"{name} q={ring.q:>2}  residues={ring.cardinality:>6}  units={units:>6}  "
          f"norm_one={norm_one:>5}  formula={maxim_formula(ring.q, 1, False):>5}  "
          f"type={tag}  lambda={lam.value}  bound={index_bound(D, QH, prime)}")

# the quotient by a prime square, still under the default residue cap
p7 = ideals[0][1]
ring2 = FiniteQuotRing(QH, p7, 2)
print(f"\n<2-eta>^2: residues={ring2.cardinality}, norm_one={ring2.count_norm_one()}"
      f" == formula {maxim_formula(7, 2, False)}")

# a non-maximal order for contrast: at the even prime the quotient becomes
# a commutative local ring with a large radical
O = standard_order(D)
p2 = ideals[1][1]
ringO = FiniteQuotRing(O, p2, 1)
radical, tag = ringO.radical_and_type()
print(f"\nstandard order at <2>: radical size {radical}, semisimple type {tag}")
print("norm-one count:", ringO.count_norm_one())
