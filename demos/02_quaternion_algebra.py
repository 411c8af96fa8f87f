"""The algebra (eta, eta) over Q(eta) and its ramification.

Cocompactness of the norm-one group needs the algebra split at exactly one
real place and a division algebra at the others; certified sign tests
decide that.  At a finite prime p the algebra ramifies exactly when the
Hilbert symbol (eta, eta)_p is -1.  eta is a unit, so the tame symbol is 1
and every odd prime splits.  2 is inert, so there is one dyadic prime, and
Hilbert reciprocity (the ramified places are even in number) splits it too,
because the two ramified real places already pair up.
"""

from quatsys import QuaternionAlgebra, rationals
from quatsys.numfield import factor_rational_prime, primes_up_to_norm
from quatsys.orders import hurwitz_algebra, hurwitz_j_prime

D = hurwitz_algebra()
K = D.field
eta = K.gen()

print("real places:", [D.real_place_status(s) for s in range(3)])
print("cocompact presentation:", D.is_cocompact_presentation())

# the half-integral generator of the maximal order
jp = hurwitz_j_prime(D)
print("\nj' =", jp)
print("reduced trace:", jp.reduced_trace())
print("reduced norm: ", jp.reduced_norm(), "(= -1 - 3 eta)")
print("j'^2 == j' + (1 + 3 eta):", jp * jp == jp + (K.one() + eta * 3))

# finite ramification is empty, each status by a theorem
print("\nNorm(eta) =", eta.norm(), "so eta is a unit")
print("primes above 2 (norm, e, f):",
      [(p.norm, e, f) for p, e, f in factor_rational_prime(K, 2)])
for prime in primes_up_to_norm(K, 50):
    if prime.norm % 2:
        reason = "odd prime, eta a unit: the tame symbol is 1"
    else:
        reason = "the one dyadic prime: two real places ramify, reciprocity splits it"
    print(f"  norm {prime.norm:>2}: {D.finite_prime_status(prime):<8} ({reason})")

report = D.ramification_report(norm_bound=50)
for line in report.records():
    print(" ", line)

# a rational comparison point: (2,3) over Q ramifies exactly at 2 and 3
Dq = QuaternionAlgebra(rationals(), rationals().from_rational(2),
                       rationals().from_rational(3))
print("\n(2,3) over Q, finite ramification <= 13:",
      [p.norm for p in Dq.ramification_report(13).finite_ramified])
