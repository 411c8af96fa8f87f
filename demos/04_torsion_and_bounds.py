"""Torsion certificates and the closed-form genus/systole bounds.

A congruence group with torsion would force its ideal to divide one of
finitely many obstruction ideals built from cosine traces of roots of
unity; checking those divisibilities exactly certifies torsion-freeness.
With torsion gone, the area relation turns the norm-one count into the
genus, and the trace floor turns into a systole floor.
"""

from quatsys import IdealHNF, candidate_orders, certify_torsion_free
from quatsys.bounds import (four_thirds_log_genus, fuchsian_sr_bound,
                            genus_from_index, hurwitz_43_check, hurwitz_43_threshold,
                            hurwitz_context, psl_index, sys_lower_bound_from_genus,
                            trace_bound_pair)
from quatsys.numfield import factor_rational_prime
from quatsys.quotient import FiniteQuotRing

ctx = hurwitz_context()
QH = ctx.order
K = QH.algebra.field
eta = K.gen()

print("torsion orders whose cosine trace lies in Q(eta):", candidate_orders(K))

p7 = IdealHNF.principal(K, K.from_rational(2) - eta)
cert = certify_torsion_free(QH, p7)
for line in cert.lines():
    print(" ", line)

print("\nideal      trace-floor  count  psl  genus  (4/3)log g")
for prime in [p7, IdealHNF.principal(K, K.from_rational(2)),
              factor_rational_prime(K, 13)[0][0]]:
    sharp, _co = trace_bound_pair(ctx, prime)
    count = FiniteQuotRing(QH, prime, 1).count_norm_one()
    pidx = psl_index(count, QH.minus_one_in_gamma(prime))
    genus = genus_from_index(ctx, pidx)
    print(f"norm {prime.norm:>2}    {float(sharp):>9.4f}  {count:>5}  {pidx:>4} "
          f" {genus:>4}   {float(four_thirds_log_genus(genus).mid):>8.3f}")

# the genus-chain systole floor overtakes (4/3) log g at one genus, and stays
# above it from there on, as the gap is increasing in g
threshold = hurwitz_43_threshold()
print(f"\nthe 4/3 bound holds from genus {threshold} on")
for g in (4, threshold - 1, threshold, 100, 10 ** 4):
    chain = sys_lower_bound_from_genus(ctx, g)
    ok = hurwitz_43_check(g)
    print(f"g={g:>6}: chain floor = "
          f"{float(chain.mid):.4f}" if chain else f"g={g:>6}: chain vacuous",
          f"  4/3-bound holds: {ok}")

sr = fuchsian_sr_bound(ctx, 14)
print(f"\nsystolic-ratio floor at genus 14: {float(sr.mid):.5f}")
