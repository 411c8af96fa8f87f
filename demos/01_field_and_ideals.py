"""Exact arithmetic in Q(eta), eta = 2*cos(2*pi/7), and its ideals.

The field is totally real of degree 3 with Z[eta] a principal ideal
domain; every quantity below is computed exactly (Fractions and integer
lattices), with real embeddings carried as certified enclosures.
"""

from quatsys import IdealHNF, factor_rational_prime, hurwitz_field, primes_up_to_norm

K = hurwitz_field()
eta = K.gen()

print("minimal polynomial coefficients (high to low):", list(reversed(K.min_poly)))
print("discriminant:", K.disc)
for s in range(3):
    box = K.embedding_interval(s, bits=70)
    print(f"embedding {s}: eta -> {float(box.mid):+.12f}  (certified within 2^-70)")

# eta is a unit: eta (eta - 1)(eta + 2) = 1, exactly
print("\nunit identity eta(eta-1)(eta+2) == 1:", eta * (eta - 1) * (eta + 2) == K.one())

# 2 - eta generates the unique prime over 7; 7 is totally ramified
p7 = IdealHNF.principal(K, K.from_rational(2) - eta)
print("\nNorm(<2 - eta>) =", p7.norm)
print("<7> == <2 - eta>^3:", IdealHNF.principal(K, K.from_rational(7)) == p7 ** 3)

# 2 stays prime with residue field of 8 elements; 13 splits completely
print("factorization of 2: ", [(pr.norm, e, f) for pr, e, f in factor_rational_prime(K, 2)])
print("factorization of 13:", [(pr.norm, e, f) for pr, e, f in factor_rational_prime(K, 13)])

# valuations and the ideal lattice operations
seven = IdealHNF.principal(K, K.from_rational(7))
print("\nv_<2-eta>(<7>) =", seven.valuation(p7))
p2 = IdealHNF.principal(K, K.from_rational(2))
print("(I+J)(I con J) == IJ:", (p7 + p2) * p7.intersect(p2) == p7 * p2)

print("\nprime ideals of norm <= 50:", [p.norm for p in primes_up_to_norm(K, 50)])
