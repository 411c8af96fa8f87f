import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsys import lattice
from quatsys.errors import CapExceeded, InputError, InvariantViolation
from quatsys.numfield import IdealHNF, NumberField, factor_rational_prime, primes_up_to_norm
from quatsys.orders import (CongruenceIdealLattice, OrderLattice, hurwitz_order, scaled_row,
                            standard_order)
from quatsys.polys import factorint
from quatsys.quatalg import QuaternionAlgebra
from quatsys.quotient import (FiniteQuotRing, _block_ideals, _piece_forms, _residue_basis,
                              count_norm_one_ideal, index_bound, lambda_factor, lemma44_check,
                              maxim_formula, norm_one_envelope, squares_count)

from conftest import congruence_coord_hnf, lattice_index, left_matrix

_CHUNK = 1 << 15


# -- numpy helpers of the oracles ---------------------------------------------------

def _digits(start: int, stop: int, radices) -> np.ndarray:
    """Mixed-radix digits of start .. stop-1, last digit fastest."""
    rest = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, len(radices)), dtype=np.int64)
    for j in range(len(radices) - 1, -1, -1):
        out[:, j] = rest % radices[j]
        rest = rest // radices[j]
    return out


def float_exact(tensor: np.ndarray, max_coord: int) -> bool:
    """Whether float64 is exact for sum x_i y_j tensor[i, j] over |x|, |y| <= max_coord."""
    worst = int(np.abs(np.array(tensor, dtype=object)).sum(axis=(0, 1)).max())
    return worst * max_coord * max_coord < 2 ** 53


def _quad(x: np.ndarray, y: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """einsum('ni,nj,ijk->nk') exactly; float64/BLAS when provably lossless."""
    max_coord = int(max(np.abs(x).max(initial=0), np.abs(y).max(initial=0)))
    if float_exact(tensor, max_coord):
        tf = tensor.astype(np.float64)
        dim, k = tensor.shape[0], tensor.shape[2]
        tmp = (x.astype(np.float64) @ tf.reshape(dim, dim * k)).reshape(-1, dim, k)
        return np.rint(np.einsum("nj,njk->nk", y.astype(np.float64), tmp,
                                 optimize=True)).astype(np.int64)
    return np.einsum("ni,nj,ijk->nk", x, y, tensor, optimize=True)


# -- ring operations that only the tests use ------------------------------------

def mod_mat(ring) -> np.ndarray:
    """The congruence lattice's row HNF over the order basis."""
    return np.array(congruence_coord_hnf(ring.order, ring.ideal), dtype=np.int64)


def diag(ring) -> np.ndarray:
    """The radices of the reduced residues, the congruence lattice's diagonal."""
    return np.diag(mod_mat(ring))


def residue_blocks(ring, chunk: int = _CHUNK):
    """Deterministic mixed-radix enumeration of all residues, in blocks."""
    total = int(ring.cardinality)
    radices = diag(ring)
    for start in range(0, total, chunk):
        yield _digits(start, min(start + chunk, total), radices)


def all_residues(ring) -> np.ndarray:
    return np.concatenate(list(residue_blocks(ring)))


def reduce_rows(rows: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Canonical representatives modulo the row HNF `rows` (vectorized)."""
    out = arr.copy()
    for j, row in enumerate(rows):
        out -= (out[:, j] // row[j])[:, None] * row[None, :]
    return out


def reduce(ring, arr: np.ndarray) -> np.ndarray:
    """Canonical representatives modulo the congruence lattice (vectorized)."""
    return reduce_rows(mod_mat(ring), arr)


def struct(ring) -> np.ndarray:
    """The order's structure constants as an int64 array."""
    return np.array(ring.tables.struct, dtype=np.int64)


def exact_mat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b exactly; float64/BLAS when provably lossless."""
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).sum(axis=0).max(initial=0))
    if bound >= 2 ** 53:
        return a @ b
    return np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def mul(ring, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Componentwise ring product of two residue arrays."""
    return reduce(ring, _quad(x, y, struct(ring)))


def involution(ring, x: np.ndarray) -> np.ndarray:
    return reduce(ring, x @ np.array(ring.tables.invol, dtype=np.int64))


def norm_map(ring, x: np.ndarray) -> np.ndarray:
    """Central coordinates of nu(x) = x * x^*, reduced modulo the ideal."""
    scaled = _quad(x, x, np.array(ring.norm_tensor, dtype=np.int64))
    if (scaled % ring.kappa).any():
        raise InvariantViolation("norm values are not integral")
    return reduce_rows(np.array(ring.ideal.mat, dtype=np.int64), scaled // ring.kappa)


def is_unit(ring, coords) -> bool:
    """Whether a central residue lies outside the prime, by exact field arithmetic."""
    field = ring.order.algebra.field
    return not ring.prime.contains(field.element([int(c) for c in coords]))


# -- oracles: slow definitions that the library's paths are checked against -----

def norm_image_size(ring) -> int:
    """Number of central unit classes that are norms of residues."""
    return sum(1 for r in ring._norm_histogram() if r in ring.residues.units)


def involution_well_defined_sample(ring, rng, samples: int = 64) -> bool:
    """The involution of a residue must not depend on the lift."""
    for _ in range(samples):
        x = np.array([[rng.randrange(0, int(d)) for d in diag(ring)]], dtype=np.int64)
        shift = np.zeros((1, ring.dim), dtype=np.int64)
        for row in mod_mat(ring):
            shift += rng.randrange(-2, 3) * row[None, :]
        if not np.array_equal(involution(ring, x), involution(ring, x + shift)):
            return False
    return True


def radical_unit_definition(ring) -> set:
    """x such that 1 - r*x is a unit for every r (finite-ring radical).

    The products r*x come from `ring.tables.struct`, batched over x and over r.
    Q/pQ is a vector space over F_l, l the rational prime under p (l*Q
    lies in p*Q), so reduction is additive modulo l: the canonical residue
    of y is (y @ C) mod l, with C the canonical residues of the basis
    vectors.  Its mixed-radix code indexes a table of whether 1 - y is a
    unit.
    """
    assert ring.cardinality < 10 ** 4, "unit-perturbation radical limited to rings below 10^4"
    ell = min(f for f in range(2, ring.q + 1) if ring.q % f == 0)
    res = all_residues(ring)
    radices = diag(ring)
    strides = np.array([int(np.prod(radices[j + 1:])) for j in range(ring.dim)])
    # struct_c[a, b] = (w_a * w_b) @ C
    struct_c = struct(ring) @ reduce(ring, np.eye(ring.dim, dtype=np.int64))
    # res[k] is the residue of code k
    one_minus_is_unit = np.array([is_unit(ring, nu) for nu in
                                  norm_map(ring, np.array([ring.tables.one]) - res)])
    out = set()
    batch = max(1, _CHUNK // len(res))
    for start in range(0, len(res), batch):
        xs = res[start:start + batch]
        # column block c of `left` maps r to (r * xs[c]) @ C
        left = np.einsum("cj,ijl->icl", xs, struct_c).reshape(ring.dim, -1)
        codes = (exact_mat(res, left) % ell).reshape(-1, ring.dim) @ strides
        units = one_minus_is_unit[codes].reshape(len(res), len(xs))
        out.update(tuple(int(v) for v in x) for x in xs[units.all(axis=0)])
    return out


@pytest.fixture(scope="module")
def rational_rings(QQ):
    """The two types no Hurwitz-field ring reaches, over Q.

    Z<i, 3j> in (1, 1) at 3 and the Hurwitz quaternions
    Z<i, j, (1+i+j+ij)/2> in (-1, -1) at 2.
    """
    split = QuaternionAlgebra(QQ, QQ.from_rational(1), QQ.from_rational(1))
    lattice_3j = OrderLattice(split, [split.one(), split.gen_i(), split.gen_j() * 3])
    definite = QuaternionAlgebra(QQ, QQ.from_rational(-1), QQ.from_rational(-1))
    half = QQ.from_rational(Fraction(1, 2))
    hurwitz = OrderLattice(definite, [
        definite.one(), definite.gen_i(), definite.gen_j(),
        (definite.one() + definite.gen_i() + definite.gen_j() + definite.gen_ij()) * half])
    return {"Z<i,3j>/3": FiniteQuotRing(lattice_3j, factor_rational_prime(QQ, 3)[0][0], 1),
            "Hurwitz/2": FiniteQuotRing(hurwitz, factor_rational_prime(QQ, 2)[0][0], 1)}


def test_cardinalities(QH, P7, P2):
    assert FiniteQuotRing(QH, P7, 1).cardinality == 7 ** 4
    assert FiniteQuotRing(QH, P2, 1).cardinality == 8 ** 4
    assert FiniteQuotRing(QH, P7, 2).cardinality == 49 ** 4


def test_cap_policy(QH, P7, P2):
    with pytest.raises(CapExceeded):
        FiniteQuotRing(QH, P7, 2, cap=10 ** 6)
    # the default cap of 1e7 admits the 49^4 ring and rejects the 64^4 one
    with pytest.raises(CapExceeded):
        FiniteQuotRing(QH, P2, 2)


@pytest.mark.parametrize("check", [squares_count, lemma44_check])
def test_square_count_cap_is_checked_before_the_power(P7, check):
    # 7^10000 has 8,451 digits: the cap is decided from q and t alone
    started = time.monotonic()
    with pytest.raises(CapExceeded, match=r"q\^t = 7\^10000 residues"):
        check(P7, 10_000)
    assert time.monotonic() - started < 1.0


def test_maxim_formula_values():
    assert maxim_formula(7, 1, False) == 336
    assert maxim_formula(8, 1, False) == 504
    assert maxim_formula(13, 1, False) == 2184
    assert maxim_formula(3, 1, True) == 36
    assert maxim_formula(2, 2, False) == 48
    assert maxim_formula(7, 2, False) == 115248


def test_headline_counts_match_formula(QH, K, P7, P2, P13s):
    # with the inert prime 3 (q = 27, a residue field of degree 3) and a
    # prime above 43, the largest q the benchmark's survey counts
    P27, P43 = (factor_rational_prime(K, p)[0][0] for p in (3, 43))
    for prime, expected in [(P7, 336), (P2, 504), (P13s[0], 2184),
                            (P13s[1], 2184), (P13s[2], 2184), (P27, 19656), (P43, 79464)]:
        ring = FiniteQuotRing(QH, prime, 1)
        units, norm_one = ring.count_units_and_norm_one()
        assert norm_one == expected
        assert norm_one == maxim_formula(ring.q, 1, False)
        q = ring.q
        assert units == (q ** 2 - 1) * (q ** 2 - q)  # GL_2 of the residue field


def test_prime_square_count(QH, P7):
    ring = FiniteQuotRing(QH, P7, 2)
    assert ring.count_norm_one() == maxim_formula(7, 2, False)


def test_crt_product(QH, P7, P2):
    assert count_norm_one_ideal(QH, P7 * P2) == 336 * 504


def test_norm_map_properties(QH, P7):
    ring = FiniteQuotRing(QH, P7, 1)
    rng = random.Random(2)
    assert involution_well_defined_sample(ring, rng)
    # surjectivity onto the central units in the maximal split case
    assert norm_image_size(ring) == 6


def test_ring_axioms_on_sampled_triples(QH, P7):
    ring = FiniteQuotRing(QH, P7, 1)
    rng = random.Random(8)
    all_res = all_residues(ring)
    idx = [rng.randrange(len(all_res)) for _ in range(3 * 40)]
    x, y, z = (all_res[idx[k::3]] for k in range(3))
    assert np.array_equal(mul(ring, mul(ring, x, y), z), mul(ring, x, mul(ring, y, z)))
    assert np.array_equal(mul(ring, x, reduce(ring, y + z)),
                          reduce(ring, mul(ring, x, y) + mul(ring, x, z)))
    one = np.repeat(np.array([ring.tables.one]), len(x), axis=0)
    assert np.array_equal(mul(ring, x, one), reduce(ring, x))
    # involution is an anti-automorphism on the quotient
    assert np.array_equal(involution(ring, mul(ring, x, y)),
                          mul(ring, involution(ring, y), involution(ring, x)))


def test_norm_map_multiplicative_exact(QH, P7):
    ring = FiniteQuotRing(QH, P7, 1)
    K = QH.algebra.field
    rng = random.Random(12)
    all_res = all_residues(ring)
    sel = rng.sample(range(len(all_res)), 40)
    x = all_res[sel]
    y = all_res[sel[::-1]]
    nx = norm_map(ring, x)
    ny = norm_map(ring, y)
    nxy = norm_map(ring, mul(ring, x, y))
    for a, b, c in zip(nx, ny, nxy):
        ea = K.element([int(v) for v in a])
        eb = K.element([int(v) for v in b])
        ec = K.element([int(v) for v in c])
        assert ring.ideal.reduce([int(t) for t in (ea * eb).coords]) == \
            [int(t) for t in ec.coords]


def test_radical_types(QH, O_std, P7, P2, rational_rings):
    assert FiniteQuotRing(QH, P7, 1).radical_and_type() == (1, "M2(F_q)")
    assert FiniteQuotRing(QH, P2, 1).radical_and_type() == (1, "M2(F_q)")
    assert FiniteQuotRing(O_std, P7, 1).radical_and_type() == (1, "M2(F_q)")
    # the standard order is not maximal at 2: big radical, field residue
    size, tag = FiniteQuotRing(O_std, P2, 1).radical_and_type()
    assert size == 8 ** 3 and tag == "F_q"
    assert rational_rings["Z<i,3j>/3"].radical_and_type() == (9, "F_q x F_q")
    assert rational_rings["Hurwitz/2"].radical_and_type() == (4, "F_q2")


def test_radical_agreement_below_1e4(QH, O_std, P7, P2, rational_rings):
    for ring in (FiniteQuotRing(QH, P7, 1), FiniteQuotRing(O_std, P2, 1),
                 *rational_rings.values()):
        assert len(radical_unit_definition(ring)) == ring.radical_and_type()[0]


def test_unit_count_outside_every_type_is_refused(QH, P7, monkeypatch):
    ring = FiniteQuotRing(QH, P7, 1)
    monkeypatch.setattr(ring, "count_units_and_norm_one", lambda: (2015, 336))
    with pytest.raises(InvariantViolation, match="admissible"):
        ring.radical_and_type()
    with pytest.raises(InputError):
        FiniteQuotRing(QH, P7, 2).radical_and_type()


def test_envelopes_hold(QH, O_std, P7, P2, P13s, D):
    from quatsys.quotient import unit_envelope

    cases = [(QH, P7, False, 0), (QH, P2, False, 1), (QH, P13s[0], False, 0),
             (O_std, P7, False, 0), (O_std, P2, False, 1)]
    for order, prime, division, e in cases:
        ring = FiniteQuotRing(order, prime, 1)
        units, norm_one = ring.count_units_and_norm_one()
        q = ring.q
        envelope = norm_one_envelope(q, 1, division, e if e else 0)
        assert Fraction(norm_one, q ** 3) <= envelope
        # unit envelope from the type classification; |GL_2(F_7)| = 2016
        # already exceeds the naive split value q^2 (q-1)^2 = 1764, while the
        # true supremum q^2 (q^2 - 1) covers every constructed ring
        assert units <= unit_envelope(q)


def test_norm_one_below_image_quotient(QH, P7, P2):
    for prime in (P7, P2):
        ring = FiniteQuotRing(QH, prime, 1)
        units, norm_one = ring.count_units_and_norm_one()
        assert norm_one <= units // norm_image_size(ring)


def test_squares_counts(QQ, K, P7):
    for p in (3, 5, 7):
        prime = factor_rational_prime(QQ, p)[0][0]
        for t in (1, 2, 3):
            rep = lemma44_check(prime, t)
            assert rep.matches and not rep.discrepancy
            assert rep.count == (p - 1) // 2 * p ** (t - 1)
    rep7 = lemma44_check(P7, 1)
    assert rep7.count == 3 and rep7.matches


def test_diadic_discrepancy_detected(QQ):
    two = factor_rational_prime(QQ, 2)[0][0]
    rep = lemma44_check(two, 3)
    assert rep.count == 1
    assert rep.formula_value == 2
    assert rep.equality_claimed and not rep.matches
    assert rep.discrepancy
    # below the equality threshold nothing is flagged
    rep2 = lemma44_check(two, 2)
    assert not rep2.discrepancy


def test_lambda_and_index_bound(D, QH, O_std, P7, P2, P13s):
    for ideal, cube in [(P7, 343), (P2, 512), (P13s[0], 2197)]:
        lam = lambda_factor(D, QH, ideal)
        assert lam.value == 1
        assert index_bound(D, QH, ideal) == cube
    # strict inequality of the counts against the cube
    assert 336 < 343 and 504 < 512 and 2184 < 2197
    # the standard order is non-maximal exactly at 2
    lam_o = lambda_factor(D, O_std, P2)
    assert lam_o.value == 2 * 8  # factor 2 and the diadic 8^e with e=1
    assert lambda_factor(D, O_std, P7).value == 1


def locally_equal(order, reference, prime) -> bool:
    """Oracle: whether order and reference agree at prime, by the local index.

    [reference : order + prime^m * reference] for m = 1, 2, ... until it
    repeats; the two agree locally exactly when it settles at 1.
    """
    scale = lcm(order.kappa, reference.kappa)
    mine = [[x * (scale // order.kappa) for x in row] for row in order.mat]
    theirs = lattice.hnf([[x * (scale // reference.kappa) for x in row]
                          for row in reference.mat], order.dim)
    prev = None
    for m in range(1, 13):
        rows = list(mine)
        for alpha in (prime ** m).basis_elements():
            for w in reference.basis_elements():
                rows.append(scaled_row(alpha * w, scale))
        idx = lattice_index(theirs, lattice.hnf(rows, order.dim))
        if idx == prev:
            return idx == 1
        prev = idx
    raise AssertionError("local index comparison did not stabilize")


def test_nonmaximal_primes_agree_with_the_local_index_oracle(QH, O_std, P2, P7, P13s):
    assert not locally_equal(O_std, QH, P2)
    for prime in [P2, P7, *P13s]:
        (p,) = factorint(prime.norm)
        assert locally_equal(O_std, QH, prime) == (p not in O_std.nonmaximal_primes)


def test_quotient_rejects_bad_t(QH, P7):
    with pytest.raises(InputError):
        FiniteQuotRing(QH, P7, 0)


# -- the split count against the per-residue loop -------------------------------

def residue_loop_counts(ring):
    """Oracle: (units, norm-one) from the norm of every residue, block by block.

    The per-residue count the split count replaced: exact norm values of all
    q^(4t) residues, the kappa check, reduction by the ideal's HNF, and
    classification of the classes met by exact field arithmetic.
    """
    tensor = np.array(ring.norm_tensor, dtype=np.int64)
    hnf = np.array(ring.ideal.mat, dtype=np.int64)
    radices = np.diag(hnf)
    strides = np.array([int(np.prod(radices[j + 1:])) for j in range(len(radices))])
    tally = np.zeros(int(np.prod(radices)), dtype=np.int64)
    for block in residue_blocks(ring):
        scaled = _quad(block, block, tensor)
        if (scaled % ring.kappa).any():
            raise InvariantViolation("norm values are not integral")
        tally += np.bincount(reduce_rows(hnf, scaled // ring.kappa) @ strides,
                             minlength=len(tally))
    classes = _digits(0, len(tally), radices)
    one = ring.ideal.reduce([1] + [0] * (ring.prime.field.degree - 1))
    units = sum(int(n) for c, n in zip(classes, tally) if n and is_unit(ring, c))
    return units, int(tally[int(np.dot(one, strides))])


def sqrt3_ring():
    """The standard order of (-1, -1) over Q(sqrt 3) at P2^3, P2 = (1 + sqrt 3).

    Its central HNF [[2, 2], [0, 4]] is not diagonal, so reducing a sum of
    residues subtracts a whole row, not only a residue mod the pivot.
    """
    field = NumberField([1, 0, -3])
    algebra = QuaternionAlgebra(field, field.from_rational(-1), field.from_rational(-1))
    return FiniteQuotRing(standard_order(algebra), factor_rational_prime(field, 2)[0][0], 3)


@pytest.fixture(scope="module")
def small_rings(QH, O_std, P7, P2, P13s, B6, Q2max, Q10max):
    """One ring per case of the split: diagonal pivots at odd primes, binary
    blocks at dyadic ones, a degenerate Gram matrix mod p (B6 at its
    ramified primes), a ramified dyadic prime (Q2max), a non-maximal order
    (O_std at 2), prime powers, a non-diagonal central HNF, and an order
    that is not free over O_K at non-principal primes (Q10max)."""
    rings = {name: FiniteQuotRing(order, prime, t) for name, order, prime, t in [
        ("QH/P7", QH, P7, 1), ("QH/P2", QH, P2, 1), ("QH/P13", QH, P13s[0], 1),
        ("QH/P7^2", QH, P7, 2), ("O_std/P7", O_std, P7, 1), ("O_std/P2", O_std, P2, 1)]}
    for name, order, p in [("B6/2", B6, 2), ("B6/3", B6, 3), ("Q2max/P2", Q2max, 2)]:
        prime = factor_rational_prime(order.algebra.field, p)[0][0]
        for t in (1, 2, 3):
            rings[f"{name}^{t}"] = FiniteQuotRing(order, prime, t)
    rings["Q(sqrt3)/P2^3"] = sqrt3_ring()
    q10 = Q10max.algebra.field
    for name, p, exponents in [("Q10max/P2", 2, (1, 2, 3)), ("Q10max/P3", 3, (1, 2))]:
        prime = factor_rational_prime(q10, p)[0][0]
        for t in exponents:
            rings[f"{name}^{t}"] = FiniteQuotRing(Q10max, prime, t)
    return rings


def fresh(ring):
    """A new ring over the same order and ideal, not yet counted."""
    return FiniteQuotRing(ring.order, ring.prime, ring.t)


@pytest.mark.parametrize("name", ["QH/P7", "QH/P2", "QH/P13", "QH/P7^2", "O_std/P7",
                                  "O_std/P2", "B6/2^1", "B6/2^2", "B6/2^3", "B6/3^1",
                                  "B6/3^2", "B6/3^3", "Q2max/P2^1", "Q2max/P2^2",
                                  "Q2max/P2^3", "Q(sqrt3)/P2^3", "Q10max/P2^1",
                                  "Q10max/P2^2", "Q10max/P2^3", "Q10max/P3^1",
                                  "Q10max/P3^2"])
def test_split_count_equals_residue_loop(small_rings, name):
    ring = small_rings[name]
    assert ring.count_units_and_norm_one() == residue_loop_counts(ring)


def test_counts_of_an_order_that_is_not_free(small_rings):
    # Q10max at P2 = (2, sqrt 10) and at a prime above 3, both non-principal
    counts = {"P2^1": (12, 12), "P2^2": (192, 96), "P2^3": (3072, 768),
              "P3^1": (48, 24), "P3^2": (3888, 648)}
    for level, expected in counts.items():
        assert small_rings[f"Q10max/{level}"].count_units_and_norm_one() == expected


def test_a_non_diagonal_central_hnf(small_rings):
    ring = small_rings["Q(sqrt3)/P2^3"]
    assert [list(row) for row in ring.ideal.mat] == [[2, 2], [0, 4]]
    assert ring.cardinality == 4096
    # residue sums and products reduce as the ideal's HNF does
    residues = ring.residues
    field = ring.order.algebra.field
    coords = residues._coords
    for x in residues.elements:
        for y in residues.elements:
            assert list(coords[residues.add(x, y)]) == \
                ring.ideal.reduce([a + b for a, b in zip(coords[x], coords[y])])
            assert list(coords[residues.mul(x, y)]) == \
                ring.ideal.reduce((field.element(coords[x]) * field.element(coords[y])).num)
    assert ring.count_units_and_norm_one() == (2048, 1024)


def test_kappa_check_covers_every_part_of_the_split(small_rings, monkeypatch):
    # the order's certificate checks the norm form once (kappa = 2): one odd
    # polar entry T[a][b], or one odd diagonal entry T[a][a], is refused,
    # whether or not a ring's residue basis would read it
    ring = small_rings["QH/P13"]
    order, tables = ring.order, ring.order.tables
    a, b = ring._basis[:2]
    off = next(k for k in range(ring.dim) if k not in ring._basis)
    for i, j in [(a, b), (off, off)]:
        bad = [[list(entry) for entry in plane] for plane in tables.norm_tensor]
        bad[i][j][0] += 1
        with pytest.raises(InvariantViolation, match="non-integral trace or norm"):
            order._certify(tables._replace(norm_tensor=bad))
    order._certify(tables)
    # so a ring reads the certified tensor and scans none: an odd entry off
    # its residue basis goes unread
    ring = fresh(ring)
    bad = [[list(entry) for entry in plane] for plane in ring.norm_tensor]
    bad[off][off][0] += 1
    monkeypatch.setattr(ring, "norm_tensor", bad)
    assert ring.count_units_and_norm_one() == (26208, 2184)


def test_a_split_that_is_not_orthogonal_is_refused(small_rings):
    ring = small_rings["QH/P7"]
    residues = ring.residues
    norms, polar = ring._gram()
    # the residue basis itself is not orthogonal at P7
    assert any(polar[a][b] != residues.zero for a in range(4) for b in range(a))
    basis = [[residues.one if a == b else residues.zero for b in range(4)] for a in range(4)]
    with pytest.raises(InvariantViolation, match="not orthogonal"):
        _piece_forms(residues, norms, polar, [[v] for v in basis])
    # as one piece of rank 2 and two of rank 1 it is still not orthogonal
    with pytest.raises(InvariantViolation, match="not orthogonal"):
        _piece_forms(residues, norms, polar, [basis[:2], [basis[2]], [basis[3]]])


def test_order_tables_built_once(QH, P7, P13s):
    r7 = FiniteQuotRing(QH, P7, 1)
    r13 = FiniteQuotRing(QH, P13s[0], 1)
    assert r7.tables is r13.tables is QH.tables
    tables = r7.tables
    # the tables are Python integers, and a ring reads its norm form from them
    for table in (tables.struct, tables.invol, tables.norm_tensor, tables.one):
        assert isinstance(table, tuple)
    assert r7.norm_tensor is tables.norm_tensor


def test_central_units_of_a_prime_square(QH, P7):
    # O_K/p^2 has q^2 - q units: exactly the residues outside p
    residues = FiniteQuotRing(QH, P7, 2).residues
    assert len(residues.elements) == 49
    assert len(residues.units) == 49 - 7
    assert residues.one in residues.units


@settings(max_examples=25, deadline=None, derandomize=True)
@given(a=st.integers(-30, 30).filter(bool), b=st.integers(-30, 30).filter(bool),
       level=st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]))
def test_split_count_equals_residue_loop_on_rational_standard_orders(QQ, a, b, level):
    # Z<i, j> in (a, b): p may divide a, b or both, to any power, so the Gram
    # matrix mod p ranges from invertible to zero, with pivots of every valuation
    algebra = QuaternionAlgebra(QQ, QQ.from_rational(a), QQ.from_rational(b))
    p, t = level
    ring = FiniteQuotRing(standard_order(algebra), factor_rational_prime(QQ, p)[0][0], t)
    assert ring.count_units_and_norm_one() == residue_loop_counts(ring)


def _theta_span(order, a) -> list:
    """theta^m w_a for m < d over the order basis, from x -> theta x."""
    field = order.algebra.field
    theta = left_matrix(order, order.algebra.element(field.gen(), 0, 0, 0))
    span = [[int(b == a) for b in range(order.dim)]]
    for _ in range(field.degree - 1):
        span.append([sum(x * y for x, y in zip(span[-1], col)) for col in zip(*theta)])
    return span


def _prime_multiples(order, prime) -> list:
    """pQ's generators beta * w_b, beta in a Z-basis of p, over the order basis."""
    return [list(row) for beta in prime.basis_elements()
            for row in left_matrix(order, order.algebra.element(beta, 0, 0, 0))]


def _extend_echelon(echelon: list, vec, ell: int) -> bool:
    """Add vec mod ell to `echelon` unless it lies in its span over F_ell.

    `echelon` holds (column, row) pairs in the order they were added, each
    row 1 at its column and 0 at the columns of the rows before it, so
    reducing in that order clears every column once.  Returns whether vec
    was added.
    """
    vec = [x % ell for x in vec]
    for col, row in echelon:
        c = vec[col]
        if c:
            vec = [(x - c * y) % ell for x, y in zip(vec, row)]
    col = next((k for k, x in enumerate(vec) if x), None)
    if col is None:
        return False
    inverse = pow(vec[col], -1, ell)
    echelon.append((col, [x * inverse % ell for x in vec]))
    return True


def _rank_greedy_basis(order, prime) -> list:
    """Oracle: the residue basis by rank over F_l, l the rational prime below p.

    pQ contains lQ, so every lattice L between them has [Q : L] = l^(4d - r),
    r the rank over F_l of its rows reduced mod l.  Greedy over the basis:
    w_a is kept when its O_K-span raises that rank, which lowers the index.
    """
    ell = prime.residue_characteristic()
    echelon = []
    for row in _prime_multiples(order, prime):
        _extend_echelon(echelon, row, ell)
    chosen = []
    for a in range(order.dim):
        if len(echelon) == order.dim:
            break
        added = [_extend_echelon(echelon, vec, ell) for vec in _theta_span(order, a)]
        if any(added):
            chosen.append(a)
    return chosen


def _spans_q_modulo_pq(order, prime, chosen) -> bool:
    """Certificate: the O_K w_a, a in `chosen`, span Q together with pQ (one
    HNF of index 1), so by Nakayama four of them are an R-basis of Q/p^tQ."""
    rows = _prime_multiples(order, prime)
    for a in chosen:
        rows += _theta_span(order, a)
    certificate = lattice.hnf(rows, order.dim)
    return (len(chosen) == 4 and lattice.is_full_rank_hnf(certificate, order.dim)
            and lattice.det_upper_triangular(certificate) == 1)


def _hnf_greedy_basis(order, prime) -> list:
    """Oracle: the residue basis by one HNF per tried vector, keeping w_a
    when it lowers the HNF index of the span."""
    rows = [list(row) for row in congruence_coord_hnf(order, prime)]
    index = lattice.det_upper_triangular(rows)
    chosen = []
    for a in range(order.dim):
        if index == 1:
            break
        span = lattice.hnf(rows + _theta_span(order, a), order.dim)
        det = lattice.det_upper_triangular(span)
        if det < index:
            rows, index = span, det
            chosen.append(a)
    assert index == 1
    return chosen


def test_residue_basis_from_the_block_filtration_spans_q_modulo_pq(QH, O_std, B6, Q2max,
                                                                    Q10max):
    # every prime of norm <= 100: ramified, split and inert ones, dyadic ones
    # among them, and Q10max's non-principal primes above 2, 3 and 5; the
    # filtration basis and both greedy oracles pass the index-1 certificate
    count = differ = 0
    for order in (QH, O_std, B6, Q2max, Q10max):
        for prime in primes_up_to_norm(order.algebra.field, 100):
            basis = _residue_basis(order, prime)
            assert _spans_q_modulo_pq(order, prime, basis)
            greedy = _rank_greedy_basis(order, prime)
            assert greedy == _hnf_greedy_basis(order, prime)
            assert _spans_q_modulo_pq(order, prime, greedy)
            differ += basis != greedy
            count += 1
    assert count == 125
    assert differ == 75  # a count does not depend on which basis it reads


def test_residue_basis_takes_one_row_per_block(QH, Q10max, P7, monkeypatch):
    # the certificate is not vacuous: rows whose blocks 0 and 1 vanish do not span
    d = QH.algebra.field.degree
    assert not _spans_q_modulo_pq(QH, P7, list(range(2 * d, 2 * d + 4)))
    assert [a // d for a in _residue_basis(QH, P7)] == [0, 1, 2, 3]
    # Q10max's block 1 has the non-principal ideal P2 = (2, sqrt 10); at P2
    # the basis takes the sqrt 10 row, whose block-1 part lies outside P2^2
    field = Q10max.algebra.field
    p2 = factor_rational_prime(field, 2)[0][0]
    assert _block_ideals(Q10max)[1] == p2 and not field.class_number_one
    a = _residue_basis(Q10max, p2)[1]
    assert Q10max.mat[a][2:4] == (0, 1)
    # a block whose rows all lie in B p is refused, not skipped: B_l p made O_K
    monkeypatch.setattr(IdealHNF, "__mul__", lambda self, other: self.field.whole_ring())
    with pytest.raises(InvariantViolation, match="generates its coefficient ideal"):
        _residue_basis(QH, P7)


def test_a_count_builds_no_congruence_lattice(D, P7):
    order = hurwitz_order(D)
    assert FiniteQuotRing(order, P7, 1).count_norm_one() == 336
    assert not any(isinstance(v, CongruenceIdealLattice) for v in order._cache.values())
