"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
the enumeration-heavy criteria share one set of systole searches.
"""

import random
from fractions import Fraction

import pytest

from quatsys.bounds import (four_thirds_log_genus, genus_from_index, hurwitz_43_check,
                            hurwitz_43_threshold, hurwitz_context, psl_index,
                            trace_lower_bound)
from quatsys.geodesics import RadiusSchedule, systole_search
from quatsys.numfield import factor_rational_prime, primes_up_to_norm
from quatsys.quatalg import QuaternionAlgebra
from quatsys.quotient import (FiniteQuotRing, index_bound, lambda_factor,
                              lemma44_check, maxim_formula)
from quatsys.torsion import certify_torsion_free

from conftest import (coefficient_ideal_test, congruence_basis, in_gamma, is_central,
                      trace_norm_contained)

SL_COUNTS = {7: 336, 8: 504, 13: 2184}
REFERENCE_SYSTOLES = {7: [3.936], 8: [5.796], 13: [5.903, 6.393, 6.887]}
GENERA = {7: 3, 8: 7, 13: 14}


@pytest.fixture(scope="session")
def ideals(K, P7, P2, P13s):
    return [P7, P2] + P13s


@pytest.fixture(scope="session")
def searches(QH, ideals):
    """One certified systole search per ideal, shared by several criteria."""
    out = {}
    for ideal in ideals:
        out[ideal.mat] = systole_search(QH, ideal, RadiusSchedule(4.5, 1.0, 14.0))
    return out


def test_criterion_1_quotient_counts(QH, ideals):
    for ideal in ideals:
        ring = FiniteQuotRing(QH, ideal, 1)
        count = ring.count_norm_one()
        assert count == maxim_formula(ring.q, 1, False)
        assert count == SL_COUNTS[ideal.norm]
    print("\nACCEPTANCE 1 PASS: norm-one counts 336, 504, 2184, 2184, 2184 "
          "match q^{3t}(1 - q^{-2}) exactly")


def test_criterion_2_table_systoles(searches, ideals):
    pool = {k: list(v) for k, v in REFERENCE_SYSTOLES.items()}
    for ideal in ideals:
        result = searches[ideal.mat]
        assert result.mode == "certified"
        assert result.certificate == "trace-coset"
        value = float(result.min_length.mid)
        matches = [v for v in pool[ideal.norm] if abs(v - value) <= 1e-3]
        assert matches, f"systole {value} has no reference partner at norm {ideal.norm}"
        pool[ideal.norm].remove(matches[0])
    assert not any(pool.values())
    print("ACCEPTANCE 2 PASS: enumerated systoles match 3.936, 5.796, "
          "{5.903, 6.393, 6.887} within 1e-3, each certified by the trace coset 2 + I^2")


def test_criterion_3_genus_pipeline(QH, ideals):
    ctx = hurwitz_context()
    for ideal in ideals:
        count = SL_COUNTS[ideal.norm]
        minus = QH.minus_one_in_gamma(ideal)
        genus = genus_from_index(ctx, psl_index(count, minus))
        assert genus == GENERA[ideal.norm]
    print("ACCEPTANCE 3 PASS: genus pipeline gives exactly 3, 7, 14 "
          "(with -1-membership rule and equality assumptions)")


def test_criterion_4_trace_floor_soundness(searches, ideals):
    ctx = hurwitz_context()
    checked = 0
    for ideal in ideals:
        floor = trace_lower_bound(ctx, ideal, sharp=False)
        assert floor == Fraction(ideal.norm) ** 2 / 16 - 2
        for cand in searches[ideal.mat].candidates:
            assert cand.trace.embed(0, 80).abs().certainly_gt(floor)
            checked += 1
    assert checked > 0
    print(f"ACCEPTANCE 4 PASS: |Tr| > Norm(I)^2/16 - 2 on all {checked} "
          "enumerated classes, zero violations")


def test_criterion_5_proof_chain_suites(QH, ideals, searches, K):
    rng = random.Random(20260810)
    one = QH.algebra.one()
    total_gamma = 0
    for ideal in ideals:
        # Tr(I*Q) in I and nrd(I*Q) in I^2, exactly on the HNF basis of I*Q
        assert trace_norm_contained(congruence_basis(QH, ideal), ideal)
        gammas = [c.element for c in searches[ideal.mat].candidates]
        # enlarge the congruence-group sample with random short words in the
        # enumerated generators (still exact members, verified below)
        pool = list(gammas) + [g.conj() for g in gammas]  # conj = inverse here
        words = []
        in_target = coefficient_ideal_test(QH, ideal)
        while len(words) < 200 and pool:
            x = rng.choice(pool)
            for _ in range(rng.randrange(1, 3)):
                x = x * rng.choice(pool)
            words.append(x)
        for x in gammas + words:
            assert in_gamma(QH, ideal, x)
            y0 = x.coords[0] - K.one()
            assert in_target(y0)
            assert y0 * 2 == -((x - one).reduced_norm())
        total_gamma += len(gammas) + len(words)
        # strict conjugate-coefficient bound on the whole sample, except the
        # central -1 that a product of an element and its inverse can hit
        for x in gammas + words:
            if is_central(x):
                continue
            for s in range(1, K.degree):
                assert x.coords[0].embed(s, 80).abs().hi < 1
    from quatsys.orders import standard_order

    for order in (QH, standard_order(QH.algebra)):
        for w in order.basis_elements():
            assert order.contains(w.conj())
    assert total_gamma >= 1000
    print(f"ACCEPTANCE 5 PASS: containment lemmas exactly on the basis of I*Q, "
          f"membership + 2y0 = -N(x-1) + |sigma(x0)| < 1 "
          f"on {total_gamma} congruence-group elements, involution-stable bases")


def test_criterion_6_four_thirds_bound():
    threshold = hurwitz_43_threshold()
    assert threshold == 65 and not hurwitz_43_check(threshold - 1)
    # the gap increases with g, so the threshold settles every larger genus;
    # spot checks up to 1e6 agree
    assert all(hurwitz_43_check(g) for g in (66, 100, 10 ** 4, 10 ** 6))
    cols = {3: 1.465, 7: 2.595, 14: 3.519, 17: 3.778}
    for g, ref in cols.items():
        assert round(float(four_thirds_log_genus(g).mid), 3) == ref
    print(f"ACCEPTANCE 6 PASS: 4/3 bound certified from genus {threshold} on "
          "(increasing gap), spot-checked to 1e6; bound column "
          "1.465/2.595/3.519/3.778 reproduced")


def test_criterion_7_ramification(D, QQ):
    report = D.ramification_report(50)
    assert report.finite_ramified == []
    assert all(D.finite_prime_status(prime) in ("split", "ramified")
               for prime in primes_up_to_norm(D.field, 50))
    assert report.real_ramified == [1, 2]
    Dq = QuaternionAlgebra(QQ, QQ.from_rational(2), QQ.from_rational(3))
    finite = [p.norm for p in Dq.ramification_report(13).finite_ramified]
    assert finite == [2, 3]
    print("ACCEPTANCE 7 PASS: (eta,eta) unramified at all primes of norm <= 50 "
          "with two ramified real places; (2,3) over Q ramified exactly at {2,3}")


def test_criterion_8_torsion(QH, K, searches, ideals):
    eta = K.gen()
    assert eta * (eta - 1) * (eta + 2) == K.one()
    certified = 0
    for prime in primes_up_to_norm(K, 100):
        assert certify_torsion_free(QH, prime).torsion_free
        certified += 1
    for ideal in ideals:
        assert searches[ideal.mat].elliptic_count == 0
    print(f"ACCEPTANCE 8 PASS: {certified} prime ideals of norm <= 100 certified "
          "torsion-free; unit identity exact; no |Tr| < 2 elements enumerated")


def test_criterion_9_squares(QQ):
    for p in (3, 5, 7):
        prime = factor_rational_prime(QQ, p)[0][0]
        for t in (1, 2, 3):
            rep = lemma44_check(prime, t)
            assert rep.count == (p - 1) // 2 * p ** (t - 1)
            assert rep.matches and not rep.discrepancy
    two = factor_rational_prime(QQ, 2)[0][0]
    rep = lemma44_check(two, 3)
    assert rep.count == 1 and rep.formula_value == 2 and rep.discrepancy
    print("ACCEPTANCE 9 PASS: odd square counts match (p-1)/2 * p^(t-1); the "
          "even-prime equality clause fails at t=3 (count 1 vs 2) and is flagged")


def test_criterion_10_lambda_and_cubes(D, QH, ideals):
    for ideal in ideals:
        lam = lambda_factor(D, QH, ideal)
        assert lam.value == 1
        bound = index_bound(D, QH, ideal)
        assert bound == ideal.norm ** 3
        assert SL_COUNTS[ideal.norm] < bound
    print("ACCEPTANCE 10 PASS: lambda = 1 on all test ideals; 336 < 343, "
          "504 < 512, 2184 < 2197")
