"""quatsys: exact arithmetic for quaternion orders over totally real fields,
their congruence subgroups, and the systoles of the associated surfaces.

The flagship instance is the (2,3,7) triangle lattice realized as the
norm-one group of the maximal order in (eta, eta) over Q(eta),
eta = 2 cos(2 pi / 7); `hurwitz_context()` wires it up in one call.
"""

from .errors import (CapExceeded, InputError, InvariantViolation, PrecisionError,
                     QuatsysError)
from .intervals import RatInterval
from .numfield import (FieldElement, IdealHNF, NumberField, factor_ideal,
                       factor_rational_prime, hurwitz_field, primes_up_to_norm, rationals)
from .quatalg import QuatElement, QuaternionAlgebra, RamificationReport
from .orders import (CongruenceIdealLattice, OrderLattice, hurwitz_algebra,
                     hurwitz_j_prime, hurwitz_order, hurwitz_preset, standard_order)
from .quotient import (FiniteQuotRing, LambdaFactor, count_norm_one_ideal,
                       index_bound, lambda_factor, lemma44_check, maxim_formula,
                       squares_count)
from .torsion import (TorsionCertificate, candidate_orders, certify_torsion_free,
                      roots_in_field)
from .bounds import (GeometryContext, genus_from_index, hurwitz_43_check,
                     hurwitz_43_threshold, hurwitz_context, kleinian_bounds,
                     length_from_trace, psl_index, sys_lower_bound_from_genus,
                     sys_lower_bound_from_ideal, trace_bound_pair,
                     trace_coset_minimum, trace_lower_bound, v3_enclosure)
from .geodesics import (EnumerationResult, GeodesicCandidate, RadiusSchedule,
                        enumerate_gamma, systole_search)

__version__ = "0.1.0"
