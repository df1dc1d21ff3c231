"""Exact statistics and verified identities for colored poset partitions.

The package computes with labeled posets whose elements carry color counts:
their colored linear extensions and descent statistics, the lattice points
of the associated inequality cones, Eulerian and Ehrhart polynomials over
exact rationals, real-rootedness and interlacing through integer Sturm
chains, and coefficient-level checks of the generating function identities
tying all of these together.
"""

from .colored import (ColoredPermutation, DescentProfile, colored_extensions,
                      descent_profile, eulerian_polynomial, refined_eulerian,
                      statistics)
from .corpus import CORPUS
from .errors import (InternalCheckError, InvalidInputError, LhallError,
                     NotPolynomialError, ResourceLimitError)
from .identities import (IDENTITY_NAMES, SUITE, kn_descent_polynomial,
                         verify_all, verify_identity, verify_kn, verify_kn1)
from .lattice import (bij_eta, bij_u, ehrhart_counts, enumerate_points,
                      eulerian_via_ehrhart, is_partition_point, partitions_leq,
                      partitions_lt, scan_gamma, verify_bijection,
                      verify_cone_decomposition, verify_ordinal_interlacing,
                      verify_recipr)
from .polys import (Polynomial, compose_linear, gamma_vector,
                    hstar_from_counts, int_coefficients, interpolate,
                    is_palindromic, monomial)
from .posets import (LabeledPoset, RankInfo, count_linear_extensions, epsilon,
                     linear_extensions, make_antichain, make_chain,
                     ordinal_sum_of_antichains, poset_from_document,
                     poset_to_document, sign_rank, sign_ranked_posets,
                     validate_smap)
from .reports import VerificationReport, jsonable
from .roots import (interlacing_failure, interleaves, is_real_rooted,
                    isolate_real_roots, real_root_count)
from .series import Series, SeriesContext, first_mismatch, to_records

__version__ = "0.1.0"
