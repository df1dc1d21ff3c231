"""Exact statistics and verified identities for colored poset partitions.

The package computes with labeled posets whose elements carry color counts:
their colored linear extensions and descent statistics, the lattice points
of the associated inequality cones, Eulerian and Ehrhart polynomials over
exact rationals, real-rootedness and interlacing through integer Sturm
chains, and coefficient-level checks of the generating function identities
tying all of these together.

`import lhall` loads no submodule: a public name is imported from its
defining module on first access (PEP 562), so a command loads what it runs.
"""

import importlib

_MODULE_OF = {name: module for module, names in {
    "colored": "ColoredPermutation DescentProfile colored_extensions "
               "descent_profile eulerian_polynomial refined_eulerian "
               "statistics",
    "corpus": "CORPUS",
    "errors": "InternalCheckError InvalidInputError LhallError "
              "NotPolynomialError ResourceLimitError",
    "identities": "IDENTITY_NAMES SUITE kn_descent_polynomial verify_all "
                  "verify_identity verify_kn verify_kn1",
    "lattice": "bij_eta bij_u ehrhart_counts enumerate_points "
               "eulerian_via_ehrhart is_partition_point partitions_leq "
               "partitions_lt scan_gamma verify_bijection "
               "verify_cone_decomposition verify_ordinal_interlacing "
               "verify_recipr",
    "polys": "Polynomial compose_linear gamma_vector hstar_from_counts "
             "int_coefficients interpolate is_palindromic monomial",
    "posets": "LabeledPoset RankInfo count_linear_extensions epsilon "
              "linear_extensions make_antichain make_chain "
              "ordinal_sum_of_antichains poset_from_document "
              "poset_to_document sign_rank sign_ranked_posets validate_smap",
    "reports": "VerificationReport jsonable",
    "roots": "interlacing_failure interleaves is_real_rooted "
             "isolate_real_roots real_root_count",
    "series": "Series SeriesContext first_mismatch to_records",
}.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
