"""The six record classes: constructors, equality, hashing, immutability and
repr, which they keep as plain classes, and the import cost they avoid; the
lazy package namespace, and the modules a launch loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lhall
from lhall import (ColoredPermutation, DescentProfile, LabeledPoset,
                   Polynomial, RankInfo, VerificationReport)
from lhall.polys import _trusted_polynomial
from lhall.posets import _trusted_poset

A, B = frozenset({1}), frozenset({0, 2})

# (class, positional args, keyword args of an equal instance, an unequal
# instance, its repr)
CASES = [
    (Polynomial, ((1, 2, 0),), {"coeffs": [1, 2]}, Polynomial((1, 3)),
     "Polynomial([1, 2])"),
    (LabeledPoset, (3, frozenset({(2, 1), (1, 3)})),
     {"p": 3, "covers": {(1, 3), (2, 1)}}, LabeledPoset(3),
     "LabeledPoset(3, [(1, 3), (2, 1)])"),
    (RankInfo, (True, (-1, 0, 0), True, 0, None),
     {"ranked": True, "rho": (-1, 0, 0), "graded": True, "rank": 0,
      "conflict": None},
     RankInfo(False, None, False, None, ((1, 2), (2, 3))),
     "RankInfo(ranked=True, rho=(-1, 0, 0), graded=True, rank=0, "
     "conflict=None)"),
    (ColoredPermutation, ([2, 1], [0, 1]), {"pi": (2, 1), "colors": (0, 1)},
     ColoredPermutation((1, 2), (0, 1)),
     "ColoredPermutation(pi=(2, 1), colors=(0, 1))"),
    (DescentProfile, (A, A, A, A, B), {"d1": A, "d2": A, "d3": A, "d4": A,
                                       "d": B},
     DescentProfile(A, A, A, A, A),
     "DescentProfile(d1=frozenset({1}), d2=frozenset({1}), "
     "d3=frozenset({1}), d4=frozenset({1}), d=frozenset({0, 2}))"),
    (VerificationReport, ("F", "skip", None, 3, {"a": 1}, "why", None),
     {"identity": "F", "status": "skip", "caps": None, "compared": 3,
      "witness": {"a": 1}, "reason": "why", "details": None},
     VerificationReport("F", "skip", None, 3, {"a": 1}, "why", {}),
     "VerificationReport(identity='F', status='skip', caps=None, compared=3, "
     "witness={'a': 1}, reason='why', details=None)"),
]
FROZEN = CASES[:5]

# the public names of the package, by defining module
PUBLIC = {
    "colored": ("ColoredPermutation", "DescentProfile", "colored_extensions",
                "descent_profile", "eulerian_polynomial", "refined_eulerian",
                "statistics"),
    "corpus": ("CORPUS",),
    "errors": ("InternalCheckError", "InvalidInputError", "LhallError",
               "NotPolynomialError", "ResourceLimitError"),
    "identities": ("IDENTITY_NAMES", "SUITE", "kn_descent_polynomial",
                   "verify_all", "verify_identity", "verify_kn",
                   "verify_kn1"),
    "lattice": ("bij_eta", "bij_u", "ehrhart_counts", "enumerate_points",
                "eulerian_via_ehrhart", "is_partition_point",
                "partitions_leq", "partitions_lt", "scan_gamma",
                "verify_bijection", "verify_cone_decomposition",
                "verify_ordinal_interlacing", "verify_recipr"),
    "polys": ("Polynomial", "compose_linear", "gamma_vector",
              "hstar_from_counts", "int_coefficients", "interpolate",
              "is_palindromic", "monomial"),
    "posets": ("LabeledPoset", "RankInfo", "count_linear_extensions",
               "epsilon", "linear_extensions", "make_antichain", "make_chain",
               "ordinal_sum_of_antichains", "poset_from_document",
               "poset_to_document", "sign_rank", "sign_ranked_posets",
               "validate_smap"),
    "reports": ("VerificationReport", "jsonable"),
    "roots": ("interlacing_failure", "interleaves", "is_real_rooted",
              "isolate_real_roots", "real_root_count"),
    "series": ("Series", "SeriesContext", "first_mismatch", "to_records"),
}
# what `scan-gamma` runs, and so all that `import lhall.cli` may load
CLI_MODULES = {"lhall", "lhall.cli", "lhall.colored", "lhall.errors",
               "lhall.lattice", "lhall.polys", "lhall.posets",
               "lhall.reports"}
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_construction_equality_and_repr(cls, args, kwargs, other, text):
    x, y = cls(*args), cls(**kwargs)
    assert x == y and not x != y
    assert x != other and not x == other
    assert repr(x) == repr(y) == text
    # equal only to its own class, like the dataclass it replaces
    as_tuple = tuple(getattr(x, name) for name in cls.__match_args__)
    assert x != as_tuple and not x == as_tuple
    assert x.__eq__(as_tuple) is NotImplemented


@pytest.mark.parametrize("cls, args, kwargs, other, text", FROZEN,
                         ids=IDS[:5])
def test_frozen_records_hash_by_fields_and_refuse_assignment(
        cls, args, kwargs, other, text):
    x, y = cls(*args), cls(**kwargs)
    assert hash(x) == hash(y)
    assert hash(x) == hash(tuple(getattr(x, n) for n in cls.__match_args__))
    assert len({x, y, other}) == 2
    name = cls.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(other, name))
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert x == y


def test_reports_are_mutable_unhashable_and_own_their_dicts():
    r, s = VerificationReport("F", "pass"), VerificationReport("F", "pass")
    assert repr(r) == ("VerificationReport(identity='F', status='pass', "
                       "caps={}, compared=0, witness=None, reason='', "
                       "details={})")
    assert r == s and r.caps is not s.caps and r.details is not s.details
    with pytest.raises(TypeError):
        hash(r)
    r.caps["x"] = 3
    r.status = "fail"
    assert (r.caps, r.status, s.caps, r.passed, r.failed) == (
        {"x": 3}, "fail", {}, False, True)
    assert list(r.to_json()) == ["identity", "status", "caps", "compared",
                                 "witness", "reason", "details"]
    none = VerificationReport("F", "skip", None, details=None)
    assert none.to_json() == {"identity": "F", "status": "skip", "caps": None,
                              "compared": 0, "witness": None, "reason": "",
                              "details": None}


def test_trusted_records_equal_validated_ones():
    P = LabeledPoset(3, frozenset({(1, 3), (2, 3)}))
    Q = _trusted_poset(3, [4, 4, 0], P.covers)
    f, g = Polynomial((1, 2)), _trusted_polynomial((1, 2))
    assert (P, hash(P), P._topo) == (Q, hash(Q), Q._topo)
    assert (f, hash(f)) == (g, hash(g))
    assert "_topo" in vars(P) and "_topo" in vars(Q)
    with pytest.raises(AttributeError):
        Q.p = 4
    with pytest.raises(AttributeError):
        g.coeffs = ()


def _modules_added_by(statement):
    """The modules a fresh interpreter loads for statement, measured against
    what the bare interpreter has already loaded."""
    src = str(Path(lhall.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = (f"import sys; before = set(sys.modules); {statement}; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_dataclasses():
    # neither the modules a dataclass decoration pulls in, nor any lhall
    # module that scan-gamma does not run; the package itself loads nothing
    added = _modules_added_by("import lhall.cli")
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert {m for m in added if m.split(".")[0] == "lhall"} == CLI_MODULES
    assert _modules_added_by("import lhall") == {"lhall"}


def test_lazy_namespace_resolves_every_public_name():
    star = {}
    exec("from lhall import *", star)
    del star["__builtins__"]
    pairs = [(module, name) for module, names in PUBLIC.items()
             for name in names]
    assert len(pairs) == 65 and set(star) == {name for _, name in pairs}
    listed = dir(lhall)
    for module, name in pairs:
        value = getattr(importlib.import_module(f"lhall.{module}"), name)
        assert getattr(lhall, name) is value
        assert name in listed
        assert star[name] is value
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lhall.no_such_name
