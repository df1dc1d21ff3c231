"""The six record classes: constructors, equality, hashing, immutability and
repr, which they keep as plain classes, and the import cost they avoid."""

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


def test_importing_the_cli_loads_no_dataclasses():
    # the modules a dataclass decoration pulls in, measured against what the
    # bare interpreter has already loaded
    src = str(Path(lhall.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys; before = set(sys.modules); import lhall.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "lhall.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
