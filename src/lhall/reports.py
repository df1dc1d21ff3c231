"""Structured outcomes for the verification routines, and their JSON form.

Reports hold raw result values; _dumps renders any of them as one JSON
document with sorted keys, through the C encoder of the json module.
Fractions become ints when integral and "num/den" strings otherwise;
polynomials become coefficient lists, constant term first.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import _Record
from .polys import Polynomial

_FRESH = object()  # the default of caps and details: a new empty dict


def _encode(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return v.numerator
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, Polynomial):
        return list(v.coeffs)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _dumps(v):
    return json.dumps(v, sort_keys=True, default=_encode)


def jsonable(v):
    """v mirrored into plain JSON types, as _dumps renders it."""
    return json.loads(_dumps(v))


class VerificationReport(_Record):
    """Outcome of one verification run.

    status is "pass", "fail" or "skip"; compared counts the monomials or
    values examined; witness pins down the first discrepancy when one exists;
    reason explains skips and failures in one line.
    """

    __match_args__ = ("identity", "status", "caps", "compared", "witness",
                      "reason", "details")

    def __init__(self, identity, status, caps=_FRESH, compared=0, witness=None,
                 reason="", details=_FRESH):
        self.identity = identity
        self.status = status
        self.caps = {} if caps is _FRESH else caps
        self.compared = compared
        self.witness = witness
        self.reason = reason
        self.details = {} if details is _FRESH else details

    @property
    def passed(self):
        return self.status == "pass"

    @property
    def failed(self):
        return self.status == "fail"

    def to_json(self):
        """The fields as a dict of raw values, ready for _dumps."""
        return dict(vars(self))
