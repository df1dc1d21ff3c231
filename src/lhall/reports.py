"""Structured outcomes for the verification routines, and their JSON form.

Reports hold raw result values; _dumps renders any of them as one JSON
document with sorted keys, through the C encoder of the json module.
Fractions become ints when integral and "num/den" strings otherwise;
polynomials become coefficient lists, constant term first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .polys import Polynomial


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


@dataclass
class VerificationReport:
    """Outcome of one verification run.

    status is "pass", "fail" or "skip"; compared counts the monomials or
    values examined; witness pins down the first discrepancy when one exists;
    reason explains skips and failures in one line.
    """

    identity: str
    status: str
    caps: dict = field(default_factory=dict)
    compared: int = 0
    witness: dict | None = None
    reason: str = ""
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status == "pass"

    @property
    def failed(self):
        return self.status == "fail"

    def to_json(self):
        """The fields as a dict of raw values, ready for _dumps."""
        return dict(vars(self))
