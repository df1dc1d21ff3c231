"""Structured outcomes for the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .polys import Polynomial


def jsonable(v):
    """Mirror a result value into plain JSON types.

    Fractions become ints when integral and "num/den" strings otherwise;
    polynomials become coefficient lists, constant term first.
    """
    if v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, Polynomial):
        return [jsonable(c) for c in v.coeffs]
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, (set, frozenset)):
        return sorted(jsonable(x) for x in v)
    return v


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
        return {
            "identity": self.identity,
            "status": self.status,
            "caps": jsonable(self.caps),
            "compared": self.compared,
            "witness": jsonable(self.witness),
            "reason": self.reason,
            "details": jsonable(self.details),
        }
