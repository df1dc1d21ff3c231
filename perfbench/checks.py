"""Correctness checks on the program's outputs, made apart from the program.

Each function takes plain data (coefficient lists, report fields, parsed
JSON records) and returns a list of problems; an empty list means the
output passed.  The expected values come from the benchmark's own counts or
from properties the mathematics forces, never from stored program output.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, prod

from inputs import closure_of, count_extensions, stacked_weight

ANTICHAIN_ONLY = ("COR6", "QV")


def _value_at_one(coeffs):
    return sum(Fraction(c) for c in coeffs)


def _strip(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def brute_force_levels(p, covers, s, nmax):
    """Points with f(x) <= n s(x) for n = 0..nmax, tested on every relation.

    f(x)/s(x) <= f(y)/s(y) for each x < y of the transitive closure, strict
    when the labels descend (x > y); compared as Fractions.
    """
    up = closure_of(p, covers)
    relations = [(x, y) for x in range(1, p + 1) for y in range(1, p + 1)
                 if up[x - 1] >> (y - 1) & 1]
    counts = [0] * (nmax + 1)
    for f in itertools.product(*[range(nmax * v + 1) for v in s]):
        ratio = [Fraction(v, sv) for v, sv in zip(f, s)]
        if all(ratio[x - 1] < ratio[y - 1] if x > y
               else ratio[x - 1] <= ratio[y - 1] for x, y in relations):
            level = max((-(-v // sv) for v, sv in zip(f, s)), default=0)
            for n in range(level, nmax + 1):
                counts[n] += 1
    return counts


def check_eulerian(p, covers, s, direct, via_ehrhart, levels=None):
    """direct and via_ehrhart are coefficient lists of A(P, s; t).

    levels, when given, is (nmax, program counts for n = 0..nmax).
    """
    problems = []
    if _strip(direct) != _strip(via_ehrhart):
        problems.append("the direct and the Ehrhart methods disagree")
    expected = count_extensions(p, covers) * prod(s)
    if _value_at_one(direct) != expected:
        problems.append(f"A(1) = {_value_at_one(direct)}, expected e(P)*prod(s)"
                        f" = {expected}")
    if any(Fraction(c) < 0 for c in direct):
        problems.append("A has a negative coefficient")
    if len(_strip(direct)) - 1 > p:
        problems.append(f"A has degree above p = {p}")
    if levels is not None:
        nmax, counted = levels
        expected_levels = brute_force_levels(p, covers, s, nmax)
        if list(counted) != expected_levels:
            problems.append(f"level counts {list(counted)} differ from the "
                            f"brute-force counts {expected_levels}")
    return problems


def check_identity(name, covers, status, compared):
    problems = []
    if status not in ("pass", "skip"):
        problems.append(f"{name} reports {status}")
    should_skip = name in ANTICHAIN_ONLY and bool(covers)
    if (status == "skip") != should_skip:
        problems.append(f"{name} {'skipped' if status == 'skip' else 'ran'} on"
                        f" covers {list(covers)}")
    if status == "pass" and compared <= 0:
        problems.append(f"{name} passed after comparing {compared} terms")
    return problems


def stacked_family_size(sizes, block_s):
    return sum(k * v for k, v in zip(sizes, block_s))


def check_stacked(sizes, block_s, status, family):
    """family is the list of member coefficient lists, in X order."""
    problems = []
    if status != "pass":
        problems.append(f"ordinal interlacing reports {status}")
    if len(family) != stacked_family_size(sizes, block_s):
        problems.append(f"family has {len(family)} members, expected "
                        f"{stacked_family_size(sizes, block_s)}")
    expected = stacked_weight(sizes, block_s)
    total = sum(_value_at_one(member) for member in family)
    if total != expected:
        problems.append(f"family sums to {total} at t=1, expected {expected}")
    return problems


def check_scan_record(rec):
    """One scan-gamma record: rank rule, A(1) and the gamma expansion."""
    problems = []
    p, covers, rho = rec["p"], [tuple(c) for c in rec["covers"]], rec["rho"]
    if len(rho) != p or any(v < 0 for v in rho):
        return [f"rho {rho} is not a nonnegative map on {p} elements"]
    has_lower = {y for _, y in covers}
    for x in range(1, p + 1):
        if x not in has_lower and rho[x - 1] != 0:
            problems.append(f"minimal element {x} has rho {rho[x - 1]}")
    for x, y in covers:
        if rho[y - 1] - rho[x - 1] != (1 if x < y else -1):
            problems.append(f"cover ({x}, {y}) breaks the sign-rank rule")
    A = rec["eulerian"]
    s = [v + 1 for v in rho]
    expected = count_extensions(p, covers) * prod(s)
    if _value_at_one(A) != expected:
        problems.append(f"A(1) = {_value_at_one(A)}, expected {expected}")
    gamma = rec["gamma"]
    if gamma is None:
        problems.append("no gamma vector")
    else:
        d = p - 1
        rebuilt = [Fraction(0)] * (d + 1)
        for k, g in enumerate(gamma):
            for j in range(d - 2 * k + 1):
                rebuilt[k + j] += Fraction(g) * comb(d - 2 * k, j)
        if _strip(rebuilt) != _strip(A):
            problems.append("the gamma expansion does not rebuild A")
    return problems


def check_scan_summary(returncode, summary, records_read):
    problems = []
    if returncode != 0:
        problems.append(f"scan-gamma exited with code {returncode}")
    if summary is None:
        return problems + ["no summary line"]
    if summary.get("checked") != records_read:
        problems.append(f"summary checked {summary.get('checked')} posets, "
                        f"{records_read} records were read")
    if summary.get("proven_regime_failures"):
        problems.append("proven-regime failures reported")
    return problems
