"""Generating function identities checked coefficient by coefficient.

Each identity equates a lattice point enumeration with a sum of rational
terms over colored linear extensions.  Both sides are expanded in one shared
capped series ring.  Truncation to bounded exponents is a ring quotient,
since exponents only ever grow under multiplication, so the two sides agree
on the retained window exactly when the full identity does there, and the
smallest differing monomial is a genuine witness against it.

Every extension side has one staircase form.  For a colored extension
tau = (pi, r), let z_j be the product of one letter per element over the
positions j..p of pi, with z_{p+1} = 1.  The side is

    sum over tau of  prod_x color(x, r(x)) * prod_{i in D} z_{i+1} t^(|D| + e)
                     / ((1 - t) prod_j (1 - z_j t)),

where the identity fixes the letter, the color weight and the rule for
the descent set D and the extra power e.  D is read as the down-set DP of
colored reads it: rank the pairs (r(x) + shift, x) by _pairs_by_ratio, and
a step of pi descends exactly when the rank falls, in a transfer along pi.

Every lattice side is one call of lattice._region_sum, graded exactly when
the context has a variable t.  A graded identity is compared after
multiplying both sides by 1 - t, a unit of the truncated ring, so the sides
agree in the window exactly when these forms do.  The lattice side then
holds each point once, at t to its entry level, strict for R2 and weak for
the others; the staircase denominator keeps 1 - w_i for i < p only,
w_p = t.  An ungraded side drops t, so w_p = 1 and the same denominator
serves.

The extension side is subtracted from the lattice side in place, and a
check passes when every residual coefficient is zero.  A failure rebuilds
the extension side, and the lattice side as the residual plus it, for
_series_report, which reports on the sides themselves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import prod

from .colored import _descent_polynomial, _ranks
from .errors import InvalidInputError
from .lattice import _region_sum, verify_recipr
from .polys import Polynomial, monomial
from .posets import (_check_walk, _walk_extensions, make_antichain, sign_rank,
                     validate_smap)
from .reports import VerificationReport
from .series import SeriesContext, first_mismatch

DEFAULT_CAPX = 3
DEFAULT_CAPT = 5

IDENTITY_NAMES = ("F", "F_PLUS", "G", "R1", "R2", "R3", "R4", "RECI", "COR6",
                  "EUL2", "UQ", "LHP", "QV", "KN1", "KN", "RECIPR")

# the identities that apply (or cleanly skip) on any poset at all; KN1, KN
# and RECIPR have their own dedicated entry points below
SUITE = IDENTITY_NAMES[:13]


def _ctx_xy(P, s, capx, capt=None):
    caps = {f"x{x}": capx for x in P.elements}
    caps.update({f"y{x}": s[x - 1] for x in P.elements})
    if capt is not None:
        caps["t"] = capt
    return SeriesContext(caps)


def _add_capped(series, exps, coeff=1):
    key = series.ctx.key_of(exps)
    if key is not None:
        series._add_term(key, coeff)


def _graded_size(series):
    """The number of nonzero coefficients of series / (1 - t).

    Those are the prefix sums over t at fixed other exponents.  When every
    coefficient is positive, the line of a t-free monomial is nonzero from
    its least t exponent e on, capt + 1 - e terms; otherwise it is expanded.
    Keys of one line differ in the t field alone, so walking them in
    descending order leaves the least e of each line last.
    """
    ctx = series.ctx
    capt = ctx.caps[ctx.index["t"]]
    if min(series.terms.values(), default=1) < 1:
        return len(series._over_one_minus(ctx.key_of({"t": 1})).terms)
    shift, mask = ctx._field("t")
    field = mask << shift
    first = {key & ~field: key & field
             for key in sorted(series.terms, reverse=True)}
    return len(first) * (capt + 1) - (sum(first.values()) >> shift)


def _series_report(name, caps, lhs, rhs, details=None):
    """The report on lhs = rhs, given both sides times 1 - t when graded.

    compared counts the nonzero coefficients of the sides themselves, and a
    failure expands both forms back into the sides to find its witness.
    When both sides are empty in the window nothing is compared, and the
    report is a skip, not a pass.
    """
    graded = "t" in lhs.ctx.index
    if not lhs.terms and not rhs.terms:
        return VerificationReport(
            name, "skip", caps=caps, details=details or {},
            reason="no monomial of either side lies within the caps")
    if lhs.terms == rhs.terms:
        return VerificationReport(
            name, "pass", caps=caps, details=details or {},
            compared=_graded_size(lhs) if graded else len(lhs.terms))
    if graded:
        step = lhs.ctx.key_of({"t": 1})
        lhs, rhs = lhs._over_one_minus(step), rhs._over_one_minus(step)
    compared = len(lhs.terms.keys() | rhs.terms.keys())
    exps, ca, cb = first_mismatch(lhs, rhs)
    return VerificationReport(
        name, "fail", caps=caps, compared=compared, details=details or {},
        witness={"monomial": exps, "lhs": ca, "rhs": cb},
        reason="series sides disagree at the stated monomial")


def _cancel_report(name, caps, lhs, side, details=None):
    """The report on lhs = the extension side, both times 1 - t when graded:
    side(terms) subtracts the extension side from the dict terms, lhs's own,
    and returns the number of extensions; a failure rebuilds both sides."""
    compared = _graded_size(lhs) if "t" in lhs.ctx.index else len(lhs.terms)
    details = {"extensions": side(lhs.terms), **(details or {})}
    if compared and not any(lhs.terms.values()):
        return VerificationReport(name, "pass", caps=caps, compared=compared,
                                  details=details)
    rhs = lhs.ctx.zero()
    if lhs.terms:
        side(rhs.terms)
        rhs = lhs.ctx.zero() - rhs
    return _series_report(name, caps, rhs + lhs, rhs, details)


# ---------------------------------------------------------------------------
# lattice point sides


def _digits(s, primed, labels):
    """The exps of _region_sum for the x/y sides: coordinate j at value v
    carries x_l^q y_l^r, l = labels[j], with (q, r) the digits of v against
    s[j], r in 0..s[j]-1, or in 1..s[j] when primed (None at v = 0).  Each
    coordinate fills only its own x and y fields, so the entries of one
    point never carry into each other."""
    def exps(j, v):
        if primed and v < 1:
            return None
        q, r = divmod(v - primed, s[j])
        return {f"x{labels[j]}": q, f"y{labels[j]}": r + primed}

    return exps


def _bracket_terms(var, n):
    """[n]_var as a list of exponent dict terms, 1 + var + ... + var^(n-1)."""
    return [{var: e} if e else {} for e in range(n)]


def _lhs_independent_products(ctx, P, factor_terms, capt):
    """Sum over n of t^n times a product of per-element factors, times 1 - t.

    factor_terms(x, n) lists the monomials of element x's factor at level n;
    used by the antichain identities, where coordinates are independent.
    Times 1 - t, t^n carries the growth of the product from level n - 1.
    """
    total, below = ctx.zero(), ctx.zero()
    for n in range(capt + 1):
        level = ctx.one()
        for x in P.elements:
            factor = ctx.zero()
            for exps in factor_terms(x, n):
                _add_capped(factor, exps)
            level = level * factor
        for key, c in (level - below).mul_monomial({"t": n}).terms.items():
            total._add_term(key, c)
        below = level
    return total


# ---------------------------------------------------------------------------
# colored extension sides


def _staircase_side(ctx, P, s, max_count, row, letter, color, into):
    """Subtract the staircase form of the module docstring, summed over
    (P, s), from the dict into, and return the number of extensions summed.

    letter(x) and color(x, r) give exponent dicts, and row = (shift, start,
    end, extra, reverse) gives (D, e) in the terms of _descent_polynomial:
    i in D for 0 < i < p exactly when the rank of the pair (r + shift, x)
    in _pairs_by_ratio falls from position i to i + 1 (rises, with
    reverse); with start, 0 is in D when the first color is zero; with end,
    p is in D when the last color is positive; and e = extra.  The side is
    graded exactly when ctx has a variable t.  With w_i = z_{i+1} t
    (graded) or z_{i+1} (not graded), a descent at i contributes w_i, and
    the denominator is the product of 1 - w_i over i < p: w_p is 1 when not
    graded, and t when graded, where the side is taken times 1 - t.

    A transfer along pi over the rank of the last pair builds its numerator,
    shared by the pi of one staircase (w_0, ..., w_p) and divided by each
    1 - w_i in turn, the last time into into.
    """
    shift, start, end, extra, reverse = row
    colorings = prod(s)
    _check_walk(P, colorings, max_count)
    key_product, bias, guard = ctx.key_product, ctx._bias, ctx._guard
    rank, sign = _ranks(s, shift), -1 if reverse else 1
    cells = {x: [sign * rank[r + shift, x] for r in range(v)]
             for x, v in zip(P.elements, s)}
    letters = {x: ctx.key_of(letter(x)) for x in P.elements}
    paint = {x: [ctx.key_of(color(x, r)) for r in range(v)]
             for x, v in zip(P.elements, s)}
    w_p = ctx.key_of({"t": 1}) if "t" in ctx.index else 0
    base = w_p if extra else 0
    # rows with start or end rank (r, x), so the pairs (0, x) rank below p:
    # 0 is in D when rank p falls to position 1, p when p falls to rank p - 1
    first = P.p if start else -len(rank)
    sides, extensions = {}, 0
    for pi in _walk_extensions(P):
        extensions += colorings
        # stair[i] = w_i: from w_p, multiply in the letters right to left
        stair = [w_p]
        for x in reversed(pi):
            stair.append(key_product((stair[-1], letters[x])))
        stair = tuple(reversed(stair))
        num = sides.setdefault(stair, {})
        pairs = [(cells[x], paint[x]) for x in pi]
        if end and pi:
            pairs.append(([P.p - 1], [0]))
        layer = {} if base is None else {first: {base: 1}}
        for i, (ranks, keys) in enumerate(pairs):
            nxt = {}
            for cell, key in zip(ranks, keys):
                fall = key_product((key, stair[i]))
                for prev, sums in layer.items():
                    step = fall if prev > cell else key
                    if step is not None:
                        out = nxt.setdefault(cell, {})
                        for k, c in sums.items():
                            k += step
                            if not (k + bias) & guard:
                                out[k] = out.get(k, 0) + c
            layer = nxt
        for sums in layer.values():
            for k, c in sums.items():
                num[k] = num.get(k, 0) + c
    for stair, num in sides.items():
        divisors = stair[:-1] or (None,)  # p = 0 divides by nothing
        for w in divisors[:-1]:
            num, side = {}, num
            ctx._spread(side, w, num)
        ctx._spread(num, divisors[-1], into, -1)
    return extensions


def _x_letter(x):
    return {f"x{x}": 1}


def _q_color(x, r):
    return {"q": r}


# descent rows (shift, start, end, extra, reverse) of _staircase_side: d1
# is where the rank falls, d2 adds 0 to it, d adds p, d4 adds both, d3
# ranks r + 1, and _RISES, RECI's ascents outside d1, is where it rises
_D = (0, False, True, 0, False)
_RISES = (0, False, False, 0, True)

# the x/y identities: kind -> (descent row, shift of y_x's exponent over r)
_XY_ROWS = {
    "F": ((0, False, False, 0, False), 0),
    "F_PLUS": ((0, True, False, 0, False), 0),
    "G": ((1, False, False, 0, False), 1),
    "R1": (_D, 0),
    "R2": ((0, False, False, 1, False), 0),
    "R3": ((0, True, True, 0, False), 0),
    "R4": ((1, False, False, 1, False), 1),
}


def _rhs_xy(ctx, P, s, kind, max_count):
    row, shift = _XY_ROWS[kind]
    return partial(_staircase_side, ctx, P, s, max_count, row, _x_letter,
                   lambda x, r: {f"y{x}": r + shift})


def _rhs_uq(ctx, P, s, max_count):
    """q^|r| u^comaj t^des over the staircase of u^p t, ..., u t, t."""
    return partial(_staircase_side, ctx, P, s, max_count, _D,
                   lambda x: {"u": 1}, _q_color)


# ---------------------------------------------------------------------------
# the individual identities


def _verify_xy(kind, positive, primed):
    def run(P, s, capx, capt, max_points, max_count, max_steps):
        ctx = _ctx_xy(P, s, capx)
        lhs = _region_sum(ctx, P, s, [int(positive)] * P.p,
                          [(capx + 1) * v - 1 + primed for v in s],
                          _digits(s, primed, P.elements),
                          max_points=max_points, max_steps=max_steps)
        return _cancel_report(kind, {"x": capx}, lhs,
                              _rhs_xy(ctx, P, s, kind, max_count))

    return run


def _verify_RECI(P, s, capx, capt, max_points, max_count, max_steps):
    """Positive primed points of the dual against complemented colors here.

    The left side lives on the order dual with the reversed color counts;
    variable i of this poset carries the digits of the dual point at the
    mirrored element p + 1 - i.  The right side takes the ascents of tau as
    its descent set and y_x^(s(x) - r(x)) as its color weight.
    """
    ctx = _ctx_xy(P, s, capx)
    sd = tuple(reversed(s))
    lhs = _region_sum(ctx, P.dual(), sd, [1] * P.p,
                      [(capx + 1) * v for v in sd],
                      _digits(sd, True, P.elements[::-1]),
                      max_points=max_points, max_steps=max_steps)
    rhs = partial(_staircase_side, ctx, P, s, max_count, _RISES, _x_letter,
                  lambda x, r: {f"y{x}": s[x - 1] - r})
    return _cancel_report("RECI", {"x": capx}, lhs, rhs)


def _verify_R(kind):
    positive = kind in ("R3", "R4")
    primed = kind == "R4"
    strict = kind == "R2"

    def run(P, s, capx, capt, max_points, max_count, max_steps):
        if P.p == 0 and kind in ("R2", "R4"):
            return VerificationReport(
                kind, "skip", reason="degenerate for the empty poset")
        ctx = _ctx_xy(P, s, capx, capt)
        lhs = _region_sum(ctx, P, s, [int(positive)] * P.p,
                          [capt * v - strict for v in s],
                          _digits(s, primed, P.elements), strict=strict,
                          max_points=max_points, max_steps=max_steps)
        return _cancel_report(kind, {"x": capx, "t": capt}, lhs,
                              _rhs_xy(ctx, P, s, kind, max_count))

    return run


def _verify_COR6(P, s, capx, capt, max_points, max_count, max_steps):
    """Antichain product form of the level-graded enumeration.

    Coordinate x contributes x_x^n + [n]_(x_x) [s(x)]_(y_x) at level n; the
    grown sum must match the same rational side as the weak level grading.
    """
    if P.covers:
        return VerificationReport("COR6", "skip",
                                  reason="stated for antichains only")
    ctx = _ctx_xy(P, s, capx, capt)

    def factor_terms(x, n):
        terms = [dict(qx, **yx) for qx in _bracket_terms(f"x{x}", n)
                 for yx in _bracket_terms(f"y{x}", s[x - 1])]
        terms.append({f"x{x}": n} if n else {})
        return terms

    lhs = _lhs_independent_products(ctx, P, factor_terms, capt)
    return _cancel_report("COR6", {"x": capx, "t": capt}, lhs,
                          _rhs_xy(ctx, P, s, "R1", max_count))


def _verify_EUL2(P, s, capx, capt, max_points, max_count, max_steps):
    """Descent count identities binding the four sets together.

    Always: the distribution of |D4| equals t times that of |D3|.  When every
    minimal element has a single color, the Eulerian polynomial itself (the
    |D| distribution) agrees with the |D3| one.  |D4| adds a descent at 0
    when the first color is zero, and |D3| ranks the shifted colors r + 1
    with no descent at p.  Each is counted by a down-set DP capped by
    LHALL_MAX_DP, and every colored extension counts once in A(1).
    """
    if P.p == 0:
        return VerificationReport(
            "EUL2", "skip", reason="degenerate for the empty poset")
    A = _descent_polynomial(P, s, max_steps=max_steps)
    B = _descent_polynomial(P, s, start=True, max_steps=max_steps)
    C = _descent_polynomial(P, s, shift=1, end=False, max_steps=max_steps)
    extensions = A(1)
    minimal_one = all(s[x - 1] == 1 for x in P.minimal_elements())
    details = {"eulerian": A, "minimal_colors_one": minimal_one,
               "extensions": extensions, "a_matches_d3": A == C}
    if B != monomial(1) * C:
        return VerificationReport(
            "EUL2", "fail", compared=extensions, details=details,
            witness={"d4_dist": B, "shifted_d3_dist": monomial(1) * C},
            reason="|D4| distribution is not t times the |D3| one")
    if minimal_one and A != C:
        return VerificationReport(
            "EUL2", "fail", compared=extensions, details=details,
            witness={"d_dist": A, "d3_dist": C},
            reason="single-colored minima should align |D| with |D3|")
    return VerificationReport("EUL2", "pass", compared=extensions,
                              details=details)


def _uq_caps(P, s, capt):
    return {"t": capt, "u": P.p * capt + P.p * (P.p - 1) // 2,
            "q": sum(v - 1 for v in s)}


def _verify_UQ(P, s, capx, capt, max_points, max_count, max_steps):
    """Level-graded joint distribution of digit sums.

    Left: each point, weighted q^(sum of remainders) u^(sum of quotients),
    counted from its entry level on.  Right: q^|r| u^comaj t^des over colored
    extensions, against the staircase denominator.
    """
    caps = _uq_caps(P, s, capt)
    ctx = SeriesContext(caps)
    lhs = _region_sum(ctx, P, s, [0] * P.p, [capt * v for v in s],
                      lambda j, v: dict(zip("uq", divmod(v, s[j]))),
                      max_points=max_points, max_steps=max_steps)
    return _cancel_report("UQ", caps, lhs, _rhs_uq(ctx, P, s, max_count))


def _verify_LHP(P, s, capx, capt, max_points, max_count, max_steps):
    """Level-graded size distribution against the lhp statistic.

    The letter of x is q^s(x), so z_j sums s over the suffix of pi from j.
    """
    total_s = sum(s)
    caps = {"t": capt,
            "q": capt * total_s + sum(v - 1 for v in s) + P.p * total_s}
    ctx = SeriesContext(caps)
    lhs = _region_sum(ctx, P, s, [0] * P.p, [capt * v for v in s],
                      lambda j, v: {"q": v},
                      max_points=max_points, max_steps=max_steps)
    rhs = partial(_staircase_side, ctx, P, s, max_count, _D,
                  lambda x: {"q": s[x - 1]}, _q_color)
    return _cancel_report("LHP", caps, lhs, rhs)


def _verify_QV(P, s, capx, capt, max_points, max_count, max_steps):
    """Antichain product form of the joint digit distribution."""
    if P.covers:
        return VerificationReport("QV", "skip",
                                  reason="stated for antichains only")
    caps = _uq_caps(P, s, capt)
    ctx = SeriesContext(caps)

    def factor_terms(x, n):
        terms = [dict(qu, **qq) for qu in _bracket_terms("u", n)
                 for qq in _bracket_terms("q", s[x - 1])]
        terms.append({"u": n} if n else {})
        return terms

    lhs = _lhs_independent_products(ctx, P, factor_terms, capt)
    return _cancel_report("QV", caps, lhs, _rhs_uq(ctx, P, s, max_count))


def _constant_antichain(P, s, name):
    if P.covers:
        return None, VerificationReport(
            name, "skip", reason="stated for antichains only")
    if len(set(s)) > 1:
        return None, VerificationReport(
            name, "skip", reason="needs one constant color count")
    return (s[0] if s else 1), None


def _verify_KN1(P, s, capx, capt, max_points, max_count, max_steps):
    """Power sums of q-brackets against the flag major index.

    fmaj = |r| + k comaj, so the letter of every element is q^k.
    """
    k, skip = _constant_antichain(P, s, "KN1")
    if skip:
        return skip
    p = P.p
    caps = {"t": capt, "q": k * p * capt + (k - 1) * p + k * p * (p - 1) // 2}
    ctx = SeriesContext(caps)
    lhs = _lhs_independent_products(
        ctx, P, lambda x, n: _bracket_terms("q", k * n + 1), capt)
    rhs = partial(_staircase_side, ctx, P, s, max_count, _D,
                  lambda x: {"q": k}, _q_color)
    return _cancel_report("KN1", caps, lhs, rhs, {"k": k})


def _verify_KN(P, s, capx, capt, max_points, max_count, max_steps):
    """Color-refined count with a plain binomial denominator.

    Every letter is 1, so each staircase step is t alone.
    """
    k, skip = _constant_antichain(P, s, "KN")
    if skip:
        return skip
    caps = {f"q{x}": k - 1 for x in P.elements}
    caps["t"] = capt
    ctx = SeriesContext(caps)

    def factor_terms(x, n):
        terms = [{}]
        for e in range(k):
            for _ in range(n):
                terms.append({f"q{x}": e} if e else {})
        return terms

    lhs = _lhs_independent_products(ctx, P, factor_terms, capt)
    rhs = partial(_staircase_side, ctx, P, s, max_count, _D, lambda x: {},
                  lambda x, r: {f"q{x}": r})
    return _cancel_report("KN", caps, lhs, rhs, {"k": k})


def _verify_RECIPR(P, s, capx, capt, max_points, max_count, max_steps):
    """verify_recipr, which takes s = rank + 1 and skips the posets outside
    its regime itself; any other s is skipped here.  A valid s is positive,
    so it can only be rank + 1 when the rank function is nonnegative.
    """
    info = sign_rank(P)
    if info.ranked and min(info.rho, default=0) >= 0 \
            and tuple(s) != tuple(v + 1 for v in info.rho):
        return VerificationReport(
            "RECIPR", "skip", reason="stated for s = rank + 1")
    return verify_recipr(P, max_steps)


_DISPATCH = {
    "F": _verify_xy("F", positive=False, primed=False),
    "F_PLUS": _verify_xy("F_PLUS", positive=True, primed=False),
    "G": _verify_xy("G", positive=True, primed=True),
    "R1": _verify_R("R1"),
    "R2": _verify_R("R2"),
    "R3": _verify_R("R3"),
    "R4": _verify_R("R4"),
    "RECI": _verify_RECI,
    "COR6": _verify_COR6,
    "EUL2": _verify_EUL2,
    "UQ": _verify_UQ,
    "LHP": _verify_LHP,
    "QV": _verify_QV,
    "KN1": _verify_KN1,
    "KN": _verify_KN,
    "RECIPR": _verify_RECIPR,
}


def verify_identity(name, P, s, capx=DEFAULT_CAPX, capt=DEFAULT_CAPT,
                    max_points=None, max_count=None, max_steps=None):
    """Check one named identity on (P, s) out to the stated caps.

    max_points caps the lattice points of a lattice side, max_count the
    colored extensions of an extension side and max_steps every down-set
    DP (EUL2, RECIPR and the point count behind max_points).
    """
    if name not in _DISPATCH:
        raise InvalidInputError(
            f"unknown identity {name!r}; choose from {', '.join(IDENTITY_NAMES)}")
    s = validate_smap(P, s)
    return _DISPATCH[name](P, s, capx, capt, max_points, max_count,
                           max_steps)


def verify_all(P, s, names=SUITE, capx=DEFAULT_CAPX, capt=DEFAULT_CAPT,
               max_points=None, max_count=None, max_steps=None):
    """Reports for each named identity, in the given order."""
    return [verify_identity(n, P, s, capx, capt, max_points, max_count,
                            max_steps)
            for n in names]


def _check_k(k):
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidInputError(f"k = {k!r} is not a positive integer")


def verify_kn1(k, p, capt=6, max_count=None):
    """KN1 on the antichain of p elements with k colors each, to t^capt."""
    _check_k(k)
    return verify_identity("KN1", make_antichain(p), (k,) * p, capt=capt,
                           max_count=max_count)


def verify_kn(k, p, capt=6, max_count=None):
    """KN on the antichain of p elements with k colors each, to t^capt."""
    _check_k(k)
    return verify_identity("KN", make_antichain(p), (k,) * p, capt=capt,
                           max_count=max_count)


def kn_descent_polynomial(k, p, q_values, max_steps=None):
    """The color-refined descent polynomial at fixed color weights.

    Over all k-colored permutations of an antichain on p elements, sum
    t^des weighted by the product of q_values[x - 1]^(color of x).  Weights
    must be nonnegative rationals; the result is a polynomial in t.  With
    q_x = a/b, color c weighs the integer a^c b^(k-1-c) in the down-set DP,
    capped like eulerian_polynomial, and prod(b^(k-1)) is divided out.
    """
    _check_k(k)
    q_values = tuple(q_values)
    if len(q_values) != p:
        raise InvalidInputError(f"need {p} weights, got {len(q_values)}")
    if any(isinstance(v, float) for v in q_values):
        raise InvalidInputError("weights must be exact rationals, not floats")
    try:
        weights = [Fraction(v) for v in q_values]
    except (TypeError, ValueError):
        raise InvalidInputError("weights must be exact rationals") from None
    if any(w < 0 for w in weights):
        raise InvalidInputError("weights must be nonnegative")
    P = make_antichain(p)

    def weight(c, x):
        w = weights[x - 1]
        return w.numerator ** c * w.denominator ** (k - 1 - c)

    A = _descent_polynomial(P, (k,) * p, weight=weight, max_steps=max_steps)
    scale = prod(w.denominator for w in weights) ** (k - 1)
    return Polynomial(tuple(Fraction(c, scale) for c in A.coeffs))
