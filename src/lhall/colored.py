"""Colored linear extensions and their descent statistics.

An s-colored permutation is a pair tau = (pi, r) where pi permutes
{1, ..., p} and r grants each element x a color in {0, ..., s(x) - 1}.
Attached to a labeled poset we keep only those pi that are linear extensions.
Colors compare through the fractions r(x)/s(x), ties broken by the labels:
_pairs_by_ratio ranks the pairs (r(x), x) in that order on integers, never
on floats, and a step of a word descends exactly when the rank falls.
"""

from __future__ import annotations

import itertools
from math import factorial, lcm, prod

from .errors import InvalidInputError, _Frozen
from .polys import Polynomial, _trusted_polynomial
from .posets import (_check_dp, _check_walk, _cover_masks, _walk_extensions,
                     _word_table, validate_smap)


class ColoredPermutation(_Frozen):
    """A permutation with one color per element.

    colors is indexed by element, so colors[x - 1] is the color of element x,
    not of position x.
    """

    __match_args__ = ("pi", "colors")

    def __init__(self, pi, colors):
        pi, colors = tuple(pi), tuple(colors)
        p = len(pi)
        if sorted(pi) != list(range(1, p + 1)):
            raise InvalidInputError("pi must be a permutation of 1..p")
        if len(colors) != p:
            raise InvalidInputError("need exactly one color per element")
        for r in colors:
            if not isinstance(r, int) or isinstance(r, bool) or r < 0:
                raise InvalidInputError(f"color {r!r} is not a nonnegative "
                                        "integer")
        vars(self).update(pi=pi, colors=colors)


class DescentProfile(_Frozen):
    """The five descent sets of a colored permutation.

    Positions are 1-based: i in d1 means the step from position i to i + 1
    descends, judged on r(x)/s(x) with ties broken toward a descent exactly
    when the labels descend.  d2 may add position 0 (when the first letter
    has color zero), d and d4 may add position p (when the last letter has a
    positive color), and d3 is the [p-1]-variant computed from the shifted
    colors r + 1.
    """

    __match_args__ = ("d1", "d2", "d3", "d4", "d")

    def __init__(self, d1, d2, d3, d4, d):
        vars(self).update(d1=d1, d2=d2, d3=d3, d4=d4, d=d)


def descent_profile(tau, s):
    """Compute all five descent sets of tau from the ranks of its pairs."""
    pi, colors = tau.pi, tau.colors
    p = len(pi)
    if len(colors) != p or len(s) != p:
        raise InvalidInputError("pi, colors and s must all have length p")
    for x in pi:
        if not 0 <= colors[x - 1] < s[x - 1]:
            raise InvalidInputError(f"color of element {x} is out of range")
    rank, shifted = _ranks(s, 0), _ranks(s, 1)
    d1 = frozenset(_falls([rank[colors[x - 1], x] for x in pi]))
    d3 = frozenset(_falls([shifted[colors[x - 1] + 1, x] for x in pi]))
    first = {0} if p and colors[pi[0] - 1] == 0 else set()
    last = {p} if p and colors[pi[-1] - 1] > 0 else set()
    return DescentProfile(d1, d1 | first, d3, d1 | first | last, d1 | last)


def colored_extensions(P, s, max_count=None):
    """Yield the colored linear extensions of (P, s) in canonical order.

    Order: pi lexicographically, then the color vector (r(1), ..., r(p))
    lexicographically.  The number of extensions to be yielded is checked
    against a cap before any work starts (max_count, else the
    LHALL_MAX_COLORED environment variable, else DEFAULT_COLORED_CAP).
    """
    s = validate_smap(P, s)
    _check_walk(P, prod(s), max_count)
    ranges = [range(v) for v in s]
    for pi in _walk_extensions(P):
        for colors in itertools.product(*ranges):
            yield ColoredPermutation(pi, colors)


def statistics(tau, s):
    """The descent statistics of tau as a dict.

    des is |D|, comaj sums p - i over i in D, and lhp adds |r| to the
    s-weighted comajor index.  fmaj = |r| + k * comaj only makes sense for
    constant s = (k, ..., k) and is present exactly in that case.
    """
    p = len(tau.pi)
    prof = descent_profile(tau, s)
    comaj = sum(p - i for i in prof.d)
    rsum = sum(tau.colors)
    lhp = rsum + sum(sum(s[x - 1] for x in tau.pi[i:]) for i in prof.d)
    out = {"des": len(prof.d), "comaj": comaj, "lhp": lhp}
    if len(set(s)) <= 1:
        out["fmaj"] = rsum + (s[0] if s else 0) * comaj
    return out


def _pairs_by_ratio(s, shift):
    """Pairs (k, x) with shift <= k < s(x) + shift, ordered by (k/s(x), x).

    The ratios are compared as integers k * (L / s(x)) with L = lcm(s).
    """
    scale = lcm(*s)
    pairs = [(k, x) for x, v in enumerate(s, 1) for k in range(shift, v + shift)]
    pairs.sort(key=lambda g: (g[0] * (scale // s[g[1] - 1]), g[1]))
    return pairs


def _ranks(s, shift):
    """(k, x) -> the rank of the pair in _pairs_by_ratio(s, shift)."""
    return {g: j for j, g in enumerate(_pairs_by_ratio(s, shift))}


def _falls(ranks):
    """The 1-based positions i < len(ranks) where the rank falls from
    position i to i + 1: the descents of a word whose pairs have these
    ranks in _pairs_by_ratio."""
    return [i for i in range(1, len(ranks)) if ranks[i - 1] > ranks[i]]


def _unpack(packed, bits):
    """The polynomial packed `bits` bits per coefficient into a nonnegative
    int.  Its last chunk is nonzero, so the coefficients are stripped ints
    and are used as they are."""
    mask = (1 << bits) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & mask)
        packed >>= bits
    return _trusted_polynomial(tuple(coeffs))


def _descent_polynomial(P, s, shift=0, start=False, end=True, weight=None,
                        max_steps=None):
    """Generating polynomial of a descent number over colored extensions.

    A forward DP over (placed down-set, rank of the last pair), with the
    pairs (k, x), shift <= k < s(x) + shift, ranked by (k/s(x), x): a step
    adds a descent exactly when the rank falls.  With start, a pair with
    k = shift that opens the word adds a descent; with end, a last pair
    with k > shift (a positive color) adds one.  A word weighs the product
    of weight(k, x), a nonnegative integer, over its pairs (1 by default).
    This is the transfer of Stanley's fundamental lemma of P-partitions
    (EC1 3.15); on chains and antichains it is the s-Eulerian recurrence of
    Savage and Visontai (Trans. AMS 2015).  Refused up front when a bound on
    the down-sets of P times sum(s) exceeds max_steps (else LHALL_MAX_DP,
    default DEFAULT_DP_CAP).
    """
    _check_dp(P, sum(s), max_steps)
    if not P.p:
        return Polynomial((1,))
    order = _pairs_by_ratio(s, shift)
    weights, sums = None, s
    if weight is not None:
        weights = [weight(k, x) for k, x in order]
        sums = [sum(weight(k, x) for k in range(shift, v + shift))
                for x, v in enumerate(s, 1)]
    # no coefficient exceeds the weight of all words, p! * prod(sums)
    bits = (factorial(P.p) * prod(sums)).bit_length()
    pairs = [[] for _ in range(P.p + 1)]
    for j, (k, x) in enumerate(order):
        pairs[x].append((j, 1 << bits if start and k == shift else 1))
    row = _word_table(P, _cover_masks(P)[0], pairs, bits, weights)
    return _unpack(sum(w << bits if end and order[j][0] > shift else w
                       for j, w in enumerate(row)), bits)


def eulerian_polynomial(P, s, max_steps=None):
    """Generating polynomial of |D| over colored extensions: the default
    _descent_polynomial, capped the same way."""
    return _descent_polynomial(P, validate_smap(P, s), max_steps=max_steps)


def refined_eulerian(P, s, max_steps=None):
    """Split the Eulerian polynomial by gamma = (r(pi_1), pi_1).

    Returns a dict keyed by every pair (k, x) with 0 <= k < s(x), in the
    order of _pairs_by_ratio(s, 0); values sum to eulerian_polynomial(P, s).
    Keys whose element is never first in a linear extension carry the zero
    polynomial.  The family is one row of _suffix_table, read back in the
    order of the pairs.  Capped like eulerian_polynomial.
    """
    s = validate_smap(P, s)
    _check_dp(P, sum(s), max_steps)
    if not P.p:
        return {}
    order = _pairs_by_ratio(s, 0)
    bits = (factorial(P.p) * prod(s)).bit_length()
    row = _suffix_table(P, order, bits)[::-1]
    return {g: _unpack(w, bits) for g, w in zip(order, row)}


def _suffix_table(P, order, bits, rows=None):
    """The DP of eulerian_polynomial run backward, from the last letter to
    the first, an element after all its upper covers, with the ranks in
    order reversed so that a descent is again a step to a lower rank.  The
    descent at p is charged when a positive color opens the reversed word.
    So the row of an up-set U holds the words over U by the reversed rank
    of their first pair, top - j for the pair order[j]; rows collects the
    row of every up-set (see _word_table).
    """
    top = len(order) - 1
    pairs = [[] for _ in range(P.p + 1)]
    for j, (k, x) in enumerate(order):
        pairs[x].append((top - j, 1 << bits if k else 1))
    return _word_table(P, _cover_masks(P)[1], pairs, bits, rows=rows)


def _parent_tables(P, rho):
    """What _child_eulerian needs of P, s = rho + 1, for every child that
    _sign_ranked_levels grows from (P, rho).

    A linear extension of a child is a word over a down-set D of P, then
    z, then a word over the up-set P - D.  So the tables are the rows F[D]
    of eulerian_polynomial's DP (words over D by the rank of their last
    pair, no end charge) and B[P - D] of _suffix_table's, per down-set D,
    split at every rank i into the packed polynomials the step into and
    out of z makes of them: F_lo + t F_hi and t B_lo + B_hi, lo summing
    the ranks below i.  The empty prefix weighs 1; D = P goes last, with
    no suffix.  z has s(z) = rho(z) + 1 <= p + 1 colors, so the bits hold
    every coefficient of a child, at most (p + 1)! prod(s) (p + 1).
    """
    s = tuple(v + 1 for v in rho)
    order = _pairs_by_ratio(s, 0)
    bits = (factorial(P.p + 1) * prod(s) * (P.p + 1)).bit_length()
    fwd, bwd = {}, {}
    if P.p:
        pairs = [[] for _ in range(P.p + 1)]
        for j, (k, x) in enumerate(order):
            pairs[x].append((j, 1))
        _word_table(P, _cover_masks(P)[0], pairs, bits, rows=fwd)
        _suffix_table(P, order, bits, rows=bwd)

    def split(row, low):
        lo = list(itertools.accumulate(row, initial=0))
        return [(a << low) + (lo[-1] - a << bits - low) for a in lo]

    full = (1 << P.p) - 1
    joins = [(D, split(fwd[D], 0) if D else [1] * (len(order) + 1),
              split(bwd[full ^ D][::-1], bits))
             for D in (0, *fwd) if D != full]
    last = split(fwd[full], 0) if P.p else [1]
    return order, s, bits, joins, last


def _child_eulerian(tables, ideal, l, v):
    """eulerian_polynomial of the child of _parent_tables' poset whose z
    has label l, s(z) = v colors and the down-set ideal (in the parent's
    labels) below it: Stanley's fundamental lemma split at z.

    With color c, z ranks after the i parent pairs of smaller ratio, or of
    the same ratio and a smaller label (the l - 1 pairs (0, x), x < l,
    when c = 0), and steps down from each later rank and to each earlier
    one.  So z joins every down-set D that holds ideal as F_lo + t F_hi
    times t B_lo + B_hi, split at i; with D = P the word ends in z,
    charged a descent when c > 0.
    """
    order, s, bits, joins, last = tables
    chosen = [(head, tail) for D, head, tail in joins if D & ideal == ideal]
    total = 0
    for c in range(v):
        i = (sum((k * v, x) < (c * s[x - 1], l) for k, x in order) if c
             else l - 1)
        for head, tail in chosen:
            total += head[i] * tail[i]
        total += last[i] << bits if c else last[i]
    return _unpack(total, bits)
