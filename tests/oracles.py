"""Slow reference implementations used to cross-check the fast paths.

Everything here favors obviousness over speed: boxes are enumerated in full
and filtered with Fraction comparisons over every strict relation of the
order (not just the covers), descent sets are recomputed with exact
division, Eulerian polynomials, plain or color-weighted, come from walking
every colored extension, level counts from a depth-first walk over the
points, sign-ranked posets from filtering every labeled poset, classical
Eulerian numbers from counting descents of uncolored permutations, and
truncated series arithmetic on exponent tuples.
"""

from fractions import Fraction
from itertools import permutations, product

from hypothesis import strategies as st

from lhall import (LabeledPoset, from_relations, linear_extensions,
                   make_antichain, sign_rank)
from lhall.posets import _bits


def strict_pairs(P):
    """All (x, y) with x strictly below y, straight from the closure."""
    return [(x, y) for x in P.elements for y in P.elements
            if x != y and P.less(x, y)]


def is_point_frac(P, s, f):
    """The partition conditions, checked with Fractions over the closure."""
    for x, y in strict_pairs(P):
        a = Fraction(f[x - 1], s[x - 1])
        b = Fraction(f[y - 1], s[y - 1])
        if a > b or (a == b and x > y):
            return False
    return True


def box_points(P, s, lo, hi):
    """Partition points with lo[x] <= f(x) <= hi[x], by exhaustive filtering."""
    ranges = [range(lo[i], hi[i] + 1) for i in range(P.p)]
    return [f for f in product(*ranges) if is_point_frac(P, s, f)]


def region_points(P, s, n, strict=False, positive=False):
    """The level-n regions, by exhaustive filtering with exact division."""
    lo = [1 if positive else 0] * P.p
    hi = [n * s[i] - (1 if strict else 0) for i in range(P.p)]
    return box_points(P, s, lo, hi)


def descent_sets_frac(pi, colors, s):
    """(d1, d2, d3, d4, d) recomputed from the ratio definitions."""
    p = len(pi)

    def ratio(x, shift=0):
        return Fraction(colors[x - 1] + shift, s[x - 1])

    d1, d3 = set(), set()
    for i in range(1, p):
        a, b = pi[i - 1], pi[i]
        if ratio(a) > ratio(b) or (ratio(a) == ratio(b) and a > b):
            d1.add(i)
        if ratio(a, 1) > ratio(b, 1) or (ratio(a, 1) == ratio(b, 1) and a > b):
            d3.add(i)
    d2 = d1 | ({0} if colors[pi[0] - 1] == 0 else set())
    last = {p} if p and colors[pi[-1] - 1] > 0 else set()
    return d1, d2, d3, d2 | last, d1 | last


def _descent_number(pi, spos, rpos):
    """|D| of the colored word pi whose i-th letter has color rpos[i]."""
    p = len(pi)
    d = 0
    for i in range(p - 1):
        lhs = rpos[i] * spos[i + 1]
        rhs = rpos[i + 1] * spos[i]
        if lhs > rhs or (pi[i] > pi[i + 1] and lhs == rhs):
            d += 1
    return d + (1 if p and rpos[-1] else 0)


def _colored_words(P, s):
    """(pi, colors by position, |D|) over every colored extension of (P, s)."""
    for pi in linear_extensions(P):
        spos = [s[x - 1] for x in pi]
        for rpos in product(*[range(v) for v in spos]):
            yield pi, rpos, _descent_number(pi, spos, rpos)


def eulerian_by_extensions(P, s):
    """Descent-number coefficients, one colored extension at a time."""
    hist = [0] * (P.p + 1)
    for _, _, d in _colored_words(P, s):
        hist[d] += 1
    return hist


def refined_by_extensions(P, s, order):
    """Descent-number coefficients split by the first pair (r(pi_1), pi_1)."""
    buckets = {g: [0] * (P.p + 1) for g in order}
    for pi, rpos, d in _colored_words(P, s):
        if pi:
            buckets[(rpos[0], pi[0])][d] += 1
    return buckets


def kn_by_extensions(k, p, q_values):
    """Descent-number coefficients over the k-colored permutations of [p],
    each weighted by the product of q_x^(color of x)."""
    coeffs = [Fraction(0)] * (p + 1)
    for pi, rpos, d in _colored_words(make_antichain(p), (k,) * p):
        w = Fraction(1)
        for x, r in zip(pi, rpos):
            w *= Fraction(q_values[x - 1]) ** r
        coeffs[d] += w
    return coeffs


def all_labeled_posets(p):
    """Yield every partial order on {1, ..., p}, each exactly once.

    Element k is attached to each poset on {1, ..., k-1} by choosing the set
    of elements below k (a down set) and above k (an up set) with every
    member of the first related to every member of the second.  Distinct
    choices give distinct posets, so nothing needs deduplication.  The counts
    for p = 0, 1, 2, 3, 4, 5 are 1, 1, 3, 19, 219, 4231.
    """
    states = [()]  # tuples of strictly-above masks, one per element
    for k in range(1, p + 1):
        n = k - 1
        full = (1 << n) - 1
        nxt = []
        for up in states:
            down = [0] * n
            for x in range(1, n + 1):
                for y in _bits(up[x - 1]):
                    down[y - 1] |= 1 << (x - 1)
            downsets = [S for S in range(full + 1)
                        if all(down[x - 1] & ~S == 0 for x in _bits(S))]
            upsets = [S for S in range(full + 1)
                      if all(up[x - 1] & ~S == 0 for x in _bits(S))]
            bit_k = 1 << (k - 1)
            for B in downsets:
                for A in upsets:
                    if B & A:
                        continue
                    if any(A & ~up[b - 1] for b in _bits(B)):
                        continue
                    new_up = tuple(
                        (up[x - 1] | bit_k) if B >> (x - 1) & 1 else up[x - 1]
                        for x in range(1, n + 1)) + (A,)
                    nxt.append(new_up)
        states = nxt
    for up in states:
        covers = set()
        for x in range(1, p + 1):
            for y in _bits(up[x - 1]):
                if not any(up[z - 1] >> (y - 1) & 1 for z in _bits(up[x - 1])):
                    covers.add((x, y))
        yield LabeledPoset(p, frozenset(covers))


def sign_ranked_corpus(pmax):
    """All (P, rho) with 1 <= p <= pmax, P sign-ranked and rho nonnegative,
    by filtering every labeled poset through sign_rank."""
    out = []
    for p in range(1, pmax + 1):
        for P in all_labeled_posets(p):
            info = sign_rank(P)
            if info.ranked and all(v >= 0 for v in info.rho):
                out.append((P, info.rho))
    return out


def _ceil_div(a, b):
    return -((-a) // b)


def ehrhart_by_walk(P, s, nmax):
    """Level counts from a depth-first walk over the points.

    Elements are assigned in topological order, so every cover constraint
    from an assigned element is a lower bound; the prefix carries the least
    level it fits under, and the last element adds a closed-form count per
    level.
    """
    p = P.p
    if p == 0:
        return [1] * (nmax + 1)
    counts = [0] * (nmax + 1)
    order = P._topo
    pos = {x: i for i, x in enumerate(order)}
    lower_srcs = [[] for _ in range(p)]
    for u, v in P.covers:
        lower_srcs[pos[v]].append((u, u < v))  # weak when labels ascend
    f = [0] * (p + 1)

    def rec(i, m_pref):
        x = order[i]
        sx = s[x - 1]
        a = 0
        for u, weak in lower_srcs[i]:
            v = _ceil_div(f[u] * sx, s[u - 1]) if weak else f[u] * sx // s[u - 1] + 1
            a = max(a, v)
        if i == p - 1:
            for n in range(max(m_pref, _ceil_div(a, sx)), nmax + 1):
                counts[n] += n * sx - a + 1
            return
        for val in range(a, nmax * sx + 1):
            m2 = max(m_pref, _ceil_div(val, sx))
            if m2 > nmax:
                break
            f[x] = val
            rec(i + 1, m2)

    rec(0, 0)
    return counts


def classical_eulerian(p):
    """Descent-count coefficients over all permutations of 1..p."""
    counts = [0] * max(p, 1)
    for pi in permutations(range(1, p + 1)):
        counts[sum(1 for i in range(p - 1) if pi[i] > pi[i + 1])] += 1
    return counts



def _in_caps(key, caps):
    return all(e <= c for e, c in zip(key, caps))


def series_mul(a, b, caps):
    """Product of two {exponent tuple: coefficient} series, cut at caps."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            if _in_caps(key, caps):
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def series_geometric(step, caps):
    """1 + m + m^2 + ... for the exponent tuple m, out to the caps."""
    terms = {}
    power = (0,) * len(caps)
    while _in_caps(power, caps):
        terms[power] = 1
        power = tuple(a + b for a, b in zip(power, step))
    return terms


def series_first_mismatch(a, b):
    """(exponent tuple, coefficient in a, in b) at the smallest tuple where
    the two series differ, or None."""
    for key in sorted(set(a) | set(b)):
        if a.get(key, 0) != b.get(key, 0):
            return key, a.get(key, 0), b.get(key, 0)
    return None

@st.composite
def posets(draw, min_p=0, max_p=5):
    """Random labeled posets: forward edges along a random topological order."""
    p = draw(st.integers(min_p, max_p))
    order = draw(st.permutations(tuple(range(1, p + 1))))
    rels = [(order[i], order[j])
            for i in range(p) for j in range(i + 1, p)
            if draw(st.booleans())]
    return from_relations(p, rels)


@st.composite
def smaps(draw, P, max_s=3):
    return tuple(draw(st.integers(1, max_s)) for _ in range(P.p))


@st.composite
def smaps_within(draw, P, budget, factor=lambda v: v, max_s=4):
    """Color counts up to max_s with prod factor(s(x)) kept near budget.

    Each value is drawn no larger than what the budget left still admits
    (but at least 1), so the slow oracles stay affordable on larger posets.
    """
    s = []
    for _ in range(P.p):
        top = max([1] + [v for v in range(1, max_s + 1) if factor(v) <= budget])
        v = draw(st.integers(1, top))
        budget //= factor(v)
        s.append(v)
    return tuple(s)


@st.composite
def colored_perms(draw, min_p=1, max_p=6, max_s=4):
    """A permutation with per-element color counts and admissible colors."""
    p = draw(st.integers(min_p, max_p))
    pi = tuple(draw(st.permutations(tuple(range(1, p + 1)))))
    s = tuple(draw(st.integers(1, max_s)) for _ in range(p))
    colors = tuple(draw(st.integers(0, s[x] - 1)) for x in range(p))
    return pi, colors, s
