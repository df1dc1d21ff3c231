"""Finite labeled posets on the ground set {1, ..., p}.

The ground set is always an initial segment of the positive integers, and the
integer value of an element doubles as its label: a cover x -< y with x > y is
the "strict" kind in everything built on top (partitions, descents), while
x < y gives the weak kind.  ``epsilon`` pins that convention down in one place.
"""

from __future__ import annotations

import itertools
import os
from functools import cached_property
from math import prod
from operator import mul

from .errors import InvalidInputError, ResourceLimitError, _Frozen

DEFAULT_COLORED_CAP = 5_000_000
DEFAULT_DP_CAP = 4_000_000
DEFAULT_POSET_ENUM_CAP = 6


def epsilon(x: int, y: int) -> int:
    """Sign of a cover x -< y: +1 when the labels ascend, -1 when they descend."""
    if x == y:
        raise InvalidInputError("epsilon needs two distinct elements")
    return 1 if x < y else -1


def _bits(mask):
    """Yield the elements packed into a bitmask (bit k-1 stands for element k)."""
    x = 1
    while mask:
        if mask & 1:
            yield x
        mask >>= 1
        x += 1


def _toposort(p, covers):
    """A topological order that depends only on the set of covers.

    Ready elements wait on a stack that starts with the minimal elements,
    the smallest on top, and each element pushes the successors it
    releases in label order; _chain_bound and sign_rank read this order.
    """
    succ = [[] for _ in range(p + 1)]
    indeg = [0] * (p + 1)
    for x, y in sorted(covers):
        succ[x].append(y)
        indeg[y] += 1
    ready = [x for x in range(p, 0, -1) if indeg[x] == 0]
    out = []
    while ready:
        x = ready.pop()
        out.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                ready.append(y)
    if len(out) != p:
        raise InvalidInputError("cover relations contain a cycle")
    return out


def _above_masks(p, covers, topo):
    succ = [[] for _ in range(p + 1)]
    for x, y in covers:
        succ[x].append(y)
    above = [0] * (p + 1)
    for x in reversed(topo):
        m = 0
        for y in succ[x]:
            m |= (1 << (y - 1)) | above[y]
        above[x] = m
    return above


class LabeledPoset(_Frozen):
    """Partial order on {1, ..., p}, stored by its cover pairs.

    ``covers`` holds pairs (x, y) meaning x -< y: x strictly below y with
    nothing in between.  Construction checks that the pairs are in range,
    acyclic, and irredundant (each pair really is a cover), so two equal
    posets always compare equal.
    """

    __match_args__ = ("p", "covers")

    def __init__(self, p, covers=frozenset()):
        if not isinstance(p, int) or isinstance(p, bool) or p < 0:
            raise InvalidInputError("p must be a nonnegative integer")
        pairs = set()
        for pair in covers:
            try:
                x, y = pair
            except (TypeError, ValueError):
                raise InvalidInputError(f"cover {pair!r} is not a pair") from None
            for v in (x, y):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InvalidInputError(f"cover {pair!r} must contain integers")
            if not (1 <= x <= p and 1 <= y <= p):
                raise InvalidInputError(
                    f"cover ({x}, {y}) falls outside {{1, ..., {p}}}")
            if x == y:
                raise InvalidInputError(f"cover ({x}, {y}) is reflexive")
            pairs.add((x, y))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "covers", frozenset(pairs))
        topo = _toposort(p, pairs)
        above = _above_masks(p, pairs, topo)
        succ = [[] for _ in range(p + 1)]
        for x, y in pairs:
            succ[x].append(y)
        for x, y in pairs:
            for z in succ[x]:
                if z != y and above[z] >> (y - 1) & 1:
                    raise InvalidInputError(
                        f"({x}, {y}) is implied by other covers; pass cover pairs only")
        object.__setattr__(self, "_topo", tuple(topo))
        object.__setattr__(self, "_above", tuple(above))

    @cached_property
    def _topo(self):
        """_toposort's order, for posets built without __init__."""
        return tuple(_toposort(self.p, self.covers))

    def __repr__(self):
        return f"LabeledPoset({self.p}, {sorted(self.covers)})"

    @property
    def elements(self):
        return range(1, self.p + 1)

    def minimal_elements(self):
        tops = {y for _, y in self.covers}
        return tuple(x for x in self.elements if x not in tops)

    def maximal_elements(self):
        bottoms = {x for x, _ in self.covers}
        return tuple(x for x in self.elements if x not in bottoms)

    def dual(self):
        """The same order with labels mirrored through x -> p + 1 - x.

        x -< y turns into (p+1-x) -< (p+1-y), so every cover keeps its
        direction while its sign flips: weak constraints trade places with
        strict ones in the partition regions.
        """
        n = self.p + 1
        return LabeledPoset(self.p, frozenset((n - x, n - y) for x, y in self.covers))


def make_chain(labels):
    """Chain labels[0] -< labels[1] -< ... where labels is a permutation of 1..p."""
    labels = tuple(labels)
    p = len(labels)
    if sorted(labels) != list(range(1, p + 1)):
        raise InvalidInputError("labels must be a permutation of 1..p")
    return LabeledPoset(p, frozenset(zip(labels, labels[1:])))


def make_antichain(p):
    """Antichain on {1, ..., p}: no relations at all."""
    return LabeledPoset(p, frozenset())


def ordinal_sum_of_antichains(sizes):
    """Antichain blocks stacked bottom to top; labels run in block order.

    Every element of a block covers every element of the block below it,
    and lies below every label past the end of its own block.  Only the
    sizes are checked: covers between neighbouring blocks are in range,
    acyclic and irredundant by construction, so the poset is built by
    _trusted_poset from them and those strictly-above masks.
    """
    covers, ends = [], []
    block = range(1, 1)
    for a in sizes:
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise InvalidInputError("block sizes must be positive integers")
        below, block = block, range(block.stop, block.stop + a)
        covers += [(x, y) for x in below for y in block]
        ends += [block.stop] * a
    p = block.stop - 1
    full = (1 << p) - 1
    return _trusted_poset(p, [full >> (e - 1) << (e - 1) for e in ends],
                          covers)


def _cap(value, env, default):
    if value is not None:
        return value
    raw = os.environ.get(env)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"{env}={raw!r} is not an integer") from None


def _check_dp(P, steps, max_steps):
    """Refuse a down-set DP before it starts when it would be too large.

    The estimate is a bound on the down-sets of P times the number of sweep
    steps, a bound on the transitions the DP makes; the cap is max_steps,
    else the LHALL_MAX_DP environment variable, else DEFAULT_DP_CAP.  The
    bound is 2^p, and only when that is too large is it tightened to
    _chain_bound(P), which is never larger.
    """
    limit = _cap(max_steps, "LHALL_MAX_DP", DEFAULT_DP_CAP)
    if (1 << P.p) * steps <= limit:
        return
    downsets = _chain_bound(P)
    estimate = downsets * steps
    if estimate > limit:
        raise ResourceLimitError(
            f"down-set DP of about {estimate} transitions (at most {downsets} "
            f"down-sets x {steps} steps) exceeds the cap {limit}; raise "
            f"LHALL_MAX_DP")


def _chain_bound(P):
    """prod(|C| + 1) over a greedy partition of P into chains C.

    A down-set meets each chain in one of its |C| + 1 initial segments, so
    this bounds the down-sets; it is at most 2^p, with equality only when
    every chain is a single element.  Elements join, in topological order,
    the first chain whose top lies below them.
    """
    tops, sizes = [], []
    for x in P._topo:
        for i, top in enumerate(tops):
            if P._above[top] >> (x - 1) & 1:
                tops[i] = x
                sizes[i] += 1
                break
        else:
            tops.append(x)
            sizes.append(1)
    return prod(size + 1 for size in sizes)


def _cover_masks(P):
    """Bitmasks of the lower and of the upper covers of each element."""
    lower = [0] * (P.p + 1)
    upper = [0] * (P.p + 1)
    for x, y in P.covers:
        lower[y] |= 1 << (x - 1)
        upper[x] |= 1 << (y - 1)
    return lower, upper


def linear_extensions(P):
    """The linear extensions of P as tuples, in lexicographic order.

    pi is a linear extension when pi_i -< pi_j in P forces i < j.  As the
    s = 1 case of colored_extensions, the walk is refused up front when e(P)
    exceeds LHALL_MAX_COLORED (default DEFAULT_COLORED_CAP).
    """
    _check_walk(P, 1, None)
    return _walk_extensions(P)


def _check_walk(P, colorings, max_count):
    """Refuse a walk over e(P) * colorings colored extensions above the cap
    max_count, else LHALL_MAX_COLORED, else DEFAULT_COLORED_CAP."""
    limit = _cap(max_count, "LHALL_MAX_COLORED", DEFAULT_COLORED_CAP)
    total = count_linear_extensions(P) * colorings
    if total > limit:
        raise ResourceLimitError(
            f"{total} colored extensions exceed the cap {limit}; "
            "raise LHALL_MAX_COLORED")


def _walk_extensions(P):
    need, full = _cover_masks(P)[0], (1 << P.p) - 1

    def rec(placed, prefix):
        if placed == full:
            yield prefix
        for x in P.elements:
            bit = 1 << (x - 1)
            if not (placed & bit or need[x] & ~placed):
                yield from rec(placed | bit, prefix + (x,))

    return rec(0, ())


def count_linear_extensions(P, max_steps=None):
    """Number of linear extensions: _word_table with one pair per element
    and bits = 0, which evaluates at t = 1.  Capped like every down-set DP
    (_check_dp), with p sweep steps.
    """
    _check_dp(P, P.p, max_steps)
    if not P.p:
        return 1
    return sum(_word_table(P, _cover_masks(P)[0], P.elements, 0))


def _word_table(P, need, xs, bits, first=None, weight=None, rows=None):
    """Weights of the words that place every element of P, by last pair.

    A word lists each element once, each with one of its pairs; x may come
    only after every element of the bitmask need[x].  The pair of rank j
    belongs to the element xs[j], and a word opened by it weighs first[j]
    (1 when first is None).  Every later step to a lower rank multiplies
    the weight by t, and each pair of rank j by weight[j] when given.
    Weights are polynomials in t packed into one integer, `bits` bits per
    coefficient, so t is a shift.  The DP runs one layer of placed
    down-sets at a time: a row holds the weight per rank of the last pair,
    and its prefix sums split the weight of a new pair into the part from
    lower ranks (no step down) and the rest (times t).  Each element's
    bit, need mask and ranks are found once per call; rank j of the row of
    T comes from T without xs[j] alone, so it is set, not summed.  A row
    multiplies in the weight of its last pair only when it is read, once
    per row rather than once per step.  When given, the dict rows collects
    the rows of every layer by down-set, without the weight of their last
    pair.
    """
    size = len(xs)
    ranks = [[] for _ in range(P.p + 1)]
    for j, x in enumerate(xs):
        ranks[x].append(j)
    elems = [(1 << (x - 1), need[x], ranks[x]) for x in P.elements]
    layer = {}
    for bit, need_x, ranks_x in elems:
        if not need_x:
            row = layer[bit] = [0] * size
            for j in ranks_x:
                row[j] = 1 if first is None else first[j]
    for _ in range(P.p - 1):
        if rows is not None:
            rows.update(layer)
        nxt = {}
        for S, row in layer.items():
            if weight is not None:
                row = list(map(mul, row, weight))
            lower = list(itertools.accumulate(row, initial=0))
            total = lower[-1]
            for bit, need_x, ranks_x in elems:
                if S & bit or need_x & ~S:
                    continue
                target = nxt.get(S | bit)
                if target is None:
                    target = nxt[S | bit] = [0] * size
                for j in ranks_x:
                    lo = lower[j]
                    target[j] = lo + ((total - lo) << bits)
        layer = nxt
    if rows is not None:
        rows.update(layer)
    (row,) = layer.values()
    if weight is not None:
        row = list(map(mul, row, weight))
    return row


class RankInfo(_Frozen):
    """Outcome of the rank computation.

    ranked   -- the cover constraints rho(y) - rho(x) = epsilon(x, y), with
                rho = 0 on minimal elements, admit a solution
    rho      -- that solution as a tuple indexed by element - 1, or None
    graded   -- ranked, and every maximal element has the same rho
    rank     -- the common value over maximal elements when graded, else None
    conflict -- two covers forcing different values when not ranked, else None
    """

    __match_args__ = ("ranked", "rho", "graded", "rank", "conflict")

    def __init__(self, ranked, rho, graded, rank, conflict):
        vars(self).update(ranked=ranked, rho=rho, graded=graded, rank=rank,
                          conflict=conflict)


def sign_rank(P):
    """Solve for the rank function rho, if it exists.

    rho is pinned to 0 on minimal elements and forced along covers: an
    ascending cover raises it by one, a descending cover lowers it by one.
    Processing elements in topological order either determines rho everywhere
    or exposes two lower covers that disagree.
    """
    lower = {y: [] for y in P.elements}
    for x, y in P.covers:
        lower[y].append(x)
    rho = {}
    for y in P._topo:
        if not lower[y]:
            rho[y] = 0
            continue
        vals = {x: rho[x] + epsilon(x, y) for x in sorted(lower[y])}
        first = next(iter(vals.items()))
        for x, v in vals.items():
            if v != first[1]:
                return RankInfo(False, None, False, None, ((first[0], y), (x, y)))
        rho[y] = first[1]
    maxima = P.maximal_elements()
    ranks = {rho[m] for m in maxima} if maxima else {0}
    graded = len(ranks) == 1
    rank = ranks.pop() if graded else None
    return RankInfo(True, tuple(rho[x] for x in P.elements), graded, rank, None)


def sign_ranked_posets(pmax, max_p=None):
    """Yield every (P, rho) with 1 <= p <= pmax, P sign-ranked, rho >= 0.

    rho is the rank function of sign_rank, a tuple indexed by element - 1.
    Posets come level by level, in order of increasing p, each exactly
    once; the counts for p = 1, ..., 6 are 1, 2, 9, 68, 796 and 13,444.
    Refused before anything is yielded when pmax exceeds max_p, else
    LHALL_MAX_POSET_ENUM, else DEFAULT_POSET_ENUM_CAP.
    """
    _check_enum(pmax, max_p)
    return (child[:2] for child in _sign_ranked_levels(pmax))


def _check_enum(pmax, max_p=None):
    """sign_ranked_posets' checks of pmax and its cap."""
    if not isinstance(pmax, int) or isinstance(pmax, bool) or pmax < 0:
        raise InvalidInputError("pmax must be a nonnegative integer")
    limit = _cap(max_p, "LHALL_MAX_POSET_ENUM", DEFAULT_POSET_ENUM_CAP)
    if pmax > limit:
        raise ResourceLimitError(f"p = {pmax} exceeds the poset enumeration cap "
                                 f"{limit}; raise LHALL_MAX_POSET_ENUM")


def _sign_ranked_levels(pmax):
    """Grow each level by canonical augmentation of the one below.

    An order ideal of a sign-ranked poset is sign-ranked with the same rho,
    since its covers are covers of the whole.  So every poset on n + 1
    elements comes from exactly one on n, the one left when its
    largest-labeled maximal element z is removed and the labels above z
    close up.  Conversely z is added above an antichain A of a level-n
    poset with label l, labels at or above l moving up by one (which keeps
    the sign of every cover), and kept only when it is the largest-labeled
    maximal element and every rho(a) + epsilon(a, z) over A agrees on a
    value >= 0, which is rho(z); rho(z) = 0 when A is empty.  Yields
    (P, rho, parent, ideal, l): parent is the (P, rho) pair z was added to,
    the same object for all its children, and ideal the bitmask of the
    elements below z, in the parent's labels.  Only the last level is
    never stored.  Each poset is valid by construction, so it is built
    without the checks of LabeledPoset.
    """
    level = [(_trusted_poset(0, (), ()), ())]
    for n in range(pmax):
        nxt = []
        for parent in level:
            for P, rho, ideal, l in _augmentations(*parent):
                if n + 1 < pmax:
                    nxt.append((P, rho))
                yield P, rho, parent, ideal, l
        level = nxt


def _trusted_poset(p, up, covers):
    """The LabeledPoset with these cover pairs and strictly-above masks
    (up[x - 1] for element x), which must be valid: nothing is checked.

    For posets valid by construction, those of _sign_ranked_levels and of
    ordinal_sum_of_antichains.  _topo is left to its first read, which
    takes it from _toposort, the order LabeledPoset would store.
    """
    P = object.__new__(LabeledPoset)
    object.__setattr__(P, "p", p)
    object.__setattr__(P, "covers", frozenset(covers))
    object.__setattr__(P, "_above", (0, *up))
    return P


def _augmentations(P, rho):
    """The canonical children of P, as (child, rho, ideal, l)."""
    n, up = P.p, P._above[1:]
    down = [0] * n
    for x in range(n):
        for y in _bits(up[x]):
            down[y - 1] |= 1 << x
    antichains = [0]
    for x in range(n):
        related = up[x] | down[x]
        antichains += [A | 1 << x for A in antichains if not A & related]
    maxima = sum(1 << x for x in range(n) if not up[x])
    for A in antichains:
        elems = list(_bits(A))
        ideal = A | sum(1 << x for x in range(n) if up[x] & A)
        # z must outrank every maximal element it is not placed above
        for l in range((maxima & ~A).bit_length() + 1, n + 2):
            ranks = {rho[a - 1] + (1 if a < l else -1) for a in elems}
            if len(ranks) > 1:
                continue
            r = ranks.pop() if ranks else 0
            if r < 0:
                continue
            low = (1 << (l - 1)) - 1
            z = 1 << (l - 1)
            new_up = [(m & low) | (m & ~low) << 1 for m in up]
            for x in _bits(ideal):
                new_up[x - 1] |= z
            new_up.insert(l - 1, 0)
            new_covers = [(x + (x >= l), y + (y >= l)) for x, y in P.covers]
            new_covers += [(a + (a >= l), l) for a in elems]
            yield (_trusted_poset(n + 1, new_up, new_covers),
                   rho[:l - 1] + (r,) + rho[l - 1:], ideal, l)


def poset_to_document(P):
    """JSON-ready dict with deterministic key and cover ordering."""
    return {"p": P.p, "covers": [list(c) for c in sorted(P.covers)]}


def poset_from_document(doc):
    try:
        p = doc["p"]
        covers = doc["covers"]
    except (KeyError, TypeError):
        raise InvalidInputError("poset document needs 'p' and 'covers'") from None
    if not isinstance(covers, (list, tuple)) or not all(
            isinstance(c, (list, tuple)) and len(c) == 2
            and all(isinstance(v, int) for v in c) for c in covers):
        raise InvalidInputError("'covers' must be a list of [x, y] integer pairs")
    return LabeledPoset(p, frozenset(tuple(c) for c in covers))


def validate_smap(P, s):
    """Normalize a color-count map to a tuple indexed by element - 1.

    Accepts a sequence of length p or a dict keyed by the elements; every
    value must be a positive integer.
    """
    if isinstance(s, dict):
        if set(s) != set(P.elements):
            raise InvalidInputError("s must assign a value to every element")
        seq = [s[x] for x in P.elements]
    else:
        seq = list(s)
        if len(seq) != P.p:
            raise InvalidInputError(f"s has {len(seq)} entries for p = {P.p}")
    for v in seq:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvalidInputError(f"s value {v!r} is not a positive integer")
    return tuple(seq)
