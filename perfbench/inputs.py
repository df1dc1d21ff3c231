"""Seeded case streams for the library workloads, built without lhall.

Everything here is the benchmark's own combinatorics: labeled posets are
enumerated from their order relations, linear extensions are counted over
down-sets, and compositions are listed directly.  A change to the program
therefore never changes which cases a seed selects.

A stream is a sequence of blocks.  Each block takes one case from every
stratum of the workload's universe, in a seeded order, so every block has
the same mix and the mix stays the same along the whole stream.  Strata
are listed from the cheapest to the dearest.  Within a
stratum no case comes twice until the stratum is used up; only then does
the stratum start a fresh pass.
"""

from __future__ import annotations

import itertools
import random
from math import factorial, prod

COLOR_VALUES = (1, 2, 3)


def _bits(mask):
    x = 1
    while mask:
        if mask & 1:
            yield x
        mask >>= 1
        x += 1


def labeled_posets(p):
    """Every partial order on {1, ..., p}, as a tuple of strictly-above masks.

    Element k joins a poset on {1, ..., k-1} with a set below it that is
    closed downward and a set above it that is closed upward, where every
    element of the first already lies below every element of the second.
    """
    orders = [()]
    for k in range(1, p + 1):
        grown = []
        for up in orders:
            n = k - 1
            below = [0] * n
            for x in range(1, n + 1):
                for y in _bits(up[x - 1]):
                    below[y - 1] |= 1 << (x - 1)
            subsets = range(1 << n)
            downs = [S for S in subsets
                     if all(below[x - 1] & ~S == 0 for x in _bits(S))]
            ups = [S for S in subsets
                   if all(up[x - 1] & ~S == 0 for x in _bits(S))]
            kbit = 1 << (k - 1)
            for B in downs:
                for A in ups:
                    if B & A or any(A & ~up[b - 1] for b in _bits(B)):
                        continue
                    grown.append(tuple(up[x - 1] | kbit if B >> (x - 1) & 1
                                       else up[x - 1]
                                       for x in range(1, k)) + (A,))
        orders = grown
    return orders


def covers_of(up):
    """Cover pairs (x, y), x -< y, of the order given by strictly-above masks."""
    return tuple(sorted(
        (x, y) for x in range(1, len(up) + 1) for y in _bits(up[x - 1])
        if not any(up[z - 1] >> (y - 1) & 1 for z in _bits(up[x - 1]))))


def closure_of(p, covers):
    """Strictly-above masks of the order generated by the cover pairs."""
    up = [0] * p
    changed = True
    for x, y in covers:
        up[x - 1] |= 1 << (y - 1)
    while changed:
        changed = False
        for x in range(p):
            grown = up[x]
            for y in _bits(up[x]):
                grown |= up[y - 1]
            if grown != up[x]:
                up[x] = grown
                changed = True
    return up


def count_extensions(p, covers):
    """e(P): orderings of {1..p} with every element after all below it."""
    up = closure_of(p, covers)
    ways = [0] * (1 << p)
    ways[0] = 1
    for S in range(1, 1 << p):
        # x may come last in S when nothing in S lies above it
        ways[S] = sum(ways[S ^ (1 << (x - 1))] for x in _bits(S)
                      if up[x - 1] & S == 0)
    return ways[-1]


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def stacked_weight(sizes, block_s):
    """Colored extensions of a stacked antichain: prod sizes_i! * s_i^size_i."""
    return prod(factorial(k) * v ** k for k, v in zip(sizes, block_s))


class Stream:
    """Blocks of one case per stratum; a stratum is (size, index -> case).

    A stratum is drawn uniformly from the indices not yet drawn in its
    current pass, so no case comes twice until the stratum is used up.
    """

    def __init__(self, strata, seed):
        self.rng = random.Random(seed)
        self.strata = strata
        self.drawn = [set() for _ in strata]

    def _draw(self, h):
        size, drawn = self.strata[h][0], self.drawn[h]
        if len(drawn) == size:
            drawn.clear()
        while True:
            i = self.rng.randrange(size)
            if i not in drawn:
                drawn.add(i)
                return i

    def block(self):
        """One case from every stratum, in the order of the strata."""
        return [case(self._draw(h)) for h, (_, case) in enumerate(self.strata)]

    def blocks(self):
        while True:
            block = self.block()
            self.rng.shuffle(block)
            yield block


def _equal_strata(cases, count):
    """Cut a list sorted by expected cost into count nearly equal slices."""
    cuts = [len(cases) * h // count for h in range(count + 1)]
    return [cases[a:b] for a, b in zip(cuts, cuts[1:])]


def _list_stratum(cases):
    return len(cases), cases.__getitem__


# --- eulerian-ehrhart -------------------------------------------------------

EULERIAN_SIZES = (3, 4, 5)
EULERIAN_BINS = 3  # per p: poset slices by e(P) times coloring slices by s


def eulerian_stream(seed):
    """Cases (p, covers, s) with p uniform on {3, 4, 5}.

    Within p the case is uniform over the labeled posets on p elements and
    s in {1, 2, 3}^p.  A stratum pairs a slice of the posets, sorted by
    e(P), with a slice of the colorings, sorted by prod(s).
    """
    strata = []
    for p in EULERIAN_SIZES:
        posets = sorted((covers_of(up) for up in labeled_posets(p)),
                        key=lambda c, p=p: (count_extensions(p, c), c))
        colorings = sorted(itertools.product(COLOR_VALUES, repeat=p),
                           key=lambda s: (prod(s), s))
        for ps in _equal_strata(posets, EULERIAN_BINS):
            for cs in _equal_strata(colorings, EULERIAN_BINS):
                def case(i, p=p, ps=ps, cs=cs):
                    P, S = divmod(i, len(cs))
                    return p, ps[P], cs[S]

                strata.append((len(ps) * len(cs), case))
    return Stream(strata, seed)


# --- identity-suite ---------------------------------------------------------

SUITE_NAMES = ("F", "F_PLUS", "G", "R1", "R2", "R3", "R4", "RECI", "COR6",
               "EUL2", "UQ", "LHP", "QV")
IDENTITY_MAX_P = 4
IDENTITY_BINS = 8


def identity_pairs():
    """Every (p, covers, s) with 1 <= p <= 4 and s in {1, 2, 3}^p.

    The list holds every CORPUS pair, since the corpus stays inside these
    bounds.  It is sorted by a cost estimate: the colored extensions plus
    the order-cone share of the level-5 box of lattice points, both of
    which the identity checks walk.
    """
    pairs = []
    for p in range(1, IDENTITY_MAX_P + 1):
        for up in labeled_posets(p):
            covers = covers_of(up)
            e = count_extensions(p, covers)
            for s in itertools.product(COLOR_VALUES, repeat=p):
                cost = e * prod(s) + e * prod(5 * v + 1 for v in s) / factorial(p)
                pairs.append((cost, p, covers, s))
    pairs.sort()
    return [pair[1:] for pair in pairs]


def identity_stream(seed):
    """(p, covers, s, identity) cases; a stratum is one identity on one of
    IDENTITY_BINS equal cost slices of the pairs, so every block runs each
    identity on a pair from each slice.  Spreading a pair's identities over
    different blocks keeps one heavy pair from weighing on a whole block.
    """
    strata = []
    for pairs in _equal_strata(identity_pairs(), IDENTITY_BINS):
        for name in SUITE_NAMES:
            strata.append((len(pairs),
                           lambda i, pairs=pairs, name=name: pairs[i] + (name,)))
    return Stream(strata, seed)


# --- stacked-interlacing ----------------------------------------------------

STACKED_MAX_TOTAL = 7
STACKED_MAX_WEIGHT = 20_000
STACKED_STRATA = 8


def stacked_cases():
    """(sizes, block_s) with sum(sizes) <= 7 and weight <= STACKED_MAX_WEIGHT.

    Sorted by weight, the number of colored extensions the case expands.
    """
    cases = [(stacked_weight(sizes, bs), sizes, bs)
             for n in range(1, STACKED_MAX_TOTAL + 1)
             for sizes in compositions(n)
             for bs in itertools.product(COLOR_VALUES, repeat=len(sizes))]
    cases = [c for c in cases if c[0] <= STACKED_MAX_WEIGHT]
    cases.sort()
    return [c[1:] for c in cases]


def stacked_stream(seed):
    strata = _equal_strata(stacked_cases(), STACKED_STRATA)
    return Stream([_list_stratum(cases) for cases in strata], seed)


STREAMS = {"eulerian-ehrhart": eulerian_stream,
           "identity-suite": identity_stream,
           "stacked-interlacing": stacked_stream}
