"""Lattice points of lecture hall cones and the theorems about them.

Points are integer maps f on {1, ..., p} stored as tuples (f(1), ..., f(p)).
Membership in a region is always decided on cross-multiplied integers:
f(x)/s(x) <= f(y)/s(y) turns into f(x) s(y) <= f(y) s(x), strict exactly when
the cover descends in labels.  Checking covers is enough, because along any
saturated chain witnessing x < y in labels some cover must descend.
"""

from __future__ import annotations

from itertools import zip_longest
from math import prod

from .colored import (_child_eulerian, _pairs_by_ratio, _parent_tables,
                      eulerian_polynomial, refined_eulerian)
from .errors import InvalidInputError, ResourceLimitError
from .polys import (Polynomial, compose_linear, gamma_vector, hstar_from_counts,
                    interpolate, is_palindromic)
from .posets import (DEFAULT_DP_CAP, _cap, _check_dp, _check_enum,
                     _cover_masks, _sign_ranked_levels, linear_extensions,
                     make_chain, ordinal_sum_of_antichains, sign_rank,
                     validate_smap)
from .reports import VerificationReport
from .roots import interlacing_failure, is_real_rooted
from .series import Series

DEFAULT_MAX_POINTS = 2_000_000


def _ceil_div(a, b):
    return -((-a) // b)


def _earlier_covers(P):
    """Per element x, the covers that tie x to smaller labels, split into
    the weak lower bounds u -< x and the strict upper bounds x -< u."""
    lower_of = [[] for _ in range(P.p + 1)]
    upper_of = [[] for _ in range(P.p + 1)]
    for u, v in P.covers:
        if u < v:
            lower_of[v].append(u)
        else:
            upper_of[u].append(v)
    return lower_of, upper_of


def enumerate_points(P, s, lo, hi, max_points=None):
    """Yield the (P, s)-partition points f with lo[x] <= f(x) <= hi[x].

    Points come out in lexicographic order of (f(1), ..., f(p)).  Values are
    assigned in label order; a cover toward a smaller label is then always a
    weak lower bound when it goes up in P and a strict upper bound when it
    goes down, and the remaining constraints wait for the later endpoint.
    """
    s = validate_smap(P, s)
    if len(lo) != P.p or len(hi) != P.p:
        raise InvalidInputError("lo and hi must give one bound per element")
    limit = _cap(max_points, "LHALL_MAX_POINTS", DEFAULT_MAX_POINTS)
    p = P.p
    lower_of, upper_of = _earlier_covers(P)
    f = [0] * (p + 1)
    count = 0

    def overflow():
        return ResourceLimitError(
            f"more than {limit} lattice points; raise LHALL_MAX_POINTS")

    def rec(x):
        # the level of the last coordinate yields the points itself
        nonlocal count
        a, b = lo[x - 1], hi[x - 1]
        sx = s[x - 1]
        for u in lower_of[x]:
            v = _ceil_div(f[u] * sx, s[u - 1])
            if v > a:
                a = v
        for u in upper_of[x]:
            v = _ceil_div(f[u] * sx, s[u - 1]) - 1
            if v < b:
                b = v
        if x < p:
            for val in range(a, b + 1):
                f[x] = val
                yield from rec(x + 1)
            return
        head = tuple(f[1:p])
        for val in range(a, b + 1):
            count += 1
            if count > limit:
                raise overflow()
            yield head + (val,)

    if p:
        yield from rec(1)
    elif limit < 1:
        raise overflow()
    else:
        yield ()


def _region_sum(ctx, P, s, lo, hi, exps, strict=False, max_points=None,
                max_steps=None):
    """The lattice side over the (P, s)-partition points of a box, a Series.

    Coordinate j + 1 at value v, 0 <= lo[j] <= v <= hi[j], carries the
    exponents exps(j, v), or None, which drops the point, and a point
    carries their product; points over a cap of ctx drop out.  The side is
    graded exactly when ctx has a variable t, which exps leaves alone: it
    sums t^n times the points of the level-n region, f(x) <= n s(x) (or
    f(x) < n s(x) when strict), and is returned times 1 - t, which holds
    each point once, at t to its entry level: the largest ceil(v / s) over
    its coordinates (v // s + 1 when strict).

    The walk assigns values in label order, as enumerate_points does, but
    carries a layer of frontier states instead of single points: a state
    holds the values of the assigned coordinates that a later cover still
    reads, and maps each packed key << w | running level, w the bit width
    of the t cap, to the number of partial points reaching it.  A value
    whose entry is None or past the t cap, or which takes the running key
    past its caps (the SeriesContext guard test after each addition),
    prunes its whole subtree; points that agree on the frontier and the
    packed sum merge, which is the transfer-matrix method (Stanley, EC1
    4.7).

    Refused up front when the level-n region holding the box, n the least
    level with hi <= n s, has more lattice points than max_points (else
    LHALL_MAX_POINTS); they are counted by ehrhart_counts only when the box
    itself is larger than the cap.
    """
    limit = _cap(max_points, "LHALL_MAX_POINTS", DEFAULT_MAX_POINTS)
    if prod(max(b - a + 1, 0) for a, b in zip(lo, hi)) > limit:
        n = max((_ceil_div(b, v) for b, v in zip(hi, s)), default=0)
        count = ehrhart_counts(P, s, n, max_steps)[n]
        if count > limit:
            raise ResourceLimitError(
                f"{count} lattice points in the level-{n} region exceed the "
                f"cap {limit}; raise LHALL_MAX_POINTS")
    graded = "t" in ctx.index
    capt = ctx.caps[ctx.index["t"]] if graded else 0
    width = capt.bit_length()
    mask = (1 << width) - 1

    def enter(j, v):
        # coordinate j at value v: (key << width, entry level), or None
        m = (v // s[j] + 1 if strict else _ceil_div(v, s[j])) if graded else 0
        e = exps(j, v)
        key = None if e is None or m > capt else ctx.key_of(e)
        return None if key is None else (key << width, m)

    bias, guard = ctx._bias << width, ctx._guard << width
    lower_of, upper_of = _earlier_covers(P)
    last = [0] * (P.p + 1)  # the last coordinate whose bounds read u
    for x in P.elements:
        for u in lower_of[x] + upper_of[x]:
            last[u] = x
    frontier = []
    layer = {(): {0: 1}}
    for x in P.elements:
        at = {u: i for i, u in enumerate(frontier)}
        sx = s[x - 1]
        lows = [(at[u], s[u - 1]) for u in lower_of[x]]
        ups = [(at[u], s[u - 1]) for u in upper_of[x]]
        frontier.append(x)
        keep = [i for i, u in enumerate(frontier) if last[u] > x]
        frontier = [frontier[i] for i in keep]
        entries = [enter(x - 1, v) for v in range(hi[x - 1] + 1)]
        nxt = {}
        for vals, sums in layer.items():
            a, b = lo[x - 1], hi[x - 1]
            for i, su in lows:
                a = max(a, _ceil_div(vals[i] * sx, su))
            for i, su in ups:
                b = min(b, _ceil_div(vals[i] * sx, su) - 1)
            items = sums.items()
            for v in range(a, b + 1):
                entry = entries[v]
                if entry is None:
                    continue
                step, m = entry
                ext = vals + (v,)
                state = tuple([ext[i] for i in keep])
                out = nxt.get(state)
                if out is None:
                    out = nxt[state] = {}
                for key, c in items:
                    key += step
                    if (key + bias) & guard:
                        continue
                    if key & mask < m:
                        key += m - (key & mask)
                    out[key] = out.get(key, 0) + c
        layer = nxt
    terms = layer.get((), {})
    if graded:
        powers = [ctx.key_of({"t": n}) for n in range(capt + 1)]
        terms = {(packed >> width) + powers[packed & mask]: c
                 for packed, c in terms.items()}
    return Series._adopt(ctx, terms)


def partitions_leq(P, s, n, max_points=None):
    """Points of the cone with f(x)/s(x) <= n, i.e. 0 <= f(x) <= n s(x)."""
    s = validate_smap(P, s)
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    return enumerate_points(P, s, [0] * P.p, [n * v for v in s], max_points)


def partitions_lt(P, s, n, max_points=None):
    """Points with f(x)/s(x) < n; empty when n = 0."""
    s = validate_smap(P, s)
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    return enumerate_points(P, s, [0] * P.p, [n * v - 1 for v in s], max_points)


def is_partition_point(P, s, f):
    """Whether f satisfies every cover constraint of (P, s)."""
    s = validate_smap(P, s)
    if len(f) != P.p:
        raise InvalidInputError(f"point has {len(f)} coordinates for p = {P.p}")
    for x, y in P.covers:
        lhs = f[x - 1] * s[y - 1]
        rhs = f[y - 1] * s[x - 1]
        if lhs > rhs or (x > y and lhs == rhs):
            return False
    return True


def ehrhart_counts(P, s, nmax, max_steps=None):
    """[number of points with f(x) <= n s(x) for all x] for n = 0, ..., nmax.

    A point orders its (ratio, label) pairs (f(x)/s(x), x), and it lies in
    the region exactly when every cover u -< x has u's pair before x's
    (Stanley's fundamental lemma of P-partitions, EC1 3.15, which is the
    cone decomposition).  So the points are counted by a sweep over the
    down-set of elements whose pair is already passed, starting from the
    empty set: at value 0 every element is tried in label order, then each
    unit (n-1, n] tries the pairs (k, x) with 1 <= k <= s(x) in the order
    (k/s(x), x).  A try adds x when x is missing and its lower covers are
    in, and counts[n] is the weight on the full set after unit n.  The sweep
    is refused up front when a bound on the down-sets of P times
    (p + nmax * sum(s)) exceeds max_steps (else LHALL_MAX_DP, default
    DEFAULT_DP_CAP).
    """
    s = validate_smap(P, s)
    if nmax < 0:
        raise InvalidInputError("nmax must be nonnegative")
    _check_dp(P, P.p + nmax * sum(s), max_steps)
    lower, _ = _cover_masks(P)
    index = {0: 0}
    downsets = [0]
    moves = [[] for _ in range(P.p + 1)]  # (from, to) down-set indices per x
    for S in downsets:
        for x in P.elements:
            bit = 1 << (x - 1)
            if not S & bit and not lower[x] & ~S:
                T = S | bit
                if T not in index:
                    index[T] = len(downsets)
                    downsets.append(T)
                moves[x].append((index[S], index[T]))
    weight = [0] * len(downsets)
    weight[0] = 1

    def sweep(xs):
        for x in xs:
            for a, b in moves[x]:
                weight[b] += weight[a]

    unit = [x for _, x in _pairs_by_ratio(s, 1)]
    full = index[(1 << P.p) - 1]
    sweep(P.elements)
    counts = [weight[full]]
    for _ in range(nmax):
        sweep(unit)
        counts.append(weight[full])
    return counts


def eulerian_via_ehrhart(P, s, max_steps=None):
    """Eulerian polynomial recovered from lattice point counts alone.

    Counts for n = 0, ..., p + 2 leave two spare values beyond what the
    numerator needs, so a non-polynomial count sequence cannot slip through.
    """
    s = validate_smap(P, s)
    counts = ehrhart_counts(P, s, P.p + 2, max_steps)
    return hstar_from_counts(counts, P.p)


def bij_u(f, rho):
    """g with g(x*) = f(x) + rho(x), where x* = p + 1 - x."""
    p = len(f)
    g = [0] * p
    for x in range(1, p + 1):
        g[p - x] = f[x - 1] + rho[x - 1]
    return tuple(g)


def bij_eta(g, rho):
    """Inverse shift: f(x) = g(x*) - rho(x)."""
    p = len(g)
    f = [0] * p
    for x in range(1, p + 1):
        f[x - 1] = g[p - x] - rho[x - 1]
    return tuple(f)


def verify_bijection(P, n, max_points=None):
    """Check the rank shift against the dual poset at level n.

    Needs P sign-ranked with nonnegative rank function; uses s = rho + 1.
    Confirms that u(f)(x*) = f(x) + rho(x) lands in the strictly-below-(n+1)
    set of the dual and is undone by the eta shift, which makes u injective,
    so u is onto exactly when it maps as many points as the dual set holds.
    """
    info = sign_rank(P)
    if not info.ranked or any(v < 0 for v in info.rho):
        return VerificationReport(
            "BIJ", "skip",
            reason="needs a sign-ranked poset with nonnegative rank function")
    rho = info.rho
    s = tuple(v + 1 for v in rho)
    dual = P.dual()
    sd = tuple(reversed(s))
    target = set(partitions_lt(dual, sd, n + 1, max_points))
    compared = 0
    for f in partitions_leq(P, s, n, max_points):
        compared += 1
        g = bij_u(f, rho)
        if g not in target:
            return VerificationReport(
                "BIJ", "fail", compared=compared,
                witness={"f": list(f), "image": list(g)},
                reason="image leaves the dual region")
        if bij_eta(g, rho) != f:
            return VerificationReport(
                "BIJ", "fail", compared=compared,
                witness={"f": list(f)}, reason="eta does not undo u")
    if compared != len(target):
        return VerificationReport(
            "BIJ", "fail", compared=compared,
            witness={"images": compared, "target": len(target)},
            reason="image misses part of the dual region")
    return VerificationReport("BIJ", "pass", caps={"n": n}, compared=compared,
                              details={"points": compared})


def verify_cone_decomposition(P, s, bound, max_points=None):
    """Check that the chains of linear extensions tile the bounded region.

    Every point with f(x)/s(x) <= bound must lie in the region of exactly one
    labeled chain coming from a linear extension of P.
    """
    s = validate_smap(P, s)
    points = list(partitions_leq(P, s, bound, max_points))
    seen = {}
    total = 0
    extensions = 0
    for pi in linear_extensions(P):
        extensions += 1
        chain = make_chain(pi)
        for f in partitions_leq(chain, s, bound, max_points):
            seen[f] = seen.get(f, 0) + 1
            total += 1
    if total != len(points):
        return VerificationReport(
            "CONE", "fail", caps={"bound": bound},
            witness={"chain_total": total, "poset_total": len(points)},
            reason="chain regions do not add up to the poset region")
    for f in points:
        if seen.get(f, 0) != 1:
            return VerificationReport(
                "CONE", "fail", caps={"bound": bound},
                witness={"f": list(f), "covered": seen.get(f, 0)},
                reason="point not covered exactly once")
    return VerificationReport("CONE", "pass", caps={"bound": bound},
                              compared=len(points),
                              details={"extensions": extensions})


def verify_recipr(P, max_steps=None):
    """Palindromicity and the Ehrhart functional equation in the rank regime.

    Needs P sign-ranked with nonnegative rank function; s = rho + 1.  Checks
    t^(p-1) A(1/t) = A(t), and that the degree-p interpolation of the counts
    reproduces the two extra count values and satisfies
    (-1)^p i(-t) = i(t - 2).
    """
    if P.p == 0:
        return VerificationReport(
            "RECIPR", "skip", reason="degenerate for the empty poset")
    info = sign_rank(P)
    if not info.ranked or any(v < 0 for v in info.rho):
        return VerificationReport(
            "RECIPR", "skip",
            reason="needs a sign-ranked poset with nonnegative rank function")
    s = tuple(v + 1 for v in info.rho)
    p = P.p
    A = eulerian_polynomial(P, s, max_steps)
    if not is_palindromic(A, p - 1):
        return VerificationReport(
            "RECIPR", "fail", witness={"eulerian": list(A.coeffs)},
            reason=f"Eulerian polynomial is not palindromic with center {p - 1}")
    counts = ehrhart_counts(P, s, p + 2, max_steps)
    poly = interpolate(list(enumerate(counts[:p + 1])))
    for n in (p + 1, p + 2):
        if poly(n) != counts[n]:
            return VerificationReport(
                "RECIPR", "fail",
                witness={"n": n, "count": counts[n], "interpolated": poly(n)},
                reason="counts are not polynomial of degree p")
    lhs = compose_linear(poly, -1, 0) * ((-1) ** p)
    rhs = compose_linear(poly, 1, -2)
    if lhs != rhs:
        return VerificationReport(
            "RECIPR", "fail",
            witness={"lhs": list(lhs.coeffs), "rhs": list(rhs.coeffs)},
            reason="functional equation fails")
    return VerificationReport("RECIPR", "pass", compared=p + 3,
                              details={"eulerian": A, "counts": counts})


def verify_ordinal_interlacing(sizes, block_s, max_steps=None):
    """Interlacing of the refined Eulerian family over stacked antichains.

    sizes lists the antichain block sizes bottom to top, block_s one color
    count per block (s is constant on blocks).  The family split by the first
    letter, read in X order (the key order of refined_eulerian's dict), must
    be interlacing; its sum is the Eulerian polynomial and must be
    real-rooted.  There must be at least one block: the empty poset has an
    empty family but the Eulerian polynomial 1.
    """
    sizes = tuple(sizes)
    block_s = tuple(block_s)
    if not sizes:
        raise InvalidInputError("need at least one block")
    if len(block_s) != len(sizes):
        raise InvalidInputError("need one color count per block")
    P = ordinal_sum_of_antichains(sizes)
    s = []
    for size, k in zip(sizes, block_s):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InvalidInputError("color counts must be positive integers")
        s.extend([k] * size)
    s = tuple(s)
    refined = refined_eulerian(P, s, max_steps)
    order = list(refined)
    family = list(refined.values())
    caps = {"blocks": list(sizes), "s": list(block_s)}
    try:
        failure = interlacing_failure(family)
    except InvalidInputError as e:
        return VerificationReport("ORDINAL", "fail", caps=caps, reason=str(e))
    if failure is not None:
        i, j = failure
        return VerificationReport(
            "ORDINAL", "fail", caps=caps,
            witness={"pair": [list(order[i]), list(order[j])],
                     "polys": [family[i], family[j]]},
            reason="family member fails to interleave a later one")
    total = Polynomial(tuple(map(sum, zip_longest(
        *(member.coeffs for member in family), fillvalue=0))))
    if total != eulerian_polynomial(P, s, max_steps):
        return VerificationReport(
            "ORDINAL", "fail", caps=caps,
            reason="refined family does not sum to the Eulerian polynomial")
    if not is_real_rooted(total):
        return VerificationReport(
            "ORDINAL", "fail", caps=caps, witness={"eulerian": total},
            reason="Eulerian polynomial is not real-rooted")
    return VerificationReport("ORDINAL", "pass", caps=caps,
                              compared=len(family),
                              details={"eulerian": total, "family": family})


def scan_gamma(pmax, max_steps=None):
    """Gamma vectors of Eulerian polynomials across the sign-ranked corpus.

    For every sign-ranked P with nonnegative rank function on at most pmax
    elements (sign_ranked_posets, so capped by LHALL_MAX_POSET_ENUM), take
    s = rho + 1 and expand A in the basis t^k (1+t)^(p-1-2k).  Instances
    with a negative entry are split by regime: rank values within {0, 1},
    where positivity is proved, versus the general nonnegative case, where
    a negative entry would refute an open conjecture rather than this
    implementation.  A non-palindromic A always counts against the proven
    regime because the symmetry itself is a theorem here.  Records come in
    order of increasing p, in the generator's order within each p.
    """
    failures = {"proven_regime_failures": [], "conjecture_failures": []}
    records = list(_gamma_records(pmax, failures, max_steps))
    return {"checked": len(records), "records": records, **failures}


def _gamma_records(pmax, failures, max_steps=None):
    """Yield scan_gamma's records one at a time, appending each failing one
    to its list in failures; the caps fire before the first record.

    A is eulerian_polynomial(P, s), capped the same way (the cap is read
    once), but joined from the tables of the parent P was grown from, built
    once its first child passes the cap (the parent's DP is the smaller
    one)."""
    _check_enum(pmax)
    max_steps = _cap(max_steps, "LHALL_MAX_DP", DEFAULT_DP_CAP)
    tables = None
    for P, rho, parent, ideal, l in _sign_ranked_levels(pmax):
        s = tuple(v + 1 for v in rho)
        _check_dp(P, sum(s), max_steps)
        if tables is None or tables[0] is not parent:
            tables = parent, _parent_tables(*parent)
        A = _child_eulerian(tables[1], ideal, l, s[l - 1])
        proven = set(rho) <= {0, 1}
        palindromic = is_palindromic(A, P.p - 1)
        gam = gamma_vector(A, P.p - 1) if palindromic else None
        nonneg = palindromic and all(g >= 0 for g in gam)
        rec = {"p": P.p, "covers": sorted(P.covers), "rho": list(rho),
               "eulerian": A, "palindromic": palindromic,
               "gamma": None if gam is None else list(gam),
               "gamma_nonnegative": nonneg,
               "regime": "proven" if proven else "general"}
        if not palindromic:
            # Reciprocity guarantees the symmetry whenever s = rho + 1, so a
            # miss here is an implementation defect, never an open question.
            failures["proven_regime_failures"].append(rec)
        elif not nonneg:
            failures["proven_regime_failures" if proven
                     else "conjecture_failures"].append(rec)
        yield rec
