"""Real-rootedness, root isolation and interleaving, exactly.

Everything here runs on integer coefficient lists (constant term first).
Every answer is read off a signed remainder sequence p, q, -rem(p, q), ...
built with sign-corrected fraction-free remainders: its sign variations at
-infinity minus those at +infinity are the Cauchy index Ind(q/p)
(Sturm-Sylvester).  With q = p' that is the number of distinct real roots
of p, and the sequence ends in gcd(p, p').

Interleaving needs no root at all.  Once the degrees fit, the common factor
gcd(f, g) is divided out, leaving coprime f1 of degree n and g1.  Then f
interleaves g exactly when n = 0, or Ind(rem(g1, f1)/f1) = -n when g1 has
degree n too, or Ind(f1/g1) = n + 1 when it has degree n + 1: every root of
the denominator is simple and is a jump of the same direction, which puts
one root of the numerator strictly between each two of them.  Root
isolation bisects with Sturm chains at rational points, so nothing is ever
approximated numerically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InternalCheckError, InvalidInputError
from .polys import Polynomial, int_coefficients


def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _canonical(poly):
    """Integer tuple with denominators cleared and positive content divided out.

    The sign of the leading coefficient is preserved.  The coefficients of
    a Polynomial are stripped ints and Fractions, so one with only ints is
    already integral and goes straight to its primitive part; only one
    with a Fraction has its denominators cleared by int_coefficients.
    """
    if not isinstance(poly, Polynomial):
        poly = Polynomial(tuple(poly))
    c = poly.coeffs
    if not all(type(ci) is int for ci in c):
        c = int_coefficients(poly)
    return tuple(_primitive(c))


def _primitive(c):
    g = gcd(*c)
    if g > 1:
        return [ci // g for ci in c]
    return list(c)


def _derivative(c):
    return _strip([i * ci for i, ci in enumerate(c)][1:])


def _rem_signfixed(a, b):
    """Primitive remainder of a mod b carrying the sign of the true remainder.

    Fraction-free: every elimination step scales the running remainder by the
    leading coefficient of b, so the result equals lc(b)^steps times the true
    remainder; the accumulated sign is divided back out at the end.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    steps = 0
    while r and len(r) - 1 >= db:
        lead = r[-1]
        r = [ci * lb for ci in r]
        shift = len(r) - 1 - db
        for i, bi in enumerate(b):
            r[shift + i] -= lead * bi
        r = _strip(r)
        steps += 1
    if lb < 0 and steps % 2:
        r = [-ci for ci in r]
    return _primitive(r)


def _poly_gcd(a, b):
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _rem_signfixed(a, b)
    a = _primitive(a)
    if a and a[-1] < 0:
        a = [-ci for ci in a]
    return a


def _div_exact(a, b):
    """Quotient a / b for a primitive divisor b of a.

    By Gauss's lemma the quotient is integral, so every step divides
    exactly; a remainder anywhere is an internal bug.
    """
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(out))):
        qc, r = divmod(a[k + len(b) - 1], b[-1])
        if r:
            raise InternalCheckError("inexact polynomial division")
        out[k] = qc
        for i, bi in enumerate(b):
            a[k + i] -= qc * bi
    if any(a):
        raise InternalCheckError("inexact polynomial division")
    return out


def _signed_remainders(p, q):
    """The signed remainder sequence p, q, -rem(p, q), ... up to its last
    nonzero member, each one primitive."""
    chain = [p]
    while q:
        chain.append(q)
        p, q = q, [-ci for ci in _rem_signfixed(p, q)]
    return chain


def _sturm(c):
    """Sturm chain of c; it ends in gcd(c, c') up to a nonzero factor."""
    return _signed_remainders(c, _primitive(_derivative(c)))


def _sign_at(c, num, den):
    """Sign of c at num/den with den >= 1, via an integer Horner pass."""
    acc = 0
    dp = 1
    for coeff in reversed(c):
        acc = acc * num + coeff * dp
        dp *= den
    return (acc > 0) - (acc < 0)


def _variations(signs):
    out = 0
    prev = 0
    for sg in signs:
        if sg == 0:
            continue
        if prev and sg != prev:
            out += 1
        prev = sg
    return out


def _vars_at(chain, point):
    return _variations(_sign_at(c, point.numerator, point.denominator)
                       for c in chain)


def _index(chain):
    """Cauchy index Ind(q/p) of a signed remainder sequence p, q, ...: the
    jumps of q/p from -inf to +inf minus those from +inf to -inf, read off
    as the sign variations at -inf minus those at +inf."""
    lead = [(c[-1] > 0) - (c[-1] < 0) for c in chain]
    at_minus = [sg * (-1) ** (len(c) - 1) for sg, c in zip(lead, chain)]
    return _variations(at_minus) - _variations(lead)


def _count_in(chain, lo, hi):
    """Distinct roots of chain[0] in (lo, hi); endpoints must not be roots."""
    return _vars_at(chain, lo) - _vars_at(chain, hi)


def _isolate(w):
    """Isolating intervals for the distinct real roots of squarefree w."""
    if len(w) <= 1:
        return ()
    chain = _sturm(w)
    total = _index(chain)
    if total == 0:
        return ()
    bound = 1
    while True:
        lo, hi = Fraction(-bound), Fraction(bound)
        if (_sign_at(w, lo.numerator, lo.denominator) != 0
                and _sign_at(w, hi.numerator, hi.denominator) != 0
                and _count_in(chain, lo, hi) == total):
            break
        bound *= 2
    out = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        delta = (b - a) / 2
        mid = a + delta
        while _sign_at(w, mid.numerator, mid.denominator) == 0:
            delta /= 2
            mid = a + delta
        left = _count_in(chain, a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, cnt - left))
    out.sort()
    return tuple(out)


def isolate_real_roots(poly):
    """Disjoint open rational intervals, one per distinct real root, ascending."""
    c = _canonical(poly)
    if not c:
        raise InvalidInputError("cannot isolate roots of the zero polynomial")
    return _isolate(_div_exact(c, _poly_gcd(c, _derivative(c))))


@lru_cache(maxsize=4096)
def _real_rooted(c):
    """Ind(c'/c) counts the distinct real roots; the distinct roots of c are
    the roots of c / gcd(c, c'), and the Sturm chain ends in that gcd."""
    if len(c) <= 1:
        return True
    chain = _sturm(c)
    return _index(chain) == len(c) - len(chain[-1])


def is_real_rooted(poly):
    """True when every complex root is real.  Constants and zero pass."""
    return _real_rooted(_canonical(poly))


def real_root_count(poly):
    """Number of distinct real roots."""
    c = _canonical(poly)
    if not c:
        raise InvalidInputError("the zero polynomial has every number as a root")
    return _index(_sturm(c))


@lru_cache(maxsize=4096)
def _interleaves(fk, gk):
    if not fk or not gk:
        return True
    for c in (fk, gk):
        if c[-1] < 0:
            raise InvalidInputError(
                "interleaving needs positive leading coefficients")
        if not _real_rooted(c):
            raise InvalidInputError("interleaving needs real-rooted polynomials")
    n, m = len(fk) - 1, len(gk) - 1
    if not m - 1 <= n <= m:
        return False
    h = _poly_gcd(fk, gk)
    f1, g1 = _div_exact(fk, h), _div_exact(gk, h)
    n = len(f1) - 1
    if n == 0:
        return True
    if len(g1) == len(f1):
        return _index(_signed_remainders(f1, _rem_signfixed(g1, f1))) == -n
    return _index(_signed_remainders(g1, f1)) == n + 1


def interleaves(f, g):
    """Whether f interleaves g: descending roots satisfy
    alpha_i <= beta_i and beta_{i+1} <= alpha_i, and deg f is deg g or one less.

    The zero polynomial interleaves everything in both directions.  Any other
    argument must be real-rooted with a positive leading coefficient.
    """
    return _interleaves(_canonical(f), _canonical(g))


def interlacing_failure(polys):
    """First pair (i, j) with i < j where polys[i] fails to interleave polys[j].

    Returns None when the whole sequence is interlacing.  Writing f << g for
    "f interleaves g": zero members interleave everything, so a family whose
    nonzero members f_1, ..., f_m pass f_k << f_(k+1) for each k and
    f_1 << f_m is interlacing, and is certified with at most m tests.
    With a_l(k) the l-th largest root of f_k, counted with multiplicity:

    - f_k << f_(k+1) gives a_l(k) <= a_l(k+1), the degree rising by 0 or 1;
    - f_1 << f_m gives a_(l+1)(m) <= a_l(1), and deg f_m <= deg f_1 + 1;
    - so for i < j, a_(l+1)(j) <= a_(l+1)(m) <= a_l(1) <= a_l(i) <= a_l(j)
      and deg f_j - deg f_i is 0 or 1, which is f_i << f_j.

    Only when a test of that chain fails or raises are all pairs scanned,
    (i, j) before (i', j') when j < j', or j = j' and i < i', so the pair
    returned, or the error raised, is the first one in that order.  A lone
    nonzero member, in no pair, is tested against itself, so that it too
    raises unless it is real-rooted with a positive leading coefficient.
    """
    keys = [_canonical(f) for f in polys]
    chain = [c for c in keys if c]
    if len(chain) == 1:
        _interleaves(chain[0], chain[0])
    try:
        if (all(map(_interleaves, chain, chain[1:]))
                and (len(chain) < 3 or _interleaves(chain[0], chain[-1]))):
            return None
    except InvalidInputError:
        pass
    for j in range(len(keys)):
        for i in range(j):
            if not _interleaves(keys[i], keys[j]):
                return (i, j)
    return None
