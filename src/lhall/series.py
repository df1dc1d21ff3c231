"""Truncated multivariate power series with exact coefficients.

A SeriesContext fixes an ordered tuple of variable names and an inclusive
exponent cap per variable.  A Series over that context maps monomials to
nonzero coefficients; any monomial exceeding a cap in some variable is
discarded on sight.  Since all series handled here have nonnegative
exponents everywhere, dropped monomials can never influence the retained
window, so two series built under the same context agree on that window
exactly or differ at a genuine mismatch.

A monomial is stored as one packed int.  Variable i owns a bit field of
width caps[i].bit_length() + 1, the first variable in the most significant
field, so the order of packed keys is the lexicographic order of exponent
tuples.  An in-cap exponent never reaches the top bit of its field, which
serves as a guard: the sum of two in-cap keys cannot carry out of any
field, and it is in cap exactly when (key + bias) & guard == 0, where bias
adds 2^(w-1) - 1 - cap to each field of width w.  Multiplying monomials is
therefore adding their keys, followed by that one test.  The invariant
callers must keep is to add two keys only when both are in cap and to test
the sum before adding any further key: a third addend could carry a field
past its guard bit.  Keys whose variables do not overlap never carry, so
their sum is exact and needs no test.
"""

from __future__ import annotations

from .errors import InvalidInputError


def _check_exact(coeff):
    if isinstance(coeff, (float, complex)):
        raise InvalidInputError("coefficients must be exact rationals")
    return coeff


class SeriesContext:
    """Ordered variables with inclusive exponent caps."""

    def __init__(self, caps):
        names = tuple(caps)
        for name in names:
            if not isinstance(name, str) or not name:
                raise InvalidInputError(f"variable name {name!r} must be a string")
        for name in names:
            cap = caps[name]
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
                raise InvalidInputError(f"cap for {name} must be a nonnegative integer")
        self.names = names
        self.caps = tuple(caps[n] for n in names)
        self.index = {n: i for i, n in enumerate(names)}
        shifts = []
        bias = guard = shift = 0
        for cap in reversed(self.caps):
            width = cap.bit_length() + 1
            shifts.append(shift)
            bias |= ((1 << (width - 1)) - 1 - cap) << shift
            guard |= 1 << (shift + width - 1)
            shift += width
        self._shifts = tuple(reversed(shifts))
        self._bias = bias
        self._guard = guard

    def key_of(self, exps):
        """The packed key of the monomial with these exponents, or None
        when some exponent is over its cap."""
        key = 0
        over = False
        for name, e in exps.items():
            i = self.index.get(name)
            if i is None:
                raise InvalidInputError(f"unknown variable {name!r}")
            if not isinstance(e, int) or isinstance(e, bool):
                raise InvalidInputError(f"exponent for {name} must be an integer")
            if e < 0:
                raise InvalidInputError("monomials cannot carry negative exponents")
            if e > self.caps[i]:
                over = True
            key += e << self._shifts[i]
        return None if over else key

    def key_product(self, keys):
        """The packed key of the product of the monomials with these keys,
        or None when one of them is None or the product is over a cap.

        Every key must be in cap, as key_of returns it; the running product
        is tested after each factor, so no field ever carries.
        """
        bias, guard = self._bias, self._guard
        total = 0
        for key in keys:
            if key is None:
                return None
            total += key
            if (total + bias) & guard:
                return None
        return total

    def _field(self, name):
        """(shift, mask) of a variable's bit field: its exponent in a packed
        key is (key >> shift) & mask, the guard bit included."""
        i = self.index[name]
        return self._shifts[i], (2 << self.caps[i].bit_length()) - 1

    def _exponents(self, key):
        """The nonzero exponents of a packed key, as a name -> exponent dict."""
        out = {}
        for name in self.names:
            shift, mask = self._field(name)
            e = (key >> shift) & mask
            if e:
                out[name] = e
        return out

    def zero(self):
        return Series(self)

    def one(self):
        return Series(self, {0: 1})

    def monomial(self, exps, coeff=1):
        """coeff times the stated monomial; silently zero when over a cap."""
        key = self.key_of(exps)
        if _check_exact(coeff) == 0 or key is None:
            return Series(self)
        return Series(self, {key: coeff})

    def geometric(self, exps):
        """1 + m + m^2 + ... for the monomial m, out to the caps.

        m must have at least one positive exponent and none negative, so the
        expansion leaves the retained window after finitely many powers.
        """
        return self.one()._over_one_minus(self.key_of(exps))

    def _spread(self, terms, step, out, sign=1):
        """Add sign times terms / (1 - m) into the dict out, m the monomial
        with key step: each term k spreads along k, k + step, ... up to the
        caps.  A step of None (m over a cap) adds terms as they are; a step
        of 0 diverges.  Entries that cancel stay in out as zeros."""
        if step == 0:
            raise InvalidInputError("geometric expansion of 1 diverges")
        get = out.get
        if step is None:
            for key, c in terms.items():
                out[key] = get(key, 0) + sign * c
            return
        bias, guard = self._bias, self._guard
        for key, c in terms.items():
            c *= sign
            while not (key + bias) & guard:
                out[key] = get(key, 0) + c
                key += step


class Series:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = dict(terms) if terms else {}

    @classmethod
    def _adopt(cls, ctx, terms):
        """The series over the dict terms itself, not a copy."""
        out = cls.__new__(cls)
        out.ctx, out.terms = ctx, terms
        return out

    def _add_term(self, key, coeff):
        # callers guarantee key is in cap
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def __eq__(self, other):
        return (isinstance(other, Series) and self.ctx is other.ctx
                and self.terms == other.terms)

    def __add__(self, other):
        self._same_ctx(other)
        out = Series(self.ctx, self.terms)
        for key, c in other.terms.items():
            out._add_term(key, c)
        return out

    def __neg__(self):
        return Series(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        self._same_ctx(other)
        out = Series(self.ctx, self.terms)
        for key, c in other.terms.items():
            out._add_term(key, -c)
        return out

    def __mul__(self, other):
        self._same_ctx(other)
        bias, guard = self.ctx._bias, self.ctx._guard
        out = Series(self.ctx)
        terms = out.terms
        second = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in second:
                key = k1 + k2
                if not (key + bias) & guard:
                    new = terms.get(key, 0) + c1 * c2
                    if new:
                        terms[key] = new
                    else:
                        del terms[key]
        return out

    def _over_one_minus(self, step):
        """This series divided by 1 - m, m the monomial with key step, as
        ctx._spread spreads it; only a negative coefficient can cancel."""
        out = Series(self.ctx)
        self.ctx._spread(self.terms, step, out.terms)
        if min(self.terms.values(), default=0) < 0:
            out.terms = {k: c for k, c in out.terms.items() if c}
        return out

    def mul_monomial(self, exps, coeff=1):
        """Multiply by coeff times the monomial; exponents are nonnegative."""
        delta = self.ctx.key_of(exps)
        out = Series(self.ctx)
        if _check_exact(coeff) == 0 or delta is None:
            return out
        bias, guard = self.ctx._bias, self.ctx._guard
        for key, c in self.terms.items():
            shifted = key + delta
            if not (shifted + bias) & guard:
                out.terms[shifted] = c * coeff
        return out

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _same_ctx(self, other):
        if not isinstance(other, Series) or other.ctx is not self.ctx:
            raise InvalidInputError("series arithmetic needs one shared context")

    def __repr__(self):
        return f"Series({len(self.terms)} terms over {self.ctx.names})"


def first_mismatch(a, b):
    """Smallest monomial, in lexicographic order of exponent tuples, where
    the two series disagree, or None.

    Returns (exponents-as-dict, coefficient-in-a, coefficient-in-b).
    """
    a._same_ctx(b)
    for key in sorted(a.terms.keys() | b.terms.keys()):
        ca = a.terms.get(key, 0)
        cb = b.terms.get(key, 0)
        if ca != cb:
            return a.ctx._exponents(key), ca, cb
    return None


def to_records(series):
    """Deterministic [(nonzero-exponent dict, coefficient)] listing."""
    ctx = series.ctx
    return [(ctx._exponents(key), series.terms[key])
            for key in sorted(series.terms)]
