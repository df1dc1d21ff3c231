"""Truncated multivariate power series over exact rationals."""

import pytest
from hypothesis import given, settings, strategies as st

from lhall import InvalidInputError, SeriesContext, first_mismatch, to_records
from oracles import series_first_mismatch, series_geometric, series_mul


def ctx_xy(capx=3, capy=3):
    return SeriesContext({"x": capx, "y": capy})


def test_context_keys_and_caps():
    ctx = ctx_xy()
    assert to_records(ctx.monomial({"x": 1})) == [({"x": 1}, 1)]
    assert ctx.key_of({"x": 3, "y": 3}) is not None
    assert ctx.key_of({"x": 4}) is None
    with pytest.raises(InvalidInputError):
        ctx.key_of({"z": 1})
    with pytest.raises(InvalidInputError):
        ctx.monomial({"x": -1})


def test_monomial_and_geometric():
    ctx = ctx_xy()
    assert to_records(ctx.one()) == [({}, 1)]
    assert ctx.monomial({"x": 4}).is_zero()          # over the cap
    geo = ctx.geometric({"x": 1})
    assert to_records(geo) == [({}, 1), ({"x": 1}, 1), ({"x": 2}, 1),
                               ({"x": 3}, 1)]
    with pytest.raises(InvalidInputError):
        ctx.geometric({})                            # 1/(1-1) diverges
    with pytest.raises(InvalidInputError):
        ctx.monomial({"x": 1}, 0.5)


def test_truncation_is_a_ring_quotient():
    # (1 - x) * (1 + x + ... + x^cap) == 1 once x^(cap+1) leaves the window
    ctx = ctx_xy()
    one_minus_x = ctx.one() - ctx.monomial({"x": 1})
    assert one_minus_x * ctx.geometric({"x": 1}) == ctx.one()


def test_arithmetic_hand_cases():
    ctx = ctx_xy()
    f = ctx.monomial({"x": 1}) + ctx.monomial({"y": 1})
    g = f * f
    assert to_records(g) == [({"y": 2}, 1), ({"x": 1, "y": 1}, 2),
                             ({"x": 2}, 1)]
    assert (g - g).is_zero()
    assert f.mul_monomial({"x": 1}) == f * ctx.monomial({"x": 1})


def test_context_identity_is_required():
    a = ctx_xy().one()
    b = ctx_xy().one()
    with pytest.raises(InvalidInputError):
        a + b


small_exps = st.dictionaries(st.sampled_from(("x", "y")),
                             st.integers(0, 3), max_size=2)


def _series(ctx, draw_terms):
    out = ctx.zero()
    for exps, coeff in draw_terms:
        out = out + ctx.monomial(exps, coeff)
    return out


series_terms = st.lists(st.tuples(small_exps, st.integers(-4, 4)), max_size=5)


@settings(max_examples=100)
@given(series_terms, series_terms, series_terms)
def test_ring_axioms(ta, tb, tc):
    ctx = ctx_xy()
    a, b, c = (_series(ctx, t) for t in (ta, tb, tc))
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + ctx.zero() == a
    assert a * ctx.one() == a


def test_first_mismatch():
    ctx = ctx_xy()
    a = ctx.one() + ctx.monomial({"x": 2})
    b = ctx.one() + ctx.monomial({"x": 2}, 2) + ctx.monomial({"y": 1})
    exps, ca, cb = first_mismatch(a, b)
    assert (exps, ca, cb) == ({"y": 1}, 0, 1)
    assert first_mismatch(a, a) is None


# Packed arithmetic against the exponent-tuple oracles.  Caps 0, 1, 3 and 7
# fill their bit fields up to the guard bit and caps 2, 4 and 8 start a new
# width; cap 0 is the UQ context's q cap when every color count is 1.
FIELD_EDGE_CAPS = (0, 1, 2, 3, 4, 7, 8)


@st.composite
def contexts(draw):
    caps = draw(st.lists(st.sampled_from(FIELD_EDGE_CAPS), min_size=1,
                         max_size=9))
    return SeriesContext({f"v{i}": c for i, c in enumerate(caps)})


def exponent_tuples(ctx):
    """Exponents up to one past each cap, so some monomials fall outside."""
    return st.tuples(*[st.integers(0, c + 1) for c in ctx.caps])


def tuple_series(ctx):
    return st.lists(st.tuples(exponent_tuples(ctx), st.integers(-3, 3)),
                    max_size=8)


def _build(ctx, terms):
    """The packed series and the oracle's {tuple: coefficient} of terms."""
    packed = ctx.zero()
    oracle = {}
    for exps, coeff in terms:
        packed = packed + ctx.monomial(dict(zip(ctx.names, exps)), coeff)
        if all(e <= c for e, c in zip(exps, ctx.caps)):
            oracle[exps] = oracle.get(exps, 0) + coeff
    return packed, {k: c for k, c in oracle.items() if c}


def _tuples(series):
    """Unpack through to_records, which must list keys in tuple order."""
    names = series.ctx.names
    records = to_records(series)
    keys = [tuple(d.get(n, 0) for n in names) for d, _ in records]
    assert keys == sorted(keys)
    return {key: c for key, (_, c) in zip(keys, records)}


@settings(max_examples=200)
@given(st.data())
def test_packed_arithmetic_matches_tuple_oracle(data):
    ctx = data.draw(contexts())
    a, ta = _build(ctx, data.draw(tuple_series(ctx)))
    b, tb = _build(ctx, data.draw(tuple_series(ctx)))
    assert _tuples(a) == ta
    add = {k: ta.get(k, 0) + tb.get(k, 0) for k in set(ta) | set(tb)}
    assert _tuples(a + b) == {k: c for k, c in add.items() if c}
    sub = {k: ta.get(k, 0) - tb.get(k, 0) for k in set(ta) | set(tb)}
    assert _tuples(a - b) == {k: c for k, c in sub.items() if c}
    assert _tuples(a * b) == series_mul(ta, tb, ctx.caps)


@settings(max_examples=200)
@given(st.data())
def test_packed_geometric_and_shift_match_tuple_oracle(data):
    ctx = data.draw(contexts())
    step = data.draw(exponent_tuples(ctx).filter(any))
    exps = dict(zip(ctx.names, step))
    assert _tuples(ctx.geometric(exps)) == series_geometric(step, ctx.caps)
    a, ta = _build(ctx, data.draw(tuple_series(ctx)))
    coeff = data.draw(st.integers(-3, 3))
    assert (_tuples(a.mul_monomial(exps, coeff))
            == series_mul(ta, {step: coeff} if coeff else {}, ctx.caps))


@settings(max_examples=200)
@given(st.data())
def test_division_by_one_minus_a_monomial_matches_tuple_oracle(data):
    # S / (1 - m) is S times the geometric series of m; coefficients of both
    # signs may cancel, and a step over its cap leaves S as it is
    ctx = data.draw(contexts())
    a, ta = _build(ctx, data.draw(tuple_series(ctx)))
    step = data.draw(exponent_tuples(ctx).filter(any))
    exps = dict(zip(ctx.names, step))
    got = a._over_one_minus(ctx.key_of(exps))
    assert _tuples(got) == series_mul(ta, series_geometric(step, ctx.caps),
                                      ctx.caps)
    # dividing S (1 - m) cancels every term past S
    assert (a - a.mul_monomial(exps))._over_one_minus(ctx.key_of(exps)) == a


def test_division_by_one_minus_a_monomial_edges():
    ctx = ctx_xy(capx=2)
    s = ctx.one() - ctx.monomial({"x": 1}) + ctx.monomial({"y": 1}, 3)
    assert s._over_one_minus(ctx.key_of({"x": 1})) == (
        ctx.one() + ctx.monomial({"y": 1}, 3) + ctx.monomial({"x": 1, "y": 1}, 3)
        + ctx.monomial({"x": 2, "y": 1}, 3))
    assert s._over_one_minus(None) == s
    with pytest.raises(InvalidInputError):
        s._over_one_minus(0)


@settings(max_examples=200)
@given(st.data())
def test_packed_first_mismatch_matches_tuple_oracle(data):
    ctx = data.draw(contexts())
    a, ta = _build(ctx, data.draw(tuple_series(ctx)))
    # b shares a's terms up to a small edit, so mismatches are not always
    # at the smallest monomial of either side
    b, tb = _build(ctx, data.draw(tuple_series(ctx), label="edit"))
    b, tb = a + b, {k: ta.get(k, 0) + tb.get(k, 0) for k in set(ta) | set(tb)}
    tb = {k: c for k, c in tb.items() if c}
    expected = series_first_mismatch(ta, tb)
    got = first_mismatch(a, b)
    if expected is None:
        assert got is None
    else:
        key, ca, cb = expected
        exps = {n: e for n, e in zip(ctx.names, key) if e}
        assert got == (exps, ca, cb)


@settings(max_examples=200)
@given(st.data())
def test_key_product_matches_exponent_sums(data):
    ctx = data.draw(contexts())
    factors = data.draw(st.lists(exponent_tuples(ctx), max_size=5))
    keys = [ctx.key_of(dict(zip(ctx.names, f))) for f in factors]
    total = [sum(column) for column in zip(*factors)] or [0] * len(ctx.names)
    expected = (None if None in keys
                else ctx.key_of(dict(zip(ctx.names, total))))
    assert ctx.key_product(keys) == expected
