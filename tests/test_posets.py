"""Construction, queries, duality and extension machinery for labeled posets."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from lhall import (InvalidInputError, LabeledPoset, ResourceLimitError,
                   colored_extensions, count_linear_extensions,
                   enumerate_points, epsilon, linear_extensions,
                   make_antichain, make_chain, ordinal_sum_of_antichains,
                   poset_from_document, poset_to_document, sign_rank,
                   sign_ranked_posets, validate_smap)
from lhall.posets import _chain_bound
from oracles import all_labeled_posets, from_relations, less, posets


def test_construction_rejects_bad_covers():
    with pytest.raises(InvalidInputError):
        LabeledPoset(2, frozenset({(1, 1)}))
    with pytest.raises(InvalidInputError):
        LabeledPoset(2, frozenset({(0, 1)}))
    with pytest.raises(InvalidInputError):
        LabeledPoset(2, frozenset({(1, 3)}))
    with pytest.raises(InvalidInputError):
        LabeledPoset(2, frozenset({(1, 2), (2, 1)}))
    with pytest.raises(InvalidInputError):
        LabeledPoset(3, frozenset({(1, 2), (2, 3), (3, 1)}))
    # (1, 3) follows from the other two covers, so it is not itself a cover
    with pytest.raises(InvalidInputError):
        LabeledPoset(3, frozenset({(1, 2), (2, 3), (1, 3)}))
    with pytest.raises(InvalidInputError):
        LabeledPoset(-1)


def test_order_queries():
    P = LabeledPoset(4, frozenset({(1, 3), (2, 3), (2, 4)}))
    assert list(P.elements) == [1, 2, 3, 4]
    assert less(P, 1, 3) and less(P, 2, 4)
    assert not less(P, 1, 4) and not less(P, 3, 1) and not less(P, 3, 3)
    assert P.minimal_elements() == (1, 2)
    assert P.maximal_elements() == (3, 4)


def test_epsilon_sign():
    assert epsilon(1, 2) == 1
    assert epsilon(2, 1) == -1
    with pytest.raises(InvalidInputError):
        epsilon(3, 3)


def test_dual_mirrors_labels():
    assert make_chain((1, 2, 3)).dual() == make_chain((3, 2, 1))
    vee = LabeledPoset(3, frozenset({(1, 2), (1, 3)}))
    assert vee.dual() == LabeledPoset(3, frozenset({(3, 2), (3, 1)}))
    assert make_antichain(4).dual() == make_antichain(4)


def test_dual_is_an_involution_and_flips_cover_signs():
    for p in range(5):
        for P in all_labeled_posets(p):
            D = P.dual()
            assert D.dual() == P
            n = P.p + 1
            assert D.covers == frozenset((n - x, n - y) for x, y in P.covers)
            for x, y in P.covers:
                assert epsilon(n - x, n - y) == -epsilon(x, y)


def test_constructors():
    assert make_chain((2, 1, 3)).covers == frozenset({(2, 1), (1, 3)})
    with pytest.raises(InvalidInputError):
        make_chain((1, 3))
    assert make_antichain(3).covers == frozenset()
    with pytest.raises(InvalidInputError):
        make_antichain(-2)
    assert from_relations(3, [(1, 2), (2, 3), (1, 3)]) == make_chain((1, 2, 3))
    with pytest.raises(InvalidInputError):
        from_relations(2, [(1, 2), (2, 1)])


def _compositions(p):
    if not p:
        yield ()
    for first in range(1, p + 1):
        for rest in _compositions(p - first):
            yield (first,) + rest


def test_ordinal_sum_of_antichains_matches_relations():
    # every element of a block lies below every element of all later blocks
    for p in range(6):
        for sizes in _compositions(p):
            block = [b for b, a in enumerate(sizes) for _ in range(a)]
            relations = [(x, y) for x in range(1, p + 1)
                         for y in range(1, p + 1)
                         if block[x - 1] < block[y - 1]]
            assert ordinal_sum_of_antichains(sizes) == from_relations(
                p, relations), sizes
    assert ordinal_sum_of_antichains((2, 1)) == LabeledPoset(
        3, frozenset({(1, 3), (2, 3)}))
    for sizes in ((2, 0), (0,), (3, 0, 1), (1, -1), (True,), (1, False),
                  (1.0,)):
        with pytest.raises(InvalidInputError):
            ordinal_sum_of_antichains(sizes)


def test_ordinal_sum_of_antichains_equals_validated_construction():
    # built from its own covers and masks without LabeledPoset's checks; it
    # must be the validated poset, down to the stored order and closure
    count = 0
    for p in range(10):
        for sizes in _compositions(p):
            P = ordinal_sum_of_antichains(sizes)
            Q = LabeledPoset(P.p, P.covers)
            assert (P, hash(P), P._topo, P._above) == (Q, hash(Q), Q._topo,
                                                       Q._above), sizes
            count += 1
    assert count == 512                     # () and 511 compositions


def test_trusted_posets_read_like_validated_ones():
    # the posets of the scan and of stacked antichains skip LabeledPoset's
    # checks and compute _topo on its first read, before or after any other
    trusted = [P for P, _ in sign_ranked_posets(6)]
    trusted += [ordinal_sum_of_antichains(sizes)
                for p in range(8) for sizes in _compositions(p)]
    for k, P in enumerate(trusted):
        assert "_topo" not in vars(P)
        Q = LabeledPoset(P.p, P.covers)
        if k % 2:
            assert _chain_bound(P) == _chain_bound(Q)
        assert (P, hash(P), P._topo, P._above) == (Q, hash(Q), Q._topo,
                                                   Q._above)
        assert (_chain_bound(P), sign_rank(P)) == (_chain_bound(Q),
                                                   sign_rank(Q))
    assert len(trusted) == 14_320 + 128


def test_linear_extensions_enumeration():
    assert list(linear_extensions(make_chain((2, 1, 3)))) == [(2, 1, 3)]
    exts = list(linear_extensions(make_antichain(3)))
    assert len(exts) == 6
    assert exts == sorted(exts)
    vee = LabeledPoset(3, frozenset({(1, 2), (1, 3)}))
    assert list(linear_extensions(vee)) == [(1, 2, 3), (1, 3, 2)]
    assert list(linear_extensions(make_antichain(0))) == [()]


def test_extension_count_matches_enumeration():
    for p in range(5):
        for P in all_labeled_posets(p):
            assert count_linear_extensions(P) == len(list(linear_extensions(P)))


@settings(max_examples=60, deadline=None)
@given(posets(max_p=7))
def test_extension_count_matches_enumeration_to_p7(P):
    assert count_linear_extensions(P) == len(list(linear_extensions(P)))


def test_extension_caps():
    # walking the extensions is capped by e(P), as colored_extensions is at
    # s = 1, so the 11-chain is walked; counting them is a down-set DP
    chain = tuple(range(1, 12))
    assert list(linear_extensions(make_chain(chain))) == [chain]
    with pytest.raises(ResourceLimitError,
                       match="39916800 colored extensions.*LHALL_MAX_COLORED"):
        linear_extensions(make_antichain(11))
    # 2^4 down-sets x 4 steps
    assert count_linear_extensions(make_antichain(4), max_steps=64) == 24
    with pytest.raises(ResourceLimitError, match="64 transitions.*LHALL_MAX_DP"):
        count_linear_extensions(make_antichain(4), max_steps=63)


@pytest.mark.parametrize("variable, run", [
    ("LHALL_MAX_DP", lambda: count_linear_extensions(make_antichain(2))),
    ("LHALL_MAX_POINTS", lambda: list(enumerate_points(
        make_antichain(2), (1, 1), (0, 0), (1, 1)))),
    ("LHALL_MAX_COLORED", lambda: list(colored_extensions(
        make_antichain(2), (1, 1)))),
    ("LHALL_MAX_POSET_ENUM", lambda: sign_ranked_posets(2)),
])
def test_cap_messages_name_their_variable(monkeypatch, variable, run):
    monkeypatch.setenv(variable, "1")
    with pytest.raises(ResourceLimitError, match=variable):
        run()


def test_sign_rank_cases():
    info = sign_rank(make_chain((1, 2, 3)))
    assert info.ranked and info.rho == (0, 1, 2)
    assert info.graded and info.rank == 2 and info.conflict is None

    info = sign_rank(make_chain((2, 1)))
    assert info.ranked and info.rho == (-1, 0)

    vee = LabeledPoset(3, frozenset({(1, 2), (1, 3)}))
    info = sign_rank(vee)
    assert info.ranked and info.rho == (0, 1, 1) and info.graded

    # two walks to the top disagree: +1 through 1, -1 through 3
    info = sign_rank(LabeledPoset(3, frozenset({(1, 2), (3, 2)})))
    assert not info.ranked and info.rho is None and info.conflict is not None

    n_poset = LabeledPoset(4, frozenset({(1, 3), (2, 3), (2, 4)}))
    info = sign_rank(n_poset)
    assert info.ranked and info.rho == (0, 0, 1, 1)


@settings(max_examples=80)
@given(posets(max_p=5))
def test_sign_rank_solves_the_cover_constraints(P):
    info = sign_rank(P)
    if info.ranked:
        for x, y in P.covers:
            assert info.rho[y - 1] - info.rho[x - 1] == epsilon(x, y)
        for m in P.minimal_elements():
            assert info.rho[m - 1] == 0
    else:
        (a, y1), (b, y2) = info.conflict
        assert y1 == y2 and {(a, y1), (b, y2)} <= P.covers


def test_validate_smap():
    P = make_antichain(3)
    assert validate_smap(P, {1: 2, 2: 1, 3: 3}) == (2, 1, 3)
    assert validate_smap(P, [1, 1, 1]) == (1, 1, 1)
    with pytest.raises(InvalidInputError):
        validate_smap(P, (1, 2))
    with pytest.raises(InvalidInputError):
        validate_smap(P, (0, 1, 1))
    with pytest.raises(InvalidInputError):
        validate_smap(P, (1.0, 1, 1))
    with pytest.raises(InvalidInputError):
        validate_smap(P, {1: 1, 2: 1, 4: 1})


def test_document_roundtrip():
    P = LabeledPoset(4, frozenset({(1, 3), (2, 3), (2, 4)}))
    doc = poset_to_document(P)
    assert doc == {"p": 4, "covers": [[1, 3], [2, 3], [2, 4]]}
    assert poset_from_document(doc) == P
    with pytest.raises(InvalidInputError):
        poset_from_document({"covers": []})


@settings(max_examples=60)
@given(posets(max_p=5))
def test_document_roundtrip_random(P):
    assert poset_from_document(poset_to_document(P)) == P


@settings(max_examples=100)
@given(posets(max_p=7))
def test_chain_bound_brackets_the_down_sets(P):
    down_sets = sum(
        1 for mask in range(1 << P.p)
        if all(not mask >> (y - 1) & 1 or mask >> (x - 1) & 1
               for x, y in P.covers))
    assert down_sets <= _chain_bound(P) <= 2 ** P.p


def test_topological_order_ignores_how_the_covers_are_listed():
    # the same three covers in any order give one _topo and one bound; the
    # order of the cover set used to leave 9 or 8 here
    covers = [(2, 3), (2, 4), (3, 1)]
    built = {(P._topo, _chain_bound(P))
             for P in (LabeledPoset(4, frozenset(order))
                       for order in permutations(covers))}
    assert built == {((2, 4, 3, 1), 9)}


@settings(max_examples=100)
@given(posets(max_p=6), st.randoms(use_true_random=False))
def test_topological_order_depends_only_on_the_poset(P, rng):
    covers = sorted(P.covers)
    rng.shuffle(covers)
    Q = LabeledPoset(P.p, frozenset(covers))
    assert Q._topo == P._topo and _chain_bound(Q) == _chain_bound(P)
