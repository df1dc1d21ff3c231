"""A fixed family of small labeled posets with color counts.

These pairs exercise the main structural cases: natural and unnatural
labelings, chains, antichains, stacked antichains, and a poset that admits
no rank function at all.  Identity checks and regression tests run over
this list so that a change of behavior shows up against stable names.
"""

from __future__ import annotations

from .posets import (LabeledPoset, make_antichain, make_chain,
                     ordinal_sum_of_antichains)


def _build():
    vee = LabeledPoset(3, frozenset({(1, 2), (1, 3)}))
    vee_rev = LabeledPoset(3, frozenset({(3, 1), (3, 2)}))
    wedge = LabeledPoset(3, frozenset({(1, 3), (2, 3)}))
    n_poset = LabeledPoset(4, frozenset({(1, 3), (2, 3), (2, 4)}))
    diamond = LabeledPoset(4, frozenset({(1, 2), (1, 3), (2, 4), (3, 4)}))
    diamond_rev = LabeledPoset(4, frozenset({(4, 2), (4, 3), (2, 1), (3, 1)}))
    butterfly = LabeledPoset(4, frozenset({(1, 3), (2, 3), (1, 4), (2, 4)}))
    unrankable = LabeledPoset(3, frozenset({(1, 2), (3, 2)}))
    return (
        ("singleton-s1", make_chain((1,)), (1,)),
        ("singleton-s3", make_chain((1,)), (3,)),
        ("chain2-nat-s12", make_chain((1, 2)), (1, 2)),
        ("chain2-rev-s21", make_chain((2, 1)), (2, 1)),
        ("chain2-rev-s13", make_chain((2, 1)), (1, 3)),
        ("chain3-nat-s123", make_chain((1, 2, 3)), (1, 2, 3)),
        ("chain3-mix-s213", make_chain((2, 1, 3)), (2, 1, 3)),
        ("chain3-rev-s321", make_chain((3, 2, 1)), (3, 2, 1)),
        ("antichain2-s12", make_antichain(2), (1, 2)),
        ("antichain2-s22", make_antichain(2), (2, 2)),
        ("antichain3-s123", make_antichain(3), (1, 2, 3)),
        ("antichain3-s333", make_antichain(3), (3, 3, 3)),
        ("vee-s112", vee, (1, 1, 2)),
        ("vee-rev-s221", vee_rev, (2, 2, 1)),
        ("wedge-s123", wedge, (1, 2, 3)),
        ("n-poset-s1212", n_poset, (1, 2, 1, 2)),
        ("diamond-s1221", diamond, (1, 2, 2, 1)),
        ("diamond-rev-s2112", diamond_rev, (2, 1, 1, 2)),
        ("ordinal-21-s221", ordinal_sum_of_antichains((2, 1)), (2, 2, 1)),
        ("ordinal-12-s133", ordinal_sum_of_antichains((1, 2)), (1, 3, 3)),
        ("chain4-nat-s1233", make_chain((1, 2, 3, 4)), (1, 2, 3, 3)),
        ("chain4-rev-s3321", make_chain((4, 3, 2, 1)), (3, 3, 2, 1)),
        ("antichain4-s1212", make_antichain(4), (1, 2, 1, 2)),
        ("butterfly-s1122", butterfly, (1, 1, 2, 2)),
        ("unrankable-s212", unrankable, (2, 1, 2)),
    )


CORPUS = _build()
