"""Acceptance gate: the headline guarantees, each timed against its budget.

Every test prints exactly one line,

    PASS <criterion>: <detail> (<elapsed>s, limit <budget>s)

and fails if the check itself fails or the budget is exceeded.  Run with
-s to see the lines as they complete.
"""

import random
import time
from fractions import Fraction
from itertools import product

from lhall import (CORPUS, Polynomial, eulerian_polynomial,
                   eulerian_via_ehrhart, int_coefficients, is_real_rooted,
                   kn_descent_polynomial, make_chain, scan_gamma,
                   sign_ranked_posets, verify_all, verify_bijection,
                   verify_cone_decomposition, verify_kn, verify_kn1,
                   verify_ordinal_interlacing, verify_recipr)
from lhall.identities import SUITE
from oracles import all_labeled_posets, classical_eulerian


def run_criterion(name, limit, work):
    t0 = time.perf_counter()
    failure = None
    detail = ""
    try:
        detail = work()
    except AssertionError as e:
        failure = str(e)
    elapsed = time.perf_counter() - t0
    over = elapsed > limit
    status = "FAIL" if (failure or over) else "PASS"
    print(f"{status} {name}: {failure or detail} "
          f"({elapsed:.2f}s, limit {limit:g}s)")
    assert failure is None, f"{name}: {failure}"
    assert not over, f"{name}: took {elapsed:.2f}s, over the {limit:g}s budget"


def test_classical_eulerian_specialization():
    def work():
        for p in range(1, 7):
            labels = tuple(range(1, p + 1))
            A = eulerian_polynomial(make_chain(labels), labels)
            B = Polynomial(tuple(classical_eulerian(p)))
            assert A == B, f"chain p={p}: {A.coeffs} != {B.coeffs}"
        return "chains p=1..6 with s(i)=i match the descent count over S_p"

    run_criterion("classical-eulerian-specialization", 10, work)


def test_eulerian_agrees_with_ehrhart_everywhere():
    def work():
        pairs = 0
        for p in range(5):
            for P in all_labeled_posets(p):
                for s in product((1, 2, 3), repeat=p):
                    A = eulerian_via_ehrhart(P, s)
                    B = eulerian_polynomial(P, s)
                    assert A == B, (f"p={p} covers={sorted(P.covers)} s={s}: "
                                    f"{A.coeffs} != {B.coeffs}")
                    pairs += 1
        return f"{pairs} (poset, s) pairs agree across both methods"

    run_criterion("eulerian-vs-ehrhart", 300, work)


def test_identity_suite_on_corpus():
    def work():
        assert len(CORPUS) >= 20, f"corpus has only {len(CORPUS)} pairs"
        checks = skips = 0
        for name, P, s in CORPUS:
            assert P.p <= 4 and max(s, default=1) <= 3, name
            for report in verify_all(P, s, names=SUITE, capx=3, capt=5):
                assert not report.failed, (name, report.identity,
                                           report.witness)
                checks += 1
                skips += report.status == "skip"
        return (f"{len(CORPUS)} pairs x {len(SUITE)} identities: "
                f"{checks} reports, 0 failures, {skips} not-applicable skips")

    run_criterion("identity-suite", 600, work)


def test_constant_color_identities():
    def work():
        for k in (1, 2, 3):
            for p in (1, 2, 3):
                r = verify_kn1(k, p, capt=6)
                assert r.passed, (k, p, r.witness)
                r = verify_kn(k, p, capt=6)
                assert r.passed, (k, p, r.witness)
        return "single- and multi-weight forms hold for k, p <= 3 at t-cap 6"

    run_criterion("constant-color-identities", 60, work)


def test_rank_shift_bijection():
    def work():
        corpus = list(sign_ranked_posets(5))
        points = 0
        for P, s in corpus:
            for n in range(5):
                r = verify_bijection(P, n)
                assert r.passed, (sorted(P.covers), n, r.reason, r.witness)
                points += r.details["points"]
        return (f"{len(corpus)} ranked posets x n<=4, "
                f"{points} points mapped and inverted")

    run_criterion("rank-shift-bijection", 120, work)


def test_reciprocity():
    def work():
        corpus = list(sign_ranked_posets(5))
        for P, s in corpus:
            r = verify_recipr(P)
            assert r.passed, (sorted(P.covers), r.reason, r.witness)
        return (f"palindromicity and the count functional equation hold on "
                f"{len(corpus)} ranked posets")

    run_criterion("reciprocity", 60, work)


def _compositions(total):
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in _compositions(total - head):
            yield (head,) + rest


def test_stacked_antichain_interlacing():
    def work():
        cases = 0
        for total in range(1, 7):
            for sizes in _compositions(total):
                for block_s in product((1, 2, 3), repeat=len(sizes)):
                    r = verify_ordinal_interlacing(sizes, block_s)
                    assert r.passed, (sizes, block_s, r.witness)
                    assert is_real_rooted(r.details["eulerian"]), \
                        (sizes, block_s, "sum not real-rooted")
                    cases += 1
        return f"{cases} stacked-antichain families interlace in order"

    run_criterion("stacked-antichain-interlacing", 300, work)


def test_cone_decomposition():
    def work():
        runs = 0
        for p in range(5):
            cyclic = tuple((i - 1) % 3 + 1 for i in range(1, p + 1))
            smaps = dict.fromkeys([(1,) * p, (2,) * p, cyclic])
            for P in all_labeled_posets(p):
                for s in smaps:
                    r = verify_cone_decomposition(P, s, 4)
                    assert r.passed, (sorted(P.covers), s, r.witness)
                    runs += 1
        return f"{runs} (poset, s) cones split exactly across extensions"

    run_criterion("cone-decomposition", 120, work)


def test_gamma_scan():
    def work():
        result = scan_gamma(4)
        assert result["proven_regime_failures"] == [], \
            result["proven_regime_failures"]
        reported = len(result["conjecture_failures"])
        return (f"{result['checked']} ranked posets scanned, proven regime "
                f"clean, {reported} gamma-negative outside it (reported, "
                f"not gated)")

    run_criterion("gamma-scan", 300, work)


def test_weighted_descent_real_rootedness():
    def work():
        rng = random.Random(20260815)
        polys = 0
        for k in (1, 2, 3):
            for p in (1, 2, 3, 4):
                for _ in range(50):
                    q = tuple(Fraction(rng.randint(0, 6), rng.randint(1, 4))
                              for _ in range(p))
                    poly = kn_descent_polynomial(k, p, q)
                    cleared = Polynomial(tuple(int_coefficients(poly)))
                    assert is_real_rooted(cleared), (k, p, q, poly.coeffs)
                    polys += 1
        return f"{polys} weighted descent polynomials are real-rooted"

    run_criterion("weighted-descent-real-rootedness", 120, work)
