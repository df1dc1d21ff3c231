"""Tests of the benchmark itself: its inputs, its checks and its tracer.

    python3 -m pytest perfbench

Every check is shown to pass a real program output and to reject the same
output with one thing corrupted.
"""

import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from lhall import (CORPUS, count_linear_extensions, ehrhart_counts,  # noqa: E402
                   eulerian_polynomial, eulerian_via_ehrhart, jsonable,
                   make_antichain, make_chain, scan_gamma, verify_identity,
                   verify_ordinal_interlacing)
from lhall.posets import LabeledPoset  # noqa: E402


def _coeffs(poly):
    return [str(c) for c in poly.coeffs]


# --- inputs -----------------------------------------------------------------

def test_poset_enumeration_counts():
    assert [len(inputs.labeled_posets(p)) for p in range(6)] == [
        1, 1, 3, 19, 219, 4231]


def test_extension_count_matches_program():
    rng = random.Random(0)
    for up in rng.sample(inputs.labeled_posets(5), 40):
        covers = inputs.covers_of(up)
        P = LabeledPoset(5, frozenset(covers))
        assert inputs.count_extensions(5, covers) == count_linear_extensions(P)


def test_identity_pairs_hold_the_corpus():
    pairs = set(inputs.identity_pairs())
    assert len(pairs) == 18282
    for _, P, s in CORPUS:
        assert (P.p, tuple(sorted(P.covers)), tuple(s)) in pairs


def test_stacked_cases_stay_under_the_weight_bound():
    cases = inputs.stacked_cases()
    assert len(cases) == len(set(cases))
    assert all(sum(sizes) <= inputs.STACKED_MAX_TOTAL
               and inputs.stacked_weight(sizes, bs) <= inputs.STACKED_MAX_WEIGHT
               for sizes, bs in cases)


def test_stream_is_seeded_stratified_and_does_not_repeat_within_a_pass():
    def first(seed, n):
        blocks = inputs.stacked_stream(seed).blocks()
        return [next(blocks) for _ in range(n)]

    assert first(4, 30) == first(4, 30)
    assert first(4, 30) != first(5, 30)
    strata = inputs._equal_strata(inputs.stacked_cases(),
                                  inputs.STACKED_STRATA)
    blocks = first(4, len(strata[0]))
    for block in blocks:
        assert sorted(next(h for h, s in enumerate(strata) if c in s)
                      for c in block) == list(range(len(strata)))
    drawn = [c for block in blocks for c in block]
    assert len(drawn) == len(set(drawn))


def test_eulerian_stream_is_uniform_in_p():
    blocks = inputs.eulerian_stream(2).blocks()
    for _ in range(20):
        sizes = [case[0] for case in next(blocks)]
        assert [sizes.count(p) for p in (3, 4, 5)] == [9, 9, 9]


def test_a_stratum_is_drawn_whole_before_it_repeats():
    stream = inputs.Stream([(37, lambda i: i)], 3)
    blocks = stream.blocks()
    for _ in range(3):
        assert sorted(next(blocks)[0] for _ in range(37)) == list(range(37))


# --- eulerian-ehrhart -------------------------------------------------------

EULERIAN_CASES = [
    (3, ((1, 2), (1, 3)), (1, 2, 3)),
    (4, ((2, 1), (3, 1), (4, 2)), (3, 1, 2, 2)),
    (4, (), (2, 2, 3, 1)),
]


@pytest.mark.parametrize("p,covers,s", EULERIAN_CASES)
def test_eulerian_check_passes_real_output(p, covers, s):
    P = LabeledPoset(p, frozenset(covers))
    A = _coeffs(eulerian_polynomial(P, s))
    B = _coeffs(eulerian_via_ehrhart(P, s))
    levels = (2, ehrhart_counts(P, s, 2))
    assert checks.check_eulerian(p, covers, s, A, B, levels) == []


@pytest.mark.parametrize("p,covers,s", EULERIAN_CASES)
def test_eulerian_check_rejects_corruption(p, covers, s):
    P = LabeledPoset(p, frozenset(covers))
    A = _coeffs(eulerian_polynomial(P, s))
    bumped = A[:-1] + [str(int(A[-1]) + 1)]
    assert checks.check_eulerian(p, covers, s, bumped, A)
    # both methods wrong the same way: the extension count still catches it
    assert checks.check_eulerian(p, covers, s, bumped, bumped)
    negative = ["-1", str(int(A[0]) + 1)] + A[1:]
    assert checks.check_eulerian(p, covers, s, negative, negative)
    too_long = A[:-1] + ["0"] * (p + 1 - len(A)) + ["1", str(int(A[-1]) - 1)]
    assert checks.check_eulerian(p, covers, s, too_long, too_long)
    counts = list(ehrhart_counts(P, s, 2))
    counts[2] += 1
    assert checks.check_eulerian(p, covers, s, A, A, (2, counts))


def test_brute_force_levels_match_program():
    rng = random.Random(1)
    for p in (2, 3, 4):
        orders = inputs.labeled_posets(p)
        for up in rng.sample(orders, min(6, len(orders))):
            covers = inputs.covers_of(up)
            s = tuple(rng.randint(1, 3) for _ in range(p))
            P = LabeledPoset(p, frozenset(covers))
            assert checks.brute_force_levels(p, covers, s, 2) == \
                ehrhart_counts(P, s, 2)


# --- identity-suite ---------------------------------------------------------

@pytest.mark.parametrize("name", inputs.SUITE_NAMES)
def test_identity_check(name):
    for P, s in ((make_chain((2, 1)), (1, 2)), (make_antichain(2), (2, 1))):
        covers = tuple(sorted(P.covers))
        report = verify_identity(name, P, s, capx=3, capt=5)
        assert checks.check_identity(name, covers, report.status,
                                     report.compared) == []
        assert checks.check_identity(name, covers, "fail", report.compared)
        flipped = "pass" if report.status == "skip" else "skip"
        assert checks.check_identity(name, covers, flipped, 3)
        if report.status == "pass":
            assert checks.check_identity(name, covers, "pass", 0)


# --- stacked-interlacing ----------------------------------------------------

@pytest.mark.parametrize("sizes,block_s", [((2, 1), (2, 2)), ((1, 3), (3, 1)),
                                           ((2, 2), (1, 3))])
def test_stacked_check(sizes, block_s):
    report = verify_ordinal_interlacing(sizes, block_s)
    family = [_coeffs(m) for m in report.details["family"]]
    assert checks.check_stacked(sizes, block_s, report.status, family) == []
    assert checks.check_stacked(sizes, block_s, "fail", family)
    assert checks.check_stacked(sizes, block_s, "pass", family[1:])
    changed = [list(m) for m in family]
    first = next(m for m in changed if m)
    first[0] = str(int(first[0]) + 1)
    assert checks.check_stacked(sizes, block_s, "pass", changed)


# --- scan-gamma-cli ---------------------------------------------------------

@pytest.fixture(scope="module")
def scan_records():
    result = scan_gamma(4)
    return [jsonable(rec) for rec in result["records"]]


def test_scan_checks_pass_real_output(scan_records):
    assert all(checks.check_scan_record(rec) == [] for rec in scan_records)
    summary = {"checked": len(scan_records), "proven_regime_failures": []}
    assert checks.check_scan_summary(0, summary, len(scan_records)) == []


def test_scan_checks_reject_corruption(scan_records):
    rec = next(r for r in scan_records if r["p"] == 4 and r["covers"])
    bad_rho = dict(rec, rho=[v + 1 for v in rec["rho"]])
    assert checks.check_scan_record(bad_rho)
    bad_A = dict(rec, eulerian=[rec["eulerian"][0] + 1] + rec["eulerian"][1:])
    assert checks.check_scan_record(bad_A)
    bad_gamma = dict(rec, gamma=[rec["gamma"][0] + 1] + rec["gamma"][1:])
    assert checks.check_scan_record(bad_gamma)
    n = len(scan_records)
    good = {"checked": n, "proven_regime_failures": []}
    assert checks.check_scan_summary(0, good, n - 1)  # one record dropped
    assert checks.check_scan_summary(1, good, n)
    assert checks.check_scan_summary(
        0, dict(good, proven_regime_failures=[rec]), n)
    assert checks.check_scan_summary(0, None, n)


# --- worker, tracer and command -----------------------------------------------

def test_a_raising_case_fails_the_run_and_is_not_timed():
    class RaisesOnSingletons(worker.StackedInterlacing):
        def call(self, args):
            if args[0] == (1,):
                raise ValueError("stub failure")
            return super().call(args)

    blocks = iter([[((1,), (1,)), ((2,), (1,))], [((1,), (2,))]])
    done = worker.run_blocks(RaisesOnSingletons(), lambda: next(blocks),
                             lambda finished, *_: finished < 2)
    assert (done["attempted"], done["failed"], len(done["times"])) == (3, 2, 1)
    assert "ValueError: stub failure" in done["problems"][0]["problems"]
    outcome = run._outcome(done)
    assert not outcome["correct"]
    assert (outcome["attempted"], outcome["failed"]) == (3, 2)


def test_traced_worker_attributes_time_to_layers():
    blocks = list(itertools.islice(inputs.stacked_stream(3).blocks(), 2))
    done = run._run_worker("stacked-interlacing", iter(blocks),
                           "--blocks", 2, "--trace")
    layers = done["layers"]
    assert done["failed"] == 0 and len(done["times"]) == 16
    assert layers["roots.calls"] > 0 and layers["colored.calls"] > 0
    assert layers["identities.calls"] == 0 and layers["cli.calls"] == 0
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < self_total <= sum(done["times"])
    expected = sum(2 * inputs.stacked_weight(*c) for b in blocks for c in b)
    assert layers["colored.extensions"] == expected


def test_worker_reports_its_own_peak_memory_not_its_parents():
    ballast = list(range(1_500_000))  # about 55 MB held by this process
    block = next(inputs.stacked_stream(3).blocks())
    done = run._run_worker("stacked-interlacing", iter([block]), "--blocks", 1)
    assert done["peak_rss_mb"] < 50
    del ballast


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "stacked-interlacing",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert not proc.stdout.strip()
