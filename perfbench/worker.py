"""One library workload in one fresh process.

    worker.py WORKLOAD --probe CASE     set up, run the one case CASE, exit
    worker.py WORKLOAD --seconds S      run whole blocks within S s
    worker.py WORKLOAD --blocks B [--trace]

The worker builds no inputs of its own: CASE is one case as JSON, and in
the other modes the parent hands over one block of cases at a time.  The
worker prints one JSON line per event on stdout: "ready" as soon as it is
set up, so the parent can time set-up from launch; "next" whenever it
wants a block, which it then reads as one JSON line from stdin; "result"
after a probe's case and "done" at the end of a run.  Each case is timed
alone; its output is checked right after, outside the timed section, and
then dropped, so memory does not grow with the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from math import comb
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import hostclock  # noqa: E402
from lhall import colored, identities, lattice, posets  # noqa: E402

CAPX, CAPT = 3, 5
LEVEL_SAMPLE = 16  # every 16th eulerian case also gets brute-force level counts
MAX_PROBLEMS = 5
REF_EVERY_S = 0.25  # the reference loop is timed between cases this often


def _coeffs(poly):
    return [str(c) for c in poly.coeffs]


def _tuples(doc):
    """A case as sent in JSON, with its lists turned back into tuples."""
    return tuple(map(_tuples, doc)) if isinstance(doc, list) else doc


class EulerianEhrhart:
    def prepare(self, case):
        p, covers, s = case
        return posets.LabeledPoset(p, frozenset(covers)), s

    def call(self, args):
        P, s = args
        return (colored.eulerian_polynomial(P, s),
                lattice.eulerian_via_ehrhart(P, s))

    def check(self, index, case, args, out):
        p, covers, s = case
        levels = None
        if index % LEVEL_SAMPLE == 0:
            nmax = 2 if p <= 4 else 1
            levels = (nmax, lattice.ehrhart_counts(args[0], s, nmax))
        return checks.check_eulerian(p, covers, s, _coeffs(out[0]),
                                     _coeffs(out[1]), levels)

    def work(self, case, out, totals):
        pass


class IdentitySuite:
    def prepare(self, case):
        p, covers, s, name = case
        return name, posets.LabeledPoset(p, frozenset(covers)), s

    def call(self, args):
        name, P, s = args
        return identities.verify_identity(name, P, s, capx=CAPX, capt=CAPT)

    def check(self, index, case, args, report):
        return checks.check_identity(case[3], case[1], report.status,
                                     report.compared)

    def work(self, case, report, totals):
        totals["identities.reports"] += 1
        totals["identities.skips"] += report.status == "skip"
        totals["series.terms"] += report.compared


class StackedInterlacing:
    def prepare(self, case):
        return case

    def call(self, args):
        return lattice.verify_ordinal_interlacing(*args)

    def check(self, index, case, args, report):
        family = [_coeffs(m) for m in report.details.get("family", [])]
        return checks.check_stacked(case[0], case[1], report.status, family)

    def work(self, case, report, totals):
        totals["roots.pairs"] += comb(checks.stacked_family_size(*case), 2)


WORKLOADS = {
    "eulerian-ehrhart": EulerianEhrhart,
    "identity-suite": IdentitySuite,
    "stacked-interlacing": StackedInterlacing,
}


def _emit(doc):
    print(json.dumps(doc), flush=True)


def _read_block():
    _emit({"event": "next"})
    return _tuples(json.loads(sys.stdin.readline()))


def run_blocks(wl, next_block, more, tracer=None):
    """Run the blocks that next_block() returns while more(...) holds.

    more(blocks done, seconds since start, seconds of the last block) is
    asked before every block.  A case that raises, or whose output fails a
    check, counts as failed; only the cases that returned are timed.
    """
    times = []
    attempted = failed = 0
    problems = []
    totals = Counter()
    done_blocks = 0
    refs = [(0, hostclock.reference_seconds())]
    last_ref = start = perf_counter()
    last_block = 0.0
    while more(done_blocks, perf_counter() - start, last_block):
        block_start = perf_counter()
        for case in next_block():
            if perf_counter() - last_ref >= REF_EVERY_S:
                refs.append((len(times), hostclock.reference_seconds()))
                last_ref = perf_counter()
            index = attempted
            attempted += 1
            call_args = wl.prepare(case)
            if tracer:
                tracer.active = True
            t0 = perf_counter()
            try:
                out, found = wl.call(call_args), None
            except Exception as exc:  # a crash is a failed case, not a stop
                found = [f"{type(exc).__name__}: {exc}"]
            elapsed = perf_counter() - t0
            if tracer:
                tracer.active = False
            if found is None:
                times.append(elapsed)
                found = wl.check(index, case, call_args, out)
                wl.work(case, out, totals)
            if found:
                failed += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append({"case": repr(case), "problems": found})
        done_blocks += 1
        last_block = perf_counter() - block_start
    refs.append((len(times), hostclock.reference_seconds()))
    return {"event": "done", "blocks": done_blocks, "times": times,
            "refs": refs, "attempted": attempted, "failed": failed,
            "problems": problems, "counts": totals}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--probe")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--blocks", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    _emit({"event": "ready"})

    if args.probe is not None:
        try:
            wl.call(wl.prepare(_tuples(json.loads(args.probe))))
        except Exception:  # the timed run counts this case as failed
            pass
        _emit({"event": "result"})
        return 0

    if args.seconds is not None:
        # another block only while one more of the last block's length fits
        def more(done, elapsed, last):
            return not done or elapsed + last <= args.seconds
    else:
        def more(done, elapsed, last):
            return done < args.blocks
    doc = run_blocks(wl, _read_block, more, tracer)
    doc["peak_rss_mb"] = hostclock.peak_rss_mb()
    if tracer:
        doc["layers"] = tracer.totals()
    _emit(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
