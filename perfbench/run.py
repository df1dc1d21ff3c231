"""Benchmark for lhall: four closed-loop workloads, checked, timed and traced.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

--seconds is the measured time of each workload; its default is run_seconds
from BENCHMARK.json at the root of the checkout, which also names the
metrics the result reports.

Run from the root of a checkout; the package is imported from ./src, not
from an installed copy.  Every workload runs in fresh processes, one at a
time and one case at a time.  The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  See README.md
next to this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostclock  # noqa: E402
import inputs  # noqa: E402

LIBRARY = ("eulerian-ehrhart", "identity-suite", "stacked-interlacing")
SCAN = "scan-gamma-cli"
WORKLOADS = LIBRARY + (SCAN,)
DEFAULT_SEED = 1
WORKERS = 6           # fresh worker processes that share a run's --seconds
PROBES = 14           # fresh launches per run that time set-up
SCAN_PMAX = 5
# A traced run covers a fixed number of blocks (scans for scan-gamma-cli), so
# that its work counts repeat exactly on every commit: about half of
# --seconds untraced at this commit, then the same blocks traced.
TRACE_BLOCKS_PER_S = {"eulerian-ehrhart": 2.0, "identity-suite": 0.2,
                      "stacked-interlacing": 9.0, "scan-gamma-cli": 0.5}
CHILD_LIMIT_S = 150   # a child still running after this long is killed


class BenchError(Exception):
    pass


class Child:
    """One child process whose stdout lines are read as they arrive.

    String hashing is fixed: with a random hash seed the layout of every
    dict and set keyed by strings changes from process to process.  The same
    208 identity-suite cases ran at 24.9-28.8 cases/s in five processes with
    random hashing and at 24.2-25.0 in three with the seed fixed.
    """

    def __init__(self, cmd, env=None):
        env = dict(os.environ if env is None else env, PYTHONHASHSEED="0")
        self.start = perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=ROOT, env=env)
        self.timer = threading.Timer(CHILD_LIMIT_S, self.proc.kill)
        self.timer.start()

    def lines(self):
        """Yield (seconds since launch, raw line) for every line."""
        for line in self.proc.stdout:
            yield perf_counter() - self.start, line

    def send(self, text):
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:  # left early: stop and reap it
            self.proc.kill()
            self.finish()

    def finish(self):
        """Reap the child; return (exit code, seconds since launch)."""
        _, status, _ = os.wait4(self.proc.pid, 0)
        elapsed = perf_counter() - self.start
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdin.close()
        self.proc.stdout.close()
        return self.proc.returncode, elapsed


def _python(*args):
    return [sys.executable, *map(str, args)]


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _decile(values, k):
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


# --- library workloads ------------------------------------------------------

def _worker(workload, blocks, *mode):
    """Run worker.py, handing it the next of blocks whenever it asks.

    Return {event: (seconds after launch, doc)}.
    """
    events = {}
    with Child(_python(HERE / "worker.py", workload, *mode)) as child:
        for at, line in child.lines():
            doc = json.loads(line)
            if doc["event"] == "next":
                child.send(json.dumps(next(blocks)))
            else:
                events[doc["event"]] = (at, doc)
        code, _ = child.finish()
    if code != 0 or "ready" not in events:
        raise BenchError(f"{workload} worker {' '.join(map(str, mode))} "
                         f"exited with code {code}")
    return events


def _probe(workload, case):
    """Launch-to-ready and launch-to-first-result, on the reference clock."""
    before = hostclock.reference_seconds()
    events = _worker(workload, None, "--probe", json.dumps(case))
    if "result" not in events:
        raise BenchError(f"{workload} probe of {case} gave no result")
    ref = (before + hostclock.reference_seconds()) / 2
    return (hostclock.scale(events["ready"][0], ref),
            hostclock.scale(events["result"][0], ref))


def _run_worker(workload, blocks, *mode):
    events = _worker(workload, blocks, *mode)
    if "done" not in events:
        raise BenchError(f"{workload} worker gave no result")
    done = events["done"][1]
    done["scaled"] = hostclock.scale_cases(done["times"], done["refs"])
    return done


def _outcome(*dones):
    """Any failed case, whether it raised or failed a check, is incorrect."""
    failed = sum(d["failed"] for d in dones)
    return {"correct": failed == 0,
            "attempted": sum(d["attempted"] for d in dones),
            "failed": failed,
            "problems": [p for d in dones for p in d["problems"]][:5]}


def _layer_metrics(layers, ref):
    """Tracer totals, with self times put on the reference clock."""
    return {name: (hostclock.scale(value, ref), "s") if name.endswith("_s")
            else (value, "count") for name, value in layers.items()}


def library_run(workload, seed, seconds):
    # The stream is built here, before any timing, and runs on through
    # WORKERS fresh processes, each taking up where the last stopped.  Peak
    # RSS is the median of their peaks: one process's peak rests on its
    # single largest case.  Over five seeds the median of three workers'
    # peaks spread 21% on identity-suite, that of six 7%.  Set-up launches
    # go before each worker and after the last, so their median spans the
    # whole run.  Each runs one case from the cheapest strata, so that the
    # launch, not the case a seed happens to draw, makes up first_result_s.
    stream = inputs.STREAMS[workload](seed)
    probe_cases = itertools.cycle(stream.block()[:PROBES])
    blocks = stream.blocks()
    per_gap = PROBES // (WORKERS + 1)
    probes, parts = [], []
    for _ in range(WORKERS):
        probes += [_probe(workload, next(probe_cases)) for _ in range(per_gap)]
        parts.append(_run_worker(workload, blocks,
                                 "--seconds", seconds / WORKERS))
    probes += [_probe(workload, next(probe_cases)) for _ in range(per_gap)]
    times = [t for done in parts for t in done["scaled"]]
    if len(times) < 2:
        raise BenchError(f"{workload}: fewer than two cases returned")
    metrics = {
        "setup_s": (statistics.median(p[0] for p in probes), "s"),
        "cases_per_s": (len(times) / sum(times), "1/s"),
        "case_p50_ms": (1000 * _decile(times, 5), "ms"),
        "case_p90_ms": (1000 * _decile(times, 9), "ms"),
        "first_result_s": (statistics.median(p[1] for p in probes), "s"),
        "peak_rss_mb": (statistics.median(d["peak_rss_mb"] for d in parts),
                        "MB"),
    }
    return _outcome(*parts), metrics


def _trace_blocks(workload, seconds):
    return max(1, round(TRACE_BLOCKS_PER_S[workload] * seconds))


def library_trace(workload, seed, seconds):
    n = _trace_blocks(workload, seconds)
    blocks = list(itertools.islice(inputs.STREAMS[workload](seed).blocks(), n))
    plain = _run_worker(workload, iter(blocks), "--blocks", n)
    traced = _run_worker(workload, iter(blocks), "--blocks", n, "--trace")
    ref = statistics.fmean(r for _, r in traced["refs"])
    metrics = _layer_metrics(traced["layers"], ref)
    metrics.update((name, (value, "count"))
                   for name, value in traced["counts"].items())
    metrics["trace.overhead_s"] = (
        sum(traced["scaled"]) - sum(plain["scaled"]), "s")
    outcome = _outcome(traced)
    outcome["correct"] = outcome["correct"] and not plain["failed"]
    return outcome, metrics


# --- scan-gamma-cli ---------------------------------------------------------

def _scan(trace=False):
    """Launch one scan; keep raw lines and arrival times, check afterwards.

    The scan runs through cli_child.py, which records the child's own peak
    memory (and with trace, its per-layer totals).  The reference loop is
    timed just before the launch and just after the exit; the scan's times
    are scaled by the mean of the two.
    """
    RESULTS.mkdir(exist_ok=True)
    usage_file = RESULTS / "cli-child.json"
    usage_file.unlink(missing_ok=True)
    cmd = _python(HERE / "cli_child.py", usage_file,
                  *(["--trace"] if trace else []),
                  "scan-gamma", "--pmax", SCAN_PMAX)
    before = hostclock.reference_seconds()
    arrivals, lines = [], []
    with Child(cmd) as child:
        for at, line in child.lines():
            arrivals.append(at)
            lines.append(line)
        code, elapsed = child.finish()
    ref = (before + hostclock.reference_seconds()) / 2
    if not usage_file.exists():
        raise BenchError(f"scan-gamma exited with code {code} and no usage")
    usage = json.loads(usage_file.read_text())
    nbytes = sum(map(len, lines))
    summary = json.loads(lines.pop()) if lines else None
    arrivals = [hostclock.scale(at, ref) for at in arrivals[:len(lines)]]
    problems = checks.check_scan_summary(code, summary, len(lines))
    bad = 0
    found = []
    for line in lines:
        rec_problems = checks.check_scan_record(json.loads(line))
        if rec_problems:
            bad += 1
            found.extend(rec_problems[:1])
    if problems:
        bad = len(lines) or 1
    return {"records": len(lines), "bytes": nbytes, "arrivals": arrivals,
            "elapsed": hostclock.scale(elapsed, ref), "ref": ref,
            "peak_rss_mb": usage["peak_rss_mb"], "layers": usage.get("layers"),
            "failed": bad, "problems": (problems + found)[:5]}


def _scan_outcome(scans):
    failed = sum(s["failed"] for s in scans)
    return {"correct": failed == 0,
            "attempted": max(1, sum(s["records"] for s in scans)),
            "failed": failed,
            "problems": [p for s in scans for p in s["problems"]][:5]}


def _scans(seconds=None, count=None, trace=False):
    """count whole scans, or as many as fit in seconds (at least one)."""
    scans = []
    start = perf_counter()
    while (len(scans) < count if count is not None
           else not scans or perf_counter() - start + last <= seconds):
        t = perf_counter()
        scans.append(_scan(trace))
        last = perf_counter() - t
    return scans


def _help_launch():
    """Launch-to-exit of `scan-gamma --help`, on the reference clock."""
    before = hostclock.reference_seconds()
    with Child(_python("-m", "lhall.cli", "scan-gamma", "--help"),
               _cli_env()) as child:
        for _ in child.lines():
            pass
        code, elapsed = child.finish()
    if code != 0:
        raise BenchError(f"scan-gamma --help exited with code {code}")
    return hostclock.scale(elapsed, (before + hostclock.reference_seconds()) / 2)


def scan_run(seed, seconds):
    # the scan has no seed: its input is every sign-ranked poset on <= 5 points
    # set-up launches before, between and after the scans, as for a library run
    per_gap = PROBES // (WORKERS + 1)
    setups, scans = [], []
    for _ in range(WORKERS):
        setups += [_help_launch() for _ in range(per_gap)]
        scans += _scans(seconds / WORKERS)
    setups += [_help_launch() for _ in range(per_gap)]
    if not all(s["arrivals"] for s in scans):
        raise BenchError("scan-gamma printed no records")
    med = statistics.median
    metrics = {
        "setup_s": (med(setups), "s"),
        "cases_per_s": (sum(s["records"] for s in scans)
                        / sum(s["elapsed"] for s in scans), "1/s"),
        "case_p50_ms": (med(1000 * _decile(s["arrivals"], 5) for s in scans),
                        "ms"),
        "case_p90_ms": (med(1000 * _decile(s["arrivals"], 9) for s in scans),
                        "ms"),
        "first_result_s": (med(s["arrivals"][0] for s in scans), "s"),
        "peak_rss_mb": (med(s["peak_rss_mb"] for s in scans), "MB"),
    }
    return _scan_outcome(scans), metrics


def scan_trace(seed, seconds):
    plain = _scans(count=_trace_blocks(SCAN, seconds))
    traced = _scans(count=len(plain), trace=True)
    metrics = {}
    for scan in traced:
        for name, (value, unit) in _layer_metrics(scan["layers"],
                                                  scan["ref"]).items():
            metrics[name] = (metrics.get(name, (0, unit))[0] + value, unit)
    metrics["cli.lines"] = (sum(s["records"] + 1 for s in traced), "count")
    metrics["cli.bytes_out"] = (sum(s["bytes"] for s in traced), "count")
    metrics["trace.overhead_s"] = (sum(s["elapsed"] for s in traced)
                                   - sum(s["elapsed"] for s in plain), "s")
    outcome = _scan_outcome(traced)
    outcome["correct"] = outcome["correct"] and not any(
        s["failed"] for s in plain)
    return outcome, metrics


# --- entry point ------------------------------------------------------------

def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    if workload == SCAN:
        outcome, metrics = (scan_trace if trace else scan_run)(seed, seconds)
    else:
        outcome, metrics = (library_trace if trace else library_run)(
            workload, seed, seconds)
    # report the metrics BENCHMARK.json names, in its order; a layer the
    # workload never calls reports 0
    declared = _spec()["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: metrics.get(m["name"], (0, m["unit"])) if trace
               else metrics[m["name"]] for m in declared}
    result = {"correct": outcome["correct"], "attempted": outcome["attempted"],
              "failed": outcome["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, problems=outcome["problems"]), indent=1))
    for problem in outcome["problems"]:
        print(f"{workload}: FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name:28s} {value:>14.6g} {unit}")
    print(f"{workload}  attempted {outcome['attempted']}  "
          f"failed {outcome['failed']}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "lhall" / "__init__.py").is_file():
        print(f"error: no lhall package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            results = {w: run(w, args.seed, args.seconds, args.trace)
                       for w in WORKLOADS}
            print(json.dumps(results))
        else:
            print(json.dumps(run(args.workload, args.seed, args.seconds,
                                 args.trace)))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
