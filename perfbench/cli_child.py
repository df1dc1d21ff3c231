"""Run the lhall command line and record what the process used.

    cli_child.py OUT.json [--trace] ARGS...

Behaves like `python -m lhall.cli ARGS...`.  When the command returns, it
writes to OUT.json the process's own peak resident set size and, with
--trace, the per-layer totals of a tracer installed before the command ran.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostclock  # noqa: E402
import lhall.cli  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = None
    if argv[:1] == ["--trace"]:
        from tracer import Tracer
        argv = argv[1:]
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    code = lhall.cli.main(argv)
    sys.stdout.flush()
    usage = {"peak_rss_mb": hostclock.peak_rss_mb()}
    if tracer:
        tracer.active = False
        usage["layers"] = tracer.totals()
    Path(out).write_text(json.dumps(usage))
    return code


if __name__ == "__main__":
    sys.exit(main())
