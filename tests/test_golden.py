"""The identity layer's CLI output, against a golden file.

golden_verify_all.txt holds, for every CORPUS pair at caps x=3,t=5,
x=2,t=3 and x=0,t=0 (where every x letter of an extension side is over
its cap), a header line "name caps exit=code" and the verify-all JSON line
the CLI printed; then, for KN1 and KN on the antichains with k <= 3 colors
and p <= 3 elements at --tcap 0 and 4, a header line
"identity k= p= tcap= exit=code" and the verify JSON line; then, for every
composition of 1, 2 or 3 into antichain block sizes and every choice of
block colors in {1, 2, 3}, a header line "ordinal blocks= block-s= exit=code"
and the ordinal-interlacing JSON line.  A refactor of series, identities or
roots must leave every byte of it alone.  To rewrite the file after a change
that is meant to alter the output, run
`PYTHONPATH=src python tests/test_golden.py --write` and say why in the
change log.
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

from lhall import cli, poset_to_document
from lhall.corpus import CORPUS

GOLDEN = Path(__file__).with_name("golden_verify_all.txt")
CAPS = ("x=3,t=5", "x=2,t=3", "x=0,t=0")


def _commands():
    """(header, argv) for every command the golden file records."""
    for caps in CAPS:
        for name, P, s in CORPUS:
            spec = "json:" + json.dumps(poset_to_document(P))
            yield f"{name} {caps}", ["verify-all", "--poset", spec,
                                     "--s", ",".join(map(str, s)),
                                     "--caps", caps]
    for identity in ("KN1", "KN"):
        for k in (1, 2, 3):
            for p in (0, 1, 2, 3):
                for tcap in (0, 4):
                    yield (f"{identity} k={k} p={p} tcap={tcap}",
                           ["verify", "--identity", identity, "--k", str(k),
                            "--p", str(p), "--tcap", str(tcap)])
    for sizes in _compositions(3):
        for block_s in itertools.product((1, 2, 3), repeat=len(sizes)):
            blocks = ",".join(map(str, sizes))
            colors = ",".join(map(str, block_s))
            yield (f"ordinal blocks={blocks} block-s={colors}",
                   ["ordinal-interlacing", "--blocks", blocks,
                    "--block-s", colors])


def _compositions(nmax):
    """Every composition of 1, ..., nmax: tuples of positive block sizes."""
    for n in range(1, nmax + 1):
        for cuts in itertools.product((False, True), repeat=n - 1):
            sizes, run = [], 1
            for cut in cuts:
                if cut:
                    sizes.append(run)
                    run = 1
                else:
                    run += 1
            yield tuple(sizes + [run])


def _render():
    lines = []
    for header, argv in _commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        lines.append(f"{header} exit={code}\n")
        lines.append(out.getvalue())
    return "".join(lines)


def test_verify_all_matches_golden_file():
    expected = GOLDEN.read_text().splitlines()
    got = _render().splitlines()
    assert len(got) == len(expected)
    for i, (a, b) in enumerate(zip(got, expected)):
        assert a == b, f"line {i + 1} differs: {expected[i - i % 2]}"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(_render())
