"""End-to-end runs of the command line front end via cli.main."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lhall import cli, lattice
from lhall.colored import _child_eulerian


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _process_env(env=None):
    src = str(Path(cli.__file__).resolve().parents[1])
    full = dict(os.environ, **(env or {}))
    full["PYTHONPATH"] = os.pathsep.join(
        v for v in (src, full.get("PYTHONPATH")) if v)
    return full


def run_process(*argv, env=None):
    """Run the CLI in a fresh interpreter, so a crash shows as a traceback."""
    proc = subprocess.run([sys.executable, "-m", "lhall.cli", *argv],
                          capture_output=True, text=True,
                          env=_process_env(env), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def assert_unusable_input(code, err):
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    lines = [json.loads(line) for line in out.splitlines() if line]
    return code, lines


def test_eulerian_both_methods(capsys):
    code, lines = run_json(capsys, "eulerian", "--poset", "chain:1,2,3",
                           "--s", "1,2,3")
    assert code == 0
    (doc,) = lines
    assert doc["eulerian"] == [1, 4, 1]
    assert doc["via_ehrhart"] == [1, 4, 1]
    assert doc["methods_agree"] is True


def test_bundled_color_counts(capsys):
    code, lines = run_json(capsys, "eulerian", "--poset", "chain:1,2;s=1,2")
    assert code == 0
    assert lines[0]["s"] == [1, 2]
    assert lines[0]["eulerian"] == [1, 1]
    # an explicit --s wins over the bundle
    code, lines = run_json(capsys, "eulerian", "--poset", "chain:1,2;s=1,2",
                           "--s", "1,1")
    assert code == 0
    assert lines[0]["s"] == [1, 1]


def test_missing_color_counts(capsys):
    code, out, err = run(capsys, "eulerian", "--poset", "chain:1,2")
    assert code == 2 and err.startswith("error:")
    assert "color counts" in err


def test_bad_poset_spec(capsys):
    code, out, err = run(capsys, "eulerian", "--poset", "frob:1", "--s", "1")
    assert code == 2 and err.startswith("error:")


def test_bad_color_counts(capsys):
    code, out, err = run(capsys, "eulerian", "--poset", "chain:1,2",
                         "--s", "1,2,3")
    assert code == 2 and err.startswith("error:")


def test_auto_color_counts(capsys):
    code, lines = run_json(capsys, "eulerian", "--poset", "chain:1,2,3",
                           "--s", "auto")
    assert code == 0
    assert lines[0]["s"] == [1, 2, 3]


def test_auto_rejects_unrankable(capsys):
    spec = 'json:{"p": 3, "covers": [[1, 2], [3, 2]]}'
    code, out, err = run(capsys, "eulerian", "--poset", spec, "--s", "auto")
    assert code == 2 and "rank" in err


def test_const_color_counts(capsys):
    code, lines = run_json(capsys, "eulerian", "--poset", "antichain:2",
                           "--s", "const:2")
    assert code == 0
    assert lines[0]["s"] == [2, 2]
    assert lines[0]["eulerian"] == [1, 6, 1]


def test_poset_from_file(capsys, tmp_path):
    path = tmp_path / "poset.json"
    path.write_text('{"p": 2, "covers": [[1, 2]]}')
    code, lines = run_json(capsys, "eulerian", "--poset", f"file:{path}",
                           "--s", "1,2")
    assert code == 0
    assert lines[0]["eulerian"] == [1, 1]


def test_ehrhart_beyond_the_old_point_cap(capsys):
    code, lines = run_json(capsys, "ehrhart", "--poset", "antichain:5",
                           "--s", "const:9", "--nmax", "40")
    assert code == 0
    assert lines[0]["counts"][40] == 361 ** 5


def test_covers_that_are_not_pairs_exit_2(capsys):
    code, out, err = run_process("dual", "--poset",
                                 'json:{"p":2,"covers":5}')
    assert_unusable_input(code, err)
    for doc in ('[1]', '{"p":2,"covers":[1]}', '{"p":2,"covers":[[[1],[2]]]}'):
        code, out, err = run(capsys, "dual", "--poset", "json:" + doc)
        assert_unusable_input(code, err)


def test_kn_roots_rejects_empty_sampling_ranges(capsys):
    code, out, err = run_process("kn-roots", "--k", "2", "--p", "2",
                                 "--max-den", "0")
    assert_unusable_input(code, err)
    code, out, err = run(capsys, "kn-roots", "--k", "2", "--p", "2",
                         "--max-num", "-1")
    assert_unusable_input(code, err)
    code, out, err = run(capsys, "kn-roots", "--k", "-1", "--p", "0")
    assert_unusable_input(code, err)


def test_cap_variable_that_is_not_an_integer(capsys, monkeypatch):
    code, out, err = run_process("bij", "--poset", "chain:1,2,3", "--n", "3",
                                 env={"LHALL_MAX_POINTS": "abc"})
    assert_unusable_input(code, err)
    assert "LHALL_MAX_POINTS" in err
    # an identity's lattice side reads the point cap before its walk too
    monkeypatch.setenv("LHALL_MAX_POINTS", "abc")
    code, out, err = run(capsys, "verify", "--identity", "R1",
                         "--poset", "chain:1,2;s=1,2")
    assert_unusable_input(code, err)
    assert "LHALL_MAX_POINTS" in err
    monkeypatch.delenv("LHALL_MAX_POINTS")
    monkeypatch.setenv("LHALL_MAX_DP", "abc")
    code, out, err = run(capsys, "ehrhart", "--poset", "chain:1,2",
                         "--s", "1,1", "--nmax", "2")
    assert_unusable_input(code, err)


def test_ehrhart_reports_quasipolynomial_consistency(capsys):
    code, lines = run_json(capsys, "ehrhart", "--poset", "chain:1,2,3",
                           "--s", "1,2,3", "--nmax", "5")
    assert code == 0
    assert lines[0]["counts"] == [1, 8, 27, 64, 125, 216]
    assert lines[0]["eulerian_from_counts"] == [1, 4, 1]


def test_extensions_plain_and_colored(capsys):
    code, lines = run_json(capsys, "extensions", "--poset", "chain:2,1")
    assert code == 0
    assert lines[0]["extensions"] == [[2, 1]]
    code, lines = run_json(capsys, "extensions", "--poset", "chain:2,1",
                           "--s", "1,2")
    assert code == 0
    assert lines[0]["extensions"] == [{"pi": [2, 1], "colors": [0, 0]},
                                      {"pi": [2, 1], "colors": [0, 1]}]


def test_stats(capsys):
    code, lines = run_json(capsys, "stats", "--pi", "3,1,2",
                           "--colors", "1,0,2", "--s", "2,2,3")
    assert code == 0
    doc = lines[0]
    assert doc["d1"] == [1, 2] and doc["d"] == [1, 2]
    assert doc["des"] == 2 and doc["comaj"] == 3 and doc["lhp"] == 9
    assert "fmaj" not in doc


def test_stats_rejects_bad_colors(capsys):
    code, out, err = run(capsys, "stats", "--pi", "2,1",
                         "--colors", "0,5", "--s", "2,2")
    assert code == 2 and "color" in err


def test_verify_single_identity(capsys):
    code, lines = run_json(capsys, "verify", "--identity", "F",
                           "--poset", "chain:1,2", "--s", "1,2")
    assert code == 0
    assert lines[0]["status"] == "pass" and lines[0]["compared"] > 0


def test_verify_skip_is_success(capsys):
    code, lines = run_json(capsys, "verify", "--identity", "RECIPR",
                           "--poset", "antichain:2", "--s", "2,2")
    assert code == 0
    assert lines[0]["status"] == "skip"


def test_empty_poset_skips_eul2_and_recipr(capsys):
    code, lines = run_json(capsys, "verify-all", "--poset", "antichain:0",
                           "--s", "")
    assert code == 0 and lines[0]["failed"] == 0
    reasons = {r["identity"]: r["reason"] for r in lines[0]["reports"]
               if r["status"] == "skip"}
    for name in ("EUL2", "RECIPR"):
        assert reasons[name] == "degenerate for the empty poset"
    code, lines = run_json(capsys, "verify", "--identity", "RECIPR",
                           "--poset", "antichain:0", "--s", "")
    assert code == 0 and lines[0]["status"] == "skip"


def test_verify_kn_without_poset(capsys):
    code, lines = run_json(capsys, "verify", "--identity", "KN1",
                           "--k", "1", "--p", "1", "--tcap", "3")
    assert code == 0
    assert lines[0]["status"] == "pass"
    assert lines[0]["caps"]["t"] == 3
    code, out, err = run(capsys, "verify", "--identity", "KN1",
                         "--k", "-3", "--p", "0")
    assert_unusable_input(code, err)


def test_verify_requires_poset_for_most_identities(capsys):
    code, out, err = run(capsys, "verify", "--identity", "F",
                         "--k", "1", "--p", "1")
    assert code == 2 and "--poset" in err


def test_caps_string(capsys):
    code, lines = run_json(capsys, "verify", "--identity", "R1",
                           "--poset", "chain:1,2", "--s", "1,2",
                           "--caps", "x=2,t=4")
    assert code == 0
    assert lines[0]["caps"]["t"] == 4
    code, out, err = run(capsys, "verify", "--identity", "R1",
                         "--poset", "chain:1,2", "--s", "1,2",
                         "--caps", "y=2")
    assert code == 2 and "cap" in err


def test_verify_all_default_and_subset(capsys):
    code, lines = run_json(capsys, "verify-all", "--poset", "antichain:2",
                           "--s", "const:2")
    assert code == 0
    names = [r["identity"] for r in lines[0]["reports"]]
    assert len(names) == len(set(names)) == 16
    assert lines[0]["failed"] == 0
    code, lines = run_json(capsys, "verify-all", "--poset", "antichain:2",
                           "--s", "const:2", "--names", "F,R1")
    assert code == 0
    assert [r["identity"] for r in lines[0]["reports"]] == ["F", "R1"]


def test_verify_all_rejects_duplicate_names(capsys):
    code, out, err = run(capsys, "verify-all", "--poset", "antichain:2",
                         "--s", "const:2", "--names", "F,F")
    assert code == 2 and "twice" in err


def test_bij_pass_and_skip(capsys):
    code, lines = run_json(capsys, "bij", "--poset", "chain:1,2", "--n", "2")
    assert code == 0 and lines[0]["status"] == "pass"
    code, lines = run_json(capsys, "bij", "--poset", "chain:2,1", "--n", "1")
    assert code == 0 and lines[0]["status"] == "skip"


def test_ordinal_interlacing(capsys):
    code, lines = run_json(capsys, "ordinal-interlacing",
                           "--blocks", "2,1", "--block-s", "2,2")
    assert code == 0 and lines[0]["status"] == "pass"


def test_ordinal_interlacing_without_blocks_exits_2(capsys):
    code, out, err = run(capsys, "ordinal-interlacing",
                         "--blocks", "", "--block-s", "")
    assert_unusable_input(code, err)
    assert out == ""


def test_scan_gamma_streams_records(capsys):
    code, lines = run_json(capsys, "scan-gamma", "--pmax", "2")
    assert code == 0
    records, summary = lines[:-1], lines[-1]
    assert summary["checked"] == len(records) == 3
    assert summary["proven_regime_failures"] == []
    assert all(rec["gamma_nonnegative"] for rec in records)


def test_scan_gamma_prints_each_record_as_it_is_built(capsys, monkeypatch):
    # a crash on the second poset leaves the first record already printed
    calls = []

    def eulerian_once(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise ZeroDivisionError("second poset")
        return _child_eulerian(*args, **kwargs)

    monkeypatch.setattr(lattice, "_child_eulerian", eulerian_once)
    code, out, err = run(capsys, "scan-gamma", "--pmax", "2")
    assert code == 3
    assert err == "error: unexpected ZeroDivisionError: second poset\n"
    lines = out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["p"] == 1


def test_scan_gamma_output_is_pinned(capsys, monkeypatch):
    # byte for byte: the records of p <= 5 and the summary line
    code, out, err = run(capsys, "scan-gamma", "--pmax", "5")
    assert (code, err, out.count("\n")) == (0, "", 877)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "69b6d3181fb0828c70c41ae6145d052dd5c0a753d9e6a63caaa96a30b5e2e01c")
    # the DP cap is checked per record, so the records before the first
    # poset past it are already out when it fires
    monkeypatch.setenv("LHALL_MAX_DP", "100")
    code, capped, err = run(capsys, "scan-gamma", "--pmax", "5")
    assert_unusable_input(code, err)
    assert "160 transitions (at most 32 down-sets x 5 steps)" in err
    lines = capped.splitlines()
    assert len(lines) == 80 and out.startswith(capped)
    assert all("eulerian" in json.loads(line) for line in lines)


def test_scan_gamma_cap_fires_before_the_first_record(capsys, monkeypatch):
    monkeypatch.setenv("LHALL_MAX_POSET_ENUM", "3")
    code, out, err = run(capsys, "scan-gamma", "--pmax", "4")
    assert_unusable_input(code, err)
    assert "LHALL_MAX_POSET_ENUM" in err
    assert out == ""


def test_closed_stdout_exits_quietly():
    # the scan prints about 160 kB, more than a pipe holds, so the CLI is
    # still writing when the reader goes away after ten bytes
    proc = subprocess.Popen([sys.executable, "-m", "lhall.cli", "scan-gamma",
                             "--pmax", "5"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_process_env())
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert head == b'{"covers":' and err == b""


def test_dual(capsys):
    code, lines = run_json(capsys, "dual", "--poset", "chain:1,2")
    assert code == 0
    assert lines[0]["dual"] == {"p": 2, "covers": [[2, 1]]}


def test_kn_roots_is_deterministic(capsys):
    code, out, err = run(capsys, "kn-roots", "--k", "2", "--p", "2",
                         "--samples", "8", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == [] and doc["checked"] == 8
    code2, out2, err2 = run(capsys, "kn-roots", "--k", "2", "--p", "2",
                            "--samples", "8", "--seed", "5")
    assert (code2, out2) == (code, out)


def test_text_and_tsv_formats(capsys):
    code, out, err = run(capsys, "eulerian", "--poset", "chain:1,2,3",
                         "--s", "1,2,3", "--format", "text")
    assert code == 0
    assert "eulerian: [1, 4, 1]" in out.splitlines()
    code, out, err = run(capsys, "eulerian", "--poset", "chain:1,2,3",
                         "--s", "1,2,3", "--format", "tsv")
    assert code == 0
    assert "eulerian\t[1, 4, 1]" in out.splitlines()


def test_console_script_is_wired():
    # read the declaration itself: the source tree carries no built metadata
    import importlib.metadata
    tomllib = pytest.importorskip("tomllib")
    root = Path(cli.__file__).resolve().parents[2]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    ep = importlib.metadata.EntryPoint("lhall", project["scripts"]["lhall"],
                                       "console_scripts")
    assert ep.load() is cli.main


def test_scan_gamma_rejects_negative_size(capsys):
    code, out, err = run(capsys, "scan-gamma", "--pmax", "-1")
    assert_unusable_input(code, err)
    assert out == ""


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("boom\nsecond line")

    monkeypatch.setattr(cli, "eulerian_polynomial", broken)
    code, out, err = run(capsys, "eulerian", "--poset", "chain:1,2",
                         "--s", "1,1")
    assert code == 3
    assert err == "error: unexpected ZeroDivisionError: boom second line\n"


# Argument vectors for the fuzz test: each subcommand with a few options
# drawn from small well-formed and malformed values, kept small enough
# that every run finishes in well under a second.
SMALL_INTS = st.sampled_from(["-1", "0", "1", "2", "3", "x", ""])
POSETS = st.sampled_from([
    "chain:1,2", "chain:2,1,3", "chain:1,1", "chain:", "chain:0",
    "antichain:2", "antichain:0", "antichain:-1", "antichain:x",
    "ordinal:1,2", "ordinal:0", 'json:{"p":2,"covers":[[1,2]]}',
    'json:{"p":2,"covers":[[2,2]]}', 'json:{"p":-1,"covers":[]}',
    'json:{"covers":[]}', "json:[", "json:null", "file:/nonexistent/poset",
    "chain:1,2;s=1,2", "chain:1,2;s=x", "bogus"])
SMAPS = st.sampled_from(["1,2", "2,1,3", "1", "0,1", "-1,2", "const:2",
                         "const:0", "const:x", "auto", "", "1,,2"])
CAPS = st.sampled_from(["x=1,t=2", "x=0,t=0", "x=-1", "t=-2", "z=1", "x=a",
                        "x", ",", ""])
OPTIONS = {
    "eulerian": {"--poset": POSETS, "--s": SMAPS},
    "ehrhart": {"--poset": POSETS, "--s": SMAPS, "--nmax": SMALL_INTS},
    "extensions": {"--poset": POSETS, "--s": SMAPS},
    "stats": {"--pi": st.sampled_from(["1,2", "2,1", "1,1", "3", ""]),
              "--colors": st.sampled_from(["0,1", "1,0", "0", "-1,0", "x"]),
              "--s": SMAPS},
    "verify": {"--identity": st.sampled_from(["F", "R2", "UQ", "KN", "KN1",
                                              "RECIPR", "NOPE"]),
               "--poset": POSETS, "--s": SMAPS, "--k": SMALL_INTS,
               "--p": SMALL_INTS, "--caps": CAPS, "--capx": SMALL_INTS,
               "--capt": SMALL_INTS},
    "verify-all": {"--poset": POSETS, "--s": SMAPS, "--caps": CAPS,
                   "--names": st.sampled_from(["F,UQ", "LHP", "F,F", "NOPE",
                                               ",", "KN1,RECIPR"]),
                   "--capt": SMALL_INTS},
    "bij": {"--poset": POSETS, "--n": SMALL_INTS},
    "ordinal-interlacing": {"--blocks": st.sampled_from(["2,1", "1", "0",
                                                         "-1", "", "x"]),
                            "--block-s": st.sampled_from(["2,2", "1", "0,1",
                                                          "", "x"])},
    "scan-gamma": {"--pmax": SMALL_INTS},
    "dual": {"--poset": POSETS},
    "kn-roots": {"--k": SMALL_INTS, "--p": SMALL_INTS,
                 "--samples": SMALL_INTS, "--seed": SMALL_INTS,
                 "--max-num": SMALL_INTS, "--max-den": SMALL_INTS},
}


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option, values in OPTIONS[command].items():
        if draw(st.booleans()):
            argv += [option, draw(values)]
    return argv


def _shows_failure(out):
    for line in out.splitlines():
        doc = json.loads(line)
        if (doc.get("status") == "fail" or doc.get("failed")
                or doc.get("methods_agree") is False or doc.get("failures")
                or doc.get("proven_regime_failures")):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(argument_vectors())
def test_fuzzed_arguments_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse's own usage errors and --help
            code = e.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert code != 1 or _shows_failure(out.getvalue()), argv
    assert "Traceback" not in err.getvalue(), argv
