"""Command line front end.

Poset arguments take one of the forms
    chain:2,1,3        the chain 2 -< 1 -< 3
    antichain:4        no relations on {1, ..., 4}
    ordinal:2,1        stacked antichain blocks, bottom to top
    json:{...}         an inline {"p": ..., "covers": [[x, y], ...]} document
    file:PATH          the same document read from a file
optionally followed by ";s=1,2,2" to bundle the color counts with the poset.
Color counts given through --s take one of
    1,2,2              explicit values, indexed by element
    const:2            the same count everywhere
    auto               rank + 1, for posets that admit a nonnegative rank
and win over a bundled ";s=" suffix.

Reports are JSON on stdout; --format text or tsv renders the same document
as flat key/value lines.  scan-gamma streams one JSON line per poset before
its summary line.  Exit status 0 means every requested check passed or was
skipped as not applicable, 1 means some check failed, 2 means the input
could not be used, and 3 means the program itself failed unexpectedly.  A
reader that closes stdout early, as `head` does, ends the run with status 0.
The identities and roots modules load only with the commands that use them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .colored import (ColoredPermutation, colored_extensions, descent_profile,
                      eulerian_polynomial, statistics)
from .errors import InvalidInputError, LhallError
from .lattice import (_gamma_records, ehrhart_counts, eulerian_via_ehrhart,
                      verify_bijection, verify_ordinal_interlacing)
from .polys import hstar_from_counts
from .posets import (linear_extensions, make_antichain, make_chain,
                     ordinal_sum_of_antichains, poset_from_document,
                     poset_to_document, sign_rank, validate_smap)
from .reports import (DEFAULT_CAPT, DEFAULT_CAPX, IDENTITY_NAMES, _dumps,
                      jsonable)


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise LhallError(f"expected comma-separated integers, got {text!r}") from None


def parse_poset(spec):
    """Parse a poset source string.

    Returns (poset, bundled color counts or None).
    """
    spec, sep, tail = spec.partition(";s=")
    bundled = tuple(_int_list(tail)) if sep else None
    kind, _, rest = spec.partition(":")
    if kind == "chain":
        return make_chain(tuple(_int_list(rest))), bundled
    if kind == "antichain":
        try:
            return make_antichain(int(rest)), bundled
        except ValueError:
            raise LhallError(f"antichain size {rest!r} is not an integer") from None
    if kind == "ordinal":
        return ordinal_sum_of_antichains(tuple(_int_list(rest))), bundled
    if kind == "json":
        try:
            return poset_from_document(json.loads(rest)), bundled
        except json.JSONDecodeError as e:
            raise LhallError(f"bad poset JSON: {e}") from None
    if kind == "file":
        try:
            with open(rest) as fh:
                return poset_from_document(json.load(fh)), bundled
        except OSError as e:
            raise LhallError(f"cannot read poset file: {e}") from None
        except json.JSONDecodeError as e:
            raise LhallError(f"bad poset JSON in {rest}: {e}") from None
    raise LhallError(f"unknown poset form {spec!r}")


def parse_smap(spec, P):
    if spec == "auto":
        info = sign_rank(P)
        if not info.ranked or any(v < 0 for v in info.rho):
            raise LhallError(
                "auto needs a sign-ranked poset with nonnegative rank function")
        return tuple(v + 1 for v in info.rho)
    if spec.startswith("const:"):
        try:
            k = int(spec[6:])
        except ValueError:
            raise LhallError(f"bad constant color count {spec!r}") from None
        return validate_smap(P, (k,) * P.p)
    return validate_smap(P, _int_list(spec))


def resolve_smap(sval, bundled, P):
    if sval is not None:
        return parse_smap(sval, P)
    if bundled is not None:
        return validate_smap(P, bundled)
    raise LhallError("color counts required: pass --s or append ;s=... "
                     "to the poset")


def _flat(prefix, value, rows):
    if isinstance(value, dict):
        for key in sorted(value):
            _flat(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
        return
    rows.append((prefix or "value", json.dumps(value, sort_keys=True)))


def _emit(payload, fmt="json"):
    """Write payload as one document in one call, so an unbuffered stdout
    gets one write per document."""
    if fmt == "json":
        sys.stdout.write(_dumps(payload) + "\n")
        return
    rows = []
    _flat("", jsonable(payload), rows)
    sep = ": " if fmt == "text" else "\t"
    sys.stdout.write("".join(f"{key}{sep}{rendered}\n"
                             for key, rendered in rows))


def _parse_caps(text):
    capx = capt = None
    for part in text.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        key = key.strip()
        try:
            num = int(val)
        except ValueError:
            raise LhallError(f"bad cap value in {part!r}") from None
        if key in ("x", "q"):
            capx = num
        elif key == "t":
            capt = num
        else:
            raise LhallError(f"unknown cap {key!r}; y exponents follow the "
                             "color counts and are not settable")
    return capx, capt


def _caps(args):
    capx, capt = DEFAULT_CAPX, DEFAULT_CAPT
    if getattr(args, "caps", None):
        cx, ct = _parse_caps(args.caps)
        capx = capx if cx is None else cx
        capt = capt if ct is None else ct
    if args.capx is not None:
        capx = args.capx
    if args.capt is not None:
        capt = args.capt
    return capx, capt


def cmd_eulerian(args):
    P, bundled = parse_poset(args.poset)
    s = resolve_smap(args.s, bundled, P)
    A = eulerian_polynomial(P, s)
    B = eulerian_via_ehrhart(P, s)
    _emit({"poset": poset_to_document(P), "s": list(s), "eulerian": A,
           "via_ehrhart": B, "methods_agree": A == B}, args.format)
    return 0 if A == B else 1


def cmd_ehrhart(args):
    P, bundled = parse_poset(args.poset)
    s = resolve_smap(args.s, bundled, P)
    counts = ehrhart_counts(P, s, args.nmax)
    payload = {"poset": poset_to_document(P), "s": list(s), "counts": counts}
    if args.nmax >= P.p + 2:
        # eulerian_via_ehrhart's counts are the first p + 3 of these
        payload["eulerian_from_counts"] = hstar_from_counts(counts[:P.p + 3],
                                                            P.p)
    _emit(payload, args.format)
    return 0


def cmd_extensions(args):
    P, bundled = parse_poset(args.poset)
    if args.s is None and bundled is None:
        _emit({"poset": poset_to_document(P),
               "extensions": [list(pi) for pi in linear_extensions(P)]},
              args.format)
        return 0
    s = resolve_smap(args.s, bundled, P)
    out = [{"pi": list(tau.pi), "colors": list(tau.colors)}
           for tau in colored_extensions(P, s)]
    _emit({"poset": poset_to_document(P), "s": list(s), "extensions": out},
          args.format)
    return 0


def cmd_stats(args):
    pi = tuple(_int_list(args.pi))
    colors = tuple(_int_list(args.colors))
    p = len(pi)
    if sorted(pi) != list(range(1, p + 1)):
        raise LhallError("--pi must be a permutation of 1..p")
    s = validate_smap(make_antichain(p), _int_list(args.s))
    if len(colors) != p:
        raise LhallError("--colors must assign one color per element")
    for x in range(1, p + 1):
        if not 0 <= colors[x - 1] < s[x - 1]:
            raise LhallError(f"color of element {x} is out of range")
    tau = ColoredPermutation(pi, colors)
    prof = descent_profile(tau, s)
    payload = {"pi": list(pi), "colors": list(colors), "s": list(s),
               "d1": sorted(prof.d1), "d2": sorted(prof.d2),
               "d3": sorted(prof.d3), "d4": sorted(prof.d4),
               "d": sorted(prof.d)}
    payload.update(statistics(tau, s))
    _emit(payload, args.format)
    return 0


def cmd_verify(args):
    from .identities import verify_identity, verify_kn, verify_kn1
    capx, capt = _caps(args)
    if args.poset is None:
        if args.identity not in ("KN1", "KN"):
            raise LhallError("--poset is required unless --identity is KN1 "
                             "or KN")
        if args.k is None or args.p is None:
            raise LhallError("--k and --p are required when no poset is given")
        verify = verify_kn1 if args.identity == "KN1" else verify_kn
        report = verify(args.k, args.p, capt=capt)
    else:
        P, bundled = parse_poset(args.poset)
        s = resolve_smap(args.s, bundled, P)
        report = verify_identity(args.identity, P, s, capx=capx, capt=capt)
    _emit(report.to_json(), args.format)
    return 1 if report.failed else 0


def cmd_verify_all(args):
    from .identities import verify_identity
    capx, capt = _caps(args)
    P, bundled = parse_poset(args.poset)
    s = resolve_smap(args.s, bundled, P)
    if args.names:
        names = [n.strip() for n in args.names.split(",") if n.strip()]
        if len(names) != len(set(names)):
            raise LhallError("--names lists an identity twice")
    else:
        names = list(IDENTITY_NAMES)
    failed = 0
    out = []
    for name in names:
        report = verify_identity(name, P, s, capx=capx, capt=capt)
        failed += report.failed
        out.append(report.to_json())
    _emit({"poset": poset_to_document(P), "s": list(s), "reports": out,
           "failed": failed}, args.format)
    return 1 if failed else 0


def cmd_bij(args):
    P, _ = parse_poset(args.poset)
    report = verify_bijection(P, args.n)
    _emit(report.to_json(), args.format)
    return 1 if report.failed else 0


def cmd_ordinal_interlacing(args):
    blocks = _int_list(args.blocks)
    block_s = _int_list(args.block_s)
    report = verify_ordinal_interlacing(blocks, block_s)
    _emit(report.to_json(), args.format)
    return 1 if report.failed else 0


def cmd_scan_gamma(args):
    # each record is printed as soon as it is built; only failures are kept
    failures = {"proven_regime_failures": [], "conjecture_failures": []}
    checked = 0
    for rec in _gamma_records(args.pmax, failures):
        _emit(rec, args.format)
        checked += 1
    _emit({"checked": checked, **failures}, args.format)
    return 1 if failures["proven_regime_failures"] else 0


def cmd_dual(args):
    P, _ = parse_poset(args.poset)
    _emit({"poset": poset_to_document(P), "dual": poset_to_document(P.dual())},
          args.format)
    return 0


def cmd_kn_roots(args):
    from .identities import kn_descent_polynomial
    from .roots import is_real_rooted
    if (args.k < 1 or args.p < 0 or args.samples < 0 or args.max_num < 0
            or args.max_den < 1):
        raise InvalidInputError("--k and --max-den must be positive, and "
                                "--p, --samples and --max-num nonnegative")
    rng = random.Random(args.seed)
    failures = []
    polys = []
    for _ in range(args.samples):
        q = tuple(Fraction(rng.randint(0, args.max_num),
                           rng.randint(1, args.max_den))
                  for _ in range(args.p))
        poly = kn_descent_polynomial(args.k, args.p, q)
        polys.append({"q": [str(v) for v in q], "poly": poly})
        if not is_real_rooted(poly):
            failures.append({"q": [str(v) for v in q], "poly": poly})
    _emit({"k": args.k, "p": args.p, "samples": args.samples,
           "seed": args.seed, "failures": failures,
           "checked": polys if args.verbose else len(polys)}, args.format)
    return 1 if failures else 0


def _add_poset_args(sub):
    sub.add_argument("--poset", required=True, help="poset specification")
    sub.add_argument("--s", required=False,
                     help="color counts (or bundle them as ;s=... above)")


def _add_cap_args(sub):
    sub.add_argument("--caps", help="joint cap string such as x=3,t=5")
    sub.add_argument("--capx", type=int, default=None,
                     help=f"cap on x/q exponents (default {DEFAULT_CAPX})")
    sub.add_argument("--capt", "--tcap", type=int, default=None, dest="capt",
                     help=f"cap on t exponents (default {DEFAULT_CAPT})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lhall",
        description="Statistics, polynomials and identity checks for "
                    "colored poset partitions.")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text", "tsv"),
                     default="json", help="output rendering (default json)")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("eulerian", parents=[fmt],
                          help="descent generating polynomial, both methods")
    _add_poset_args(sub)
    sub.set_defaults(func=cmd_eulerian)

    sub = subs.add_parser("ehrhart", parents=[fmt],
                          help="level-by-level lattice point counts")
    _add_poset_args(sub)
    sub.add_argument("--nmax", type=int, required=True)
    sub.set_defaults(func=cmd_ehrhart)

    sub = subs.add_parser("extensions", parents=[fmt],
                          help="list (colored) linear extensions")
    sub.add_argument("--poset", required=True)
    sub.add_argument("--s", help="color counts; omit for plain extensions")
    sub.set_defaults(func=cmd_extensions)

    sub = subs.add_parser("stats", parents=[fmt],
                          help="descent sets and statistics of one colored "
                               "permutation")
    sub.add_argument("--pi", required=True)
    sub.add_argument("--colors", required=True)
    sub.add_argument("--s", required=True)
    sub.set_defaults(func=cmd_stats)

    sub = subs.add_parser("verify", parents=[fmt], help="check one identity")
    sub.add_argument("--identity", required=True, choices=IDENTITY_NAMES)
    sub.add_argument("--poset", help="poset specification (omit for KN1/KN "
                                     "with --k and --p)")
    sub.add_argument("--s", help="color counts")
    sub.add_argument("--k", type=int, default=None,
                     help="constant color count for poset-free KN1/KN")
    sub.add_argument("--p", type=int, default=None,
                     help="antichain size for poset-free KN1/KN")
    _add_cap_args(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("verify-all", parents=[fmt],
                          help="check every identity, skips reported as such")
    _add_poset_args(sub)
    sub.add_argument("--names", help="comma-separated identity names "
                                     "(default: all)")
    _add_cap_args(sub)
    sub.set_defaults(func=cmd_verify_all)

    sub = subs.add_parser("bij", parents=[fmt],
                          help="check the rank-shift bijection")
    sub.add_argument("--poset", required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.set_defaults(func=cmd_bij)

    sub = subs.add_parser("ordinal-interlacing", parents=[fmt],
                          help="interlacing of the refined family on "
                               "stacked antichains")
    sub.add_argument("--blocks", required=True)
    sub.add_argument("--block-s", required=True, dest="block_s")
    sub.set_defaults(func=cmd_ordinal_interlacing)

    sub = subs.add_parser("scan-gamma", parents=[fmt],
                          help="gamma vectors across all small ranked posets, "
                               "one JSON line per poset plus a summary")
    sub.add_argument("--pmax", type=int, required=True)
    sub.set_defaults(func=cmd_scan_gamma)

    sub = subs.add_parser("dual", parents=[fmt],
                          help="order dual under the mirror relabeling")
    sub.add_argument("--poset", required=True)
    sub.set_defaults(func=cmd_dual)

    sub = subs.add_parser("kn-roots", parents=[fmt],
                          help="real-rootedness of the color-refined descent "
                               "polynomial at sampled weights")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--samples", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-num", type=int, default=6, dest="max_num")
    sub.add_argument("--max-den", type=int, default=4, dest="max_den")
    sub.add_argument("--verbose", action="store_true")
    sub.set_defaults(func=cmd_kn_roots)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, which is no failure; point stdout
        # at the null device so the interpreter's last flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except LhallError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a defect, not a failed check: keep it out of exit code 1
        message = " ".join(str(e).split())
        print(f"error: unexpected {type(e).__name__}: {message}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
