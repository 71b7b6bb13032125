"""Command-line front end.

Subcommands: verify, loop-algebra, smash, cosmash, dequation, search-loops,
dual.  Exit codes: 0 all checked laws pass, 1 at least one law fails (or the
input violates a structural precondition such as the IP-loop laws), 2 parse
or I/O error, or memory exhausted.
"""

import argparse
import json
import sys

from . import fileio
from .dimodules import check_d_equation, check_long_dimodule, d_map
from .errors import (HopfloopError, HypothesisNotMet, InvalidInput,
                     NotIPLoop, ParseError)
from .fields import GF, QQ
from .loops import check_ip_loop, loop_algebra, search_ip_loops
from .smash import (CosmashInput, SmashInput, build_smash_coproduct,
                    build_smash_product, check_cocommu, check_commu)
from .structures import (HopfQuasigroup, check_hopf_coquasigroup,
                         check_hopf_quasigroup, dualize)

EXIT_OK = 0
EXIT_LAW_FAIL = 1
EXIT_ERROR = 2


def _field_from_flag(flag):
    if flag is None or flag == "Q":
        return QQ
    if flag.startswith("F"):
        try:
            return GF(int(flag[1:]))
        except (ValueError, HopfloopError) as exc:
            raise ParseError(f"bad --field value {flag!r}: {exc}") from exc
    raise ParseError(f"bad --field value {flag!r} (use Q or F<p>)")


def _report_json(report, extra=None):
    doc = report.to_dict()
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def _emit_report(args, report, extra=None):
    text = _report_json(report, extra)
    sys.stdout.write(text)
    if args.report:
        fileio.write_text(args.report, text)
    return EXIT_OK if report.ok else EXIT_LAW_FAIL


def _detect_kind(path):
    text = fileio._read(path)
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            return line.split()[0], text
    raise ParseError("empty file")


def cmd_verify(args):
    kind, text = _detect_kind(args.path)
    if args.kind != "auto" and args.kind != kind:
        raise ParseError(
            f"file declares {kind!r} but --kind {args.kind} was given", 1)
    if kind in ("hopfqg", "hopfcoqg"):
        H = fileio.parse_structure(text)
        report = (check_hopf_quasigroup(H) if isinstance(H, HopfQuasigroup)
                  else check_hopf_coquasigroup(H))
    elif kind == "loop":
        report = check_ip_loop(fileio.parse_cayley(text))
    elif kind == "dimodule":
        report = check_long_dimodule(fileio.load_dimodule_bundle(args.path))
    elif kind in ("smash", "cosmash"):
        inp = fileio.load_smash_bundle(args.path)
        report = inp.validate()
        report.extend(check_cocommu(inp) if isinstance(inp, SmashInput)
                      else check_commu(inp))
    else:
        raise ParseError(f"unrecognized file header {kind!r}", 1)
    return _emit_report(args, report, {"kind": kind})


def _write_structure(args, H):
    text = fileio.serialize_structure(H)
    if args.out:
        fileio.write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_loop_algebra(args):
    table = fileio.load_cayley(args.path)
    H = loop_algebra(table, field=_field_from_flag(args.field))
    return _write_structure(args, H)


def cmd_dual(args):
    return _write_structure(args, dualize(fileio.load_structure(args.path)))


def cmd_smash(args):
    inp = fileio.load_smash_bundle(args.path)
    if not isinstance(inp, SmashInput):
        raise ParseError("bundle is a cosmash bundle; use the cosmash "
                         "subcommand", 1)
    return _write_structure(args, build_smash_product(inp))


def cmd_cosmash(args):
    inp = fileio.load_smash_bundle(args.path)
    if not isinstance(inp, CosmashInput):
        raise ParseError("bundle is a smash bundle; use the smash "
                         "subcommand", 1)
    return _write_structure(args, build_smash_coproduct(inp))


def cmd_dequation(args):
    D = fileio.load_dimodule_bundle(args.path)
    R = d_map(D)
    report = check_d_equation(R)
    shape = ("R = identity" if R.is_identity()
             else f"R: {R.dim}x{R.dim}")
    verdict = "pass" if report.ok else "fail"
    sys.stdout.write(f"{shape}; D-equation: {verdict}\n")
    if args.report:
        fileio.write_text(args.report,
                          _report_json(report, {"r_dim": R.dim,
                                                "r_identity":
                                                R.is_identity()}))
    return EXIT_OK if report.ok else EXIT_LAW_FAIL


def cmd_search_loops(args):
    tables = search_ip_loops(args.n, want_nonassociative=args.nonassoc,
                             limit=args.limit)
    written = []
    for idx, table in enumerate(tables):
        path = f"{args.prefix}loop{args.n}-{idx}.cayley"
        fileio.write_text(path, fileio.serialize_cayley(table))
        written.append(path)
    kind = "nonassociative IP loops" if args.nonassoc else "IP loops"
    sys.stdout.write(f"found {len(tables)} {kind} of order {args.n}\n")
    for path in written:
        sys.stdout.write(path + "\n")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="hopfloop",
        description="Exact verification of Hopf quasigroup structures, "
                    "Long dimodules and smash (co)products.")
    p.add_argument("--field", default=None,
                   help="scalar field: Q (default) or F<p>")
    p.add_argument("--report", default=None,
                   help="also write the JSON report to this path")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full law suite on a file")
    v.add_argument("path")
    v.add_argument("--kind", default="auto",
                   choices=["auto", "hopfqg", "hopfcoqg", "loop",
                            "dimodule", "smash", "cosmash"])
    v.set_defaults(func=cmd_verify)

    la = sub.add_parser("loop-algebra",
                        help="linearize a Cayley file to a structure file")
    la.add_argument("path")
    la.add_argument("-o", "--out", default=None)
    la.set_defaults(func=cmd_loop_algebra)

    du = sub.add_parser("dual", help="dualize a structure file")
    du.add_argument("path")
    du.add_argument("-o", "--out", default=None)
    du.set_defaults(func=cmd_dual)

    sm = sub.add_parser("smash", help="build a smash product from a bundle")
    sm.add_argument("path")
    sm.add_argument("-o", "--out", default=None)
    sm.set_defaults(func=cmd_smash)

    cs = sub.add_parser("cosmash",
                        help="build a smash coproduct from a bundle")
    cs.add_argument("path")
    cs.add_argument("-o", "--out", default=None)
    cs.set_defaults(func=cmd_cosmash)

    dq = sub.add_parser("dequation",
                        help="check the D-equation for a dimodule bundle")
    dq.add_argument("path")
    dq.set_defaults(func=cmd_dequation)

    sl = sub.add_parser("search-loops",
                        help="enumerate IP loops of a given order")
    sl.add_argument("n", type=int)
    sl.add_argument("--nonassoc", action="store_true",
                    help="keep only nonassociative loops")
    sl.add_argument("--limit", type=int, default=None)
    sl.add_argument("--prefix", default="",
                    help="output filename prefix (may include a directory)")
    sl.set_defaults(func=cmd_search_loops)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except (NotIPLoop, InvalidInput, HypothesisNotMet) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_LAW_FAIL
    except HopfloopError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
