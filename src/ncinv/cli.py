"""Command line front end.

Subcommands: dim, basis, hilbert, rewrite, verify, moments.  Exit codes:
0 success, 1 verification failure, 2 usage or data error.  Rational values
print as "p/q" strings; only quadrature columns print decimals, at the
precision set by --precision.  Each handler imports the layers it runs, and
json only where it reads JSON or dumps a document (basis builds its own
JSON text), so a command loads no others.
"""

from __future__ import annotations

import argparse
import reprlib
import sys


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    # Accepted and ignored, so that existing command lines keep working.
    parser.add_argument("--no-cache", action="store_true",
                        help="ignored (no results are cached)")
    parser.add_argument("--cache-dir", default=None,
                        help="ignored (no results are cached)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that quotes an invalid choice or unrecognized
    arguments in shortened form, as the program's own messages quote what
    they are given.  The choices are not repeated: the usage line printed
    with the error lists them."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {reprlib.repr(value)}")

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {reprlib.repr(' '.join(extra))}")
        return args


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer: {reprlib.repr(text)}") from None


def _nonneg(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ncinv",
        description="Noncrossing bases of noncommutative SL(2) invariants of "
                    "binary forms, and their dimension series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="dimension of the degree-m invariant space")
    p_dim.add_argument("--d", type=_nonneg, required=True, help="form degree")
    p_dim.add_argument("--m", type=_nonneg, required=True, help="word length")
    _add_cache_flags(p_dim)

    p_basis = sub.add_parser("basis", help="print the noncrossing basis")
    p_basis.add_argument("--d", type=_nonneg, required=True)
    p_basis.add_argument("--m", type=_nonneg, required=True)
    p_basis.add_argument("--format", choices=("text", "json"), default="text")

    p_hil = sub.add_parser("hilbert", help="dimension series by one or all methods")
    p_hil.add_argument("--d", type=_nonneg, required=True)
    p_hil.add_argument("--max-m", type=_nonneg, required=True)
    p_hil.add_argument("--method", default="all",
                       choices=("enumeration", "chebyshev", "quadrature", "all"))
    p_hil.add_argument("--nodes", type=_integer, default=None,
                       help="quadrature panels (default: 256, or more to be exact)")
    p_hil.add_argument("--format", choices=("text", "csv", "json"), default=None,
                       help="default: text for single methods, csv for all")
    p_hil.add_argument("--precision", type=_nonneg, default=12,
                       help="significant digits for quadrature output")
    _add_cache_flags(p_hil)

    p_rw = sub.add_parser("rewrite", help="rewrite a bracket expression file "
                                          "into its noncrossing normal form")
    p_rw.add_argument("expression_file", help="JSON bracket expression")

    p_ver = sub.add_parser("verify", help="prove invariance of every basis element")
    p_ver.add_argument("--d", type=_nonneg, required=True)
    p_ver.add_argument("--m", type=_nonneg, required=True)
    p_ver.add_argument("--witnesses", type=_nonneg, default=0,
                       help="number of seeded random det-1 witnesses to apply as a "
                            "cross-check; invariance itself is proved exactly by "
                            "the weight and the raising shear (default 0)")
    p_ver.add_argument("--seed", type=_integer, default=0)
    p_ver.add_argument("--witness-matrix", nargs=4, action="append", default=[],
                       metavar=("A", "B", "C", "E"),
                       help="extra witness as four rationals, det must be 1")

    p_mom = sub.add_parser("moments", help="moments of a cumulant rule")
    p_mom.add_argument("--rule", required=True,
                       help='semicircle | free-poisson | table:[c1,c2,...]')
    p_mom.add_argument("--n", type=_nonneg, required=True, help="highest order")

    return parser


def _cmd_dim(args) -> int:
    from .hilbert import dims_by_enumeration

    print(dims_by_enumeration(args.d, args.m).dims[args.m])
    return 0


def _cmd_basis(args) -> int:
    from .symbolic import iter_noncrossing_basis

    # One element at a time: each is written before the next is built.
    basis = iter_noncrossing_basis(args.m, args.d)
    if args.format == "json":
        # Element by element, as json.dumps of the whole list would print it.
        out = sys.stdout
        out.write("[")
        for i, poly in enumerate(basis):
            if i:
                out.write(", ")
            out.write(poly.to_json())
        out.write("]\n")
    else:
        for poly in basis:
            print(poly.pretty())
    return 0


def _cmd_hilbert(args) -> int:
    from . import hilbert

    fmt = args.format or ("csv" if args.method == "all" else "text")
    if fmt == "json":
        import json

    if args.method == "all":
        report = hilbert.compare_methods(args.d, args.max_m, nodes=args.nodes)
        if fmt == "json":
            print(json.dumps({
                "d": report.d,
                "rows": [{"m": m, "enum": en, "cheb": ch, "quad": qu, "abs_err": err}
                         for m, en, ch, qu, err in report.rows],
                "exact_mismatch": not report.exact_methods_agree,
                "quad_above_tol": not report.quadrature_within_tolerance,
            }))
        else:
            print(report.to_csv(args.precision))
        if not report.ok:
            print("method comparison failed", file=sys.stderr)
            return 1
        return 0

    if args.method == "enumeration":
        dims = list(hilbert.dims_by_enumeration(args.d, args.max_m).dims)
    elif args.method == "chebyshev":
        dims = list(hilbert.dims_by_chebyshev(args.d, args.max_m).dims)
    else:
        nodes = hilbert._panels(args.d, args.max_m, args.nodes)
        dims = list(hilbert.dims_by_quadrature(args.d, args.max_m, nodes).dims)

    def fmt_value(v):
        return f"{v:.{args.precision}g}" if isinstance(v, float) else str(v)

    if fmt == "json":
        print(json.dumps({"d": args.d, "method": args.method, "dims": list(dims)}))
    elif fmt == "csv":
        print("m," + args.method)
        for m, v in enumerate(dims):
            print(f"{m},{fmt_value(v)}")
    else:
        print(",".join(fmt_value(v) for v in dims))
    return 0


def _cmd_rewrite(args) -> int:
    import json

    from .brackets import BracketExpression, json_integer, to_noncrossing

    with open(args.expression_file, encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_int=json_integer)
        except RecursionError:
            raise ValueError("JSON nesting is too deep to parse") from None
    expr = BracketExpression.from_json_dict(data)
    print(json.dumps(to_noncrossing(expr).to_json_dict()))
    return 0


def _cmd_verify(args) -> int:
    from .group_action import GroupElement, is_invariant, random_witnesses
    from .symbolic import iter_noncrossing_basis

    witnesses = list(random_witnesses(args.seed, args.witnesses))
    for quad in args.witness_matrix:
        witnesses.append(GroupElement(*quad))
    failures = 0
    for i, poly in enumerate(iter_noncrossing_basis(args.m, args.d)):
        ok = is_invariant(poly) and is_invariant(poly, witnesses)
        print(f"{'PASS' if ok else 'FAIL'} element {i}: {poly.pretty()}")
        if not ok:
            failures += 1
    return 1 if failures else 0


def _cmd_moments(args) -> int:
    from .freeprob import CumulantSequence, moments_from_cumulants

    rule = CumulantSequence.parse(args.rule)
    moments = moments_from_cumulants(rule, args.n)
    print(",".join(str(moments[k]) for k in range(args.n + 1)))
    return 0


_HANDLERS = {
    "dim": _cmd_dim,
    "basis": _cmd_basis,
    "hilbert": _cmd_hilbert,
    "rewrite": _cmd_rewrite,
    "verify": _cmd_verify,
    "moments": _cmd_moments,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact results print in full: lift CPython's limit on int-to-text
    # conversion for the command (the limit and its API came in 3.10.7).
    # Numbers read from text keep their limit in parse_rational.
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # The file name is quoted shortened, as every other echoed value is.
        message = exc.strerror or str(exc)
        if exc.filename is not None:
            message += f": {reprlib.repr(exc.filename)}"
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        set_limit(limit)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
