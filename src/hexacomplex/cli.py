"""Command-line front end.

Commands: eval, canon, factor, table, integrate, repr.  Results go to
stdout, diagnostics to stderr; exit code 0 on success, 1 on domain
errors, 2 on parse errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import _transforms as tr
from . import calculus, canonical, cosexp, polyfactor
from .algebra import (
    ZERO_COMPONENT_RTOL,
    HexaNumber,
    Variant,
    canonical_components,
    format_hexa,
    from_canonical_values,
    irreducible_form,
    matrix_rows,
)
from .errors import HexaError, ParseError
from .expressions import evaluate, parse
from .polyfactor import HexaPolynomial

__all__ = ["main", "build_parser"]

HUMAN_DIGITS = 12
DEFAULT_TABLE_RANGE = (-4.0, 4.0, 0.05)
DEFAULT_SAMPLES = 4096
# --samples caps the node count of integrate's trapezoid rule, which stops once
# two nested sums agree; a sum that does not settle costs time in proportion to
# the cap, so a mistyped count is refused.
MAX_SAMPLES = 1024 * DEFAULT_SAMPLES


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must look like a:b:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range value: {exc}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError("range values must be finite")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("range needs stop >= start and step > 0")
    if not math.isfinite((stop - start) / step):
        raise argparse.ArgumentTypeError("range has more points than a float can count")
    return start, stop, step


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value: {exc}") from None
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built once and shared by the process.

    Nothing in it depends on argv, so :func:`main` parses each call with the
    same parser.  Callers must not modify it: a change would reach every
    later call.  ``build_parser.cache_clear()`` makes the next call build a
    new one.
    """
    common = argparse.ArgumentParser(add_help=False)
    variant_group = common.add_mutually_exclusive_group()
    variant_group.add_argument("--polar", dest="variant", action="store_const",
                               const=Variant.POLAR, help="use the polar ring (default)")
    variant_group.add_argument("--planar", dest="variant", action="store_const",
                               const=Variant.PLANAR, help="use the planar ring")
    common.set_defaults(variant=Variant.POLAR)
    common.add_argument("--tol", type=_parse_tol, default=ZERO_COMPONENT_RTOL, metavar="REAL",
                        help="relative threshold treating a canonical component as zero")

    parser = argparse.ArgumentParser(
        prog="hexacomplex",
        description="Arithmetic, geometry, factorization and contour integration "
                    "for 6-dimensional commutative hypercomplex numbers.",
        epilog="Put -- before positional expressions that start with a minus, "
               "e.g. hexacomplex eval -- \"-h1 + 2\".")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p_eval.add_argument("expression")

    p_canon = sub.add_parser("canon", parents=[common],
                             help="canonical variables and geometry of an expression")
    p_canon.add_argument("expression")

    p_factor = sub.add_parser("factor", parents=[common],
                              help="factor a polynomial given leading-first coefficients")
    p_factor.add_argument("coefficients", nargs="+", metavar="COEFF",
                          help="coefficient expressions, highest power first")
    p_factor.add_argument("--all", dest="all_limit", type=int, default=None, metavar="LIMIT",
                          help="enumerate up to LIMIT distinct factorizations")

    p_table = sub.add_parser("table", parents=[common],
                             help="emit a cosexponential CSV table on stdout")
    p_table.add_argument("family", choices=("g", "f"),
                         help="g: polar family, f: planar family")
    p_table.add_argument("--range", dest="table_range", type=_parse_range,
                         default=DEFAULT_TABLE_RANGE, metavar="A:B:STEP",
                         help="grid (default -4:4:0.05)")

    p_int = sub.add_parser("integrate", parents=[common],
                           help="compare a contour integral with the residue formula")
    p_int.add_argument("function", choices=sorted(calculus.FUNCTIONS),
                       help="integrand numerator f in f(u)/(u - u0)")
    p_int.add_argument("center", help="expression for the pole u0")
    p_int.add_argument("plane", type=int, help="canonical plane index the loop winds in")
    p_int.add_argument("radius", type=float, help="loop radius in that plane")
    p_int.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, metavar="N",
                       help=f"most quadrature nodes on the loop, 8..{MAX_SAMPLES} "
                            f"(default {DEFAULT_SAMPLES}); fewer when two nested sums agree")

    p_repr = sub.add_parser("repr", parents=[common],
                            help="matrix representation and its irreducible blocks")
    p_repr.add_argument("expression")

    return parser


def _eval_text(text: str, args: argparse.Namespace) -> HexaNumber:
    return evaluate(parse(text), args.variant, args.tol)


def cmd_eval(args: argparse.Namespace) -> int:
    print(format_hexa(_eval_text(args.expression, args), HUMAN_DIGITS))
    return 0


def _canonical_lines(value: HexaNumber) -> list[str]:
    planar = value.variant.is_planar
    names = [f"v_{tag}" for tag in tr.component_tags(planar)[:tr.axis_count(planar)]]
    names += [f"v{k}{part}" for k in range(1, tr.pair_count(planar) + 1) for part in ("", "_tilde")]
    return [f"{name}={v:.{HUMAN_DIGITS}g}" for name, v in zip(names, canonical_components(value))]


def cmd_canon(args: argparse.Namespace) -> int:
    value = _eval_text(args.expression, args)
    record = canonical.geometry_record(canonical.geometry(value), HUMAN_DIGITS)
    print("\n".join([*_canonical_lines(value), record]))
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    if args.all_limit is not None and args.all_limit < 1:
        print(f"factor: --all LIMIT must be at least 1, got {args.all_limit}", file=sys.stderr)
        return 1
    coefficients = [_eval_text(text, args) for text in args.coefficients]
    if len(coefficients) < 2:
        print("factor: need at least two coefficients (degree >= 1)", file=sys.stderr)
        return 1
    poly = HexaPolynomial.from_coefficient_list(coefficients)
    if args.all_limit is not None:
        found = polyfactor.enumerate_factorizations(poly, args.all_limit)
        for line in polyfactor.format_factorizations(found, HUMAN_DIGITS):
            print(line)
    else:
        print(polyfactor.format_factorization(polyfactor.factor(poly), HUMAN_DIGITS))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    start, stop, step = args.table_range
    cosexp.emit_table(args.family, start, stop, step, sys.stdout)
    return 0


def cmd_integrate(args: argparse.Namespace) -> int:
    variant = args.variant
    pole = _eval_text(args.center, args)
    plane_count = tr.pair_count(variant.is_planar)
    if not 1 <= args.plane <= plane_count:
        print(f"integrate: plane must lie in 1..{plane_count} for {variant.value}",
              file=sys.stderr)
        return 1
    if not 8 <= args.samples <= MAX_SAMPLES:
        limit = "at least 8" if args.samples < 8 else f"at most {MAX_SAMPLES}"
        print(f"integrate: --samples must be {limit}, got {args.samples}", file=sys.stderr)
        return 1
    if not math.isfinite(args.radius):
        print(f"integrate: radius must be finite, got {args.radius}", file=sys.stderr)
        return 1
    # Loop center sits off the pole in every non-winding canonical direction,
    # keeping the quotient away from the zero-divisor set.
    clearance = 1.0 + 0.5 * args.radius
    values = [clearance] * tr.axis_count(variant.is_planar) + [
        0j if k == args.plane else complex(clearance) for k in range(1, plane_count + 1)]
    center = pole + from_canonical_values(variant, values)
    loop = calculus.circle_path(variant, center, {args.plane: args.radius}, args.samples)
    f = calculus.FUNCTIONS[args.function]
    comparison = calculus.residue_integral(f, loop, pole)
    # Each of a sample's six components rounds by at most half an ulp of the
    # centre's largest, so a canonical offset moves by at most 3 ulp: a loop of
    # no larger canonical radius is not resolved by its samples.
    loop_radius = tr.SQRT3 * abs(args.radius)
    resolution = 3.0 * math.ulp(max(map(abs, center.components)))
    if loop_radius <= resolution:
        print(f"integrate: radius {args.radius!r} is below the resolution of the pole: "
              f"the loop's canonical radius {loop_radius:.6g} is at most 3 ulp of its "
              f"centre's components ({resolution:.6g})", file=sys.stderr)
        return 1
    print(f"windings={comparison.windings}")
    print(f"numeric={format_hexa(comparison.numeric, HUMAN_DIGITS)}")
    print(f"formula={format_hexa(comparison.formula, HUMAN_DIGITS)}")
    print(f"max_abs_difference={comparison.max_abs_difference:.3e}")
    return 0


def _matrix_lines(matrix) -> list[str]:
    # value + 0.0 folds negative zeros into plain 0
    return ["  ".join(f"{value + 0.0:>{HUMAN_DIGITS + 7}.{HUMAN_DIGITS}g}" for value in row)
            for row in matrix]


def cmd_repr(args: argparse.Namespace) -> int:
    value = _eval_text(args.expression, args)
    print("U =")
    for line in _matrix_lines(matrix_rows(value)):
        print(line)
    rep = irreducible_form(value)
    print("T U T^-1 =")
    for line in _matrix_lines(rep.matrix):
        print(line)
    # plane blocks print as V1, V2, ...
    labels = (label.replace("pair", "V") for label in tr.component_labels(args.variant.is_planar))
    for label, block in zip(labels, rep.blocks):
        if len(block) == 1:
            print(f"{label} = {block[0][0]:.{HUMAN_DIGITS}g}")
        else:
            print(f"{label} = [[{block[0][0]:.{HUMAN_DIGITS}g}, {block[0][1]:.{HUMAN_DIGITS}g}], "
                  f"[{block[1][0]:.{HUMAN_DIGITS}g}, {block[1][1]:.{HUMAN_DIGITS}g}]]")
    print(f"off_block_max={rep.off_block_max:.3e}")
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "canon": cmd_canon,
    "factor": cmd_factor,
    "table": cmd_table,
    "integrate": cmd_integrate,
    "repr": cmd_repr,
}


def _fold_range_values(argv: list[str]) -> list[str]:
    """Join ``--range -4:4:0.05`` into one token so the minus is not an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--range" and arg.startswith("-"):
            out[-1] = f"--range={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_fold_range_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that has left shows here, not at the interpreter's exit
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except HexaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the pipe: stdout's descriptor goes to devnull for a quiet exit
        if sys.stdout is sys.__stdout__:  # in process, a replaced stdout is left as it is
            import os
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
