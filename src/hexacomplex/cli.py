"""Command-line front end.

Commands: eval, canon, factor, table, integrate, repr.  Results go to
stdout, diagnostics to stderr; exit code 0 on success, 1 on domain
errors, 2 on parse errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from . import calculus, canonical, cosexp, polyfactor
from .algebra import ZERO_COMPONENT_RTOL, HexaNumber, Variant, format_hexa, from_canonical_components
from .canonical import PlanarCanonical, PolarCanonical
from .errors import HexaError, ParseError
from .expressions import evaluate, parse
from .polyfactor import HexaPolynomial

__all__ = ["CliConfig", "main", "build_parser"]

HUMAN_DIGITS = 12
DEFAULT_TABLE_RANGE = (-4.0, 4.0, 0.05)
DEFAULT_SAMPLES = 4096


@dataclass(frozen=True)
class CliConfig:
    """Settings shared by all commands."""

    variant: Variant
    tolerance: float
    table_range: tuple[float, float, float]
    samples: int
    all_limit: int | None


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must look like a:b:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range value: {exc}") from None
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("range needs stop >= start and step > 0")
    return start, stop, step


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    variant_group = common.add_mutually_exclusive_group()
    variant_group.add_argument("--polar", dest="variant", action="store_const",
                               const=Variant.POLAR, help="use the polar ring (default)")
    variant_group.add_argument("--planar", dest="variant", action="store_const",
                               const=Variant.PLANAR, help="use the planar ring")
    common.set_defaults(variant=Variant.POLAR)
    common.add_argument("--tol", type=float, default=ZERO_COMPONENT_RTOL, metavar="REAL",
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
                       help=f"loop sample count (default {DEFAULT_SAMPLES})")

    p_repr = sub.add_parser("repr", parents=[common],
                            help="matrix representation and its irreducible blocks")
    p_repr.add_argument("expression")

    return parser


def _config(args: argparse.Namespace) -> CliConfig:
    return CliConfig(variant=args.variant,
                     tolerance=args.tol,
                     table_range=getattr(args, "table_range", DEFAULT_TABLE_RANGE),
                     samples=getattr(args, "samples", DEFAULT_SAMPLES),
                     all_limit=getattr(args, "all_limit", None))


def _eval_text(text: str, config: CliConfig) -> HexaNumber:
    return evaluate(parse(text), config.variant, config.tolerance)


def cmd_eval(args: argparse.Namespace, config: CliConfig) -> int:
    print(format_hexa(_eval_text(args.expression, config), HUMAN_DIGITS))
    return 0


def _canonical_lines(c: PolarCanonical | PlanarCanonical) -> list[str]:
    lines = []
    if isinstance(c, PolarCanonical):
        lines.append(f"v_plus={c.v_plus:.{HUMAN_DIGITS}g}")
        lines.append(f"v_minus={c.v_minus:.{HUMAN_DIGITS}g}")
    for k, (v, t) in enumerate(c.pairs, start=1):
        lines.append(f"v{k}={v:.{HUMAN_DIGITS}g}")
        lines.append(f"v{k}_tilde={t:.{HUMAN_DIGITS}g}")
    return lines


def cmd_canon(args: argparse.Namespace, config: CliConfig) -> int:
    value = _eval_text(args.expression, config)
    for line in _canonical_lines(canonical.to_canonical(value)):
        print(line)
    print(canonical.geometry_record(canonical.geometry(value), HUMAN_DIGITS))
    return 0


def cmd_factor(args: argparse.Namespace, config: CliConfig) -> int:
    coefficients = [_eval_text(text, config) for text in args.coefficients]
    if len(coefficients) < 2:
        print("factor: need at least two coefficients (degree >= 1)", file=sys.stderr)
        return 1
    poly = HexaPolynomial.from_coefficient_list(coefficients)
    if config.all_limit is not None:
        for f in polyfactor.enumerate_factorizations(poly, config.all_limit):
            print(polyfactor.format_factorization(f, HUMAN_DIGITS))
    else:
        print(polyfactor.format_factorization(polyfactor.factor(poly), HUMAN_DIGITS))
    return 0


def cmd_table(args: argparse.Namespace, config: CliConfig) -> int:
    start, stop, step = config.table_range
    cosexp.emit_table(args.family, start, stop, step, sys.stdout)
    return 0


def cmd_integrate(args: argparse.Namespace, config: CliConfig) -> int:
    variant = config.variant
    pole = _eval_text(args.center, config)
    plane_count = 3 if variant.is_planar else 2
    if not 1 <= args.plane <= plane_count:
        print(f"integrate: plane must lie in 1..{plane_count} for {variant.value}",
              file=sys.stderr)
        return 1
    if args.samples < 8:
        print(f"integrate: --samples must be at least 8, got {args.samples}", file=sys.stderr)
        return 1
    if not math.isfinite(args.radius):
        print(f"integrate: radius must be finite, got {args.radius}", file=sys.stderr)
        return 1
    # Loop center sits off the pole in every non-winding canonical direction,
    # keeping the quotient away from the zero-divisor set.
    clearance = 1.0 + 0.5 * args.radius
    values = []
    if not variant.is_planar:
        values.extend((clearance, clearance))
    for k in range(1, plane_count + 1):
        values.extend((0.0, 0.0) if k == args.plane else (clearance, 0.0))
    center = pole + from_canonical_components(variant, values)
    loop = calculus.circle_path(variant, center, args.radius, args.samples, plane=args.plane)
    f = calculus.FUNCTIONS[args.function]
    comparison = calculus.residue_integral(f, loop, pole)
    print(f"windings={comparison.windings}")
    print(f"numeric={format_hexa(comparison.numeric, HUMAN_DIGITS)}")
    print(f"formula={format_hexa(comparison.formula, HUMAN_DIGITS)}")
    print(f"max_abs_difference={comparison.max_abs_difference:.3e}")
    return 0


def _matrix_lines(matrix) -> list[str]:
    # value + 0.0 folds negative zeros into plain 0
    return ["  ".join(f"{value + 0.0:>{HUMAN_DIGITS + 7}.{HUMAN_DIGITS}g}" for value in row)
            for row in matrix]


def cmd_repr(args: argparse.Namespace, config: CliConfig) -> int:
    value = _eval_text(args.expression, config)
    print("U =")
    for line in _matrix_lines(value.to_matrix()):
        print(line)
    rep = value.irreducible_rep()
    print("T U T^-1 =")
    for line in _matrix_lines(rep.matrix):
        print(line)
    labels = (["v+", "v-", "V1", "V2"] if not config.variant.is_planar
              else ["V1", "V2", "V3"])
    for label, block in zip(labels, rep.blocks):
        if block.shape == (1, 1):
            print(f"{label} = {block[0, 0]:.{HUMAN_DIGITS}g}")
        else:
            print(f"{label} = [[{block[0, 0]:.{HUMAN_DIGITS}g}, {block[0, 1]:.{HUMAN_DIGITS}g}], "
                  f"[{block[1, 0]:.{HUMAN_DIGITS}g}, {block[1, 1]:.{HUMAN_DIGITS}g}]]")
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
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--range" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--range={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_fold_range_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    config = _config(args)
    try:
        return _COMMANDS[args.command](args, config)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except HexaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
