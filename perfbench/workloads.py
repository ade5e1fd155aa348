"""Seeded command generators for the benchmark workloads.

A workload is a *cycle*: a fixed sequence of command kinds whose
parameters (poles, radii, expressions, roots, grids) are drawn from the
seed.  Runs execute whole cycles, so every run of a workload measures the
same mix of command kinds whatever the seed, and only the values change.

Each :class:`Command` carries the argv the program sees plus a ``spec``
holding what the reference checker needs to judge the output.  This
module is pure Python (no numpy, no mpmath) so the timed worker can
import it without side effects on its own footprint.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from typing import NamedTuple

WORKLOADS = ("contour", "cli-mix", "factor-enum")

INTEGRATE_FUNCTIONS = ("exp", "sin", "cos", "sinh", "cosh", "u2", "u3")
CALL_NAMES = ("exp", "ln", "sin", "cos", "sinh", "cosh", "inv")
POW_EXPONENTS = ("0.5", "1.5", "-0.5", "2", "-1", "3")

# Exact zero divisors of each ring, written as expressions; the reference
# decides which canonical component vanishes first.
ZERO_DIVISORS = {
    "polar": ("1 + h3", "1 - h1", "1 + h2 + h4", "h1 - h4"),
    "planar": ("1 - h2 + h4", "1 + h2", "h1 + h3 - h5"),
}


class Command(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    spec: dict


def _num(rng: random.Random, lo: float = 0.1, hi: float = 3.0) -> str:
    return f"{rng.uniform(lo, hi):.4g}"


def hexa_literal(components) -> str:
    """Expression text for a value given by its six components (exact floats)."""
    text = repr(float(components[0]))
    for k in range(1, 6):
        c = float(components[k])
        if c != 0.0:
            text += f" {'-' if c < 0 else '+'} {abs(c)!r} h{k}"
    return text


def _positional(args) -> list[str]:
    """Prefix positional arguments with ``--`` when one starts with a minus."""
    args = list(args)
    return ["--", *args] if any(a.startswith("-") for a in args) else args


# -- expression trees ------------------------------------------------------------
#
# Nodes are tuples: ("num", text), ("h", k), ("zd", text), ("neg", a),
# ("bin", op, a, b) with op in + - * / and "jux" (juxtaposition),
# ("pow", a, n), ("call", name, a) and ("callpow", a, exponent_text).


def _leaf(rng: random.Random):
    r = rng.random()
    if r < 0.35:
        return ("h", rng.randint(1, 5))
    if r < 0.6:
        return ("bin", "jux", ("num", _num(rng)), ("h", rng.randint(1, 5)))
    return ("num", _num(rng))


def _small(rng: random.Random):
    """A leaf or one binary operation of leaves: keeps function arguments moderate."""
    if rng.random() < 0.5:
        return _leaf(rng)
    return ("bin", rng.choice("+-*"), _leaf(rng), _leaf(rng))


def random_tree(rng: random.Random, variant: str, depth: int):
    if depth <= 0:
        return _leaf(rng)
    r = rng.random()
    if r < 0.45:
        op = rng.choice(("+", "-", "*", "/", "jux"))
        left = random_tree(rng, variant, depth - 1)
        if op == "/" and rng.random() < 0.3:
            right = ("bin", "*", ("zd", rng.choice(ZERO_DIVISORS[variant])), _leaf(rng))
        else:
            right = random_tree(rng, variant, depth - 1)
        if op == "jux":
            left = ("num", _num(rng))
            right = ("h", rng.randint(1, 5)) if rng.random() < 0.5 else right
        return ("bin", op, left, right)
    if r < 0.75:
        name = rng.choice(CALL_NAMES)
        if name == "inv" and rng.random() < 0.4:
            return ("call", name, ("zd", rng.choice(ZERO_DIVISORS[variant])))
        return ("call", name, _small(rng))
    if r < 0.85:
        return ("callpow", _small(rng), rng.choice(POW_EXPONENTS))
    if r < 0.93:
        return ("pow", _small(rng), rng.choice((-3, -2, -1, 0, 2, 3, 4)))
    return ("neg", random_tree(rng, variant, depth - 1))


def render(node) -> str:
    tag = node[0]
    if tag in ("num",):
        return node[1]
    if tag == "h":
        return f"h{node[1]}"
    if tag == "zd":
        return f"({node[1]})"
    if tag == "neg":
        return f"-({render(node[1])})"
    if tag == "bin":
        _, op, a, b = node
        if op == "jux":
            # parenthesized: juxtaposition binds like "*", so "x / 2h1" is (x / 2) h1
            return f"({render(a)}{render(b) if b[0] in ('h', 'call') else '(' + render(b) + ')'})"
        return f"({render(a)} {op} {render(b)})"
    if tag == "pow":
        return f"({render(node[1])})^{node[2]}"
    if tag == "call":
        return f"{node[1]}({render(node[2])})"
    if tag == "callpow":
        return f"pow({render(node[1])}, {node[2]})"
    raise ValueError(f"unknown node {node!r}")


# -- canonical transform used to build polynomials from chosen roots -------------


def _roots_of_unity(variant: str) -> list[complex]:
    """Evaluation points of the canonical planes: u(zeta_k) = v_k + i v_k~."""
    if variant == "polar":
        return [cmath.exp(1j * math.pi * k / 3.0) for k in (1, 2)]
    return [cmath.exp(1j * math.pi * (2 * k - 1) / 6.0) for k in (1, 2, 3)]


def from_spectrum(variant: str, axes, planes) -> list[float]:
    """Components x_0..x_5 of the value with axis values ``axes`` and plane values ``planes``."""
    zetas = _roots_of_unity(variant)
    out = []
    for p in range(6):
        if variant == "polar":
            total = (axes[0] + (-1) ** p * axes[1]) / 6.0
            total += sum((z * zeta ** (-p)).real for z, zeta in zip(planes, zetas)) / 3.0
        else:
            total = sum((z * zeta ** (-p)).real for z, zeta in zip(planes, zetas)) / 3.0
        out.append(total)
    return out


def _poly_from_roots(roots) -> list:
    """Coefficients c1..cm of prod (z - r) below the leading 1."""
    coeffs = [1.0]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0.0], [0.0] + coeffs)]
    return coeffs[1:]


def _spread_points(rng: random.Random, count: int, region: str) -> list:
    """Points at least 0.35 apart, so roots stay simple.

    ``region`` is "real" (an interval), "complex" (a square) or "upper"
    (imaginary part at least 0.4, for conjugate pairs).
    """
    points: list = []
    while len(points) < count:
        if region == "real":
            z = rng.uniform(-2.0, 2.0)
        else:
            lo = 0.4 if region == "upper" else -1.6
            z = complex(rng.uniform(-1.6, 1.6), rng.uniform(lo, 1.6))
        if all(abs(z - w) > 0.35 for w in points):
            points.append(z)
    return points


def random_polynomial(rng: random.Random, variant: str, degree: int, axis_pairs: int = 0):
    """Monic polynomial with simple component roots, as a list of coefficient components.

    Polar axis roots are real, or ``axis_pairs`` conjugate pairs per axis.
    """
    axis_roots = []
    if variant == "polar":
        for _ in range(2):
            roots = []
            for z in _spread_points(rng, axis_pairs, "upper"):
                roots += [z, z.conjugate()]
            roots += _spread_points(rng, degree - len(roots), "real")
            axis_roots.append(roots)
    plane_roots = [_spread_points(rng, degree, "complex")
                   for _ in range(2 if variant == "polar" else 3)]
    axis_coeffs = [_poly_from_roots(r) for r in axis_roots]
    plane_coeffs = [_poly_from_roots(r) for r in plane_roots]
    coeffs = []
    for j in range(degree):
        axes = [c[j].real for c in axis_coeffs]
        coeffs.append(from_spectrum(variant, axes, [c[j] for c in plane_coeffs]))
    return coeffs


def factor_argv(variant: str, coeffs, limit: int | None) -> tuple[str, ...]:
    argv = ["factor", f"--{variant}"]
    if limit is not None:
        argv += ["--all", str(limit)]
    return tuple(argv + _positional(["1", *(hexa_literal(c) for c in coeffs)]))


def expected_enumeration_count(variant: str, degree: int, axis_pairs: int) -> int | None:
    """Distinct factorizations in closed form, for the cases generated here."""
    if variant == "planar":
        return math.factorial(degree) ** 2
    if axis_pairs == 0:
        return math.factorial(degree) ** 3
    if degree == 4 and axis_pairs == 2:
        # two quadratic slots: match the axis pairs (2 ways) and split each
        # plane's four roots into the slots (6 ways per plane)
        return 2 * 6 * 6
    return None


# -- workloads ---------------------------------------------------------------------

CONTOUR_CYCLE = tuple(itertools.product(INTEGRATE_FUNCTIONS, ("polar", "planar")))
# Loop points of the integrate commands.  At 1024 a command takes 0.15-0.3 s,
# so a run holds 28 commands and the tail percentile (the 11th slowest) falls
# among many commands of similar cost, not on one command.  One command per
# cycle keeps the CLI default, 4096, so that a change of the default shows;
# its slot counts down from the last, so that the first command of cycle 0,
# which set-up time includes, stays short.
CONTOUR_SAMPLES = 1024


def _contour(rng: random.Random, cycle: int) -> list[Command]:
    commands = []
    default_slot = len(CONTOUR_CYCLE) - 1 - cycle % len(CONTOUR_CYCLE)
    for slot, (fn, variant) in enumerate(CONTOUR_CYCLE):
        planes = 2 if variant == "polar" else 3
        plane = rng.randint(1, planes)
        pole = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(6)]
        radius = round(rng.uniform(0.3, 1.2), 4)
        argv = ["integrate", f"--{variant}"]
        samples = 4096
        if slot != default_slot:
            samples = CONTOUR_SAMPLES
            argv += ["--samples", str(samples)]
        argv += _positional([fn, hexa_literal(pole), str(plane), repr(radius)])
        commands.append(Command("integrate", tuple(argv), {
            "function": fn, "variant": variant, "pole": pole, "plane": plane,
            "radius": radius, "samples": samples}))
    return commands


def _grid_text(start: float, stop: float, step: float) -> str:
    return f"{start!r}:{stop!r}:{step!r}"


def _table(family: str, grid: tuple[float, float, float] | None, kind: str = "table") -> Command:
    argv = ["table", family]
    if grid is not None:
        argv += ["--range", _grid_text(*grid)]
    return Command(kind, tuple(argv), {"family": family, "grid": grid or (-4.0, 4.0, 0.05)})


def _custom_grid(rng: random.Random, step: float, span: float) -> tuple[float, float, float]:
    """Grid that passes through y = 0 exactly: start = -(n * step)."""
    n = rng.randint(1, int(span / step))
    start = -(n * step)
    stop = round(start + span * rng.uniform(0.6, 1.0), 3)
    return (start, stop, step)


def _eval_like(rng: random.Random, command: str, variant: str, depth: int) -> Command:
    tree = random_tree(rng, variant, depth)
    text = render(tree)
    argv = (command, f"--{variant}", *_positional([text]))
    return Command(command, argv, {"variant": variant, "tree": tree})


def _edge(rng: random.Random, template: int) -> Command:
    """Inputs at the edges of double precision (magnitudes 1e-300 .. 1e300 and beyond)."""
    variant = "polar" if template % 2 == 0 else "planar"
    m = f"{rng.uniform(1.0, 9.99):.3f}"
    if template == 0:
        tree = ("call", "exp", ("num", f"{rng.uniform(700.0, 800.0):.2f}"))
    elif template == 1:
        tree = ("num", f"{m}e{rng.randint(280, 420)}")
    elif template == 2:
        big = ("bin", "+", ("num", f"{m}e200"), ("h", 1))
        tree = ("bin", "*", big, big)
    elif template == 3:
        tree = ("call", "inv", ("num", f"{m}e-{rng.randint(290, 300)}"))
    elif template == 4:
        k = rng.randint(290, 300)
        tree = ("bin", "+", ("num", f"{m}e-{k}"), ("bin", "jux", ("num", f"{m}e-{k}"), ("h", 2)))
    elif template == 5:
        start = float(rng.randint(695, 705))
        return _table("g" if rng.random() < 0.5 else "f", (start, start + 12.0, 1.0), kind="edge")
    else:
        tree = ("bin", "+", ("num", f"{m}e200"), ("bin", "jux", ("num", f"{m}e200"), ("h", 5)))
        text = render(tree)
        return Command("edge", ("canon", "--polar", *_positional([text])),
                       {"variant": "polar", "tree": tree, "command": "canon"})
    text = render(tree)
    return Command("edge", ("eval", f"--{variant}", *_positional([text])),
                   {"variant": variant, "tree": tree, "command": "eval"})


EDGE_TEMPLATES = 7
CLI_MIX_CYCLE = ("eval", "canon", "eval", "table-g", "repr", "eval", "factor", "eval",
                 "table-custom", "canon", "eval", "table-f", "factor", "eval", "repr",
                 "eval", "table-custom", "canon", "eval", "factor", "eval", "repr",
                 "table-g", "eval", "table-f", "eval", "table-custom", "eval", "canon",
                 "edge")


def _cli_mix(rng: random.Random, cycle: int) -> list[Command]:
    commands = []
    custom = 0
    for slot, kind in enumerate(CLI_MIX_CYCLE):
        variant = "polar" if (slot + cycle) % 2 == 0 else "planar"
        if kind in ("eval", "canon", "repr"):
            commands.append(_eval_like(rng, kind, variant, depth=3 if kind == "eval" else 2))
        elif kind == "factor":
            degree = rng.choice((2, 3))
            pairs = rng.choice((0, 1)) if variant == "polar" else 0
            coeffs = random_polynomial(rng, variant, degree, axis_pairs=pairs)
            commands.append(Command("factor", factor_argv(variant, coeffs, None), {
                "variant": variant, "coeffs": coeffs, "limit": None, "expected": None}))
        elif kind == "table-g":
            commands.append(_table("g", None))
        elif kind == "table-f":
            commands.append(_table("f", None))
        elif kind == "table-custom":
            # every other cycle starts with the 1601-row f table on a 0.005 grid,
            # the slowest command of the mix; the rest are coarser seeded grids
            if custom == 0 and cycle % 2 == 0:
                grid = (-4.0, 4.0, 0.005)
            else:
                grid = _custom_grid(rng, rng.choice((0.05, 0.1, 0.0625)), rng.uniform(2.0, 8.0))
            commands.append(_table("f" if custom != 1 else "g", grid))
            custom += 1
        else:
            commands.append(_edge(rng, cycle % EDGE_TEMPLATES))
    return commands


# (variant, degree, conjugate axis pairs, limit); None enumerates everything.
# The short cases appear five times per cycle so that the one polar degree-4
# case (36,864 orderings, seconds long) does not leave the latency percentiles
# with too few samples.  Per ten: four cheap cases (under 30 ms), two full
# polar degree-3 enumerations and four full planar degree-4 ones, so that in
# a 51-command run the median falls in the middle of the polar degree-3 group
# and the tail percentile (the 11th slowest) in the middle of the planar
# degree-4 group, not on the edge between two groups.
_FACTOR_SHORT = (
    ("planar", 3, 0, None),
    ("planar", 4, 0, None),
    ("polar", 2, 0, None),
    ("polar", 3, 0, None),
    ("planar", 4, 0, 100),
    ("planar", 4, 0, None),
    ("polar", 3, 0, 50),
    ("planar", 4, 0, None),
    ("polar", 3, 0, None),
    ("planar", 4, 0, None),
)
FACTOR_ENUM_CYCLE = _FACTOR_SHORT * 5 + (("polar", 4, 2, None),)


def _factor_enum(rng: random.Random, cycle: int) -> list[Command]:
    commands = []
    for variant, degree, pairs, limit in FACTOR_ENUM_CYCLE:
        coeffs = random_polynomial(rng, variant, degree, axis_pairs=pairs)
        total = expected_enumeration_count(variant, degree, pairs)
        cap = 100000 if limit is None else limit
        expected = None if total is None else min(total, cap)
        commands.append(Command("factor-all", factor_argv(variant, coeffs, cap), {
            "variant": variant, "coeffs": coeffs, "limit": cap, "expected": expected}))
    return commands


_BUILDERS = {"contour": _contour, "cli-mix": _cli_mix, "factor-enum": _factor_enum}

# Seconds one cycle takes on the machine the benchmark was tuned on (2 vCPU,
# 2.1 GHz, CPython 3.11).  A run of --seconds S performs ceil(S / this) whole
# cycles, so every run of a workload has the same number of samples.
NOMINAL_CYCLE_S = {"contour": 2.0, "cli-mix": 0.1, "factor-enum": 7.0}


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / NOMINAL_CYCLE_S[workload]))


def cycle(workload: str, seed: int, index: int) -> list[Command]:
    """Commands of cycle ``index`` of ``workload``; a pure function of its arguments."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _BUILDERS[workload](rng, index)
