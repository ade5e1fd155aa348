"""Command-line interface: outputs, exit codes, golden tables."""

from __future__ import annotations

import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import threading
import warnings

import pytest

import hexacomplex
from hexacomplex import cli
from hexacomplex.algebra import HexaNumber, Variant
from hexacomplex.cli import main
from hexacomplex.expressions import MAX_DEPTH
from hexacomplex.polyfactor import HexaPolynomial, enumerate_factorizations, format_factorization

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_basic(capsys):
    code, out, err = run(capsys, "eval", "1 + 2h1 - 0.5h3")
    assert code == 0 and err == ""
    assert out.strip() == "1 + 2 h1 - 0.5 h3"


def test_eval_variant_flags(capsys):
    code, out, _ = run(capsys, "eval", "h1*h5")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "eval", "--planar", "h1*h5")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run(capsys, "eval", "--polar", "h3*h3")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "eval", "--planar", "h3*h3")
    assert code == 0 and out.strip() == "-1"


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "eval", "1 + + 2")
    assert code == 2
    assert out == ""
    assert "parse error" in err and "line 1" in err


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "eval", "ln(h3)")
    assert code == 1
    assert out == ""
    assert "v-" in err

    code, out, err = run(capsys, "eval", "--planar", "1/(1 + h2)")
    assert code == 1
    assert "pair2" in err


def test_canon_output(capsys):
    code, out, err = run(capsys, "canon", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "v_plus=1" in lines and "v_minus=1" in lines
    assert any(line.startswith("d=1") for line in lines)
    assert any(line.startswith("theta_plus=") for line in lines)

    code, out, _ = run(capsys, "canon", "--planar", "1 + h3")
    assert code == 0
    assert any(line.startswith("v1=") for line in out.splitlines())


def test_factor_single_and_enumerated(capsys):
    code, out, err = run(capsys, "factor", "1", "0", "-1")
    assert code == 0 and err == ""
    assert out.count("[u") == 2

    code, out, _ = run(capsys, "factor", "1", "0", "-1", "--all", "20")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 8

    code, out, _ = run(capsys, "factor", "--planar", "1", "0", "1", "--all", "20")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 4
    assert any("h3" in line for line in lines)


@pytest.mark.parametrize("argv, lines", [
    (("--", "1", "-2", "1"), 1),               # (u - 1)^2
    (("--planar", "--", "1", "-2", "1"), 1),
    (("1", "0", "2", "0", "1"), 5),            # (u^2 + 1)^2
])
def test_factor_all_counts_a_repeated_root_once(capsys, argv, lines):
    code, out, err = run(capsys, "factor", "--all", "1000", *argv)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == lines


@pytest.mark.parametrize("argv, out", [
    (("--polar", "--", "1", "-2", "1"), "[u - 1][u - 1]\n"),                 # (u - 1)^2
    (("--planar", "--", "1", "-2", "1"), "[u - 1][u - 1]\n"),
    (("--polar", "--", "1", "-2.2", "1.21"), "[u - 1.1][u - 1.1]\n"),        # (u - 1.1)^2
    (("--planar", "--", "1", "-4", "6", "-4", "1"), "[u - 1]" * 4 + "\n"),   # (u - 1)^4
])
def test_factor_prints_a_repeated_root_without_rounding_residue(capsys, argv, out):
    assert run(capsys, "factor", *argv) == (0, out, "")


@pytest.mark.parametrize("variant, coefficients", [
    (Variant.POLAR, (1, 0, -7, 6)),      # (u - 1)(u - 2)(u + 3): 216 results
    (Variant.PLANAR, (1, 0, -7, 6)),
    (Variant.POLAR, (1, 0, 2, 0, 1)),    # (u^2 + 1)^2: quadratic factors
])
def test_factor_all_prints_each_result_as_format_factorization(capsys, variant, coefficients):
    code, out, err = run(capsys, "factor", f"--{variant.value}", "--all", "1000", "--",
                         *map(str, coefficients))
    poly = HexaPolynomial.from_coefficient_list(
        [HexaNumber.from_real(variant, float(c)) for c in coefficients])
    expected = [format_factorization(f, cli.HUMAN_DIGITS)
                for f in enumerate_factorizations(poly, 1000)]
    assert code == 0 and err == ""
    assert out.splitlines() == expected


@pytest.mark.parametrize("variant", ["--polar", "--planar"])
def test_factor_graded_roots_whose_residual_overflows(capsys, variant):
    # (u + 1e200)(u + 1e100): p(z) and |p|(|z|) overflow at z = -1e200 by plain Horner
    assert run(capsys, "factor", variant, "1", "1e200", "1e300") == (
        0, "[u + 1e+200][u + 1e+100]\n", "")
    code, out, err = run(capsys, "factor", variant, "--all", "4", "1", "1e200", "1e300")
    assert code == 0 and err == "" and len(out.splitlines()) == 4


@pytest.mark.parametrize("argv, factors", [
    (("--", "1", "-1002.0002", "2001.2002", "-1000.2"), 3),   # (u - 1)(u - 1.0002)(u - 1000)
    (("1", "1e308", "1e308"), 2),                             # roots near -1 and -1e308
])
def test_factor_close_and_huge_simple_roots(capsys, argv, factors):
    code, out, err = run(capsys, "factor", *argv)
    assert code == 0 and err == ""
    assert out.count("[u") == factors


def test_factor_rejects_limit_below_one(capsys):
    for limit in ("0", "-3"):
        code, out, err = run(capsys, "factor", "--all", limit, "1", "2", "3")
        assert code == 1 and out == ""
        assert f"--all LIMIT must be at least 1, got {limit}" in err


def test_factor_non_monic_and_zero_divisor_leading(capsys):
    code, out, _ = run(capsys, "factor", "2", "0", "-2")
    assert code == 0
    assert out.count("[u") == 2

    # leading coefficient 1 + h2 is a planar zero divisor
    code, out, err = run(capsys, "factor", "--planar", "1 + h2", "1")
    assert code == 1 and "pair" in err

    # v+ of the constant term overflows: no finite component polynomial to solve
    code, out, err = run(capsys, "factor", "1", "1e308 + 1e308 h1")
    assert code == 1 and out == ""
    assert err == "error: canonical component v+ is not finite\n"


def test_table_golden_files(capsys):
    for family in ("g", "f"):
        code, out, err = run(capsys, "table", family)
        assert code == 0 and err == ""
        golden = (GOLDEN / f"table_{family}.csv").read_text()
        assert out == golden



def test_factor_golden_file(capsys):
    """``factor`` and ``factor --all`` on literal polynomials, byte for byte.

    Each ``$ hexacomplex ...`` line of the file is a command and the lines
    below it are its stdout.  The polynomials have seeded, well separated
    simple roots: degrees 2-4 on both rings, polar ones with 0, 1 and 2
    conjugate pairs on an axis (so with quadratic factors).
    """
    golden = (GOLDEN / "factor.txt").read_text()
    transcript = []
    for line in golden.splitlines():
        if line.startswith("$ hexacomplex "):
            argv = shlex.split(line[len("$ hexacomplex "):])
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            transcript.append(f"{line}\n{out}")
    assert len(transcript) == 22
    assert "".join(transcript) == golden

def test_table_custom_range(capsys):
    code, out, _ = run(capsys, "table", "g", "--range", "0:1:0.5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "0"
    assert lines[-1].split(",")[0] == "1"


def test_table_negative_range_start(capsys):
    code, out, _ = run(capsys, "table", "f", "--range", "-1:1:1")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["-1", "0", "1"]


def test_negative_expression_after_separator(capsys):
    code, out, _ = run(capsys, "eval", "--", "-h1 + 2")
    assert code == 0
    assert out.strip() == "2 - h1"


def test_table_rejects_bad_range(capsys):
    code, out, err = run(capsys, "table", "g", "--range", "menu")
    assert code == 2


@pytest.mark.parametrize("family, grid, y", [
    ("g", "700:720:1", "720.0"),      # cosh(y) overflows past y = 710.5
    ("g", "-720:-700:1", "-720.0"),
    ("f", "0:840:10", "840.0"),       # cosh(sqrt(3) y / 2) overflows past y = 820
])
def test_table_fails_before_writing_an_overflowing_row(capsys, family, grid, y):
    code, out, err = run(capsys, "table", family, "--range", grid)
    assert code == 1 and out == ""
    assert err == f"error: table row at y={y} overflows the double range\n"


@pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:1", "0:1:nan", "-1e308:1e308:1",
                                  "0:1e300:1e-300", "0:1:0"])
def test_table_rejects_a_non_finite_range(capsys, grid):
    code, out, err = run(capsys, "table", "g", "--range", grid)
    assert code == 2 and out == ""
    assert "argument --range" in err


def test_integrate_command(capsys):
    code, out, err = run(capsys, "integrate", "exp", "0", "1", "1.0", "--samples", "2048")
    assert code == 0 and err == ""
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["windings"] == "(1, 0)"
    assert float(lines["max_abs_difference"]) <= 1e-12

    code, out, _ = run(capsys, "integrate", "--planar", "one", "h3", "2", "0.5",
                       "--samples", "1024")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["windings"] == "(0, 1, 0)"

    # the zero-divisor test takes |u - u0| by hypot, so a huge loop is no zero divisor
    code, out, err = run(capsys, "integrate", "one", "0", "1", "1e200", "--samples", "64")
    assert code == 0 and err == "" and "windings=(1, 0)" in out

    # a loop of radius 1e308: its canonical offsets are finite, and so is every
    # step of the quadrature
    code, out, err = run(capsys, "integrate", "one", "0", "1", "1e308")
    assert code == 0 and err == ""
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["windings"] == "(1, 0)" and lines["numeric"] == lines["formula"]
    assert float(lines["max_abs_difference"]) <= 1e-12


def test_integrate_on_the_exact_circle(capsys):
    # the loop's windings come from its exact circle, so a negative radius winds once too
    code, out, err = run(capsys, "integrate", "--samples", "64", "exp", "0", "1", "--", "-1.0")
    assert code == 0 and err == "" and "windings=(1, 0)\n" in out

    # every node count sums 1 - c / z to 1 exactly: the nodes at 0 and pi are 1 and -1,
    # and each other node is summed with its conjugate
    for samples in ("64", "1024"):
        code, out, err = run(capsys, "integrate", "--samples", samples, "one", "0", "1", "1e308")
        assert code == 0 and err == ""
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert lines["numeric"] == lines["formula"]


def test_integrate_rejects_bad_plane(capsys):
    code, _, err = run(capsys, "integrate", "exp", "0", "3", "1.0")
    assert code == 1 and "plane" in err

    # loop parameters are checked before any path is built: no traceback
    for samples in ("7", "4", "0", "-3"):
        code, out, err = run(capsys, "integrate", "--samples", samples, "exp", "0", "1", "1.0")
        assert code == 1 and "samples" in err and out == ""
    for radius in (("nan",), ("inf",), ("--", "-inf")):
        code, out, err = run(capsys, "integrate", "exp", "0", "1", *radius)
        assert code == 1 and "radius" in err and out == ""


@pytest.mark.parametrize("samples", ["4194305", "100000000000"])
def test_integrate_rejects_too_many_samples(capsys, monkeypatch, samples):
    def unbuilt(*args, **kwargs):
        raise AssertionError("the loop was built")

    monkeypatch.setattr(cli.calculus, "circle_path", unbuilt)
    code, out, err = run(capsys, "integrate", "--samples", samples, "exp", "0", "1", "1")
    assert code == 1 and out == ""
    assert err == f"integrate: --samples must be at most 4194304, got {samples}\n"


@pytest.mark.parametrize("argv, message", [
    # the samples are finite, but their canonical offsets in pair2 are not:
    # no zero divisor is reported for the overflowed midpoints
    (("--planar", "one", "0", "2", "1.7e308"),
     "path overflows: its canonical component pair2 is not finite"),
    # the loop's samples themselves overflow
    (("one", "1e308", "1", "1e308"), "path samples must be finite"),
    (("--planar", "exp", "1e308", "2", "1.5e308"), "path samples must be finite"),
], ids=["offsets", "samples-polar", "samples-planar"])
def test_integrate_reports_an_overflowing_path(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "integrate", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, component", [
    (("--polar", "exp", "800"), "v+"),
    (("--planar", "cosh", "800"), "pair1"),
    (("--polar", "u3", "1e110"), "v+"),
    # only v+ overflows, and the loop winds in pair1, where du is not 0
    (("--polar", "exp", "400 + 400 h3"), "v+"),
])
def test_integrate_reports_an_overflowing_integrand(capsys, argv, component):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would end in a traceback
        code, out, err = run(capsys, "integrate", "--samples", "64", *argv, "1", "1.0")
    assert code == 1 and out == ""
    assert err == (f"error: integrand overflows: canonical component {component} "
                   f"of the sum is not finite\n")


@pytest.mark.parametrize("pole", ["1e17", "1e16"])
def test_integrate_rejects_a_loop_below_the_pole_resolution(capsys, pole):
    # at |u0| = 1e16 the samples are rounded to steps of 2, so the radius-1 loop
    # winds in both planes and the printed integral would be off by 1.8
    code, out, err = run(capsys, "integrate", "--samples", "64", "one", pole, "1", "1.0")
    assert code == 1 and out == ""
    assert err == ("integrate: radius 1.0 is below the resolution of the pole: "
                   "the loop's canonical radius 1.73205 is at most 3 ulp of its centre's "
                   f"components ({ {'1e17': 48, '1e16': 6}[pole]})\n")

    code, out, _ = run(capsys, "integrate", "--samples", "64", "one", "3e15", "1", "1.0")
    assert code == 0 and "windings=(1, 0)" in out


def test_repr_command(capsys):
    code, out, err = run(capsys, "repr", "h1")
    assert code == 0 and err == ""
    assert "U =" in out and "T U T^-1 =" in out
    assert "v+ = 1" in out
    off = [line for line in out.splitlines() if line.startswith("off_block_max=")]
    assert off and float(off[0].split("=")[1]) < 1e-10

    code, out, _ = run(capsys, "repr", "--planar", "h1")
    assert code == 0
    assert "V3 =" in out


def test_exit_code_contract_summary(capsys):
    # 0: success; 1: domain; 2: parse
    assert run(capsys, "eval", "1")[0] == 0
    assert run(capsys, "eval", "inv(0)")[0] == 1
    assert run(capsys, "eval", "1 +")[0] == 2
    assert main(["bogus-command"]) == 2


def test_results_vs_diagnostics_streams(capsys):
    code, out, err = run(capsys, "eval", "inv(1 - h3)")
    assert code == 1
    assert out == ""  # nothing on stdout when the evaluation fails
    assert err != ""


@pytest.mark.parametrize("expression, code", [
    ("inv(1 + 0.4h3)", 1), ("1/(1 + 0.4h3)", 1), ("(1 + 0.4h3)^-1", 1),
    # ln and pow always test their components at the library's 1e-13
    ("ln(1 + 0.4h3)", 0), ("pow(1 + 0.4h3, -1)", 0),
])
def test_tol_flag_widens_zero_divisor_detection(capsys, expression, code):
    # 1 + 0.4 h3 is comfortably invertible at the default threshold
    assert run(capsys, "eval", expression)[0] == 0
    # a huge relative tolerance makes its smallest canonical component v- count as zero
    # for the inversions that --tol reaches
    returned, out, err = run(capsys, "eval", "--tol", "0.8", expression)
    assert returned == code
    if code:
        assert out == "" and err.startswith("error: zero divisor") and "v-" in err
    else:
        assert out.strip() and err == ""


@pytest.mark.parametrize("expression, value", [
    (" + ".join(["1"] * 5000), "5000"),
    ("h1 " * 5000, "h2"),  # h1^5000 = h1^(6*833 + 2)
    ("-" * 5000 + "1", "1"),
], ids=["sum", "juxtaposed-h1", "unary-minus"])
def test_long_chains_evaluate_left_to_right(capsys, expression, value):
    assert run(capsys, "eval", "--", expression) == (0, value + "\n", "")


@pytest.mark.parametrize("opening", ["(", "exp("])
def test_nesting_past_the_limit_exits_2(capsys, opening):
    expression = opening * 200 + "0" + ")" * 200
    column = MAX_DEPTH * len(opening) + 1
    assert run(capsys, "eval", expression) == (
        2, "", f"parse error: nesting deeper than {MAX_DEPTH} levels at line 1, column {column}\n")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e400"])
def test_tol_must_be_finite_and_nonnegative(capsys, tol):
    for argv in (("eval", "inv(1 + h3)"), ("eval", "1/(1 + h3)"), ("canon", "1 + h3")):
        code, out, err = run(capsys, argv[0], "--tol", tol, argv[1])
        assert code == 2 and out == ""
        assert f"argument --tol: tolerance must be finite and >= 0, got '{tol}'" in err


@pytest.mark.parametrize("expression", ["1e400", "(1e200 + h1)*(1e200 + h1)"])
def test_eval_overflow_is_an_error(capsys, expression):
    code, out, err = run(capsys, "eval", expression)
    assert code == 1 and out == ""
    assert err == "error: component 0 is not finite: inf\n"


@pytest.mark.xfail(raises=OverflowError, strict=True,
                   reason="the function overflows inside the componentwise map "
                          "(elementary._apply); perfbench's "
                          "test_edge_inputs_show_the_known_overflow_defect pins this "
                          "traceback until the benchmark is updated with the fix")
@pytest.mark.parametrize("expression", ["exp(800)", "cosh(1000)", "sinh(800 h3)", "exp(710 h1)"])
def test_eval_exp_overflow_is_an_error(capsys, expression):
    code, out, err = run(capsys, "eval", expression)
    assert code == 1 and out == "" and err.startswith("error:")


def test_eval_integer_power_overflow_is_an_error(capsys):
    # pow with an integer exponent is the ring product: the squares overflow a component
    code, out, err = run(capsys, "eval", "pow(1 + h1, 1e308)")
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("expression, value", [
    # no square is formed past the exponent's top bit, so nothing beyond the result overflows
    ("(1e200)^1", "1e+200"), ("(1e100)^3", "1e+300"), ("pow(1e100, 3)", "1e+300"),
    # pow(u, n) is u^n: no rounding residue of the canonical map
    ("pow(h1, 6)", "1"), ("pow(0.1796, 3)", "0.005793206336"),
])
def test_integer_powers_are_ring_products(capsys, expression, value):
    assert run(capsys, "eval", expression) == (0, value + "\n", "")


@pytest.mark.parametrize("args, component", [
    (("canon", "--", "1.2e308 + 1.2e308 h3"), "v+"),
    (("eval", "--", "sin(1.2e308 + 1.2e308 h3)"), "v+"),
    (("eval", "--", "ln(1.5e308 + 1.5e308 h1)"), "v+"),
    (("canon", "--planar", "--", "1.2e308 + 1.2e308 h2"), "pair1"),
])
def test_overflowing_canonical_component_is_named(capsys, args, component):
    # every component is finite, but a sum of them in the canonical transform is not
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err == f"error: canonical component {component} is not finite\n"


@pytest.mark.parametrize("args, component", [
    (("eval", "--", "inv(5e-324)"), "v+"),
    (("eval", "--planar", "--", "inv(1e-310 + 1e-310 h3)"), "pair1"),
    (("eval", "--planar", "--", "1 / (1e-310 + 1e-310 h3)"), "pair1"),
])
def test_reciprocal_beyond_the_double_range_is_named(capsys, args, component):
    # no canonical component vanishes, but a reciprocal of one is not finite
    assert run(capsys, *args) == (1, "", f"error: canonical component {component} is not finite\n")


# Canonical pair1 of each is 1.3e308 (1 + i), so its radius overflows although
# every component and |u| (1.06e308) are finite; the other components are near 1e300.
_WIDE_PAIR1 = {
    "planar": "4.3333334e+307 + 5.91944338753172e+307 h1 + 5.919443399732567e+307 h2"
              " + 4.3333333333333333e+307 h3 + 1.5861100997325675e+307 h4"
              " - 1.5861100541983874e+307 h5",
    "polar": "4.3333334e+307 + 5.919443399732567e+307 h1 + 1.5861100997325675e+307 h2"
             " - 4.3333333e+307 h3 - 5.919443399732567e+307 h4 - 1.5861100997325675e+307 h5",
}
# planar: every canonical component is +-1.5e308; |u| and every plane radius overflow
_WIDE_ALL = "1.5e308 + 1.5e308 h3"
_RADIUS_ERROR = "error: plane radius of canonical component pair1 is not finite\n"


@pytest.mark.parametrize("args, code, out, err", [
    (("eval", "--planar", "--", f"ln({_WIDE_PAIR1['planar']})"), 1, "", _RADIUS_ERROR),
    (("eval", "--planar", "--", f"pow({_WIDE_PAIR1['planar']}, 0.5)"), 1, "", _RADIUS_ERROR),
    (("canon", "--planar", "--", _WIDE_PAIR1["planar"]), 1, "", _RADIUS_ERROR),
    (("eval", "--polar", "--", f"ln({_WIDE_PAIR1['polar']})"), 1, "", _RADIUS_ERROR),
    (("canon", "--planar", "--", _WIDE_ALL), 1, "", _RADIUS_ERROR),
    (("eval", "--planar", "--", f"ln({_WIDE_ALL})"), 1, "", _RADIUS_ERROR),
    (("eval", "--planar", "--", f"inv({_WIDE_PAIR1['planar']})"), 0,
     "6.66666664625e-301 - 2.88675129583e-301 h1 - 1.666666688e-301 h2"
     " - 2.94525154001e-309 h3 + 1.66666666579e-301 h4 + 2.88675131627e-301 h5\n", ""),
    # no false zero divisor, and 1 / z of each plane value (zero) is not taken as it is
    (("eval", "--planar", "--", f"inv({_WIDE_ALL})"), 0,
     "3.33333333333e-309 - 3.33333333333e-309 h3\n", ""),
], ids=["ln", "pow", "canon", "ln-polar", "canon-wide-all", "ln-wide-all", "inv", "inv-wide-all"])
def test_plane_radius_beyond_the_double_range(capsys, args, code, out, err):
    assert run(capsys, *args) == (code, out, err)

# Runs in a fresh interpreter: prints whether numpy and dataclasses are loaded
# after each step.  The last steps use the plain-Path and matrix API, then
# import numpy itself.
_NUMPY_PROBE = """
import contextlib, io, json, sys
steps = {}
def loaded(*names):
    return [name in sys.modules for name in names]
import hexacomplex
steps["import hexacomplex"] = loaded("numpy", "dataclasses")
from hexacomplex import algebra, calculus, cli
steps["import hexacomplex.cli"] = loaded("numpy", "dataclasses")
modules = sorted(name for name in sys.modules if name.startswith("hexacomplex."))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    steps[" ".join(argv)] = [code, *loaded("numpy", "dataclasses")]
polar = algebra.Variant.POLAR
pole = algebra.HexaNumber.zero(polar)
center = algebra.from_canonical_values(polar, [2.0, 2.0, 0j, 2 + 0j])
loop = calculus.circle_path(polar, center, {1: 1.0}, 64)
path = calculus.Path(polar, loop.samples, closed=True)
path.length()
calculus.winding_number(path, pole, 1)
calculus.line_integral(calculus.FUNCTIONS["exp"], path)
calculus.residue_integral(calculus.FUNCTIONS["exp"], path, pole)
algebra.matrix_rows(center)
algebra.irreducible_form(center)
steps["Path and matrix API"] = loaded("numpy", "dataclasses")
import numpy
steps["import numpy"] = loaded("numpy", "dataclasses")
print(json.dumps({"steps": steps, "loaded": modules}))
"""


def test_scalar_commands_do_not_import_numpy():
    argvs = [[command, variant, *rest]
             for variant in ("--polar", "--planar")
             for command, *rest in (("eval", "exp(h1) / (2 + h3) + pow(3 + h2, 0.5)"),
                                    ("canon", "ln(2 + h1)"), ("table", "g"),
                                    ("integrate", "sin", "h3", "1", "0.5"),
                                    ("factor", "1", "-0.5 + h1", "2 - h3", "0.25 h5"),
                                    ("factor", "--all", "10", "1", "0", "-1"),
                                    ("repr", "1 + 2 h1 - 0.3 h4"))]
    argvs.append(["integrate", "--samples", "64", "exp", "0", "1", "1.0"])
    # the loop's samples overflow, which circle_path finds one sample at a time
    failing = [["integrate", variant, "u", "5e307", "1", "1.6e308"]
               for variant in ("--polar", "--planar")]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(hexacomplex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs + failing)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(proc.stdout)
    modules = ("_transforms", "algebra", "calculus", "canonical", "cli", "cosexp",
               "elementary", "errors", "expressions", "polyfactor")
    assert report["loaded"] == sorted(f"hexacomplex.{m}" for m in modules)
    # each step: [exit code,] whether numpy is loaded, whether dataclasses is
    steps = report["steps"]
    assert steps.pop("import hexacomplex") == [False, False]
    assert steps.pop("import hexacomplex.cli") == [False, False]
    assert steps.pop("Path and matrix API") == [False, False]
    # importing numpy shows that the probe can see it
    assert steps.pop("import numpy") == [True, False]
    assert steps == {**{" ".join(argv): [0, False, False] for argv in argvs},
                     **{" ".join(argv): [1, False, False] for argv in failing}}


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as after ``| head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [("table", "g"), ("eval", "h1"),
                                  ("factor", "--all", "10", "1", "0", "-1")],
                         ids=["table", "eval", "factor"])
def test_closed_stdout_exits_1_without_a_message(monkeypatch, capsys, argv):
    stdout = _ClosedPipe()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 1
    assert sys.stdout is stdout  # in process, stdout is left as it was
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, lines", [
    # the reader takes one line of a 60,001-row table, as `| head -1` does
    (["table", "g", "--range", "-30:30:0.001"], 1),
    # the reader has gone before the one buffered line is flushed
    (["eval", "h1"], 0),
], ids=["table", "eval"])
def test_closed_pipe_ends_a_fresh_process_quietly(argv, lines):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(hexacomplex.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a shell pipeline
    with subprocess.Popen([sys.executable, "-m", "hexacomplex.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        for _ in range(lines):
            assert proc.stdout.readline() == b"y,c0,c1,c2,c3,c4,c5\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""  # no traceback, not even from the final flush


def test_main_keeps_no_default_between_calls(capsys):
    sequence = [("eval", "--bogus", "1"), ("eval", "--planar", "h3*h3"), ("eval", "h3*h3")]
    outcomes = [run(capsys, *argv)[:2] for argv in sequence]
    assert outcomes[0][0] == 2
    assert outcomes[1:] == [(0, "-1\n"), (0, "1\n")]  # the third call is polar again


# Every command with and without its options, and the --range folding
_ACCEPTED_ARGVS = [
    ["eval", "1 + 2h1"], ["eval", "--planar", "--tol", "1e-10", "h3*h3"],
    ["canon", "exp(h1)"], ["canon", "--polar", "--", "-h1"],
    ["factor", "1", "0", "-1"], ["factor", "--planar", "1", "0", "1", "--all", "10"],
    ["table", "g"], ["table", "f", "--range", "-4:4:0.05"], ["table", "g", "--range=0:1:0.5"],
    ["integrate", "exp", "0", "1", "1.0"],
    ["integrate", "--planar", "one", "2", "2", "1.5", "--samples", "64"],
    ["repr", "h1"], ["repr", "--planar", "--tol", "0", "h2"],
]
# a bad --tol, an unknown option, missing positionals and a missing command
_REJECTED_ARGVS = [["eval", "--tol", "-1", "h1"], ["eval", "--bogus", "1"], ["canon"],
                   ["integrate", "exp", "0", "1"], []]


def _parse(parser, argv):
    """vars() of the Namespace ``main`` would get, or the code argparse exits with."""
    try:
        return vars(parser.parse_args(cli._fold_range_values(argv)))
    except SystemExit as exc:
        return exc.code


def test_shared_parser_parses_as_a_freshly_built_one(capsys):
    shared = cli.build_parser()
    cached = []
    for argv in _ACCEPTED_ARGVS + _REJECTED_ARGVS:
        cached.append((_parse(shared, argv), *capsys.readouterr()))
    fresh = []
    for argv in _ACCEPTED_ARGVS + _REJECTED_ARGVS:
        cli.build_parser.cache_clear()
        fresh.append((_parse(cli.build_parser(), argv), *capsys.readouterr()))
    assert cli.build_parser() is not shared
    assert cached == fresh
    outcomes = [outcome for outcome, _, _ in cached]
    assert outcomes[len(_ACCEPTED_ARGVS):] == [2] * len(_REJECTED_ARGVS)
    folded = _ACCEPTED_ARGVS.index(["table", "f", "--range", "-4:4:0.05"])
    assert outcomes[folded]["table_range"] == (-4.0, 4.0, 0.05)


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    codes = [main(argv) for argv in [["eval", "h3*h3"], ["eval", "--tol", "-1", "h1"],
                                     ["eval", "--bogus", "1"], ["canon"], ["--help"]] * 4]
    capsys.readouterr()
    assert codes == [0, 2, 2, 2, 0] * 4
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
def test_help_is_the_same_on_every_call(capsys, argv):
    outcomes = [run(capsys, *argv) for _ in range(3)]
    assert outcomes[0][0] == 0 and outcomes[0][1].startswith("usage: hexacomplex")
    assert outcomes == [outcomes[0]] * 3


def test_threads_parse_with_the_shared_parser():
    serial = [_parse(cli.build_parser(), argv) for argv in _ACCEPTED_ARGVS] * 20
    results = [None] * 4
    start = threading.Barrier(len(results))

    def work(k):
        start.wait(timeout=30)
        results[k] = [_parse(cli.build_parser(), argv)
                      for _ in range(20) for argv in _ACCEPTED_ARGVS]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * len(results)
