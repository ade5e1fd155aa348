"""Command-line interface: outputs, exit codes, golden tables."""

from __future__ import annotations

import math
import pathlib
import warnings

import pytest

from hexacomplex.cli import main

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


def test_table_golden_files(capsys):
    for family in ("g", "f"):
        code, out, err = run(capsys, "table", family)
        assert code == 0 and err == ""
        golden = (GOLDEN / f"table_{family}.csv").read_text()
        assert out == golden


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


def test_integrate_command(capsys):
    code, out, err = run(capsys, "integrate", "exp", "0", "1", "1.0", "--samples", "2048")
    assert code == 0 and err == ""
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["windings"] == "(1, 0)"
    assert float(lines["max_abs_difference"]) <= 1e-4

    code, out, _ = run(capsys, "integrate", "--planar", "one", "h3", "2", "0.5",
                       "--samples", "1024")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["windings"] == "(0, 1, 0)"

    # the zero-divisor test takes |u - u0| by hypot, so a huge loop is no zero divisor
    code, out, err = run(capsys, "integrate", "one", "0", "1", "1e200", "--samples", "64")
    assert code == 0 and err == "" and "windings=(1, 0)" in out


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


@pytest.mark.parametrize("argv, component", [
    (("--polar", "exp", "800"), "v+"),
    (("--planar", "cosh", "800"), "pair1"),
    (("--polar", "u3", "1e110"), "v+"),
])
def test_integrate_reports_an_overflowing_integrand(capsys, argv, component):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would end in a traceback
        code, out, err = run(capsys, "integrate", "--samples", "64", *argv, "1", "1.0")
    assert code == 1 and out == ""
    assert err == (f"error: integrand overflows: canonical component {component} "
                   f"of the sum is not finite\n")


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


def test_tol_flag_widens_zero_divisor_detection(capsys):
    # 1 + 0.4 h3 is comfortably invertible at the default threshold
    code, out, _ = run(capsys, "eval", "inv(1 + 0.4h3)")
    assert code == 0 and out.strip()
    # a huge relative tolerance makes its smallest canonical component count as zero
    code, _, err = run(capsys, "eval", "--tol", "0.8", "inv(1 + 0.4h3)")
    assert code == 1 and "zero divisor" in err
