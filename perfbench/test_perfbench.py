"""Tests of the benchmark itself: generators, reference checker and tracer.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from worker import run_command  # noqa: E402

from hexacomplex import calculus, cli, polyfactor  # noqa: E402
from hexacomplex.algebra import HexaNumber, Variant, canonical_components  # noqa: E402

DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: str) -> list:
    """A few cheap commands of cycle 0 of each workload."""
    commands = workloads.cycle(workload, 7, 0)
    if workload == "contour":
        return [commands[1]]                       # a 1024-sample slot
    if workload == "factor-enum":
        return [c for c in commands if "--planar" in c.argv][:3] + [commands[2]]
    return commands


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_pure_functions_of_the_seed(workload):
    assert workloads.cycle(workload, 3, 1) == workloads.cycle(workload, 3, 1)
    assert workloads.cycle(workload, 3, 1) != workloads.cycle(workload, 4, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_the_reference(workload):
    for command in _tiny(workload):
        verdict = reference.check(command, run_command(cli.main, command.argv))
        assert verdict.ok or command.kind == "edge", (command.argv, verdict)


def _corrupt(text: str) -> str:
    """Change the first nonzero digit of a number's mantissa in the output."""
    for i, ch in enumerate(text):
        before = text[max(0, i - 2):i]
        if (ch in "123456789" and not before[-1:].isalpha()
                and not (before[-1:] in "+-" and before[:1] == "e")):
            return text[:i] + str(int(ch) % 9 + 1) + text[i + 1:]
    raise AssertionError(f"no digit to corrupt in {text!r}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_and_traceback_count_as_failed(workload):
    checked = 0
    for command in _tiny(workload):
        outcome = run_command(cli.main, command.argv)
        if command.kind == "edge" or outcome["rc"] != 0 or not reference.check(command, outcome).ok:
            continue
        if command.kind == "integrate":
            lines = outcome["out"].splitlines()
            lines[1] = "numeric=" + _corrupt(lines[1].split("=", 1)[1])
            bad = {**outcome, "out": "\n".join(lines) + "\n"}
        else:
            bad = {**outcome, "out": _corrupt(outcome["out"])}
        assert not reference.check(command, bad).ok, (command.argv, bad["out"][:200])
        crashed = {**outcome, "rc": None, "tb": "Traceback ...\nOverflowError: math range error\n"}
        assert not reference.check(command, crashed).ok
        wrong_code = {**outcome, "rc": 1}
        assert not reference.check(command, wrong_code).ok
        checked += 1
    assert checked


def test_expected_errors_need_the_component_name():
    command = workloads.Command("eval", ("eval", "inv(1 + h3)"),
                                {"variant": "polar", "tree": ("call", "inv", ("zd", "1 + h3"))})
    outcome = run_command(cli.main, command.argv)
    assert outcome["rc"] == 1 and reference.check(command, outcome).ok
    renamed = {**outcome, "err": outcome["err"].replace("v-", "v+")}
    assert not reference.check(command, renamed).ok


def test_edge_inputs_show_the_known_overflow_defect():
    command = workloads.Command("edge", ("eval", "exp(800)"),
                                {"variant": "polar", "tree": ("call", "exp", ("num", "800")),
                                 "command": "eval"})
    verdict = reference.check(command, run_command(cli.main, command.argv))
    # the true value exceeds the double range: only a HexaError is acceptable
    assert not verdict.ok


def test_spectrum_matches_the_library_transform():
    comps = [0.3, -1.2, 0.7, 2.0, -0.4, 0.9]
    for variant in ("polar", "planar"):
        lib = canonical_components(HexaNumber(Variant(variant), comps))
        spec = reference.Spec.of(variant, comps)
        flat = list(spec.axes) + [x for z in spec.planes for x in (z.real, z.imag)]
        assert max(abs(float(a) - b) for a, b in zip(flat, lib)) < 1e-14
        back = spec.components()
        assert max(abs(float(a) - b) for a, b in zip(back, comps)) < 1e-15


def test_enumeration_counts_match_the_closed_forms():
    for variant, degree, pairs, _ in workloads.FACTOR_ENUM_CYCLE:
        if degree == 4 and variant == "polar":
            continue  # 36,864 orderings: covered by the workload itself
        coeffs = workloads.random_polynomial(random.Random(5), variant, degree, pairs)
        argv = workloads.factor_argv(variant, coeffs, 100000)
        outcome = run_command(cli.main, argv)
        assert len(outcome["out"].splitlines()) == workloads.expected_enumeration_count(
            variant, degree, pairs)


def _traced_counts(commands) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        for slot, command in enumerate(commands):
            tracer.current_command = slot
            run_command(cli.main, command.argv)
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_trace_counts_repeat_exactly_and_bindings_are_restored():
    originals = (canonical_components, polyfactor.enumerate_factorizations,
                 calculus.FUNCTIONS["exp"].evaluator, HexaNumber.__init__)
    commands = [c for w in workloads.WORKLOADS for c in _tiny(w)]
    first, second = _traced_counts(commands), _traced_counts(commands)
    counted = [k for k in first if k.endswith((".calls", ".candidates", ".results"))
               or k == "calculus.samples"]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    for name in ("algebra.construct.calls", "cli.main.calls", "calculus.samples",
                 "polyfactor.enumerate.candidates", "cosexp.cell.calls",
                 "expressions.parse.calls", "algebra.to_canonical.calls"):
        assert first[name] > 0, name
    assert first["cli.main.calls"] == len(commands)
    from hexacomplex import algebra, elementary
    assert (algebra.canonical_components, polyfactor.enumerate_factorizations,
            calculus.FUNCTIONS["exp"].evaluator, HexaNumber.__init__) == originals
    assert elementary.canonical_components is canonical_components


def test_self_time_excludes_children():
    metrics = _traced_counts(_tiny("contour"))
    total = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    # every span nests inside cli.main, so self times add up to main's duration
    assert 0 < metrics["cli.main.self_ms"] < total


def test_benchmark_json_names_every_reported_metric():
    layer_metrics = set(_traced_counts([]))
    per_layer = {m["name"] for m in DEFINITION["per_layer"]}
    assert per_layer - {"trace.overhead_ratio"} <= layer_metrics
    assert {m["name"] for m in DEFINITION["end_to_end"]} == {
        "setup_s", "throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_op",
        "peak_rss_mb", "ok_ratio", "digits_min"}
    assert {w["name"] for w in DEFINITION["workloads"]} == set(workloads.WORKLOADS)
    assert set(LAYERS) == {name.rsplit(".", 1)[0] for name in per_layer
                           if name not in ("calculus.samples", "trace.overhead_ratio")}
