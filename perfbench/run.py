"""Benchmark of the ``hexacomplex`` command line, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload contour --seed 1 --seconds 18 --trace 0

``--trace 0`` measures set-up time in fresh interpreters, then runs the
workload's closed loop in a worker process (see ``worker.py``) and prints
the end-to-end metrics, each command timed by the trimmed mean of its passes.
``--trace 1`` runs one cycle traced and prints the per-layer metrics.  Every command's output is checked against an
independent mpmath reference (``reference.py``) after the timed loop.
Metric names and units come from ``BENCHMARK.json``.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

Failures on the ``edge`` commands (magnitudes at the ends of the double
range) are known defects of the program and are counted in ``failed``
without making the run incorrect; any other failure makes it incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# Bytecode of every process of the run is cached inside the checkout, also
# when the caller's environment disables writing it, so set-up time is that
# of a warm installation.
sys.pycache_prefix = str(BUILD / "pycache")
sys.dont_write_bytecode = False

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
CHILD_TIMEOUT_S = 150
KNOWN_DEFECT_KINDS = ("edge",)

SETUP_CODE = """
import contextlib, io, json, sys
from hexacomplex import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(json.loads(sys.argv[1]))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _fail(message: str) -> None:
    print(f"benchmark failed: {message}", file=sys.stderr)
    raise SystemExit(1)


def measure_setup(argv) -> list[float]:
    """Wall seconds for a fresh interpreter to import the CLI and finish ``argv``."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(list(argv))],
                              env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up run exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: bool):
    BUILD.mkdir(parents=True, exist_ok=True)
    spans = BUILD / f"spans-{workload}-seed{seed}.npz"
    args = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
            "1" if trace else "0", str(spans)]
    try:
        proc = subprocess.run(args, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        _fail(f"worker did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        _fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    if not lines or "summary" not in lines[-1]:
        _fail("worker output is incomplete")
    return lines[:-1], lines[-1]["summary"], spans


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without their lowest and highest one (the median of three)."""
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def merge_passes(records: list[dict]) -> list[dict]:
    """One entry per command: its first outcome, wall and CPU time as the trimmed mean
    over the passes, and whether every pass gave the same outcome."""
    merged: dict = {}
    for record in records:
        key = record["cycle"], record["slot"]
        if key not in merged:
            merged[key] = {**record, "same": True, "wall": [record["wall"]], "cpu": [record["cpu"]]}
        else:
            entry = merged[key]
            entry["wall"].append(record["wall"])
            entry["cpu"].append(record["cpu"])
            entry["same"] = entry["same"] and record["same"]
    for entry in merged.values():
        entry["wall"] = trimmed_mean(entry["wall"])
        entry["cpu"] = trimmed_mean(entry["cpu"])
    return list(merged.values())


def check_records(workload: str, seed: int, records: list[dict]):
    commands = {}
    verdicts = []
    for record in records:
        cycle = record["cycle"]
        if cycle not in commands:
            commands[cycle] = workloads.cycle(workload, seed, cycle)
        command = commands[cycle][record["slot"]]
        verdict = reference.check(command, record)
        if verdict.ok and not record["same"]:
            verdict = reference.Verdict(False, None, "outcome differs between passes")
        verdicts.append((command, verdict))
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup = None
    if not args.trace:
        setup = measure_setup(workloads.cycle(args.workload, args.seed, 0)[0].argv)
    records, summary, spans = run_worker(args.workload, args.seed, args.seconds, bool(args.trace))
    records = merge_passes(records)
    t0 = time.perf_counter()
    verdicts = check_records(args.workload, args.seed, records)
    check_s = time.perf_counter() - t0

    attempted = len(verdicts)
    failures = [(c, v) for c, v in verdicts if not v.ok]
    unexpected = [(c, v) for c, v in failures if c.kind not in KNOWN_DEFECT_KINDS]
    known = [(c, v) for c, v in failures if c.kind in KNOWN_DEFECT_KINDS]
    digits = [v.digits for _, v in verdicts if v.ok and v.digits is not None]

    print(f"workload {args.workload}, seed {args.seed}: {attempted} commands in "
          f"{summary['cycles']} cycle(s) x {summary['passes']} pass(es), {len(failures)} failed "
          f"({len(known)} known defects); checked in {check_s:.1f} s")
    for tag, listed in (("UNEXPECTED", unexpected[:20]), ("known", known[:7])):
        for command, verdict in listed:
            print(f"  {tag} failure: {' '.join(command.argv)[:100]} -> {verdict.reason[:160]}")

    if args.trace:
        wanted = definition["per_layer"]
        values = summary["layers"]
        notes = {}
        print(f"  {summary['spans']} spans written to {spans.relative_to(ROOT)}")
    else:
        wanted = definition["end_to_end"]
        walls = [r["wall"] for r in records]
        tail, percentile = tail_latency(walls)
        passes = f"trimmed mean of {summary['passes']} passes"
        values = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": attempted / sum(walls),
            "latency_p50_ms": 1e3 * statistics.median(walls),
            "latency_tail_ms": 1e3 * tail,
            "cpu_ms_per_op": 1e3 * sum(r["cpu"] for r in records) / attempted,
            "peak_rss_mb": summary["peak_rss_mb"],
            "ok_ratio": (attempted - len(failures)) / attempted,
            "digits_min": min(digits) if digits else 0.0,
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "throughput_ops_s": f"{passes} per command",
            "latency_p50_ms": f"n={attempted}, {passes}",
            "latency_tail_ms": f"p{percentile:.1f}, n={attempted}, {passes}",
            "cpu_ms_per_op": passes,
            "ok_ratio": f"{attempted - len(failures)} of {attempted}",
            "digits_min": f"over {len(digits)} checked outputs",
        }
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print(f"  {name:42s} {values[name]:>14.6g} {metric['unit']:8s} {notes.get(name, '')}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
