"""Timed closed loop over one workload's commands, in a process of its own.

One caller runs ``hexacomplex.cli.main(argv)`` in process, one command at
a time, capturing stdout and stderr to memory inside the timed region.
The commands are the whole cycles that fill ``--seconds / PASSES[workload]``
at the workload's nominal pace (``workloads.cycle_count``), so the sample
count is fixed; the list runs ``PASSES[workload]`` times.  Each outcome goes
to stdout as one JSON line right after the command, outside the timed region (full
output on the first pass, timings and an output digest on the others), so
the worker's peak RSS is the program's and not the outputs'.

With ``--trace`` the worker runs cycle 0 untraced, traced (spans from
:mod:`tracing`) and untraced again, and reports the per-layer metrics and
the ratio of the traced wall time to the mean untraced one.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPANS_PATH
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

import workloads

# Every command runs once per pass; its timings are the mean of its passes
# without the fastest and the slowest one (run.trimmed_mean).  The host this
# was tuned on changes speed by up to 1.6x from one execution to the next,
# mostly in short fast dips: a minimum over passes then depends on whether a
# dip was met, a trimmed mean over passes a few seconds apart does not.  The
# seconds-long polar degree-4 case keeps factor-enum at three passes.
PASSES = {"contour": 5, "cli-mix": 5, "factor-enum": 3}


def run_command(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    failure = None
    rc = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except Exception as exc:  # a traceback is a failed command, recorded and reported
        failure = exc
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    tb = "".join(traceback.format_exception(failure)) if failure is not None else None
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "tb": tb,
            "wall": wall, "cpu": cpu}


def _emit(stream, record: dict) -> None:
    stream.write(json.dumps(record) + "\n")
    stream.flush()


def _digest(record: dict) -> str:
    """Identity of an outcome: exit code, output, messages and the exception raised."""
    tb = record["tb"].strip().splitlines()[-1] if record["tb"] else None
    key = json.dumps([record["rc"], record["out"], record["err"], tb])
    return hashlib.sha1(key.encode()).hexdigest()


def timed(workload: str, seed: int, seconds: float, stream) -> None:
    from hexacomplex import cli

    passes = PASSES[workload]
    cycles = workloads.cycle_count(workload, seconds / passes)
    commands = [(index, slot, command) for index in range(cycles)
                for slot, command in enumerate(workloads.cycle(workload, seed, index))]
    first = {}
    for run in range(passes):
        for index, slot, command in commands:
            record = run_command(cli.main, command.argv)
            if run == 0:
                first[index, slot] = _digest(record)
                _emit(stream, {"cycle": index, "slot": slot, **record})
            else:
                _emit(stream, {"cycle": index, "slot": slot,
                               "wall": record["wall"], "cpu": record["cpu"],
                               "same": _digest(record) == first[index, slot]})
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit(stream, {"summary": {"cycles": cycles, "passes": passes,
                               "peak_rss_mb": rss_kb / 1024.0}})


def traced(workload: str, seed: int, spans_path: str, stream) -> None:
    from hexacomplex import cli
    from tracing import Tracer

    commands = workloads.cycle(workload, seed, 0)

    def untraced_pass() -> float:
        t0 = time.perf_counter()
        for command in commands:
            run_command(cli.main, command.argv)
        return time.perf_counter() - t0

    untraced = untraced_pass()
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        records = []
        for slot, command in enumerate(commands):
            tracer.current_command = slot
            records.append(run_command(cli.main, command.argv))
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    # untraced passes on both sides of the traced one, so drift cancels
    untraced = (untraced + untraced_pass()) / 2.0
    for slot, record in enumerate(records):
        _emit(stream, {"cycle": 0, "slot": slot, **record})
    layers = tracer.metrics()
    layers["trace.overhead_ratio"] = traced_wall / untraced
    tracer.save(spans_path)
    _emit(stream, {"summary": {"cycles": 1, "passes": 1, "layers": layers,
                               "spans": len(tracer.start)}})


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, spans_path = argv
    stream = sys.stdout
    if trace == "1":
        traced(workload, int(seed), spans_path, stream)
    else:
        timed(workload, int(seed), float(seconds), stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
