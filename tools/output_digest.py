"""Digest of every benchmark command's outcome, to check that a change keeps the bytes.

Runs the 855 commands of ``workloads.cycle(w, s, i)`` for every workload,
s = 1..3 and i = 0..2, in process through ``worker.run_command``, against
the ``src/`` of the checkout this file lives in.  Prints one sha256 per
workload over each command's argv, exit code, stdout, stderr and the last
line of its traceback.  The list runs twice; the exit status is 1 when the
two passes differ (an outcome that depends on an earlier command).

Usage: python3 tools/output_digest.py

To compare two commits, copy this file into ``tools/`` of a checkout of
each (``git archive REV | tar -x -C DIR``) and compare the printed lines.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from worker import run_command  # noqa: E402

from hexacomplex import cli  # noqa: E402

SEEDS = (1, 2, 3)
INDICES = (0, 1, 2)


def digests() -> dict[str, tuple[int, str]]:
    """Command count and sha256 of the outcomes, per workload."""
    result = {}
    for workload in workloads.WORKLOADS:
        sha = hashlib.sha256()
        count = 0
        for seed in SEEDS:
            for index in INDICES:
                for command in workloads.cycle(workload, seed, index):
                    record = run_command(cli.main, command.argv)
                    tb = record["tb"].strip().splitlines()[-1] if record["tb"] else None
                    key = [list(command.argv), record["rc"], record["out"], record["err"], tb]
                    sha.update(json.dumps(key).encode())
                    sha.update(b"\n")
                    count += 1
        result[workload] = (count, sha.hexdigest())
    return result


def main() -> int:
    first, second = digests(), digests()
    for workload, (count, digest) in first.items():
        print(f"{workload} {count} {digest}")
    if first != second:
        changed = [w for w in first if first[w] != second[w]]
        print(f"the second pass differs on {', '.join(changed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
