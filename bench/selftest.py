"""Corruption self-test of the benchmark's output checks.

Runs each workload once with ``--corrupt``, which damages one output of the
workload before it is checked, and requires the run to report that command
as failed.  Exits 1 if any workload's checks miss the damage.

    python3 bench/selftest.py [workload ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    run = Path(__file__).resolve().parent / "run.py"
    all_caught = True
    for workload in argv or list(WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(run), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0", "--corrupt"],
            capture_output=True, text=True, timeout=200)
        result = json.loads(proc.stdout.splitlines()[-1])
        caught = result["failed"] > 0 and not result["correct"]
        all_caught &= caught
        print(f"{workload}: {result['failed']} of {result['attempted']} commands failed "
              f"-> {'caught' if caught else 'NOT CAUGHT'}")
        sys.stdout.write(proc.stderr)
    return 0 if all_caught else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
