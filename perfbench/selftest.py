"""Wrong-sort self-test for perfbench's output checks.

Runs every workload briefly with ``--inject-wrong-sort``, which swaps two
unequal keys in a seeded share of op outputs before they are checked.
Each run must report failed ops, ``correct: false`` and a non-zero exit
code; otherwise the checks would pass a wrong sort and this script fails.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RATE = 0.25


def main() -> int:
    script = Path(__file__).resolve().parent / "run.py"
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(script), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", "0",
               "--inject-wrong-sort", str(RATE)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        caught = (
            result is not None
            and result["failed"] > 0
            and not result["correct"]
            and proc.returncode != 0
        )
        frac = result["failed"] / result["attempted"] if result else float("nan")
        print(f"{workload:<14} fail_frac={frac:.3f} exit={proc.returncode} "
              f"{'caught' if caught else 'MISSED'}")
        if not caught:
            status = 1
            sys.stdout.write(proc.stdout[-2000:])
            sys.stderr.write(proc.stderr[-2000:])
    print("selftest:", "every injected wrong sort was caught" if status == 0
          else "FAILED")
    return status


if __name__ == "__main__":
    sys.exit(main())
