"""Self-test of the benchmark's checks.

Runs every workload twice with one of its outputs perturbed before it is
checked (one statistic scaled by 1 + 1e-6, or the posterior mean shifted) and
requires that every operation is then reported as failed.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("svm-d20", "wide-proj-shard2", "poisson-m6")
SEED = 11


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        for perturb in ("stats", "mean"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", "0", "--perturb", perturb],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            passed = bool(result) and result["attempted"] >= 1 and result["failed"] == result["attempted"]
            ok &= passed
            summary = f"{result['failed']}/{result['attempted']} failed" if result else f"exit {proc.returncode}"
            print(f"{'PASS' if passed else 'FAIL'} {workload} perturb={perturb}: {summary}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
