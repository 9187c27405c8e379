"""Self-test of the benchmark.

    python3 perfbench/selftest.py

- Runs every workload at its smoke size, untraced and traced, and checks
  that each run is correct and reports exactly the metrics BENCHMARK.json
  names, with their units.
- Checks that a wrong expected digest counts as a failure.
- Checks that run.py exits non-zero, printing no result, in a directory
  that holds only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check holds.  Scratch files go under .bench_build.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SECONDS = 0.5


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in WORKLOADS:
        for trace in (0, 1):
            out = run.run_workload(name, 1, SECONDS, bool(trace), size="smoke")
            if "error" in out:
                problems.append(f"{name} trace={trace}: {out['error']}")
                continue
            result = out["result"]
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {units} != {wanted[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {out['report']['failures'][:3]}")
            print(f"{name} trace={trace}: {len(units)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")

    digests = json.loads((run.HERE / "digests.json").read_text())
    victim = " ".join(WORKLOADS["emit-symbolic"]["smoke"][0])
    digests[victim] = "0" * 64
    result = run.run_workload("emit-symbolic", 1, SECONDS, False, "smoke", digests)["result"]
    if result["correct"] or result["failed"] < 1:
        problems.append(f"a wrong digest for {victim!r} did not count as a failure: {result}")

    bare = run.ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "emit-symbolic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
