"""chipoly benchmark: workloads of chipoly command lines, run closed-loop.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One pass runs a workload's command lines (workloads.py) one at a time
through chipoly.cli.main in a fresh interpreter (worker.py), so every
pass starts with cold library caches.  The seed fixes the command lines
of the run; passes repeat them until --seconds is used up.  The output
gate (gate.py) checks every command outside the timed region; a command
that fails it counts as failed.

--trace 0 reports the end-to-end metrics: wall_s (pass time), setup_s
(interpreter start plus chipoly import), both in quiet-host seconds (see
reference_seconds), and peak_rss_mb (median peak RSS of a pass).
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics (tracing.py) plus trace.overhead_s, the traced minus
the untraced wall_s.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A report
with everything needed to replay the run (seed, parameters, machine,
Python, git commit, every sample) is written under .bench_build/perfbench.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, pass_commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

MIN_PASSES = 2  # of each kind (untraced, traced) in one run
MIN_SETUP_SAMPLES = 15
WORKER_TIMEOUT = 150


def spawn(spec: dict) -> tuple:
    """Run one worker: (set-up seconds, pass result, error); None on failure."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-I", str(WORKER), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, None, f"worker timed out after {WORKER_TIMEOUT}s"
    if ready != "ready\n" or proc.returncode != 0:
        return None, None, (err.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return setup, json.loads(out), None


def is_emitted_json(argv: list) -> bool:
    return argv[0].startswith("emit-chi") and argv[argv.index("--format") + 1] == "json"


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "_us_" in metric:
        return "us"
    return "count"


def reference_seconds(passes: list, ref_s: float) -> float:
    """Pass time in seconds of a quiet host, read against the calibration.

    Other tenants of a shared host slow CPU-bound Python by up to
    two-fold, in episodes of seconds to minutes, so raw times of one run
    differ from the next by far more than the code does.  Every command
    is timed between two runs of a fixed calibration loop in the same
    process; its time over their mean cancels the host's speed at that
    moment.  The median of that ratio over the run's passes, summed over
    the commands (every pass repeats the same command lines), and scaled
    by the loop's quiet-host time ref_s, is the pass time.
    """
    total = 0.0
    for i in range(len(passes[0]["commands"])):
        ratios = []
        for p in passes:
            cal = p["calibration_s"]
            ratios.append(p["commands"][i]["seconds"] / ((cal[i] + cal[i + 1]) / 2))
        total += statistics.median(ratios)
    return total * ref_s


def spread(values: list) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {statistics.median(values):.6g}, p25 {q[0]:.6g}, p75 {q[2]:.6g}, n {len(values)}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", digests: dict | None = None) -> dict:
    """Run one workload; returns the result line, the report and human lines."""
    import gate
    import passes as worker_pass
    import tracing

    if digests is None:
        digests = json.loads((HERE / "digests.json").read_text())
    commands = pass_commands(workload, size, random.Random(seed))
    gate_rng = random.Random(f"{seed}/gate")
    kinds = (False, True) if trace else (False,)
    passes = {k: [] for k in kinds}
    cost = {k: [] for k in kinds}
    setups, failures, spans = [], [], []
    attempted = 0

    # Warm-up: a fresh checkout compiles its bytecode here; not measured.
    spawn({"commands": [], "keep": [], "trace": False, "seed": seed})
    start = time.perf_counter()
    while True:
        traced = trace and len(cost[True]) < len(cost[False])
        if all(len(cost[k]) >= MIN_PASSES for k in kinds) and (
            time.perf_counter() - start + statistics.median(cost[traced]) > seconds
        ):
            break
        # Emitted JSON is split-checked on the first pass; later passes
        # must match the same digest.
        first = not passes[False] and not passes.get(True)
        keep = [argv[0] in ("verify", "bench") or (first and is_emitted_json(argv)) for argv in commands]
        began = time.perf_counter()
        setup, result, error = spawn(
            {"commands": commands, "keep": keep, "trace": traced, "seed": seed}
        )
        cost[traced].append(time.perf_counter() - began)
        attempted += len(commands) + traced
        if result is None:
            failures += [{"command": gate.key(argv), "reasons": [error]} for argv in commands]
            failures += [{"command": "probe", "reasons": [error]}] if traced else []
            continue
        setups.append((setup, result["calibration_s"][0]))
        for record in result["commands"]:
            reasons = gate.check_command(record, digests)
            if record["stdout"] is not None and is_emitted_json(record["argv"]):
                reasons += gate.split_bundle_check(record["argv"], record["stdout"], gate_rng)
            if reasons:
                failures.append({"command": gate.key(record["argv"]), "reasons": reasons})
            record["stdout"] = None
        if traced:
            if not result["probe_ok"]:
                failures.append({"command": "probe", "reasons": ["reference probe check failed"]})
            spans.append(result.pop("spans"))
        passes[traced].append(result)
    missing = 0 if trace or not setups else MIN_SETUP_SAMPLES - len(setups)
    for _ in range(missing):
        setup, result, _ = spawn({"commands": [], "keep": [], "trace": False, "seed": seed})
        if result is not None:
            setups.append((setup, result["calibration_s"][0]))

    if not all(passes[k] for k in kinds):
        return {"error": failures[-1]["reasons"][0] if failures else "no pass finished"}
    ref_s = worker_pass.CALIBRATION_REF_S
    wall = reference_seconds(passes[False], ref_s)
    lines = [
        f"perfbench {workload} size={size} seed={seed} trace={int(trace)}: "
        f"{len(passes[False])} untraced pass(es)" + (f", {len(passes[True])} traced" if trace else "")
    ]
    if not trace:
        rss = [p["peak_rss_kb"] * 1024 / 1e6 for p in passes[False]]
        setup_s = statistics.median(s / c for s, c in setups) * ref_s
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        calibration = [c for p in passes[False] for c in p["calibration_s"]]
        detail = {
            "wall_s": "quiet-host seconds; raw pass totals "
            + spread([p["wall_s"] for p in passes[False]]),
            "setup_s": "quiet-host seconds; raw " + spread([s for s, _ in setups]),
            "peak_rss_mb": spread(rss),
        }
        for name, m in metrics.items():
            lines.append(f"  {name:<14} {m['value']:.6g} {m['unit']}  ({detail[name]})")
        lines.append(f"  {'calibration':<14} {spread(calibration)} s; quiet host {ref_s} s")
        if workload == "verify-sweep":
            checks = sum(gate.expected_checks(argv) for argv in commands)
            lines.append(f"  {'checks_per_s':<14} {checks / wall:.6g} 1/s  "
                         f"({checks} split-bundle checks a pass over wall_s)")
    else:
        metrics, sources = {}, {}
        # Layer times in quiet-host seconds, read against the pass's calibration.
        scale = [ref_s / statistics.median(p["calibration_s"]) for p in passes[True]]
        for name in list(tracing.TIMED_METRICS) + list(tracing.COUNT_METRICS):
            values = [p["layers"][name][0] for p in passes[True]]
            if name in tracing.TIMED_METRICS:
                values = [v * k for v, k in zip(values, scale)]
            median = statistics.median if name in tracing.TIMED_METRICS else statistics.median_low
            metrics[name] = {"value": median(values), "unit": layer_unit(name)}
            sources[name] = passes[True][0]["layers"][name][1]
        overhead = reference_seconds(passes[True], ref_s) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            lines.append(f"  {name:<26} {m['value']:<12.6g} {m['unit']:<5} "
                         f"{sources.get(name, 'pass'):<5}  moves: {tracing.MOVES[name]}")
        lines.append("  self time per layer, first traced pass (s):")
        for scope, layers in passes[True][0]["self_s"].items():
            lines.append(f"    {scope}: " + ", ".join(f"{k} {v:.4g}" for k, v in layers.items()))
    failed = len(failures)
    lines.append(f"  {'error_rate':<14} {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    for f in failures[:5]:
        lines.append(f"  FAILED {f['command']}: {'; '.join(f['reasons'])}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commands": commands,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": git_commit(),
        "setup_and_calibration_s": setups,
        "passes": passes[False] + passes.get(True, []),
        "failures": failures,
        "result": result,
    }
    return {"result": result, "report": report, "spans": spans, "lines": lines}


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_outputs(name: str, run: dict) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report = run["report"]
    stem = f"{name}-seed{report['seed']}-trace{report['trace']}"
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    if run["spans"]:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(run["spans"]) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chipoly" / "cli.py").is_file():
        print(f"perfbench: no chipoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if "error" in run:
            print(f"perfbench {name}: no pass finished: {run['error']}", file=sys.stderr)
            return 1
        path = write_outputs(name, run)
        print("\n".join(run["lines"]))
        print(f"  report: {path.relative_to(ROOT)}")
        results[name] = run["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
