"""One benchmark pass inside a fresh interpreter (see worker.py).

The spec, a JSON object, says which command lines to run, whose stdout
to send back whole, and whether to trace.  Every command goes through
chipoly.cli.main with stdout captured; only the time inside main counts
towards the pass's wall time.

A fixed calibration loop runs before the first command and after every
command, so each command's time can be read against the speed of the
host at that moment (see run.reference_seconds).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

import chipoly.cli
from chipoly import eulerchi


# Time calibrate() takes on a quiet host; see run.reference_seconds.
CALIBRATION_REF_S = 0.02


def calibrate() -> float:
    """Seconds for a fixed loop of the operations chipoly spends its time on:
    Fraction arithmetic and dict updates keyed by tuples of (str, int).
    It calls nothing in chipoly, so no change to the library moves it."""
    start = time.perf_counter()
    acc = {}
    for i in range(5000):
        key = (("C1", i % 13), ("C2", i % 7))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i + 1, 7) * (i % 11 + 1)
    return time.perf_counter() - start


def run_command(argv: list) -> tuple:
    """Run one command line: (exit code, stdout, seconds, error or None).

    An exception is an operation that failed, not a crashed pass, so it is
    reported with the command instead of propagating.
    """
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = chipoly.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), time.perf_counter() - start, error


def peak_rss_kb() -> int:
    """Peak RSS of this process image, in kB.

    Read from VmHWM rather than ru_maxrss: ru_maxrss keeps the parent's
    peak across fork and exec, so it would count the benchmark's own
    parent process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        import tracing

        # Read the caches through the unwrapped functions.
        chi_fns = (eulerchi.chi_polynomial, eulerchi.chi_twist_polynomial)
        tracer = tracing.Tracer()
        tracer.install()
    commands = []
    wall = 0.0
    calibration = [calibrate()]
    for argv, keep in zip(spec["commands"], spec["keep"]):
        if tracer is None:
            code, out, seconds, error = run_command(argv)
        else:
            code, out, seconds, error = tracer.call("cli." + argv[0], run_command, argv)
        wall += seconds
        calibration.append(calibrate())
        commands.append(
            {
                "argv": argv,
                "code": code,
                "seconds": seconds,
                "sha256": sha256(out),
                "stdout": out if keep else None,
                "error": error,
            }
        )
    result = {
        "commands": commands,
        "wall_s": wall,
        "calibration_s": calibration,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        cache = tracing.cache_counts(chi_fns)
        probe = tracing.probe(tracer, spec["seed"])
        scopes = tracing.summarize(tracer)
        result["probe_ok"] = probe["ok"]
        result["layers"] = tracing.pass_layer_metrics(tracer, scopes, cache, probe)
        result["self_s"] = tracing.self_times(scopes)
        result["spans"] = tracer.spans
    return result


def main(spec_json: str) -> None:
    result = run_pass(json.loads(spec_json))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
