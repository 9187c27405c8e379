"""Wall-clock comparison of the two power-sum expansion routes.

Each repetition rebuilds the full symbolic-rank chi polynomial from
scratch (fresh memo tables, no result caching), so the numbers reflect
cold-start cost of the chosen method rather than cache luck.  Timings are
taken inside the worker with perf_counter; when a timeout is given, runs
execute in a child process that can be killed cleanly.
"""

from __future__ import annotations

import time

# json, multiprocessing, platform and statistics load where used: no other command
# needs them.

from ._record import Record
from .algebra import _check_int, _is_scalar
from .eulerchi import METHODS, build_chi_polynomial

DEFAULT_MATRIX_CUTOFF = 16
# Longest timeout in seconds: Connection.poll waits in whole milliseconds
# held in a C int, so 2**31 ms (about 2.1e6 s) and beyond overflow.
_MAX_TIMEOUT = 10**6


class MethodTiming(Record):
    """One method's runs: a mutable record of (method, seconds, terms,
    timed_out, note), filled in as the runs finish.  Each timing starts
    with its own empty list of seconds."""

    __slots__ = __match_args__ = ("method", "seconds", "terms", "timed_out", "note")

    def __init__(self, method: str, seconds: list | None = None, terms: int | None = None,
                 timed_out: bool = False, note: str | None = None):
        self.method = method
        self.seconds = [] if seconds is None else seconds
        self.terms = terms
        self.timed_out = timed_out
        self.note = note

    @property
    def median_seconds(self) -> float | None:
        if not self.seconds:
            return None
        import statistics

        return statistics.median(self.seconds)


class BenchReport(Record):
    """A mutable record of (dim, repetitions, timeout, machine, timings,
    agreement): run_bench appends a MethodTiming per method and sets
    agreement once two methods have finished.  Each report starts with its
    own empty list of timings."""

    __slots__ = __match_args__ = (
        "dim", "repetitions", "timeout", "machine", "timings", "agreement",
    )

    def __init__(self, dim: int, repetitions: int, timeout: float | None, machine: str,
                 timings: list | None = None, agreement: bool | None = None):
        self.dim = dim
        self.repetitions = repetitions
        self.timeout = timeout
        self.machine = machine
        self.timings = [] if timings is None else timings
        self.agreement = agreement

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "dim": self.dim,
                "repetitions": self.repetitions,
                "timeout": self.timeout,
                "machine": self.machine,
                "methods": [
                    {
                        "method": t.method,
                        "seconds": t.seconds,
                        "median_seconds": t.median_seconds,
                        "terms": t.terms,
                        "timed_out": t.timed_out,
                        "note": t.note,
                    }
                    for t in self.timings
                ],
                "agreement": self.agreement,
            }
        )

    def to_text(self) -> str:
        lines = [
            f"chi power-sum benchmark: dim={self.dim}, symbolic rank, "
            f"{self.repetitions} repetition(s)"
        ]
        for t in self.timings:
            if t.note and not t.seconds:
                lines.append(f"  {t.method:<10} {t.note}")
                continue
            runs = ", ".join(f"{s:.4f}" for s in t.seconds)
            med = f"{t.median_seconds:.4f}s" if t.median_seconds is not None else "-"
            extra = " (timed out)" if t.timed_out else ""
            lines.append(
                f"  {t.method:<10} median {med}  runs [{runs}]  terms {t.terms}{extra}"
            )
        if self.agreement is None:
            lines.append("agreement: not comparable (fewer than two finished methods)")
        elif self.agreement:
            lines.append("agreement: methods produced identical polynomials")
        else:
            lines.append("agreement: RESULTS DIFFER")
        lines.append(f"machine: {self.machine}")
        return "\n".join(lines)


def _build_once(dim: int, method: str):
    start = time.perf_counter()
    poly = build_chi_polynomial(None, dim, method)
    return time.perf_counter() - start, poly


def _bench_worker(conn, dim: int, method: str):
    conn.send(_build_once(dim, method))  # (elapsed, polynomial), pickled
    conn.close()


def _build_once_with_timeout(dim: int, method: str, timeout: float):
    import multiprocessing

    ctx = multiprocessing.get_context()
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_bench_worker, args=(child, dim, method))
    proc.start()
    child.close()
    try:
        if parent.poll(timeout):
            result = parent.recv()
            proc.join()
            return result
        proc.terminate()
        proc.join()
        return None, None
    finally:
        parent.close()


def run_bench(
    dim: int,
    methods=METHODS,
    repetitions: int = 3,
    timeout: float | None = None,
    matrix_cutoff: int = DEFAULT_MATRIX_CUTOFF,
) -> BenchReport:
    """Time the requested methods building the chi polynomial at dim.

    The matrix route grows several-fold in cost with each dimension, so
    it is skipped (with a note) above matrix_cutoff unless the caller
    raises the cutoff explicitly.  Every finished build is compared with
    the run's first: any difference sets agreement to False; otherwise it
    is True once two methods have finished, and None before.
    """
    import platform

    _check_int(dim, "dimension", 1)
    _check_int(repetitions, "repetitions", 1)
    _check_int(matrix_cutoff, "matrix cutoff", 1)
    seconds = _is_scalar(timeout) or isinstance(timeout, float)  # not a bool or a string
    if timeout is not None and not (seconds and 0 < timeout <= _MAX_TIMEOUT):
        raise ValueError(f"timeout must be in (0, {_MAX_TIMEOUT}] seconds, got {timeout!r}")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}, expected one of {METHODS}")
        if methods.count(m) > 1:  # a repeat would count twice toward agreement
            raise ValueError(f"method {m!r} given more than once")
    machine = (
        f"{platform.platform()} "
        f"{platform.python_implementation()} {platform.python_version()}"
    )
    report = BenchReport(dim, repetitions, timeout, machine)
    first = None
    for method in methods:
        timing = MethodTiming(method)
        report.timings.append(timing)
        if method == "matrix" and dim > matrix_cutoff:
            timing.note = (
                f"skipped: dim {dim} above matrix cutoff {matrix_cutoff} "
                f"(cost grows several-fold per dimension; raise the cutoff to force)"
            )
            continue
        for _ in range(repetitions):
            if timeout is None:
                elapsed, poly = _build_once(dim, method)
            else:
                elapsed, poly = _build_once_with_timeout(dim, method, timeout)
            if elapsed is None:
                timing.timed_out = True
                timing.note = f"timed out after {timeout}s"
                break
            timing.seconds.append(elapsed)
            timing.terms = len(poly)
            if first is None:
                first = poly
            elif poly != first:
                report.agreement = False
    finished = sum(1 for t in report.timings if t.seconds)
    if report.agreement is None and finished >= 2:
        report.agreement = True
    return report
