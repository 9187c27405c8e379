"""Spans around chipoly's layers, recorded from outside the library.

A traced pass wraps the public functions and methods through which the
CLI reaches each layer, in the namespaces where callers look them up, so
the same command lines run with a span (name, start, end, parent) around
every call into a layer.  Spans stay in memory and are returned at the
end of the pass.

After the pass, a reference probe (see probe) calls every layer at
dim PROBE_DIM, so that a layer the workload never reaches still has a
figure.  Each layer metric records whether it came from the workload's
own pass or from the probe.
"""

from __future__ import annotations

import importlib
import math
import time

import chipoly.cli
from chipoly import eulerchi, oracle
from chipoly.symmfun import PowerSumCache

# (module, class or None, attribute, layer, keep result for sizing)
PATCHES = (
    ("chipoly.cli", None, "chi_polynomial", "eulerchi.chi_polynomial", True),
    ("chipoly.cli", None, "chi_twist_polynomial", "eulerchi.chi_twist_polynomial", True),
    ("chipoly.cli", None, "format_chi_text", "cli.format", False),
    ("chipoly.cli", None, "format_chi_latex", "cli.format", False),
    ("chipoly.cli", None, "verify", "oracle.verify", True),
    ("chipoly.cli", None, "run_bench", "bench.run_bench", False),
    ("chipoly.bench", None, "build_chi_polynomial", "eulerchi.build", True),
    ("chipoly.eulerchi", None, "chi_polynomial", "eulerchi.chi_polynomial", True),
    ("chipoly.eulerchi", None, "chi_twist_polynomial", "eulerchi.chi_twist_polynomial", True),
    ("chipoly.eulerchi", None, "build_chi_polynomial", "eulerchi.build", True),
    ("chipoly.eulerchi", None, "power_sum_recursive", "symmfun.recursive", True),
    ("chipoly.eulerchi", None, "power_sum_matrix", "symmfun.matrix", True),
    ("chipoly.eulerchi", None, "twisted_chern_polynomial", "eulerchi.twist_classes", False),
    ("chipoly.oracle", None, "evaluate_chi", "eulerchi.evaluate_chi", False),
    ("chipoly.oracle", None, "split_chi", "oracle.split_count", False),
    ("chipoly.oracle", None, "split_chi_twist", "oracle.split_count", False),
    ("chipoly.oracle", "SplitBundle", "chern_vector", "oracle.bundle", False),
    ("chipoly.algebra", "Polynomial", "substitute", "algebra.substitute", False),
    ("chipoly.algebra", "Polynomial", "evaluate", "algebra.evaluate", False),
    ("chipoly.algebra", "Polynomial", "to_json", "algebra.to_json", False),
    ("chipoly.algebra", "Polynomial", "__eq__", "algebra.equal", False),
    ("chipoly.stirling", "StirlingTable", "ensure_rows", "stirling.row", False),
)

POWER_SUM_LAYERS = ("symmfun.recursive", "symmfun.matrix")
RESULT_LAYERS = ("eulerchi.chi_polynomial", "eulerchi.chi_twist_polynomial", "eulerchi.build")

PROBE_DIM = 6
PROBE_RANK = 3
PROBE_TRIALS = 100
PROBE_MAX_A = 4
PROBE_TWIST_RANGE = 4

# metric -> (layer, statistic, end-to-end metric and workload it should move)
TIMED_METRICS = {
    "stirling.row_s": ("stirling.row", "total", "nothing: about 0.1 ms"),
    "symmfun.recursive_s": ("symmfun.recursive", "total", "wall_s on emit-symbolic"),
    "eulerchi.assemble_s": ("eulerchi.build", "self", "wall_s on emit-symbolic"),
    "cli.format_s": ("cli.format", "total", "wall_s on emit-symbolic"),
    "algebra.to_json_s": ("algebra.to_json", "total", "wall_s on emit-symbolic"),
    "eulerchi.twist_classes_s": ("eulerchi.twist_classes", "total", "wall_s on emit-twist"),
    "algebra.substitute_s": ("algebra.substitute", "total", "wall_s on emit-twist"),
    "algebra.evaluate_us_p50": ("algebra.evaluate", "p50", "checks_per_s on verify-sweep"),
    "algebra.evaluate_us_p99": ("algebra.evaluate", "p99", "checks_per_s on verify-sweep"),
    "eulerchi.build_s": ("eulerchi.build", "total", "checks_per_s on verify-sweep"),
    "oracle.bundle_us_p50": ("oracle.bundle", "p50", "checks_per_s on verify-sweep"),
    "oracle.split_count_us_p50": ("oracle.split_count", "p50", "checks_per_s on verify-sweep"),
    "symmfun.matrix_s": ("symmfun.matrix", "total", "wall_s on route-compare"),
    "algebra.equal_s": ("algebra.equal", "total", "wall_s on route-compare"),
}
COUNT_METRICS = (
    "symmfun.bn_terms",
    "symmfun.bn_coeff_bits",
    "algebra.result_terms",
    "algebra.coeff_bits",
    "eulerchi.cache_hits",
    "eulerchi.cache_misses",
    "oracle.checks",
    "oracle.mismatches",
)
MOVES = {
    **{name: spec[2] for name, spec in TIMED_METRICS.items()},
    **{name: "explains peak_rss_mb on every workload" for name in COUNT_METRICS},
    "trace.overhead_s": "nothing: traced minus untraced wall_s",
}


class Tracer:
    """In-memory span recorder; spans are [name, start_ns, end_ns, parent]."""

    def __init__(self):
        self.spans: list = []
        self.kept: list = []  # (span index, result) for sized layers
        self.probe_start = None  # index of the probe's root span
        self._stack: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a root span (a command line or the probe)."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, keep: bool):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                self.kept.append((idx, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer entry point listed in PATCHES that exists."""
        for module, cls, attr, layer, keep in PATCHES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr, None)
            if fn is not None:
                setattr(owner, attr, self._wrap(layer, fn, keep))


def cache_counts(chi_fns) -> tuple:
    """(hits, misses) summed over the lru_caches of the given functions."""
    hits = misses = 0
    for fn in chi_fns:
        info = getattr(fn, "cache_info", None)
        if info is not None:
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses


def probe(tracer: Tracer, seed: int) -> dict:
    """Reference calls into every layer at dim PROBE_DIM, under one root span.

    Calls go through the wrapped module attributes, so they produce the
    same layer spans as the CLI does.  Returns the probe's own check.
    """
    def run():
        fast = eulerchi.build_chi_polynomial(None, PROBE_DIM, "recursive", PowerSumCache())
        slow = eulerchi.build_chi_polynomial(None, PROBE_DIM, "matrix")
        agree = fast == slow
        chipoly.cli.format_chi_text(fast, PROBE_DIM)
        fast.to_json()
        report = oracle.verify(
            PROBE_DIM, PROBE_RANK, PROBE_TRIALS, PROBE_MAX_A, seed, PROBE_TWIST_RANGE
        )
        return agree, report

    tracer.probe_start = len(tracer.spans)
    agree, report = tracer.call("probe", run)
    expected = PROBE_TRIALS * (2 * PROBE_TWIST_RANGE + 2)
    return {
        "ok": agree and report.ok and report.checks == expected,
        "checks": report.checks,
        "mismatches": len(report.mismatches),
    }


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _coeff_bits(poly) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for _, c in poly.terms()),
        default=0,
    )


def summarize(tracer: Tracer) -> dict:
    """Per-scope layer statistics: outermost total, self time, durations.

    Spans from probe_start on belong to the probe, the rest to the pass.
    Self time is a span's duration minus the part its child spans cover.
    """
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    child = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    scopes: dict = {"pass": {}, "probe": {}}
    for i, (name, _, _, parent) in enumerate(spans):
        scope = "probe" if i >= tracer.probe_start else "pass"
        st = scopes[scope].setdefault(name, {"total_ns": 0, "self_ns": 0, "durs": []})
        st["self_ns"] += dur[i] - child[i]
        st["durs"].append(dur[i])
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # no enclosing span of the same layer
            st["total_ns"] += dur[i]
    return scopes


def pass_layer_metrics(tracer: Tracer, scopes: dict, cache: tuple, probe_result: dict) -> dict:
    """Every per-layer metric for one traced pass, as {name: [value, source]}."""
    metrics = {}
    for metric, (layer, stat, _) in TIMED_METRICS.items():
        source = "pass" if layer in scopes["pass"] else "probe"
        st = scopes[source].get(layer)
        if st is None:
            value = 0.0
        elif stat == "total":
            value = st["total_ns"] / 1e9
        elif stat == "self":
            value = st["self_ns"] / 1e9
        else:
            value = _percentile(st["durs"], 0.5 if stat == "p50" else 0.99) / 1e3
        metrics[metric] = [value, source]

    power_sums, results, reports = {}, {}, []
    for idx, result in tracer.kept:
        if idx >= tracer.probe_start:
            continue
        layer = tracer.spans[idx][0]
        if layer in POWER_SUM_LAYERS:
            power_sums[id(result)] = result
        elif layer in RESULT_LAYERS:
            results[id(result)] = result
        elif layer == "oracle.verify":
            reports.append(result)
    metrics["symmfun.bn_terms"] = [max((len(p) for p in power_sums.values()), default=0), "pass"]
    metrics["symmfun.bn_coeff_bits"] = [max(map(_coeff_bits, power_sums.values()), default=0), "pass"]
    metrics["algebra.result_terms"] = [max((len(p) for p in results.values()), default=0), "pass"]
    metrics["algebra.coeff_bits"] = [max(map(_coeff_bits, results.values()), default=0), "pass"]
    metrics["eulerchi.cache_hits"] = [cache[0], "pass"]
    metrics["eulerchi.cache_misses"] = [cache[1], "pass"]
    if reports:
        checks = sum(r.checks for r in reports)
        mismatches = sum(len(r.mismatches) for r in reports)
        metrics["oracle.checks"] = [checks, "pass"]
        metrics["oracle.mismatches"] = [mismatches, "pass"]
    else:
        metrics["oracle.checks"] = [probe_result["checks"], "probe"]
        metrics["oracle.mismatches"] = [probe_result["mismatches"], "probe"]
    return metrics


def self_times(scopes: dict) -> dict:
    """{scope: {layer: self seconds}} for the report."""
    return {
        scope: {layer: st["self_ns"] / 1e9 for layer, st in sorted(layers.items())}
        for scope, layers in scopes.items()
    }
