import json

import pytest

from chipoly.bench import run_bench


def test_bench_small_dim_agreement():
    from chipoly.eulerchi import chi_polynomial

    report = run_bench(5, repetitions=2)
    assert report.dim == 5
    assert report.agreement is True
    by_name = {t.method: t for t in report.timings}
    assert set(by_name) == {"matrix", "recursive"}
    for t in by_name.values():
        assert len(t.seconds) == 2
        assert t.median_seconds is not None
        assert t.terms == len(chi_polynomial(None, 5))
    text = report.to_text()
    assert "identical polynomials" in text
    assert "dim=5" in text


def test_bench_single_method_no_comparison():
    report = run_bench(3, methods=("recursive",), repetitions=1)
    assert report.agreement is None
    assert "not comparable" in report.to_text()


def test_bench_repetitions_that_differ_disagree(monkeypatch):
    """Two repetitions of one method that build different polynomials are a
    disagreement, even with no second method to compare against."""
    from chipoly import bench
    from chipoly.algebra import Polynomial

    builds = iter([Polynomial.constant(1), Polynomial.constant(2)])
    monkeypatch.setattr(bench, "_build_once", lambda dim, method: (0.5, next(builds)))
    report = run_bench(3, methods=("recursive",), repetitions=2)
    assert report.agreement is False
    assert report.timings[0].seconds == [0.5, 0.5]
    assert "RESULTS DIFFER" in report.to_text()


def test_bench_methods_that_differ_disagree(monkeypatch):
    """Each method repeats its own polynomial, but the two differ: every build
    is compared with the run's first, so that is a disagreement."""
    from chipoly import bench
    from chipoly.algebra import Polynomial

    builds = {"matrix": Polynomial.constant(1), "recursive": Polynomial.constant(2)}
    monkeypatch.setattr(bench, "_build_once", lambda dim, method: (0.5, builds[method]))
    report = run_bench(3, repetitions=3)
    assert report.agreement is False
    assert [len(t.seconds) for t in report.timings] == [3, 3]
    assert "RESULTS DIFFER" in report.to_text()


def test_bench_dim_one():
    report = run_bench(1, repetitions=1)
    assert report.agreement is True
    assert all(t.terms == 2 for t in report.timings)


def test_bench_matrix_cutoff_skip():
    report = run_bench(17, methods=("matrix",), repetitions=1)
    timing = report.timings[0]
    assert timing.seconds == []
    assert timing.note and "skipped" in timing.note
    assert report.agreement is None


@pytest.mark.slow
def test_bench_timeout_kills_matrix():
    # matrix at dim 12 needs seconds; recursive finishes well inside 1s
    report = run_bench(12, repetitions=1, timeout=1.0)
    by_name = {t.method: t for t in report.timings}
    assert by_name["matrix"].timed_out
    assert by_name["matrix"].median_seconds is None
    assert not by_name["recursive"].timed_out
    assert report.agreement is None
    assert "timed out" in report.to_text()


def test_bench_timeout_compares_piped_polynomials():
    """With a timeout each build runs in a child and its polynomial comes
    back pickled through a pipe; both routes finish, so those are compared."""
    report = run_bench(4, repetitions=1, timeout=60)
    assert all(len(t.seconds) == 1 and not t.timed_out for t in report.timings)
    assert report.agreement is True


def test_bench_json_report():
    report = run_bench(4, repetitions=1)
    payload = json.loads(report.to_json())
    assert payload["dim"] == 4
    assert payload["agreement"] is True
    assert {m["method"] for m in payload["methods"]} == {"matrix", "recursive"}
    for m in payload["methods"]:
        assert m["median_seconds"] > 0
        assert m["timed_out"] is False


def test_bench_validation():
    with pytest.raises(ValueError):
        run_bench(3, repetitions=0)
    with pytest.raises(ValueError):
        run_bench(3, methods=("sideways",))
    # A repeat would count twice toward agreement.
    for methods in (("recursive", "recursive"), ("matrix", "recursive", "matrix")):
        with pytest.raises(ValueError, match=f"method {methods[0]!r} given more than once"):
            run_bench(3, methods=methods)
    # A cutoff below 1 would skip the matrix route at every dimension.
    for cutoff in (0, -1):
        with pytest.raises(ValueError, match="matrix cutoff"):
            run_bench(3, methods=("matrix",), matrix_cutoff=cutoff)
    # 10**6 s is the maximum; from 2147484 s on, Connection.poll's millisecond
    # count overflows a C int.
    # A bool or a string is not a number of seconds.
    for timeout in (0, -1, float("nan"), float("inf"), 10**6 + 1, 2147484, 1e10, 9223372036,
                    True, "5"):
        with pytest.raises(ValueError):
            run_bench(3, timeout=timeout)


def test_bench_runs_at_max_timeout():
    report = run_bench(2, methods=("recursive",), repetitions=1, timeout=10**6)
    timing = report.timings[0]
    assert len(timing.seconds) == 1 and not timing.timed_out
