"""Exact Euler-characteristic polynomials in Chern classes on projective space."""

from .algebra import AUX, RANK, TWIST, Polynomial, chern, standard_weight
from .eulerchi import (
    ChernVector,
    build_chi_polynomial,
    chi_polynomial,
    chi_twist_polynomial,
    evaluate_chi,
    prefactor_parts,
    twisted_chern_polynomial,
)
from .oracle import (
    Lcg,
    SplitBundle,
    VerifyReport,
    split_chi,
    split_chi_twist,
    verify,
)
from .stirling import (
    StirlingTable,
    falling_factorial_poly,
    h0_line_bundle,
    rising_factorial_poly,
    signed_stirling1,
    unsigned_stirling1,
)
from .symmfun import (
    PowerSumCache,
    elementary_values,
    newton_matrix,
    power_sum_matrix,
    power_sum_recursive,
    power_sum_values,
)

__version__ = "0.1.0"

# chipoly.bench, which only the bench command uses, is imported on first use.
_FROM_BENCH = ("BenchReport", "MethodTiming", "run_bench")


def __getattr__(name):
    if name in _FROM_BENCH:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AUX",
    "RANK",
    "TWIST",
    "Polynomial",
    "chern",
    "standard_weight",
    "BenchReport",
    "MethodTiming",
    "run_bench",
    "ChernVector",
    "build_chi_polynomial",
    "chi_polynomial",
    "chi_twist_polynomial",
    "evaluate_chi",
    "prefactor_parts",
    "twisted_chern_polynomial",
    "Lcg",
    "SplitBundle",
    "VerifyReport",
    "split_chi",
    "split_chi_twist",
    "verify",
    "StirlingTable",
    "falling_factorial_poly",
    "h0_line_bundle",
    "rising_factorial_poly",
    "signed_stirling1",
    "unsigned_stirling1",
    "PowerSumCache",
    "elementary_values",
    "newton_matrix",
    "power_sum_matrix",
    "power_sum_recursive",
    "power_sum_values",
    "__version__",
]
