"""Exact Euler-characteristic polynomials in Chern classes on projective space."""

from .algebra import AUX, RANK, TWIST, Polynomial, chern, standard_weight
from .bench import BenchReport, MethodTiming, run_bench
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
