"""Divisor-rank parity sums and the G_k classification of positive integers.

With d_1 = 1 < d_2 < ... < d_tau(n) = n the ascending divisors of n, the
library computes sigma_e,a / sigma_o,a (power sums over even/odd divisor
ranks), the exact ratio k(n) = sigma_e(n)/sigma_o(n), classifies ranges of
integers into G_k classes, and machine-checks the bounds, identities, and
conjectures that govern them over exhaustive ranges.
"""

from . import classify, core, sigma, theorems

__version__ = "0.1.0"

# Each public name once, under the module that defines it. They are bound here,
# at import: a pool worker that is not forked imports divrank.scanner, so runs this
# file, and with it classify and theorems, which register the tasks it runs.
_PUBLIC = {
    classify: ("GkTable", "enumerate_index_ratio", "is_index_ratio", "members_of_k",
               "merge_tables", "scan_range"),
    core: ("AlphaZeroError", "CheckpointError", "Factorization", "HypothesisViolation",
           "Inapplicable", "RangeOverlapError", "ScanInterrupted", "divisor_list_of",
           "divisors_sorted", "factorize", "is_prime", "parse_rational", "rational_of"),
    sigma: ("DivisorProfile", "ParitySums", "is_perfect_square", "k_ratio", "parity_sums_int",
            "parity_sums_real", "prime_power_closed_form", "profile", "tau_parity"),
    theorems: ("LowerBoundResult", "ScanReport", "SigmaBoundsResult", "check_lower_bound",
               "check_multiplier", "check_multiplier_chain", "check_pairing",
               "check_sigma_bounds", "check_unit_fraction_gap", "check_upper_bound",
               "check_upper_bound_optimality", "extend_with_prime", "scan_conjecture1",
               "scan_conjecture2", "scan_conjecture3", "scan_lower_bound", "scan_multiplier",
               "scan_pairing", "scan_prime_power_distinct", "scan_sigma_bounds",
               "scan_unit_fraction", "scan_upper_bound"),
}
globals().update({name: getattr(module, name) for module, names in _PUBLIC.items()
                  for name in names})
__all__ = sorted(name for names in _PUBLIC.values() for name in names)
