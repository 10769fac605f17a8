"""Solvers for Nash-welfare-optimal many-to-one matchings with two-sided
valuations."""

from .core import (
    BudgetExceededError,
    DomainError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    nash_value,
    validate,
)
from .oracle import OracleResult, solve_bruteforce
from .feasibility import exists_nonzero_nash
from .exact import solve_capacity_one, solve_dp, solve_exact_bucketing
from .approx import greedy_submodular, qptas_bucketing
from .restricted import (
    solve_degree3_capacity2,
    solve_degree_two,
    solve_single_positive_firm,
    solve_symmetric_binary,
)

__all__ = [
    "BudgetExceededError",
    "DomainError",
    "Instance",
    "Matching",
    "NashValue",
    "UNMATCHED",
    "OracleResult",
    "nash_value",
    "validate",
    "solve_bruteforce",
    "exists_nonzero_nash",
    "solve_capacity_one",
    "solve_dp",
    "solve_exact_bucketing",
    "greedy_submodular",
    "qptas_bucketing",
    "solve_symmetric_binary",
    "solve_degree_two",
    "solve_degree3_capacity2",
    "solve_single_positive_firm",
]

__version__ = "0.1.0"
