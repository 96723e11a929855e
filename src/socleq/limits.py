"""Resource budgets threaded through the heavier computations."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Engine budgets.

    step_budget    - Buchberger reduction steps per basis computation
    trunc_k_budget - largest truncation level tried while waiting for
                     quotient dimensions to stabilize
    dim_cap        - hard cap on truncated-quotient dimensions
    """

    step_budget: int = 10_000_000
    trunc_k_budget: int = 40
    dim_cap: int = 20_000


DEFAULT_LIMITS = Limits()
