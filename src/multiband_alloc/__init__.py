"""Sub-channel and power allocation for centralized multi-band networks.

Four allocation strategies over seeded Rayleigh/shadowing channel draws:
a low-SNR single-channel concentration method and a high-SNR equal-split
method (both assignment-based), exhaustive-search water-filling, and a
greedy max-select baseline. A sweep harness compares their exact sum rates
against per-link power budget. Everything else is importable from its
submodule (`allocators`, `assignment`, `channel`, `harness`, `power`).
"""

from .allocators import (
    HIGH_SNR,
    LOW_SNR,
    MAX_SELECT,
    OPTIMAL,
    STRATEGY_ORDER,
    Allocation,
    allocate,
    exact_sum_rate,
)
from .channel import ChannelParams, sample_realization, trial_rng
from .errors import AllocationError, GuardError, InfeasibleError, ValidationError
from .harness import SweepConfig, collect_rates, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllocationError",
    "ChannelParams",
    "GuardError",
    "HIGH_SNR",
    "InfeasibleError",
    "LOW_SNR",
    "MAX_SELECT",
    "OPTIMAL",
    "STRATEGY_ORDER",
    "SweepConfig",
    "ValidationError",
    "allocate",
    "collect_rates",
    "exact_sum_rate",
    "run_sweep",
    "sample_realization",
    "trial_rng",
]
