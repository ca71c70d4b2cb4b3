"""Per-link power allocation strategies over an assigned sub-channel set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError

__all__ = [
    "WaterFillResult",
    "water_fill",
    "equal_split",
]


@dataclass(frozen=True)
class WaterFillResult:
    """Water-filling solution for one link.

    `powers` aligns with the input gain list. Every active channel n holds
    powers[n] = water_level - 1/H_n > 0; every inactive channel satisfies
    water_level <= 1/H_n. The powers sum to the budget.
    """

    powers: np.ndarray
    water_level: float
    active_set: tuple[int, ...]


def _as_gain_array(gains) -> np.ndarray:
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValidationError("gains must be a non-empty 1-D list")
    if not np.isfinite(g).all() or (g < 0).any():
        raise ValidationError("gains must be finite and >= 0")
    return g


def water_fill(gains, budget: float) -> WaterFillResult:
    """Optimal power split over parallel channels with gains H_n.

    Maximizes sum_n log2(1 + p_n * H_n) subject to sum_n p_n <= budget and
    p_n >= 0. Channels are admitted in order of decreasing gain while the
    implied water level mu = (budget + sum over admitted 1/H) / #admitted
    keeps every admitted power strictly positive; the final level is then
    exact in closed form, with no iterative tolerance. Zero-gain channels
    never receive power.

    Parameters
    ----------
    gains : array-like of float
        Normalized channel gains H_n in 1/W; at least one must be positive.
    budget : float
        Total power P in W, >= 0.

    Returns
    -------
    WaterFillResult
    """
    g = _as_gain_array(gains)
    if not np.isfinite(budget) or budget < 0.0:
        raise ValidationError("budget must be finite and >= 0")
    usable = np.flatnonzero(g > 0)
    if usable.size == 0:
        raise InfeasibleError("no usable channel: every gain is zero")

    inv = 1.0 / g[usable]
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    prefix = np.cumsum(inv_sorted)
    sizes = np.arange(1, inv_sorted.size + 1, dtype=float)

    # Largest admitted-set size whose water level still clears its worst channel.
    levels = (budget + prefix) / sizes
    feasible = np.flatnonzero(levels > inv_sorted)
    n_active = int(feasible[-1]) + 1 if feasible.size else 0

    powers = np.zeros(g.size)
    if n_active == 0:
        # Zero budget: nothing transmitted, level rests on the best channel.
        mu = float(inv_sorted[0])
        active: tuple[int, ...] = ()
    else:
        mu = float(levels[n_active - 1])
        chosen = usable[order[:n_active]]
        powers[chosen] = mu - inv_sorted[:n_active]
        active = tuple(sorted(int(c) for c in chosen))
    powers.setflags(write=False)
    return WaterFillResult(powers=powers, water_level=mu, active_set=active)


def equal_split(set_size: int, budget: float) -> np.ndarray:
    """Uniform split of the budget across a set of `set_size` sub-channels."""
    if not isinstance(set_size, int) or set_size < 1:
        raise ValidationError("set_size must be a positive integer")
    if not np.isfinite(budget) or budget < 0.0:
        raise ValidationError("budget must be finite and >= 0")
    return np.full(set_size, budget / set_size)

