"""Water-filling of a power budget over one sub-channel set or an array of sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "WaterFillResult",
    "water_fill",
]


@dataclass(frozen=True)
class WaterFillResult:
    """Water-filling solution; `powers` has the shape of the input gains.

    In each set every active channel n holds powers[n] = water_level - 1/H_n
    > 0, every inactive channel satisfies water_level <= 1/H_n, and the
    powers sum to the budget. `water_level` is a float for one set, else an
    array over the leading axes; a set with no positive gain has zero powers
    and an infinite level.
    """

    powers: np.ndarray
    water_level: float | np.ndarray

    @property
    def active_set(self) -> tuple[int, ...]:
        """Indices of the powered channels, flat indices for an array of sets."""
        return tuple(int(n) for n in np.flatnonzero(self.powers))


def water_fill(gains, budget) -> WaterFillResult:
    """Optimal power split over parallel channels with gains H_n, per set.

    Maximizes sum_n log2(1 + p_n * H_n) subject to sum_n p_n <= budget and
    p_n >= 0 in every set. Channels are admitted in order of decreasing gain
    while the implied water level mu = (budget + sum over admitted 1/H) /
    #admitted keeps every admitted power strictly positive; the final level
    is then exact in closed form, with no iterative tolerance (Palomar &
    Fonollosa, IEEE TSP 2005). Zero-gain channels never receive power, nor
    do channels whose 1/H overflows to inf (subnormal gains below about
    5.6e-309): they count as unpowerable.

    Parameters
    ----------
    gains : array-like of float
        Normalized channel gains H_n in 1/W, >= 0: one set, or an array
        whose last axis is a set.
    budget : float or array-like of float
        Total power P in W per set, >= 0; an array broadcasts over the
        leading axes of `gains`.

    Returns
    -------
    WaterFillResult
    """
    g = np.asarray(gains, dtype=float)
    b = np.asarray(budget, dtype=float)
    if g.ndim == 0 or g.size == 0:
        raise ValidationError("gains must be a non-empty set or array of sets")
    if not np.isfinite(g).all() or (g < 0).any():
        raise ValidationError("gains must be finite and >= 0")
    if not np.isfinite(b).all() or (b < 0.0).any():
        raise ValidationError("budget must be finite and >= 0")

    # One row per set; zero gains get 1/H = inf, as do gains so small that
    # 1/H overflows, so they sort last (ties keep index order) and no level
    # clears them.
    shape = g.shape
    g = g.reshape(-1, shape[-1])
    rows = np.arange(len(g))[:, None]
    with np.errstate(over="ignore"):
        inv = np.divide(1.0, g, out=np.full(g.shape, np.inf), where=g > 0)
    order = np.argsort(inv, axis=1, kind="stable")
    inv_sorted = inv[rows, order]
    sizes = np.arange(1, g.shape[1] + 1)

    # Largest admitted-set size whose water level still clears its worst channel.
    b = np.broadcast_to(b, shape[:-1]).reshape(-1, 1)
    levels = (b + np.cumsum(inv_sorted, axis=1)) / sizes
    n_active = np.where(levels > inv_sorted, sizes, 0).max(axis=1)

    # Zero budget: nothing transmitted, the level rests on the best channel
    # (inf when no channel is usable).
    mu = np.where(n_active > 0, levels[rows[:, 0], n_active - 1], inv_sorted[:, 0])
    powers = np.empty(shape)
    powers.reshape(g.shape)[rows, order] = np.subtract(
        mu[:, None], inv_sorted, out=np.zeros(g.shape), where=sizes <= n_active[:, None]
    )
    level = mu.reshape(shape[:-1])
    powers.setflags(write=False)
    level.setflags(write=False)
    return WaterFillResult(powers, float(level) if level.ndim == 0 else level)
