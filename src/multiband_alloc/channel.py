"""Fading channel synthesis for the multi-band scenario.

Draws per-(link, sub-channel) squared channel gains (Rayleigh magnitude,
i.e. unit-mean exponential power), applies Bernoulli shadowing, and derives
the normalized gains used by every allocation strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

__all__ = [
    "ChannelParams",
    "ChannelRealization",
    "trial_rng",
    "sample_realization",
    "realization_from_squared_gains",
]


@dataclass(frozen=True)
class ChannelParams:
    """Scenario constants for one network instance.

    Attributes
    ----------
    num_links : int
        Number of active communication links K.
    num_subchannels : int
        Number of orthogonal sub-channels N (must satisfy N >= K).
    total_bandwidth : float
        Total bandwidth B in Hz; each sub-channel spans B/N.
    noise_psd : float
        Noise power spectral density N0 in W/Hz.
    shadow_prob : float
        Probability that a (link, sub-channel) gain is shadowed.
    power_budgets : tuple of float
        Per-link transmit power budgets in W, length K.
    shadow_attenuation : float
        Multiplier applied to a shadowed squared gain (0 = fully blocked).
    """

    num_links: int
    num_subchannels: int
    total_bandwidth: float
    noise_psd: float
    shadow_prob: float
    power_budgets: tuple[float, ...]
    shadow_attenuation: float = 0.0

    def __post_init__(self):
        if not isinstance(self.num_links, int) or self.num_links < 1:
            raise ValidationError("num_links must be a positive integer")
        if not isinstance(self.num_subchannels, int) or self.num_subchannels < 1:
            raise ValidationError("num_subchannels must be a positive integer")
        if self.num_subchannels < self.num_links:
            raise ValidationError(
                "num_subchannels must be >= num_links (per-link quota would be zero)"
            )
        if not (0.0 < self.total_bandwidth < np.inf):
            raise ValidationError("total_bandwidth must be finite and > 0")
        if not (0.0 < self.noise_psd < np.inf):
            raise ValidationError("noise_psd must be finite and > 0")
        if not (0.0 <= self.shadow_prob <= 1.0):
            raise ValidationError("shadow_prob must lie in [0, 1]")
        if not (0.0 <= self.shadow_attenuation < np.inf):
            raise ValidationError("shadow_attenuation must be finite and >= 0")
        budgets = tuple(float(p) for p in self.power_budgets)
        if len(budgets) != self.num_links:
            raise ValidationError("power_budgets must list one budget per link")
        if any(not np.isfinite(p) or p < 0.0 for p in budgets):
            raise ValidationError("every power budget must be finite and >= 0")
        object.__setattr__(self, "power_budgets", budgets)

    @property
    def quota(self) -> int:
        """Sub-channels allocated to each link: floor(N / K)."""
        return self.num_subchannels // self.num_links

    @property
    def subchannel_bandwidth(self) -> float:
        """Bandwidth of one sub-channel, B/N in Hz."""
        return self.total_bandwidth / self.num_subchannels

    @property
    def noise_per_subchannel(self) -> float:
        """Noise power in one sub-channel, N0 * B/N in W."""
        return self.noise_psd * self.subchannel_bandwidth

    def with_uniform_budget(self, budget: float) -> "ChannelParams":
        """Copy of the params with the same budget applied to all links."""
        return replace(self, power_budgets=(float(budget),) * self.num_links)


@dataclass(frozen=True)
class ChannelRealization:
    """One sampled channel state.

    `normalized_gains[k, n]` is |h|^2 for link k on sub-channel n (after
    shadowing) divided by the sub-channel noise power N0 * B/N, and
    `shadow_mask` marks the entries that were shadowed.
    """

    normalized_gains: np.ndarray
    shadow_mask: np.ndarray

    def __post_init__(self):
        for name in ("normalized_gains", "shadow_mask"):
            arr = getattr(self, name)
            if arr.ndim != 2:
                raise ValidationError(f"{name} must be a 2-D matrix")
            arr.setflags(write=False)
        if self.normalized_gains.shape != self.shadow_mask.shape:
            raise ValidationError("gain matrix and shadow mask must share one shape")
        if not np.isfinite(self.normalized_gains).all() or (self.normalized_gains < 0).any():
            raise ValidationError("normalized_gains must be finite and >= 0")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent deterministic random stream for one Monte Carlo trial.

    The stream is a pure function of (seed, trial), so serial and parallel
    executions of a sweep see identical draws. The seed must be >= 0.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def sample_realization(params: ChannelParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization.

    Squared gains |h|^2 are i.i.d. unit-mean exponential (Rayleigh-magnitude
    complex gain of unit variance). Each entry is then independently shadowed
    with probability `shadow_prob`, which multiplies its squared gain by
    `shadow_attenuation`. Draw order is fixed (gains first, then the shadow
    uniforms) so a given stream always reproduces the same realization.

    Parameters
    ----------
    params : ChannelParams
        Scenario constants; validated on construction.
    rng : numpy.random.Generator
        Source stream, e.g. from :func:`trial_rng`.

    Returns
    -------
    ChannelRealization
    """
    shape = (params.num_links, params.num_subchannels)
    squared = rng.exponential(1.0, size=shape)
    mask = rng.random(size=shape) < params.shadow_prob
    if mask.any():
        # np.where keeps only the shadowed products; an overflow elsewhere is dropped.
        with np.errstate(over="ignore"):
            squared = np.where(mask, squared * params.shadow_attenuation, squared)
        if np.isinf(squared).any():
            raise ValidationError(
                f"shadow_attenuation {params.shadow_attenuation:g} overflows a shadowed squared gain"
            )
    return ChannelRealization(normalized_gains=_normalize(params, squared), shadow_mask=mask)


def _normalize(params: ChannelParams, squared: np.ndarray) -> np.ndarray:
    """Squared gains over the sub-channel noise power; overflow is a parameter error."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        normalized = squared / params.noise_per_subchannel
    if not np.isfinite(normalized).all():
        raise ValidationError(
            f"noise_psd * bandwidth / subchannels = {params.noise_per_subchannel:g} W "
            "is too small: normalized gains overflow"
        )
    return normalized


def realization_from_squared_gains(
    params: ChannelParams,
    squared_gains: np.ndarray,
    shadow_mask: np.ndarray | None = None,
) -> ChannelRealization:
    """Wrap externally supplied squared gains (e.g. synthetic test matrices)."""
    squared = np.array(squared_gains, dtype=float)
    if squared.shape != (params.num_links, params.num_subchannels):
        raise ValidationError("squared_gains shape must be (num_links, num_subchannels)")
    if not np.isfinite(squared).all() or (squared < 0).any():
        raise ValidationError("squared_gains must be finite and >= 0")
    if shadow_mask is None:
        mask = np.zeros(squared.shape, dtype=bool)
    else:
        mask = np.array(shadow_mask, dtype=bool)
    return ChannelRealization(normalized_gains=_normalize(params, squared), shadow_mask=mask)
