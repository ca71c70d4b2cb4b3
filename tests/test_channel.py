"""Channel model: parameter validation, normalization, seeded sampling."""

import math

import numpy as np
import pytest

from multiband_alloc.channel import (
    ChannelParams,
    ChannelRealization,
    realization_from_squared_gains,
    sample_realization,
    trial_rng,
)
from multiband_alloc.errors import ValidationError


def make_params(**overrides):
    base = dict(
        num_links=2,
        num_subchannels=4,
        total_bandwidth=4.0,
        noise_psd=1.0,
        shadow_prob=0.02,
        power_budgets=(1.0, 1.0),
    )
    base.update(overrides)
    return ChannelParams(**base)


class TestChannelParams:
    def test_quota_and_derived_quantities(self):
        p = make_params()
        assert p.quota == 2
        assert p.subchannel_bandwidth == 1.0
        assert p.noise_per_subchannel == 1.0

        p = make_params(num_links=3, num_subchannels=10, power_budgets=(1, 1, 1), total_bandwidth=20.0, noise_psd=0.5)
        assert p.quota == 3
        assert p.subchannel_bandwidth == 2.0
        assert p.noise_per_subchannel == 1.0

    def test_budgets_coerced_to_float_tuple(self):
        p = make_params(power_budgets=[1, 2])
        assert p.power_budgets == (1.0, 2.0)
        assert isinstance(p.power_budgets, tuple)

    def test_with_uniform_budget(self):
        p = make_params().with_uniform_budget(3.0)
        assert p.power_budgets == (3.0, 3.0)
        assert p.num_subchannels == 4

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_links=0),
            dict(num_subchannels=0, power_budgets=(1.0, 1.0)),
            dict(num_links=5, power_budgets=(1.0,) * 5),  # N < K
            dict(total_bandwidth=0.0),
            dict(total_bandwidth=-1.0),
            dict(noise_psd=0.0),
            dict(shadow_prob=-0.1),
            dict(shadow_prob=1.5),
            dict(power_budgets=(1.0,)),  # wrong length
            dict(power_budgets=(1.0, -2.0)),
            dict(power_budgets=(1.0, float("inf"))),
            dict(shadow_attenuation=-0.5),
            dict(total_bandwidth=float("inf")),
            dict(noise_psd=float("inf")),
            dict(shadow_attenuation=float("inf")),
        ],
    )
    def test_rejects_invalid_params(self, overrides):
        with pytest.raises(ValidationError):
            make_params(**overrides)

    def test_frozen(self):
        p = make_params()
        with pytest.raises(AttributeError):
            p.num_links = 3


class TestSampling:
    def test_no_shadowing_when_prob_zero(self):
        p = make_params(shadow_prob=0.0)
        chan = sample_realization(p, trial_rng(123, 0))
        assert not chan.shadow_mask.any()
        assert np.isfinite(chan.normalized_gains).all()
        assert (chan.normalized_gains > 0).all()

    def test_unit_denominator_gives_h_equal_to_squared_gain(self):
        # N0 * B/N = 1, so the normalized gains are the (shadowed) exponential draws.
        chan = sample_realization(make_params(), trial_rng(5, 0))
        draws = trial_rng(5, 0).exponential(1.0, size=(2, 4))
        assert np.array_equal(chan.normalized_gains, np.where(chan.shadow_mask, 0.0, draws))

    def test_bit_reproducible(self):
        p = make_params()
        a = sample_realization(p, trial_rng(99, 7))
        b = sample_realization(p, trial_rng(99, 7))
        assert np.array_equal(a.normalized_gains, b.normalized_gains)
        assert np.array_equal(a.shadow_mask, b.shadow_mask)

    def test_trials_are_distinct_substreams(self):
        p = make_params()
        a = sample_realization(p, trial_rng(99, 0))
        b = sample_realization(p, trial_rng(99, 1))
        c = sample_realization(p, trial_rng(100, 0))
        assert not np.array_equal(a.normalized_gains, b.normalized_gains)
        assert not np.array_equal(a.normalized_gains, c.normalized_gains)

    def test_doubling_noise_halves_h_exactly(self):
        p1 = make_params(shadow_prob=0.0)
        p2 = make_params(shadow_prob=0.0, noise_psd=2.0)
        a = sample_realization(p1, trial_rng(11, 3))
        b = sample_realization(p2, trial_rng(11, 3))
        assert np.array_equal(b.normalized_gains, a.normalized_gains / 2.0)

    def test_shadow_attenuation_multiplies_squared_gain(self):
        # The Rayleigh draw precedes the shadow draw, so the same sub-stream
        # yields identical fading under different shadowing settings.
        clear = sample_realization(make_params(shadow_prob=0.0), trial_rng(4, 2))
        dimmed = sample_realization(
            make_params(shadow_prob=1.0, shadow_attenuation=0.25), trial_rng(4, 2)
        )
        assert dimmed.shadow_mask.all()
        assert np.array_equal(dimmed.normalized_gains, clear.normalized_gains * 0.25)

    def test_full_shadowing_with_zero_attenuation_blocks_everything(self):
        chan = sample_realization(make_params(shadow_prob=1.0), trial_rng(8, 0))
        assert chan.shadow_mask.all()
        assert (chan.normalized_gains == 0).all()

    def test_arrays_read_only(self):
        chan = sample_realization(make_params(), trial_rng(0, 0))
        with pytest.raises(ValueError):
            chan.normalized_gains[0, 0] = 5.0
        with pytest.raises(ValueError):
            chan.shadow_mask[0, 0] = True


class TestRealizationFromSquaredGains:
    def test_normalization_applied(self):
        p = make_params(total_bandwidth=8.0, noise_psd=2.0)
        g = np.array([[4.0, 8.0, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0]])
        chan = realization_from_squared_gains(p, g)
        assert np.array_equal(chan.normalized_gains, g / 4.0)
        assert not chan.shadow_mask.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            realization_from_squared_gains(make_params(), np.ones((3, 4)))

    def test_negative_gain_rejected(self):
        g = np.ones((2, 4))
        g[0, 0] = -1.0
        with pytest.raises(ValidationError):
            realization_from_squared_gains(make_params(), g)

    def test_direct_construction_validates(self):
        with pytest.raises(ValidationError):
            ChannelRealization(
                normalized_gains=np.full((2, 4), np.nan),
                shadow_mask=np.zeros((2, 4), dtype=bool),
            )


class TestStatistics:
    def test_exponential_moments_match_closed_form(self):
        # |h|^2 ~ exponential(1): mean 1 and P(|h|^2 > 1) = exp(-1).
        p = ChannelParams(
            num_links=100,
            num_subchannels=1000,
            total_bandwidth=1000.0,
            noise_psd=1.0,
            shadow_prob=0.0,
            power_budgets=(1.0,) * 100,
        )
        chan = sample_realization(p, trial_rng(2024, 0))
        g = chan.normalized_gains
        assert g.size == 100_000
        assert abs(g.mean() - 1.0) < 0.01
        assert abs((g > 1.0).mean() - math.exp(-1.0)) < 0.01 * math.exp(-1.0)

    def test_shadow_frequency_within_three_sigma(self):
        pf = 0.02
        p = ChannelParams(
            num_links=100,
            num_subchannels=1000,
            total_bandwidth=1000.0,
            noise_psd=1.0,
            shadow_prob=pf,
            power_budgets=(1.0,) * 100,
        )
        chan = sample_realization(p, trial_rng(77, 0))
        n = chan.shadow_mask.size
        sigma = math.sqrt(pf * (1 - pf) / n)
        assert abs(chan.shadow_mask.mean() - pf) < 3 * sigma
        assert np.array_equal(chan.normalized_gains == 0, chan.shadow_mask)
