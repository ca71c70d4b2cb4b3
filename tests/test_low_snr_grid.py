"""low_snr over a budget grid: one certified solve per grid, exact per point.

`allocators._low_snr_sets` solves the first positive uniform budget whose
P*H products are all zero or normal and reuses its columns at every other
such budget when the solve's potentials certify them. Every point must
still get exactly what its own capacity-1 solve of -P*H gives: the same
columns, listed first in each link's set, and the same padded sets. The
solve counts show when the certificate was used: a grid that falls back
solves every point.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiband_alloc import allocators
from multiband_alloc.assignment import solve_capacitated
from multiband_alloc.channel import (
    ChannelParams,
    realization_from_squared_gains,
    sample_realization,
    trial_rng,
)
from oracles import assigned_columns, minimizing_lists

GRIDS = {
    "7log": np.geomspace(1e-3, 1e3, 7),
    "3log_low": np.geomspace(1e-9, 1e-6, 3),
    "0:10:3lin": np.linspace(0.0, 10.0, 3),
}


def regime_params(num_links, num_subchannels, **overrides):
    """The benchmark's channel: B/N = 1, N0 = 1, 2% shadowing at 30 dB."""
    base = dict(
        num_links=num_links,
        num_subchannels=num_subchannels,
        total_bandwidth=float(num_subchannels),
        noise_psd=1.0,
        shadow_prob=0.02,
        shadow_attenuation=1e-3,
        power_budgets=(1.0,) * num_links,
    )
    base.update(overrides)
    return ChannelParams(**base)


def inject(gains, num_links):
    gains = np.asarray(gains, dtype=float)
    params = regime_params(num_links, gains.shape[1], shadow_prob=0.0)
    return params, realization_from_squared_gains(params, gains)


def pad_reference(h, columns, quota):
    """Round-robin padding as a per-point reference: each link in turn
    takes its highest-gain free sub-channel, ties to the lowest index."""
    sets = [[c] for c in columns]
    taken = set(columns)
    for _ in range(quota - 1):
        for k, link_sets in enumerate(sets):
            avail = [n for n in range(h.shape[1]) if n not in taken]
            pick = avail[int(np.argmax(h[k, avail]))]
            link_sets.append(pick)
            taken.add(pick)
    return sets


def per_point(points, chan):
    """Each point's sets, from its own solve of P*H."""
    outcome = []
    for point in points:
        values = np.array(point.power_budgets)[:, None] * chan.normalized_gains
        columns = assigned_columns(minimizing_lists(values, "maximize"))
        outcome.append(pad_reference(chan.normalized_gains, columns, point.quota))
    return outcome


@pytest.fixture
def solves(monkeypatch):
    """The cost lists `_low_snr_sets` hands to the solver, each solved at
    capacity 1."""
    calls = []

    def counting(costs, capacity):
        assert capacity == 1
        calls.append(costs)
        return solve_capacitated(costs, capacity)

    monkeypatch.setattr(allocators, "solve_capacitated", counting)
    return calls


def grid_outcome(points, chan):
    gains = chan.normalized_gains[None]
    return allocators._low_snr_sets(points, gains, allocators.DEFAULT_PARTITION_GUARD)


def check_grid(points, chan, solves):
    """Assert the grid equals the per-point solves; return how many solves
    the grid made."""
    solves.clear()
    outcome = grid_outcome(points, chan)
    made = len(solves)
    assert outcome == per_point(points, chan)
    return made


def uniform_points(params, grid):
    return [params.with_uniform_budget(b) for b in grid]


class TestSeededDraws:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("num_links,num_subchannels", [(1, 5), (2, 4), (3, 7), (4, 8), (8, 32)])
    def test_regime_draws_solve_once(self, solves, num_links, num_subchannels, grid):
        params = regime_params(num_links, num_subchannels)
        points = uniform_points(params, GRIDS[grid])
        unscaled = sum(1 for b in GRIDS[grid] if b == 0.0)
        for trial in range(12 if num_subchannels < 32 else 4):
            chan = sample_realization(params, trial_rng(41, trial))
            # Certified: one solve, plus one for budget 0 on the lin grid.
            assert check_grid(points, chan, solves) == 1 + unscaled

    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (3, 7), (4, 8)])
    def test_full_blocking_draws(self, solves, num_links, num_subchannels):
        params = regime_params(num_links, num_subchannels, shadow_prob=0.3, shadow_attenuation=0.0)
        for grid in GRIDS.values():
            for trial in range(10):
                chan = sample_realization(params, trial_rng(43, trial))
                check_grid(uniform_points(params, grid), chan, solves)

    def test_mixed_grid_solves_unscalable_points(self, solves):
        # Budget 0 and budgets that differ by link are solved on their own.
        params = regime_params(3, 7)
        chan = sample_realization(params, trial_rng(47, 0))
        points = uniform_points(params, (0.0, 1e-3, 1.0))
        points.append(replace(params, power_budgets=(1.0, 2.0, 3.0)))
        points.append(params.with_uniform_budget(1e3))
        assert check_grid(points, chan, solves) == 3


class TestFallback:
    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (3, 7), (4, 8)])
    def test_integer_tie_heavy_gains(self, solves, num_links, num_subchannels):
        rng = np.random.default_rng(num_links * 10 + num_subchannels)
        fallbacks = 0
        for _ in range(30):
            params, chan = inject(rng.integers(0, 3, size=(num_links, num_subchannels)), num_links)
            points = uniform_points(params, GRIDS["7log"])
            fallbacks += check_grid(points, chan, solves) == len(points)
        assert fallbacks > 0

    def test_all_equal_gains(self, solves):
        params, chan = inject(np.full((3, 7), 1.7), 3)
        points = uniform_points(params, GRIDS["7log"])
        assert check_grid(points, chan, solves) == len(points)

    def test_duplicated_rows(self, solves):
        rng = np.random.default_rng(5)
        gains = rng.exponential(size=(4, 8))
        gains[2] = gains[0]
        params, chan = inject(gains, 4)
        points = uniform_points(params, GRIDS["7log"])
        assert check_grid(points, chan, solves) == len(points)

    @pytest.mark.parametrize("seed", range(5))
    def test_near_tie(self, solves, seed):
        # Row 0 is row 1 scaled by 1 + 1e-13, so swapping the two links'
        # columns changes the sum by at most 1e-13 of max P*H.
        rng = np.random.default_rng(seed)
        gains = rng.exponential(size=(3, 7))
        gains[0] = gains[1] * (1.0 + 1e-13)
        params, chan = inject(gains, 3)
        points = uniform_points(params, GRIDS["7log"])
        assert check_grid(points, chan, solves) == len(points)

    def test_near_tie_two_links(self, solves):
        # The two assignments are worth 2 + 2e-13 and 2: 1e-13 relative.
        params, chan = inject([[2.0, 1.0], [1.0, 2e-13]], 2)
        points = uniform_points(params, GRIDS["7log"])
        assert check_grid(points, chan, solves) == len(points)

    def test_zero_gains(self, solves):
        params, chan = inject(np.zeros((2, 4)), 2)
        points = uniform_points(params, GRIDS["0:10:3lin"])
        assert check_grid(points, chan, solves) == len(points)

    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (4, 8)])
    def test_subnormal_gains(self, solves, num_links, num_subchannels):
        params = regime_params(
            num_links, num_subchannels, shadow_prob=0.3, shadow_attenuation=1e-320
        )
        points = uniform_points(params, GRIDS["7log"])
        shadowed = 0
        for trial in range(10):
            chan = sample_realization(params, trial_rng(53, trial))
            made = check_grid(points, chan, solves)
            if chan.shadow_mask.any():
                # Every P*H of a shadowed entry is subnormal or underflows.
                shadowed += 1
                assert made == len(points)
        assert shadowed > 0


def certified(values):
    """`_certified` on the capacity-1 solve of -`values`, the minimizing
    form `_low_snr_sets` solves and reads."""
    costs = (-values).tolist()
    owner, u, v = solve_capacitated(costs, 1)
    return allocators._certified(costs, owner, u, v, float(values.max()))


class TestCertificate:
    def test_unique_optimum_is_certified(self):
        assert certified(np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.5]]))

    @pytest.mark.parametrize(
        "values",
        [
            [[3.0, 1.0, 0.0], [1.0, 3.0, 3.0]],  # row 1 ties into free column 2
            [[3.0, 3.0, 0.0], [3.0, 3.0, 0.0]],  # swapping the rows ties: a cycle
            [[2.0, 1.0], [1.0, 2e-13]],  # a cycle within the margin
        ],
        ids=["free_column", "cycle", "near_cycle"],
    )
    def test_ties_are_not_certified(self, values):
        assert not certified(np.array(values))


@st.composite
def grid_instances(draw):
    num_links = draw(st.integers(1, 4))
    num_subchannels = draw(st.integers(num_links, 8))
    size = num_links * num_subchannels
    gain = st.one_of(
        st.just(0.0), st.integers(0, 3).map(float), st.floats(1e-4, 1e4), st.just(1e-320)
    )
    gains = draw(st.lists(gain, min_size=size, max_size=size))
    params, chan = inject(np.reshape(gains, (num_links, num_subchannels)), num_links)
    budget = st.one_of(st.just(0.0), st.floats(1e-9, 1e6))
    points = uniform_points(params, draw(st.lists(budget, min_size=1, max_size=6)))
    if draw(st.booleans()):
        # One point with budgets that differ by link, anywhere in the grid.
        per_link = draw(st.lists(budget, min_size=num_links, max_size=num_links))
        mixed = replace(params, power_budgets=tuple(per_link))
        points.insert(draw(st.integers(0, len(points))), mixed)
    return points, chan


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grid_instances())
def test_grid_matches_per_point_solves(instance):
    points, chan = instance
    assert grid_outcome(points, chan) == per_point(points, chan)
