"""low_snr over a budget grid: one solve per distinct budget ratio.

`allocators._low_snr_sets` solves each point on -(P_k / max P) * H, so
within a trial the points with the same ratios share one solve: a grid
of uniform budgets solves -H once, plus once for budget 0. Every point
gets exactly what it gets alone. On the seeded draws that is also what a
capacity-1 solve of its own -P*H gives, columns and padded sets alike.
Where two assignments' P*H sums tie to within rounding the columns may
differ from that solve's, but their P*H sum stays within 1e-12 * K *
max P*H of it.
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
from multiband_alloc.errors import ValidationError
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


def low_snr_sets(points, gains):
    """`_low_snr_sets` on the (B, K) budgets of `points`, params that differ
    only in their budgets, and a (T, K, N) stack of gains."""
    budgets = np.array([point.power_budgets for point in points])
    return allocators._low_snr_sets(points[0], budgets, gains, allocators.DEFAULT_PARTITION_GUARD)


def grid_outcome(points, chan):
    return low_snr_sets(points, chan.normalized_gains[None])


def check_grid(points, chan, solves):
    """Assert the grid equals the per-point solves; return how many solves
    the grid made."""
    solves.clear()
    outcome = grid_outcome(points, chan)
    made = len(solves)
    assert outcome == per_point(points, chan)
    return made


def uniform_points(params, grid):
    return [replace(params, power_budgets=(b,) * params.num_links) for b in grid]


def assignment_value(point, chan, sets):
    """The sum over links of P_k * H at each link's first sub-channel, and
    the largest P*H of the point."""
    values = np.array(point.power_budgets)[:, None] * chan.normalized_gains
    return sum(values[k, s[0]] for k, s in enumerate(sets)), values.max()


def assert_near_optimal(points, chan, outcome):
    """Assert the grid's `outcome` equals each point solved alone, exactly,
    and that each point's assignment is worth its own -P*H solve's P*H sum
    to within 1e-12 * K * max P*H."""
    assert outcome == [grid_outcome([point], chan)[0] for point in points]
    for point, sets, own in zip(points, outcome, per_point(points, chan)):
        value, largest = assignment_value(point, chan, sets)
        own_value, _ = assignment_value(point, chan, own)
        assert abs(value - own_value) <= 1e-12 * point.num_links * largest


def check_near_optimal(points, chan, solves):
    """`assert_near_optimal` on the grid; return how many solves it made."""
    solves.clear()
    outcome = grid_outcome(points, chan)
    made = len(solves)
    assert_near_optimal(points, chan, outcome)
    return made


class TestSeededDraws:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("num_links,num_subchannels", [(1, 5), (2, 4), (3, 7), (4, 8), (8, 32)])
    def test_regime_draws_solve_once(self, solves, num_links, num_subchannels, grid):
        params = regime_params(num_links, num_subchannels)
        points = uniform_points(params, GRIDS[grid])
        unscaled = sum(1 for b in GRIDS[grid] if b == 0.0)
        for trial in range(12 if num_subchannels < 32 else 4):
            chan = sample_realization(params, trial_rng(41, trial))
            # One solve of -H, plus one for budget 0 on the lin grid.
            assert check_grid(points, chan, solves) == 1 + unscaled

    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (3, 7), (4, 8)])
    def test_full_blocking_draws(self, solves, num_links, num_subchannels):
        params = regime_params(num_links, num_subchannels, shadow_prob=0.3, shadow_attenuation=0.0)
        for grid in GRIDS.values():
            for trial in range(10):
                chan = sample_realization(params, trial_rng(43, trial))
                check_grid(uniform_points(params, grid), chan, solves)

    def test_mixed_grid_solves_unscalable_points(self, solves):
        # Three ratios: budget 0, budgets that differ by link, and the
        # uniform budgets 1e-3, 1 and 1e3, which share one solve of -H.
        params = regime_params(3, 7)
        chan = sample_realization(params, trial_rng(47, 0))
        points = uniform_points(params, (0.0, 1e-3, 1.0))
        points.append(replace(params, power_budgets=(1.0, 2.0, 3.0)))
        points.append(replace(params, power_budgets=(1e3,) * params.num_links))
        assert check_grid(points, chan, solves) == 3


class TestRatioSolves:
    def test_one_solve_per_ratio_per_trial(self, solves):
        # Eight points of four ratios over a chunk of three trials: each
        # trial solves each ratio once, on -(P_k / max P) * H, in the order
        # the ratios first appear.
        params = regime_params(3, 7)
        budgets = [(1, 2, 3), (2, 4, 6), (0, 0, 0), (5, 5, 5), (1e-3,) * 3, (0, 1, 1), (0, 2, 2)]
        points = [replace(params, power_budgets=b) for b in [*budgets, (0, 0, 0)]]
        chans = [sample_realization(params, trial_rng(59, t)) for t in range(3)]
        gains = np.stack([chan.normalized_gains for chan in chans])
        outcome = low_snr_sets(points, gains)
        ratios = [(1 / 3, 2 / 3, 1.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0)]
        assert solves == [
            (-(np.array(ratio)[:, None] * chan.normalized_gains)).tolist()
            for chan in chans
            for ratio in ratios
        ]
        assert outcome == [grid_outcome([point], chan)[0] for chan in chans for point in points]


def first_overflow(budgets, gains):
    """The first (trial, point) whose full P*H product, every
    `budgets[b, k] * gains[t, k, n]`, has an overflow, or None."""
    with np.errstate(over="ignore"):
        overflows = np.isinf(budgets[None, :, :, None] * gains[:, None]).any(axis=(2, 3))
    return divmod(int(np.argmax(overflows)), len(budgets)) if overflows.any() else None


def overflow_message(budgets, gains):
    """The message `_low_snr_sets` raises on the grid `budgets`, or None."""
    params = regime_params(gains.shape[1], gains.shape[2])
    try:
        allocators._low_snr_sets(params, budgets, gains, allocators.DEFAULT_PARTITION_GUARD)
    except ValidationError as exc:
        return str(exc)
    return None


class TestOverflowCheck:
    """`_low_snr_sets` checks each budget against its link's largest gain
    only, not every P*H product: rounding is monotone, so near the
    overflow edge it raises on the same first (trial, point) as the full
    product, with the same message."""

    def test_reduced_check_matches_the_full_product(self):
        rng = np.random.default_rng(61)
        eps = np.finfo(float).eps
        trials, points, num_links, num_subchannels = 3, 4, 3, 4
        outcomes = set()
        for _ in range(300):
            # Each link's gains, on every trial, within a few ulps of each
            # other, and about a fifth of the budgets within a few ulps of
            # the largest float over one of their link's gains.
            base = 2.0 + rng.exponential(size=(1, num_links, 1)) * 10.0 ** rng.uniform(0, 3)
            steps = rng.integers(0, 4, size=(trials, num_links, num_subchannels))
            steps += rng.integers(0, 8, size=(trials, 1, 1))
            gains = base * (1.0 + steps * eps)
            trial = rng.integers(trials, size=(points, num_links))
            column = rng.integers(num_subchannels, size=(points, num_links))
            edge = np.finfo(float).max / gains[trial, np.arange(num_links), column]
            budgets = edge * (1.0 + rng.integers(-4, 3, size=edge.shape) * eps)
            budgets[rng.random(budgets.shape) < 0.8] = 1.0
            first = first_overflow(budgets, gains)
            outcomes.add(first is None)
            if first is None:
                assert overflow_message(budgets, gains) is None
                continue
            t, b = first
            expected = f"power budget {budgets[b].max():g} W times a normalized gain overflows"
            assert overflow_message(budgets, gains) == expected
            # No earlier trial overflows, no earlier point of trial t does,
            # and point b of trial t does.
            assert overflow_message(budgets, gains[:t]) is None
            assert overflow_message(budgets[:b], gains[t : t + 1]) is None
            assert overflow_message(budgets[b : b + 1], gains[t : t + 1]) == expected
        assert outcomes == {True, False}


class TestFallback:
    """Tie-heavy, zero and subnormal gains: P*H sums that tie, or nearly
    tie, across assignments. Each trial still solves each ratio once."""

    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (3, 7), (4, 8)])
    def test_integer_tie_heavy_gains(self, solves, num_links, num_subchannels):
        rng = np.random.default_rng(num_links * 10 + num_subchannels)
        for _ in range(30):
            params, chan = inject(rng.integers(0, 3, size=(num_links, num_subchannels)), num_links)
            points = uniform_points(params, GRIDS["7log"])
            assert check_near_optimal(points, chan, solves) == 1

    def test_all_equal_gains(self, solves):
        params, chan = inject(np.full((3, 7), 1.7), 3)
        points = uniform_points(params, GRIDS["7log"])
        assert check_near_optimal(points, chan, solves) == 1

    def test_duplicated_rows(self, solves):
        rng = np.random.default_rng(5)
        gains = rng.exponential(size=(4, 8))
        gains[2] = gains[0]
        params, chan = inject(gains, 4)
        points = uniform_points(params, GRIDS["7log"])
        assert check_near_optimal(points, chan, solves) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_near_tie(self, solves, seed):
        # Row 0 is row 1 scaled by 1 + 1e-13, so swapping the two links'
        # columns changes the sum by at most 1e-13 of max P*H.
        rng = np.random.default_rng(seed)
        gains = rng.exponential(size=(3, 7))
        gains[0] = gains[1] * (1.0 + 1e-13)
        params, chan = inject(gains, 3)
        points = uniform_points(params, GRIDS["7log"])
        assert check_near_optimal(points, chan, solves) == 1

    def test_near_tie_two_links(self, solves):
        # The two assignments are worth 2 + 2e-13 and 2: 1e-13 relative.
        params, chan = inject([[2.0, 1.0], [1.0, 2e-13]], 2)
        points = uniform_points(params, GRIDS["7log"])
        assert check_near_optimal(points, chan, solves) == 1

    def test_zero_gains(self, solves):
        # Budget 0 and the uniform budgets 5 and 10: two ratios.
        params, chan = inject(np.zeros((2, 4)), 2)
        points = uniform_points(params, GRIDS["0:10:3lin"])
        assert check_near_optimal(points, chan, solves) == 2

    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (4, 8)])
    def test_subnormal_gains(self, solves, num_links, num_subchannels):
        # Every P*H of a shadowed entry is subnormal or underflows, yet
        # each point gets the sets of its own -P*H solve.
        params = regime_params(
            num_links, num_subchannels, shadow_prob=0.3, shadow_attenuation=1e-320
        )
        points = uniform_points(params, GRIDS["7log"])
        shadowed = 0
        for trial in range(10):
            chan = sample_realization(params, trial_rng(53, trial))
            shadowed += bool(chan.shadow_mask.any())
            assert check_grid(points, chan, solves) == 1
        assert shadowed > 0

    def test_rounded_tie_differs_from_own_solve(self, solves):
        # 4 + 7 = 5 + 6 exactly, so -H ties and its solve gives link 0
        # column 1. At budget 0.01 the sums round apart (0.04 + 0.07 >
        # 0.05 + 0.06), and a solve of -P*H gives link 0 column 0; the two
        # are worth the same up to rounding.
        params, chan = inject([[4.0, 5.0], [6.0, 7.0]], 2)
        point = replace(params, power_budgets=(0.01,) * params.num_links)
        assert [s[0] for s in grid_outcome([point], chan)[0]] == [1, 0]
        assert [s[0] for s in per_point([point], chan)[0]] == [0, 1]
        assert check_near_optimal([point], chan, solves) == 1


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
    assert_near_optimal(points, chan, grid_outcome(points, chan))
