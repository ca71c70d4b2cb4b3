"""Strategy-level tests: hand-traced instances, enumeration oracles, fuzzing."""

import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from multiband_alloc import allocators
from multiband_alloc.allocators import (
    HIGH_SNR,
    LOW_SNR,
    MAX_SELECT,
    OPTIMAL,
    STRATEGY_ORDER,
    Allocation,
    allocate,
    exact_sum_rate,
    linear_approx_rate,
    log_approx_rate,
    partition_count,
    validate_allocation,
)
from multiband_alloc.channel import (
    ChannelParams,
    realization_from_squared_gains,
    sample_realization,
    trial_rng,
)
from multiband_alloc.errors import AllocationError, GuardError, InfeasibleError, ValidationError
from multiband_alloc.power import water_fill
from oracles import (
    assigned_columns,
    enumerate_partitions,
    link_sums_by_list,
    minimizing_lists,
    optimal_by_enumeration,
    optimal_sets_by_row,
    pad_round_robin_by_scan,
    selection_value,
)

LOG2_5 = math.log2(5.0)
LOG2_3 = math.log2(3.0)


def unit_params(num_links=2, num_subchannels=4, budgets=None):
    """K x N setup with B/N = 1 and N0 = 1 so H equals the squared gain."""
    if budgets is None:
        budgets = (1.0,) * num_links
    return ChannelParams(
        num_links=num_links,
        num_subchannels=num_subchannels,
        total_bandwidth=float(num_subchannels),
        noise_psd=1.0,
        shadow_prob=0.0,
        power_budgets=budgets,
    )


def inject(params, gains):
    return realization_from_squared_gains(params, np.asarray(gains, dtype=float))


def as_grid(points):
    """The one params and the (B, K) budget array of `points`, params that
    differ only in their budgets."""
    return points[0], np.array([point.power_budgets for point in points])


class TestAllocationType:
    def test_normalizes_fields(self):
        alloc = Allocation(
            subchannels_of_link=[[1, 0], [2, 3]],
            powers=[[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]],
            strategy_tag=LOW_SNR,
        )
        assert alloc.subchannels_of_link == ((1, 0), (2, 3))
        assert isinstance(alloc.powers, np.ndarray)
        with pytest.raises(ValueError):
            alloc.powers[0, 0] = 2.0


class TestValidateAllocation:
    def make(self, sets, powers):
        return Allocation(subchannels_of_link=sets, powers=powers, strategy_tag=OPTIMAL)

    def test_accepts_valid(self):
        params = unit_params()
        powers = np.zeros((2, 4))
        powers[0, 0] = 1.0
        validate_allocation(params, self.make(((0, 1), (2, 3)), powers))

    @pytest.mark.parametrize(
        "sets,power_edit,message",
        [
            (((0, 1),), None, "2 entries"),
            (((0,), (1, 2)), None, "quota"),
            (((0, 9), (1, 2)), None, "out of range"),
            (((0, 1), (1, 2)), None, "more than one link"),
            (((0, 1), (2, 3)), ("shape",), "shape"),
            (((0, 1), (2, 3)), (0, 0, -1.0), "negative power"),
            (((0, 1), (2, 3)), (0, 2, 0.5), "unassigned"),
            (((0, 1), (2, 3)), (0, 0, 5.0), "exceeds budget"),
            (((0, 1), (2, 3)), (0, 0, math.nan), "finite"),
            (((0, 1), (2, 3)), (1, 2, math.inf), "finite"),
        ],
    )
    def test_names_first_violation(self, sets, power_edit, message):
        params = unit_params()
        if power_edit == ("shape",):
            powers = np.zeros((2, 3))
        else:
            powers = np.zeros((2, 4))
            if power_edit is not None:
                k, n, val = power_edit
                powers[k, n] = val
        bad = self.make(sets, powers)
        with pytest.raises(ValidationError, match=message):
            validate_allocation(params, bad)
        # In a batch the bad cell is the third of four; the others are valid.
        good = self.make(((0, 1), (2, 3)), [[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        with pytest.raises(ValidationError, match=message):
            allocators.validate_allocations(*as_grid([params] * 4), [good, good, bad, good])

    def test_budget_slack_scales_with_budget(self):
        # At a 3.16e7 W budget a water-filled sum lands one ulp (3.7e-9 W)
        # above the budget, more than an absolute 1e-9 slack allows.
        budget = float(np.geomspace(1e6, 1e9, 7)[3])
        params = ChannelParams(
            num_links=3,
            num_subchannels=6,
            total_bandwidth=6.0,
            noise_psd=1.0,
            shadow_prob=0.02,
            shadow_attenuation=1e-3,
            power_budgets=(budget,) * 3,
        )
        chan = sample_realization(params, trial_rng(0, 0))
        for tag in (OPTIMAL, MAX_SELECT):
            validate_allocation(params, allocate(tag, params, chan))
        powers = np.zeros((3, 6))
        powers[0, 0] = budget * (1 + 1e-8)
        with pytest.raises(ValidationError, match="exceeds budget"):
            validate_allocation(params, self.make(((0, 1), (2, 3), (4, 5)), powers))


def first_cell_error(points, allocs):
    """The message of the first cell `validate_allocation` rejects, or None."""
    for params, alloc in zip(points, allocs):
        try:
            validate_allocation(params, alloc)
        except ValidationError as exc:
            return str(exc)
    return None


def batch_error(points, allocs):
    """The message `validate_allocations` raises on the cells, or None."""
    try:
        allocators.validate_allocations(*as_grid(points), allocs)
    except ValidationError as exc:
        return str(exc)
    return None


# K/N of the batched-check tests; N of 7, 8, 9, 16, 17 and 33 put a row's
# power sum on both sides of numpy's 8-element pairwise-sum blocks.
BATCH_DIMS = [(2, 4), (4, 8), (8, 32), (1, 7), (2, 8), (3, 9), (1, 16), (2, 17), (1, 33), (3, 33)]
BATCH_CELLS = 9


def random_batch(rng, num_links, num_subchannels):
    """BATCH_CELLS valid cells: random per-link budgets (some zero), random
    disjoint sets, and each link's budget split over a random part of its
    set; a third of the cells write their zero powers as -0.0."""
    base = unit_params(num_links, num_subchannels)
    quota = base.quota
    points, cells = [], []
    for _ in range(BATCH_CELLS):
        budgets = 10.0 ** rng.uniform(-3, 9, size=num_links) * (rng.random(num_links) < 0.9)
        params = replace(base, power_budgets=tuple(budgets.tolist()))
        order = rng.permutation(num_subchannels).tolist()
        sets = [order[k * quota : (k + 1) * quota] for k in range(num_links)]
        powers = np.zeros((num_links, num_subchannels))
        for k, subset in enumerate(sets):
            weights = rng.exponential(size=quota) * (rng.random(quota) < 0.8)
            if weights.any():
                powers[k, subset] = budgets[k] * weights / weights.sum()
        if rng.random() < 1 / 3:
            powers[powers == 0] = -0.0
        points.append(params)
        cells.append((sets, powers))
    return points, cells


def _entry(rng, sets):
    k = int(rng.integers(len(sets)))
    return k, int(rng.integers(len(sets[k])))


def _drop_link(rng, params, sets, powers):
    return sets[:-1], powers


def _short_set(rng, params, sets, powers):
    k, j = _entry(rng, sets)
    sets[k].pop(j)
    return sets, powers


def _out_of_range(rng, params, sets, powers):
    k, j = _entry(rng, sets)
    sets[k][j] = [-1, params.num_subchannels, 2**70][int(rng.integers(3))]
    return sets, powers


def _shared(rng, params, sets, powers):
    # Two entries of the cell name one sub-channel, of two links or of one.
    (k1, j1), (k2, j2) = _entry(rng, sets), _entry(rng, sets)
    if (k1, j1) == (k2, j2):
        return None
    sets[k2][j2] = sets[k1][j1]
    return sets, powers


def _bad_shape(rng, params, sets, powers):
    k, n = powers.shape
    shapes = [powers.T, powers[:, :-1], np.zeros((k + 1, n)), powers[0]]
    return sets, shapes[int(rng.integers(len(shapes)))]


def _not_finite(rng, params, sets, powers):
    powers[tuple(rng.integers(powers.shape))] = [math.nan, math.inf, -math.inf][int(rng.integers(3))]
    return sets, powers


def _negative(rng, params, sets, powers):
    powers[tuple(rng.integers(powers.shape))] = -[5e-324, 1e-300, 1.0][int(rng.integers(3))]
    return sets, powers


def _stray(rng, params, sets, powers):
    k = int(rng.integers(len(sets)))
    free = [n for n in range(params.num_subchannels) if n not in sets[k]]
    if not free:
        return None
    powers[k, free[int(rng.integers(len(free)))]] = 10.0 ** rng.uniform(-300, 5)
    return sets, powers


def _over_budget(rng, params, sets, powers):
    k = int(rng.integers(len(sets)))
    budget = params.power_budgets[k]
    bound = budget + 1e-9 * max(1.0, budget)
    powers[k] = 0.0
    powers[k, sets[k][0]] = np.nextafter(bound, math.inf) * [1.0, 1.0 + 1e-6, 2.0][int(rng.integers(3))]
    return sets, powers


# One corruption per invariant, in `validate_allocation`'s order; each
# returns a cell that breaks it, or None where the cell cannot.
CORRUPTIONS = {
    "set_count": _drop_link,
    "quota": _short_set,
    "index_range": _out_of_range,
    "disjoint": _shared,
    "power_shape": _bad_shape,
    "finite": _not_finite,
    "negative": _negative,
    "unassigned": _stray,
    "budget": _over_budget,
}


def corrupted(rng, constraint, params, cell):
    """`cell` broken by `constraint`'s corruption, or None if it cannot be."""
    sets, powers = cell
    for _ in range(10):
        out = CORRUPTIONS[constraint](rng, params, [list(s) for s in sets], powers.copy())
        if out is not None:
            return out
    return None


def make_allocs(cells):
    # Allocation freezes the array it is given; copy so the cells stay writable.
    return [Allocation(sets, powers.copy(), OPTIMAL) for sets, powers in cells]


def land_sum(row, subset, target):
    """Spread power evenly over `subset` of `row`, then step one entry an
    ulp at a time until float(row.sum()) is `target`; False if it never is."""
    row[:] = 0.0
    row[subset] = target / len(subset)
    for _ in range(1000):
        total = float(row.sum())
        if total == target:
            return True
        row[subset[0]] = np.nextafter(row[subset[0]], math.inf if total < target else -math.inf)
    return False


class TestBatchedValidation:
    """`validate_allocations` raises if and only if `validate_allocation`
    raises on some cell, with the first failing cell's message, and a valid
    batch never takes the per-cell path."""

    @pytest.mark.parametrize("num_links,num_subchannels", BATCH_DIMS)
    def test_valid_batches_skip_the_cell_path(self, monkeypatch, num_links, num_subchannels):
        rng = np.random.default_rng([7, num_links, num_subchannels])
        calls = []
        original = allocators.validate_allocation
        monkeypatch.setattr(allocators, "validate_allocation", lambda *a: calls.append(1) or original(*a))
        for _ in range(5):
            points, cells = random_batch(rng, num_links, num_subchannels)
            sets, powers = allocators.validate_allocations(*as_grid(points), make_allocs(cells))
            assert np.array_equal(sets, [cell_sets for cell_sets, _ in cells])
            assert np.array_equal(powers, [cell_powers for _, cell_powers in cells])
        assert calls == []

    @pytest.mark.parametrize(
        "constraint,num_links,num_subchannels",
        [
            (constraint, k, n)
            for constraint in CORRUPTIONS
            for k, n in BATCH_DIMS
            # A lone link's set is every sub-channel: none is unassigned.
            if not (constraint == "unassigned" and k == 1)
        ],
    )
    def test_first_failing_cell_names_the_error(self, constraint, num_links, num_subchannels):
        rng = np.random.default_rng([num_links, num_subchannels, list(CORRUPTIONS).index(constraint)])
        for first in (0, BATCH_CELLS // 2, BATCH_CELLS - 1):
            for extra in (0, 1, 3):
                # The first corrupted cell breaks `constraint`; up to `extra`
                # later cells break a random invariant each.
                points, cells = random_batch(rng, num_links, num_subchannels)
                later = {int(c): str(rng.choice(list(CORRUPTIONS))) for c in rng.integers(first, BATCH_CELLS, extra)}
                for c, name in sorted((later | {first: constraint}).items()):
                    broken = corrupted(rng, name, points[c], cells[c])
                    assert broken is not None or c != first
                    if broken is not None:
                        cells[c] = broken
                allocs = make_allocs(cells)
                expected = first_cell_error(points[first : first + 1], allocs[first : first + 1])
                assert expected is not None
                assert first_cell_error(points, allocs) == expected
                assert batch_error(points, allocs) == expected
                # Alone, a cell's sets and powers stack to arrays of its own
                # wrong shape instead of ragged ones.
                assert batch_error(points[first : first + 1], allocs[first : first + 1]) == expected

    def test_cell_checked_against_its_own_dims(self):
        # The cells' sets and powers fit N = 4, not the params' N = 5.
        points = [unit_params(2, 5)] * 2
        alloc = Allocation(((0, 1), (2, 3)), np.zeros((2, 4)), OPTIMAL)
        expected = "powers must have shape (2, 5), got (2, 4)"
        assert first_cell_error(points, [alloc, alloc]) == expected
        assert batch_error(points, [alloc, alloc]) == expected

    @pytest.mark.parametrize("num_links,num_subchannels", BATCH_DIMS)
    def test_power_sum_on_the_slack_edge(self, num_links, num_subchannels):
        rng = np.random.default_rng([41, num_links, num_subchannels])
        for cell in (0, BATCH_CELLS // 2, BATCH_CELLS - 1):
            points, cells = random_batch(rng, num_links, num_subchannels)
            sets, powers = cells[cell]
            k = int(rng.integers(num_links))
            budget = points[cell].power_budgets[k]
            bound = budget + 1e-9 * max(1.0, budget)
            assert land_sum(powers[k], sets[k], bound)
            allocs = make_allocs(cells)
            assert first_cell_error(points, allocs) is None
            assert batch_error(points, allocs) is None
            assert land_sum(powers[k], sets[k], float(np.nextafter(bound, math.inf)))
            allocs = make_allocs(cells)
            expected = first_cell_error(points, allocs)
            assert expected is not None and "exceeds budget" in expected
            assert batch_error(points, allocs) == expected


class TestExactSumRate:
    def test_all_zero_powers_give_zero_rate(self):
        params = unit_params()
        chan = inject(params, np.ones((2, 4)))
        alloc = Allocation(((0, 1), (2, 3)), np.zeros((2, 4)), OPTIMAL)
        report = exact_sum_rate(params, chan, alloc)
        assert report.total_rate == 0.0
        assert report.per_link_rate == (0.0, 0.0)

    def test_unit_case(self):
        params = unit_params(num_links=1, num_subchannels=1, budgets=(1.0,))
        chan = inject(params, [[1.0]])
        alloc = Allocation(((0,),), [[1.0]], OPTIMAL)
        assert exact_sum_rate(params, chan, alloc).total_rate == 1.0

    def test_total_is_sum_of_links(self):
        params = unit_params()
        chan = sample_realization(params, trial_rng(3, 0))
        alloc = allocate(OPTIMAL, params, chan)
        report = exact_sum_rate(params, chan, alloc)
        acc = 0.0
        for r in report.per_link_rate:
            acc += r
        assert report.total_rate == acc
        assert all(r >= 0 for r in report.per_link_rate)


# K = 8 (`wide`) is the first K at which numpy's `sum(axis=1)` over a row of
# link rates can differ from adding the links one at a time.
SCORE_DIMS = [(2, 4), (3, 7), (4, 8), (8, 32), (9, 20)]


class TestArrayScorer:
    """`exact_sum_rates` scores many cells, each on its own trial's gains,
    bit for bit as each cell alone and as the per-link formula in set and
    link order."""

    @pytest.mark.parametrize("num_links,num_subchannels", SCORE_DIMS)
    def test_cells_score_as_alone(self, num_links, num_subchannels):
        rng = np.random.default_rng([53, num_links, num_subchannels])
        for _ in range(5):
            points, cells = random_batch(rng, num_links, num_subchannels)
            # One bandwidth per batch, as a sweep has; it varies across batches.
            bandwidth = float(rng.uniform(0.5, 50.0) * num_subchannels)
            points = [replace(params, total_bandwidth=bandwidth) for params in points]
            chans = [sample_realization(points[0], trial_rng(53, t)) for t in range(3)]
            gains = np.stack([chan.normalized_gains for chan in chans])
            trials = rng.integers(len(chans), size=len(points)).tolist()
            allocs = make_allocs(cells)
            per_link, totals = allocators.exact_sum_rates(*as_grid(points), gains, trials, allocs)
            assert per_link.shape == (len(points), num_links)
            assert totals.shape == (len(points),)
            for c, (params, alloc) in enumerate(zip(points, allocs)):
                h = gains[trials[c]]
                expected = []
                for k, subset in enumerate(alloc.subchannels_of_link):
                    link_sum = 0.0
                    for n in subset:
                        link_sum += math.log1p(alloc.powers[k, n] * h[k, n]) / math.log(2.0)
                    expected.append(params.subchannel_bandwidth * link_sum)
                fold = 0.0
                for rate in expected:
                    fold += rate
                report = exact_sum_rate(params, chans[trials[c]], alloc)
                assert per_link[c].tolist() == expected == list(report.per_link_rate)
                assert totals[c] == fold == report.total_rate


class TestLinkSums:
    """`_link_sums` takes libm's `log1p` of every product and adds each run
    in set order with array operations; it must give the bits of the
    per-element list formula (`link_sums_by_list`), and on a run that is
    not finite the same error, naming that run's budget."""

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_matches_list_formula(self, size):
        rng = np.random.default_rng([71, size])
        for _ in range(50):
            runs = int(rng.integers(1, 40))
            snr = rng.exponential(size=runs * size) * 10.0 ** rng.uniform(-12, 12, runs * size)
            kind = rng.integers(0, 5, snr.size)
            snr[kind == 0] = 0.0
            # Subnormal products, the smallest of them included.
            snr[kind == 1] = rng.uniform(0.0, 1.0, np.count_nonzero(kind == 1)) * 2.2e-308
            snr[kind == 2] = 5e-324
            budgets = rng.uniform(0.1, 10.0, runs)
            got = allocators._link_sums(snr, size, budgets)
            want = link_sums_by_list(snr.tolist(), size, budgets)
            assert got.tobytes() == np.array(want).tobytes()
            # Any shape is read flat, as the scorer's (C, K, q) products are.
            assert allocators._link_sums(snr.reshape(runs, size), size, budgets).tobytes() == got.tobytes()

    def test_first_non_finite_run_names_its_budget(self):
        rng = np.random.default_rng(72)
        raised = 0
        for _ in range(60):
            size, runs = int(rng.integers(1, 5)), int(rng.integers(2, 30))
            powers = rng.uniform(0.0, 1.0, runs * size)
            gains = rng.exponential(size=runs * size)
            # Products that overflow to inf, as a budget of 1e300 times a
            # gain above 1e8 does.
            hot = rng.random(runs * size) < 0.05
            powers[hot] = 1e300
            gains[hot] = 1e10 + gains[hot]
            with np.errstate(over="ignore"):
                snr = powers * gains
            budgets = 1.5 * np.arange(1, runs + 1)
            finite = np.isfinite(snr.reshape(runs, size)).all(axis=1)
            if finite.all():
                got = allocators._link_sums(snr, size, budgets)
                assert got.tobytes() == np.array(link_sums_by_list(snr.tolist(), size, budgets)).tobytes()
                continue
            raised += 1
            first = budgets[int(np.argmin(finite))]
            with pytest.raises(ValidationError) as want:
                link_sums_by_list(snr.tolist(), size, budgets)
            with pytest.raises(ValidationError) as got:
                allocators._link_sums(snr, size, budgets)
            assert str(got.value) == str(want.value)
            assert str(got.value) == f"power budget {first:g} W times a normalized gain overflows"
        assert raised > 10


class TestLowSnr:
    def test_hand_traced_example(self):
        params = unit_params()
        chan = inject(params, [[4.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 1.0]])
        values = np.array(params.power_budgets)[:, None] * chan.normalized_gains
        columns = assigned_columns(minimizing_lists(values, "maximize"))
        assert selection_value(values, columns) == 6.0
        alloc = allocate(LOW_SNR, params, chan)
        assert alloc.powers[0, 0] == 1.0
        assert alloc.powers[1, 1] == 1.0
        assert alloc.powers.sum() == 2.0
        # Fill rule: link 0 takes channel 2 (tie with 3 breaks low), link 1 takes 3.
        assert alloc.subchannels_of_link == ((0, 2), (1, 3))
        total = exact_sum_rate(params, chan, alloc).total_rate
        assert total == pytest.approx(LOG2_5 + LOG2_3, abs=1e-12)

    def test_single_link_powers_global_argmax(self):
        params = unit_params(num_links=1, budgets=(2.0,))
        chan = inject(params, [[0.3, 0.9, 2.5, 0.1]])
        alloc = allocate(LOW_SNR, params, chan)
        assert alloc.powers[0, 2] == 2.0
        assert alloc.subchannels_of_link == ((0, 1, 2, 3),)

    def test_budget_scales_cost_matrix(self):
        # Unit budgets give sub-channel 1 to link 1 (1 + 4 > 3 + 1); budgets
        # (2, 0.5) give it to link 0 (2 * 3 + 0.5 * 1 > 2 * 1 + 0.5 * 4).
        gains = [[1.0, 3.0, 1.0, 1.0], [1.0, 4.0, 1.0, 1.0]]
        assert allocate(LOW_SNR, unit_params(), inject(unit_params(), gains)).powers[1, 1] == 1.0
        params = unit_params(budgets=(2.0, 0.5))
        assert allocate(LOW_SNR, params, inject(params, gains)).powers[0, 1] == 2.0

    def test_all_zero_row_still_allocates(self):
        params = unit_params()
        chan = inject(params, [[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        alloc = allocate(LOW_SNR, params, chan)
        validate_allocation(params, alloc)
        assert exact_sum_rate(params, chan, alloc).per_link_rate[0] == 0.0


class TestPadRoundRobin:
    """low_snr's padding walks each link's stable descending-gain order
    with one pointer; it must pick what a scan of the free sub-channels
    picks (`pad_round_robin_by_scan`), ties to the lowest index."""

    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (3, 7), (4, 8), (3, 12), (8, 32)])
    def test_matches_scan(self, num_links, num_subchannels):
        rng = np.random.default_rng([81, num_links, num_subchannels])
        quota = num_subchannels // num_links
        for draw in range(200):
            if draw % 4 == 3:
                h = rng.exponential(size=(num_links, num_subchannels))
            else:
                # Tie-heavy integer gains.
                h = rng.integers(0, 3, size=(num_links, num_subchannels)).astype(float)
            if draw % 3 == 0:
                h[rng.integers(num_links)] = 0.0  # a zero-gain row
            if draw % 50 == 0:
                h[:] = 0.0
            columns = tuple(rng.permutation(num_subchannels)[:num_links].tolist())
            got = allocators._pad_round_robin(h, columns, quota)
            assert got == pad_round_robin_by_scan(h, columns, quota)


class TestHighSnr:
    def test_hand_traced_example(self):
        params = unit_params(budgets=(2.0, 2.0))
        chan = inject(params, [[4.0, 3.0, 1.0, 1.0], [1.0, 1.0, 4.0, 3.0]])
        alloc = allocate(HIGH_SNR, params, chan)
        assert alloc.subchannels_of_link == ((0, 1), (2, 3))
        assert np.array_equal(
            alloc.powers,
            [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
        )
        total = exact_sum_rate(params, chan, alloc).total_rate
        assert total == pytest.approx(2 * (LOG2_5 + 2.0), abs=1e-12)

    def test_all_equal_gains_any_partition_same_rate(self):
        params = unit_params(budgets=(2.0, 2.0))
        chan = inject(params, np.full((2, 4), 3.0))
        alloc = allocate(HIGH_SNR, params, chan)
        validate_allocation(params, alloc)
        total = exact_sum_rate(params, chan, alloc).total_rate
        assert total == pytest.approx(4 * math.log2(4.0), abs=1e-12)

    def test_zero_gain_cells_forbidden(self):
        params = unit_params()
        gains = np.array([[0.0, 0.0, 2.0, 3.0], [5.0, 4.0, 3.0, 2.0]])
        chan = inject(params, gains)
        alloc = allocate(HIGH_SNR, params, chan)
        assert alloc.subchannels_of_link[0] == (2, 3)

    def test_short_link_raises_with_link_id(self):
        params = unit_params()
        gains = np.array([[0.0, 0.0, 0.0, 3.0], [5.0, 4.0, 3.0, 2.0]])
        chan = inject(params, gains)
        with pytest.raises(InfeasibleError, match="link 0"):
            allocate(HIGH_SNR, params, chan)

    def test_single_link_pair(self):
        params = unit_params(num_links=1, num_subchannels=2, budgets=(3.0,))
        chan = inject(params, [[1.0, 2.0]])
        alloc = allocate(HIGH_SNR, params, chan)
        assert alloc.subchannels_of_link == ((0, 1),)
        assert np.array_equal(alloc.powers, [[1.5, 1.5]])

    def test_partition_maximizes_log_gain_sum(self):
        # Argmax-level check against full partition enumeration.
        rng = np.random.default_rng(4321)
        for _ in range(30):
            params = unit_params(budgets=(2.0, 2.0))
            chan = inject(params, rng.exponential(1.0, size=(2, 4)))
            alloc = allocate(HIGH_SNR, params, chan)
            lh = np.log(chan.normalized_gains)
            achieved = sum(lh[k, list(s)].sum() for k, s in enumerate(alloc.subchannels_of_link))
            best = max(
                sum(lh[k, list(s)].sum() for k, s in enumerate(cand))
                for cand in enumerate_partitions(4, 2)
            )
            assert achieved >= best - 1e-9


class TestPartitionEnumeration:
    @pytest.mark.parametrize(
        "n,k,count",
        [(4, 2, 6), (8, 2, 70), (16, 2, 12870), (6, 3, 90), (5, 2, 30), (4, 1, 1)],
    )
    def test_count_matches_multinomial(self, n, k, count):
        assert partition_count(n, k) == count
        if count <= 500:
            assert len(list(enumerate_partitions(n, k))) == count

    def test_lexicographic_order_and_disjointness(self):
        parts = list(enumerate_partitions(4, 2))
        assert parts[0] == ((0, 1), (2, 3))
        assert parts[-1] == ((2, 3), (0, 1))
        assert parts == sorted(parts)
        for cand in parts:
            flat = [n for s in cand for n in s]
            assert len(flat) == len(set(flat)) == 4

    def test_surplus_left_out(self):
        for cand in enumerate_partitions(5, 2):
            flat = [n for s in cand for n in s]
            assert len(flat) == 4

    def test_count_text(self):
        # `str` prints at most 4,300 digits; such counts keep their text.
        for count in (0, 6, 10**4299, 10**4300 - 1, partition_count(16, 2)):
            assert allocators.count_text(count) == str(count)
        # Longer ones print a true lower bound within two powers of ten.
        for count in (10**4300, 10**4300 + 1, 2**20000, 2**20000 - 1, partition_count(20000, 2)):
            text = allocators.count_text(count)
            assert text.startswith("more than 10^")
            exponent = int(text.removeprefix("more than 10^"))
            assert 10**exponent < count < 10 ** (exponent + 2)


class TestOptimal:
    def test_guard_trips_with_counts_in_message(self):
        params = unit_params(num_links=2, num_subchannels=8)
        chan = inject(params, np.ones((2, 8)))
        with pytest.raises(GuardError, match="70"):
            allocate(OPTIMAL, params, chan, partition_guard=10)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(909)
        params = unit_params(budgets=(1.5, 0.7))
        for _ in range(25):
            chan = inject(params, rng.exponential(1.0, size=(2, 4)))
            alloc = allocate(OPTIMAL, params, chan)
            total = exact_sum_rate(params, chan, alloc).total_rate
            h = chan.normalized_gains
            best = -math.inf
            for cand in enumerate_partitions(4, 2):
                rate = 0.0
                for k, subset in enumerate(cand):
                    powers = water_fill(h[k, list(subset)], params.power_budgets[k]).powers
                    rate += np.log2(1.0 + powers * h[k, list(subset)]).sum()
                best = max(best, rate)
            assert total == pytest.approx(best, rel=1e-12, abs=1e-9)

    def test_bit_identical_to_enumeration(self):
        def cases(dims):
            for k, n in dims:
                for budget in (0.0, 1e-3, 1.0, 1e3):
                    params = unit_params(k, n, (budget,) * k)
                    yield params, inject(params, np.full((k, n), 1.7))
                    # Full blocking, then 30 dB shadowing.
                    for atten in (0.0, 1e-3):
                        shadowed = replace(params, shadow_prob=0.3, shadow_attenuation=atten)
                        for trial in range(1 if k * n > 20 else 3):
                            yield shadowed, sample_realization(shadowed, trial_rng(7, trial))

        def check(dims):
            for params, chan in cases(dims):
                fast, oracle = allocate(OPTIMAL, params, chan), optimal_by_enumeration(params, chan)
                assert fast.subchannels_of_link == oracle.subchannels_of_link
                assert np.array_equal(fast.powers, oracle.powers)

        check([(2, 4), (3, 7), (4, 8), (1, 5)])

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (7, 3), (8, 4), (9, 3), (12, 3), (10, 5)])
    def test_levels_decode_to_enumeration_order(self, n, k):
        # Every partition, decoded from the level arrays prefix by prefix,
        # in the order the search folds them.
        subsets, columns, picks = allocators._partition_levels(n, k)
        assert columns.tolist() == [list(s) for s in subsets]
        ids = np.arange(len(subsets))[:, None]
        for pick in picks:
            ids = np.column_stack([np.repeat(ids, pick.shape[1], axis=0), pick.ravel()])
        decoded = [tuple(subsets[i] for i in row) for row in ids.tolist()]
        assert len(decoded) == partition_count(n, k)
        assert decoded == list(enumerate_partitions(n, k))

    @pytest.mark.parametrize("budget", [0.0, 1.0])
    def test_all_equal_gains_pick_first_partition(self, budget):
        # 113,400 partitions tie; the first in enumeration order wins.
        params = unit_params(5, 10, (budget,) * 5)
        alloc = allocate(OPTIMAL, params, inject(params, np.full((5, 10), 1.7)))
        assert alloc.subchannels_of_link == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))

    def test_single_link_takes_every_subchannel(self):
        params = unit_params(1, 70, (1.0,))
        chan = sample_realization(params, trial_rng(3, 0))
        alloc = allocate(OPTIMAL, params, chan)
        assert alloc.subchannels_of_link == (tuple(range(70)),)
        validate_allocation(params, alloc)

    def test_all_equal_gains_ties_high_snr(self):
        params = unit_params(budgets=(2.0, 2.0))
        chan = inject(params, np.full((2, 4), 1.7))
        opt = exact_sum_rate(params, chan, allocate(OPTIMAL, params, chan)).total_rate
        high = exact_sum_rate(params, chan, allocate(HIGH_SNR, params, chan)).total_rate
        assert opt == pytest.approx(high, rel=1e-12)

    def test_zero_gain_link_gets_zero_power(self):
        params = unit_params()
        chan = inject(params, [[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        alloc = allocate(OPTIMAL, params, chan)
        validate_allocation(params, alloc)
        assert (alloc.powers[0] == 0).all()


class TestMaxSelect:
    def test_hand_traced_greedy_walk(self):
        params = unit_params()
        chan = inject(params, [[4.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 1.0]])
        alloc = allocate(MAX_SELECT, params, chan)
        assert alloc.subchannels_of_link == ((0, 2), (1, 3))

    def test_single_link_takes_everything(self):
        params = unit_params(num_links=1, budgets=(1.0,))
        chan = inject(params, [[0.1, 0.4, 0.2, 0.3]])
        alloc = allocate(MAX_SELECT, params, chan)
        assert alloc.subchannels_of_link == ((0, 1, 2, 3),)
        opt = allocate(OPTIMAL, params, chan)
        assert exact_sum_rate(params, chan, alloc).total_rate == pytest.approx(
            exact_sum_rate(params, chan, opt).total_rate, rel=1e-12
        )

    def test_all_equal_gains_tie_optimal(self):
        params = unit_params(budgets=(2.0, 2.0))
        chan = inject(params, np.full((2, 4), 0.9))
        greedy = exact_sum_rate(params, chan, allocate(MAX_SELECT, params, chan)).total_rate
        opt = exact_sum_rate(params, chan, allocate(OPTIMAL, params, chan)).total_rate
        assert greedy == pytest.approx(opt, rel=1e-12)

    def test_equal_split_rule(self):
        params = unit_params(budgets=(2.0, 2.0))
        chan = inject(params, [[9.0, 1.0, 8.0, 1.0], [1.0, 7.0, 1.0, 6.0]])
        alloc = allocate(MAX_SELECT, params, chan, max_select_power_rule="equal_split")
        assert np.array_equal(
            alloc.powers, [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
        )

    def test_unknown_power_rule_rejected(self):
        params = unit_params()
        chan = inject(params, np.ones((2, 4)))
        with pytest.raises(ValidationError):
            allocate(MAX_SELECT, params, chan, max_select_power_rule="argmax")

    def test_zero_gain_link_gets_zero_power(self):
        params = unit_params()
        chan = inject(params, [[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        alloc = allocate(MAX_SELECT, params, chan)
        validate_allocation(params, alloc)
        assert (alloc.powers[1] == 0).all()


class TestApproxObjectives:
    def test_linear_matches_closed_form(self):
        params = unit_params()
        chan = inject(params, [[4.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 1.0]])
        alloc = allocate(LOW_SNR, params, chan)
        assert linear_approx_rate(params, chan, alloc) == pytest.approx(
            6.0 / math.log(2.0), rel=1e-12
        )

    def test_log_matches_closed_form(self):
        params = unit_params(budgets=(2.0, 2.0))
        chan = inject(params, [[4.0, 3.0, 1.0, 1.0], [1.0, 1.0, 4.0, 3.0]])
        alloc = allocate(HIGH_SNR, params, chan)
        expected = math.log2(4.0) + math.log2(3.0) + math.log2(4.0) + math.log2(3.0)
        assert log_approx_rate(params, chan, alloc) == pytest.approx(expected, rel=1e-12)

    def test_log_of_unpowered_allocation_is_zero(self):
        params = unit_params()
        chan = inject(params, np.ones((2, 4)))
        alloc = Allocation(((0, 1), (2, 3)), np.zeros((2, 4)), OPTIMAL)
        assert log_approx_rate(params, chan, alloc) == 0.0


class TestDispatcherAndInvariants:
    def test_dispatch_tags(self):
        params = unit_params()
        chan = sample_realization(params, trial_rng(1, 0))
        for tag in STRATEGY_ORDER:
            assert allocate(tag, params, chan).strategy_tag == tag

    def test_unknown_tag_rejected(self):
        params = unit_params()
        chan = sample_realization(params, trial_rng(1, 0))
        with pytest.raises(ValidationError):
            allocate("greedy", params, chan)

    @pytest.mark.parametrize("tag", STRATEGY_ORDER)
    def test_bad_power_rule_rejected_for_every_tag(self, tag):
        params = unit_params()
        chan = sample_realization(params, trial_rng(1, 0))
        with pytest.raises(ValidationError, match="max_select_power_rule must be one of"):
            allocate(tag, params, chan, max_select_power_rule="argmax")

    @pytest.mark.parametrize("tag", STRATEGY_ORDER)
    @pytest.mark.parametrize("guard", [0, -5])
    def test_bad_guard_rejected_for_every_tag(self, tag, guard):
        params = unit_params()
        chan = sample_realization(params, trial_rng(1, 0))
        with pytest.raises(ValidationError, match=r"^partition_guard must be >= 1$"):
            allocate(tag, params, chan, partition_guard=guard)

    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (2, 5), (3, 7), (1, 3), (4, 8)])
    def test_quota_disjointness_fuzz(self, num_links, num_subchannels):
        rng = np.random.default_rng(num_links * 100 + num_subchannels)
        params = unit_params(
            num_links=num_links,
            num_subchannels=num_subchannels,
            budgets=tuple(float(b) for b in rng.uniform(0.2, 3.0, num_links)),
        )
        quota = num_subchannels // num_links
        for _ in range(20):
            chan = inject(params, rng.exponential(1.0, size=(num_links, num_subchannels)))
            for tag in STRATEGY_ORDER:
                alloc = allocate(tag, params, chan)
                validate_allocation(params, alloc)
                used = [n for s in alloc.subchannels_of_link for n in s]
                assert len(used) == len(set(used)) == num_links * quota

    def test_sandwich_bound_fuzz(self):
        rng = np.random.default_rng(1618)
        for trial in range(60):
            budget = float(10.0 ** rng.uniform(-3, 3))
            params = unit_params(budgets=(budget, budget))
            chan = inject(params, rng.exponential(1.0, size=(2, 4)))
            opt = exact_sum_rate(params, chan, allocate(OPTIMAL, params, chan)).total_rate
            for tag in (LOW_SNR, HIGH_SNR, MAX_SELECT):
                rate = exact_sum_rate(params, chan, allocate(tag, params, chan)).total_rate
                assert opt >= rate - 1e-12 * max(1.0, abs(opt))

    def test_shadowed_instances_respect_invariants(self):
        params = ChannelParams(
            num_links=2,
            num_subchannels=6,
            total_bandwidth=6.0,
            noise_psd=1.0,
            shadow_prob=0.3,
            shadow_attenuation=0.1,
            power_budgets=(1.0, 1.0),
        )
        for trial in range(20):
            chan = sample_realization(params, trial_rng(22, trial))
            for tag in STRATEGY_ORDER:
                validate_allocation(params, allocate(tag, params, chan))


def grid_instances(num_links, num_subchannels):
    """(params, chan) instances for the grid-versus-point checks: full
    blocking, 30 dB shadowing, all-equal gains and tie-heavy {0, 1, 2} gains."""
    params = unit_params(num_links, num_subchannels)
    draws = 1 if num_subchannels > 8 else 3
    for atten in (0.0, 1e-3):
        shadowed = replace(params, shadow_prob=0.3, shadow_attenuation=atten)
        for trial in range(draws):
            yield shadowed, sample_realization(shadowed, trial_rng(31, trial))
    yield params, inject(params, np.full((num_links, num_subchannels), 1.7))
    rng = np.random.default_rng(num_links * 100 + num_subchannels)
    for _ in range(draws):
        yield params, inject(params, rng.integers(0, 3, size=(num_links, num_subchannels)))


def grid_points(params):
    """The budget grid of the grid-versus-point checks: five uniform
    budgets, 0 included, and one that differs by link."""
    points = [replace(params, power_budgets=(b,) * params.num_links) for b in (0.0, 1e-3, 0.1, 1.0, 1e3)]
    points.append(replace(params, power_budgets=tuple(0.5 * (k + 1) for k in range(params.num_links))))
    return points


def selection_outcome(select, points, gains):
    """A selection's sets per (trial, point) cell of the (T, K, N) stack
    `gains` in comparable form, or the type and message of the error it
    raised."""
    try:
        selections = select(*as_grid(points), gains, allocators.DEFAULT_PARTITION_GUARD)
    except AllocationError as exc:
        return type(exc), str(exc)
    return [tuple(tuple(s) for s in sets) for sets in selections]


class TestGridSelection:
    """A selection over a budget grid gives every point what that point
    alone gives: the same sets in the same order, so low_snr's assigned
    sub-channels too."""

    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (3, 7), (4, 8), (2, 12)])
    @pytest.mark.parametrize(
        "tag,chunk",
        [(LOW_SNR, None), (HIGH_SNR, None), (OPTIMAL, None), (OPTIMAL, 1), (MAX_SELECT, None)],
        ids=["low_snr", "high_snr", "optimal", "optimal_chunk1", "max_select"],
    )
    def test_grid_matches_each_point(self, monkeypatch, tag, chunk, num_links, num_subchannels):
        instances = list(grid_instances(num_links, num_subchannels))
        if chunk is not None:
            # Every water-filled set of the rate table is its own chunk; at
            # N = 12 that is 1,848 water_fill calls per point, so only the
            # shadowed and the tie-heavy draws run.
            monkeypatch.setattr(allocators, "_TABLE_CHUNK", chunk)
            if num_subchannels > 8:
                instances = instances[1::2]
        select = allocators.STRATEGIES[tag].select
        for params, chan in instances:
            points = grid_points(params)
            gains = chan.normalized_gains[None]
            grid = selection_outcome(select, points, gains)
            alone = [selection_outcome(select, [point], gains) for point in points]
            if isinstance(grid, tuple):
                # The grid raises the error of its first failing point.
                assert grid == next(o for o in alone if isinstance(o, tuple))
            else:
                assert grid == [o[0] for o in alone]

    def test_overflow_names_the_first_failing_point(self):
        params = unit_params()
        gains = inject(params, np.full((2, 4), 4.0)).normalized_gains[None]
        points = [replace(params, power_budgets=(b,) * params.num_links) for b in (1.0, 1e308)]
        for tag in (LOW_SNR, OPTIMAL):
            with pytest.raises(ValidationError, match=r"power budget 1e\+308 W"):
                allocators.STRATEGIES[tag].select(*as_grid(points), gains, allocators.DEFAULT_PARTITION_GUARD)


class TestChunkSelection:
    """A selection over a (T, K, N) stack of trials gives every trial what
    that trial alone gives, and a failing stack raises the error of its
    first failing trial."""

    @pytest.mark.parametrize("trials", [1, 3, 7])
    @pytest.mark.parametrize("num_links,num_subchannels", [(2, 4), (3, 7), (4, 8)])
    @pytest.mark.parametrize(
        "tag,chunk",
        [
            (LOW_SNR, None),
            (HIGH_SNR, None),
            (OPTIMAL, None),
            (OPTIMAL, "set"),
            (OPTIMAL, "split"),
            (OPTIMAL, "span"),
            (MAX_SELECT, None),
        ],
        ids=[
            "low_snr",
            "high_snr",
            "optimal",
            "optimal_chunk1",
            "optimal_split",
            "optimal_span",
            "max_select",
        ],
    )
    def test_stack_matches_each_trial(self, monkeypatch, tag, chunk, num_links, num_subchannels, trials):
        draws = [chan.normalized_gains for _, chan in grid_instances(num_links, num_subchannels)]
        points = grid_points(unit_params(num_links, num_subchannels))
        if chunk is not None:
            # One cell's table holds K * C(N, q) sets of q elements. "set":
            # one set per piece; "split": a little over half a cell's table
            # per piece, so every cell's table is water-filled in two pieces;
            # "span": groups of 15 cells, two and a half trials' points, so
            # most groups span trials.
            quota = num_subchannels // num_links
            table = num_links * math.comb(num_subchannels, quota) * quota
            per_cell = max(partition_count(num_subchannels, num_links), table)
            bound = {"set": quota, "split": int(0.55 * table), "span": 15 * per_cell}[chunk]
            monkeypatch.setattr(allocators, "_TABLE_CHUNK", bound)
        sizes = fold_groups(monkeypatch)
        fills = []
        original_fill = allocators.water_fill
        monkeypatch.setattr(allocators, "water_fill", lambda *a: fills.append(1) or original_fill(*a))
        solves = []
        original_solve = allocators.solve_capacitated
        monkeypatch.setattr(
            allocators, "solve_capacitated", lambda *a: solves.append(1) or original_solve(*a)
        )
        select = allocators.STRATEGIES[tag].select
        # Windows over the draws, wrapping round, so every draw is in one.
        starts = range(0, len(draws), trials)
        stacks = [np.stack([draws[(i + j) % len(draws)] for j in range(trials)]) for i in starts]
        for gains in stacks:
            solves.clear()
            sizes.clear()
            fills.clear()
            stacked = selection_outcome(select, points, gains)
            stacked_solves, groups, pieces = len(solves), list(sizes), len(fills)
            solves.clear()
            alone = [selection_outcome(select, points, g[None]) for g in gains]
            errors = [o for o in alone if isinstance(o, tuple)]
            if errors:
                assert stacked == errors[0]
            else:
                assert stacked == [cell for o in alone for cell in o]
                # The stack solves what its trials alone solve.
                assert stacked_solves == len(solves)
                if chunk == "split":
                    assert pieces == 2 * len(groups) and max(groups) == 1
                if chunk == "span" and trials > 1:
                    assert max(groups) > len(points)  # a group spans trials

    @pytest.mark.parametrize("tag", [LOW_SNR, OPTIMAL])
    def test_overflow_names_the_first_failing_trial(self, tag):
        # Trial 1 overflows only at budget 1e300, trial 2 already at 1e290,
        # the earlier point: the stack must name trial 1's.
        params = unit_params()
        points = [replace(params, power_budgets=(b,) * params.num_links) for b in (1.0, 1e290, 1e300)]
        gains = np.stack([np.full((2, 4), scale) for scale in (1.0, 1e9, 1e19)])
        select = allocators.STRATEGIES[tag].select
        for trial in (1, 2):
            with pytest.raises(ValidationError) as alone:
                select(*as_grid(points), gains[trial : trial + 1], allocators.DEFAULT_PARTITION_GUARD)
            assert ("1e+300" if trial == 1 else "1e+290") in str(alone.value)
        with pytest.raises(ValidationError) as stacked:
            select(*as_grid(points), gains, allocators.DEFAULT_PARTITION_GUARD)
        assert str(stacked.value) == "power budget 1e+300 W times a normalized gain overflows"

    def test_infeasible_names_the_first_failing_trial(self):
        params = unit_params()
        points = [replace(params, power_budgets=(b,) * params.num_links) for b in (0.1, 10.0)]
        gains = np.ones((3, 2, 4))
        gains[1, 0, 1:] = 0.0  # link 0 keeps one usable sub-channel
        gains[2, 1, :3] = 0.0  # link 1 keeps one usable sub-channel
        with pytest.raises(InfeasibleError) as stacked:
            allocators._high_snr_sets(*as_grid(points), gains, allocators.DEFAULT_PARTITION_GUARD)
        assert str(stacked.value) == "link 0 has only 1 usable sub-channels; quota is 2"


def fold_groups(monkeypatch):
    """Record the number of rows of every group `_best_partitions` folds."""
    sizes = []
    original = allocators._best_partitions

    def spy(rates, subsets, picks):
        sizes.append(len(rates))
        return original(rates, subsets, picks)

    monkeypatch.setattr(allocators, "_best_partitions", spy)
    return sizes


class TestGroupedFold:
    """`optimal` builds the rate table of a group of (trial, point) cells
    and folds it at once, at most max(1, `_TABLE_CHUNK` // max(count,
    K * C(N, q) * q)) of them; every cell must get what it gets alone,
    whatever the grouping."""

    # Shapes whose cells each have more partitions than table elements, so
    # the partition count alone sets the group size.
    @pytest.mark.parametrize("num_links,num_subchannels", [(4, 8), (3, 7)])
    @pytest.mark.parametrize(
        "rows", [None, 4, 20], ids=["one_row_splits_a_trial", "partial_trial", "several_trials"]
    )
    def test_stack_matches_allocate(self, monkeypatch, rows, num_links, num_subchannels):
        count = partition_count(num_subchannels, num_links)
        # None: a chunk bound below the count, so every group is one row
        # and a trial's six points fold in six groups.
        monkeypatch.setattr(allocators, "_TABLE_CHUNK", count // 2 if rows is None else count * rows)
        sizes = fold_groups(monkeypatch)
        points = grid_points(unit_params(num_links, num_subchannels))
        chans = [chan for _, chan in grid_instances(num_links, num_subchannels)][:5]
        gains = np.stack([chan.normalized_gains for chan in chans])
        stacked = allocators._optimal_sets(*as_grid(points), gains, allocators.DEFAULT_PARTITION_GUARD)
        cells = len(chans) * len(points)
        assert len(stacked) == cells and sum(sizes) == cells
        assert max(sizes) == (rows or 1)
        expected = [
            allocate(OPTIMAL, point, chan).subchannels_of_link for chan in chans for point in points
        ]
        assert [tuple(sets) for sets in stacked] == expected

    @pytest.mark.parametrize("num_links,num_subchannels", [(4, 8), (3, 7)])
    def test_all_equal_gains_pick_first_partition(self, monkeypatch, num_links, num_subchannels):
        count = partition_count(num_subchannels, num_links)
        monkeypatch.setattr(allocators, "_TABLE_CHUNK", count * 16)
        sizes = fold_groups(monkeypatch)
        points = grid_points(unit_params(num_links, num_subchannels))
        gains = np.full((7, num_links, num_subchannels), 1.7)
        stacked = allocators._optimal_sets(*as_grid(points), gains, allocators.DEFAULT_PARTITION_GUARD)
        assert max(sizes) == 16
        first = next(enumerate_partitions(num_subchannels, num_links))
        assert [tuple(sets) for sets in stacked] == [first] * len(gains) * len(points)

    @pytest.mark.parametrize(
        "num_links,num_subchannels,trials", [(4, 8, 1), (2, 4, 10)], ids=["exact", "regime"]
    )
    def test_one_water_fill_and_one_fold_per_batch(self, monkeypatch, num_links, num_subchannels, trials):
        # The shapes of perfbench's `exact` and `regime` batches at 7
        # budgets: each is one group, so `optimal` water-fills and folds
        # it once.
        sizes = fold_groups(monkeypatch)
        fills = []
        original = allocators.water_fill
        monkeypatch.setattr(allocators, "water_fill", lambda *a: fills.append(1) or original(*a))
        params = replace(unit_params(num_links, num_subchannels), shadow_prob=0.3, shadow_attenuation=1e-3)
        budgets = np.outer(np.geomspace(1e-3, 1e3, 7), np.ones(num_links))
        gains = np.stack(
            [sample_realization(params, trial_rng(11, t)).normalized_gains for t in range(trials)]
        )
        allocators._optimal_sets(params, budgets, gains, allocators.DEFAULT_PARTITION_GUARD)
        assert len(fills) == 1 and sizes == [7 * trials]


class TestOptimalFoldMemory:
    """The grouped fold's memory peak stays within that of the fold one
    cell at a time (`optimal_sets_by_row`) over the same rate table, plus
    the totals of the other cells of a group: a group of G cells of count
    partitions each folds about twice G * count floats where the one-cell
    fold holds twice count, and G * count is at most `_TABLE_CHUNK`, so
    the group adds at most twice `_TABLE_CHUNK` - count floats of 8 B. At
    K=5, N=10 a cell has 113,400 partitions, more than `_TABLE_CHUNK`, so
    each group is one cell and nothing is added; at K=4, N=8 a group is
    26 cells. The 1% covers how differently the two grow their list of
    selections."""

    @pytest.mark.parametrize("num_links,num_subchannels,trials", [(5, 10, 2), (4, 8, 30)])
    def test_peak_within_one_row_fold(self, num_links, num_subchannels, trials):
        params = replace(unit_params(num_links, num_subchannels), shadow_prob=0.3, shadow_attenuation=1e-3)
        budgets = np.outer(np.geomspace(1e-3, 1e3, 7), np.ones(num_links))
        gains = np.stack(
            [sample_realization(params, trial_rng(5, t)).normalized_gains for t in range(trials)]
        )
        count = partition_count(num_subchannels, num_links)
        group_totals = 2 * 8 * max(0, allocators._TABLE_CHUNK - count)

        def grouped():
            return allocators._optimal_sets(params, budgets, gains, allocators.DEFAULT_PARTITION_GUARD)

        def by_row():
            return optimal_sets_by_row(params, budgets, gains)

        # Warm up and keep the collector off while measuring, as
        # `TestChunkMemory` in test_harness.py does.
        assert grouped() == by_row()
        gc.collect()
        gc.disable()
        peaks = []
        try:
            for run in (grouped, by_row):
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            gc.enable()
        assert peaks[0] <= 1.01 * peaks[1] + group_totals

    def test_peak_does_not_grow_with_trials(self):
        # K=4, N=8 at 7 budgets: 4 trials fill one group of 26 cells and
        # start a second; 292 trials, one sweep chunk's worth, fill 79.
        params = replace(unit_params(4, 8), shadow_prob=0.3, shadow_attenuation=1e-3)
        budgets = np.outer(np.geomspace(1e-3, 1e3, 7), np.ones(4))
        gains = np.stack([sample_realization(params, trial_rng(5, t)).normalized_gains for t in range(292)])
        allocators._optimal_sets(params, budgets, gains[:4], allocators.DEFAULT_PARTITION_GUARD)
        gc.collect()
        gc.disable()
        peaks = []
        try:
            for stack in (gains[:4], gains):
                tracemalloc.start()
                try:
                    allocators._optimal_sets(params, budgets, stack, allocators.DEFAULT_PARTITION_GUARD)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            gc.enable()
        assert peaks[1] <= 1.5 * peaks[0]
