"""Power rules: water-filling against a bisection oracle and the per-set
closed form, KKT, dominance, and the array contract."""

import numpy as np
import pytest

from multiband_alloc.errors import ValidationError
from multiband_alloc.power import WaterFillResult, water_fill
from oracles import concentrate_on_best, equal_split, water_fill_by_set


def bisect_water_level(gains, budget, iters=200):
    """Independent oracle: solve sum((mu - 1/H)+) = budget by bisection."""
    inv = 1.0 / gains[gains > 0]
    lo, hi = inv.min(), inv.min() + budget + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        spent = np.clip(mid - inv, 0.0, None).sum()
        if spent > budget:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def objective(gains, powers):
    return np.log2(1.0 + np.asarray(powers) * np.asarray(gains)).sum()


def random_instance(rng):
    n = int(rng.integers(1, 9))
    gains = rng.exponential(1.0, size=n)
    gains[rng.random(n) < 0.2] = 0.0
    if not (gains > 0).any():
        gains[int(rng.integers(n))] = rng.exponential(1.0)
    budget = float(10.0 ** rng.uniform(-3, 3))
    return gains, budget


class TestWaterFillExamples:
    def test_single_channel_takes_full_budget(self):
        res = water_fill([2.0], 1.0)
        assert np.array_equal(res.powers, [1.0])
        assert res.water_level == 1.5
        assert res.active_set == (0,)

    def test_symmetric_pair_splits_evenly(self):
        res = water_fill([1.0, 1.0], 2.0)
        assert np.array_equal(res.powers, [1.0, 1.0])
        assert res.active_set == (0, 1)

    def test_kkt_boundary_drops_weak_channel(self):
        res = water_fill([1.0, 0.5], 1.0)
        assert np.array_equal(res.powers, [1.0, 0.0])
        assert res.water_level == 2.0
        assert res.active_set == (0,)

    def test_zero_budget(self):
        res = water_fill([2.0, 1.0], 0.0)
        assert np.array_equal(res.powers, [0.0, 0.0])
        assert res.active_set == ()
        # KKT still holds: mu no larger than every inverse gain.
        assert res.water_level <= 0.5 + 1e-12

    def test_zero_gain_channels_never_powered(self):
        res = water_fill([0.0, 4.0, 0.0, 1.0], 5.0)
        assert res.powers[0] == 0.0 and res.powers[2] == 0.0
        assert res.powers.sum() == pytest.approx(5.0, abs=1e-9)
        assert 0 not in res.active_set and 2 not in res.active_set

    def test_gain_whose_reciprocal_overflows_is_unpowerable(self):
        # 1/1e-320 overflows; the suite turns the numpy warning into an error.
        res = water_fill([1e-320, 2.0, 0.0], 3.0)
        assert np.array_equal(res.powers, [0.0, 3.0, 0.0])
        assert res.water_level == 3.5
        all_subnormal = water_fill([[1e-320, 5e-324]], 1.0)
        assert np.array_equal(all_subnormal.powers, [[0.0, 0.0]])
        assert all_subnormal.water_level.tolist() == [np.inf]


class TestWaterFillValidation:
    def test_negative_gain_rejected(self):
        with pytest.raises(ValidationError):
            water_fill([1.0, -0.5], 1.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError):
            water_fill([1.0], -1.0)

    def test_empty_gains_rejected(self):
        with pytest.raises(ValidationError):
            water_fill([], 1.0)

    def test_powers_read_only(self):
        res = water_fill([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            res.powers[0] = 3.0


class TestWaterFillArrays:
    def test_all_zero_set_gets_zero_powers_and_infinite_level(self):
        res = water_fill([0.0, 0.0], 1.0)
        assert np.array_equal(res.powers, [0.0, 0.0])
        assert res.water_level == np.inf
        assert res.active_set == ()
        rows = np.array([[2.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        res = water_fill(rows, 2.0)
        assert np.array_equal(res.powers[1], [0.0, 0.0])
        assert res.water_level[1] == np.inf
        for i in (0, 2):
            alone = water_fill(rows[i], 2.0)
            assert np.array_equal(res.powers[i], alone.powers)
            assert res.water_level[i] == alone.water_level

    def test_budget_per_row(self):
        res = water_fill([[1.0, 1.0], [1.0, 1.0], [2.0, 0.5]], [2.0, 0.0, 1.0])
        assert np.array_equal(res.powers, [[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(res.water_level, [2.0, 1.0, 1.5])

    def test_budget_broadcasts_over_leading_axes(self):
        gains = np.arange(1.0, 13.0).reshape(2, 3, 2)
        res = water_fill(gains, np.array([[1.0], [3.0]]))
        for k, budget in enumerate((1.0, 3.0)):
            for i in range(3):
                assert np.array_equal(res.powers[k, i], water_fill(gains[k, i], budget).powers)

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_bad_budget_in_one_row_rejected(self, bad):
        with pytest.raises(ValidationError):
            water_fill(np.ones((3, 2)), [1.0, bad, 1.0])

    def test_output_shape_equals_input_shape(self):
        for shape in [(1,), (4,), (3, 2), (2, 5, 3)]:
            res = water_fill(np.ones(shape), 1.0)
            assert res.powers.shape == shape
            assert np.shape(res.water_level) == shape[:-1]

    def test_powers_and_levels_read_only(self):
        res = water_fill(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            res.powers[0, 0] = 3.0
        with pytest.raises(ValueError):
            res.water_level[0] = 3.0

    def test_active_set_counts_powered_channels_of_an_array(self):
        # Row 0 powers both channels, row 1 drops its weak one, row 2 none.
        res = water_fill([[1.0, 1.0], [1.0, 0.5], [0.0, 0.0]], 1.0)
        assert res.active_set == (0, 1, 2)
        assert len(res.active_set) == int(np.count_nonzero(res.powers))


class TestWaterFillAgainstPerSetReference:
    """The array form must equal the per-set closed form row by row, bit for bit."""

    @staticmethod
    def check(gains, budgets):
        res = water_fill(gains, budgets)
        for row, budget, powers, level in zip(gains, budgets, res.powers, res.water_level):
            ref = water_fill_by_set(row, float(budget))
            assert np.array_equal(powers, ref.powers), (row, budget)
            assert level == ref.water_level, (row, budget)

    def test_random_arrays_match_reference(self):
        rng = np.random.default_rng(20240611)
        for _ in range(300):
            m, q = int(rng.integers(1, 12)), int(rng.integers(1, 7))
            if rng.random() < 0.3:
                gains = rng.integers(0, 3, size=(m, q)).astype(float)
            else:
                gains = rng.exponential(1.0, size=(m, q))
                gains[rng.random((m, q)) < 0.25] = 0.0
            gains[rng.random(m) < 0.15] = 0.0
            budgets = 10.0 ** rng.uniform(-6.0, 9.0, size=m)
            budgets[rng.random(m) < 0.15] = 0.0
            self.check(gains, budgets)

    def test_budget_zero_and_all_zero_rows(self):
        gains = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.0, 3.0, 0.0]])
        self.check(gains, np.zeros(3))
        self.check(gains, np.full(3, 1e9))


class TestWaterFillAgainstBisection:
    def test_water_level_and_powers_match_oracle(self):
        rng = np.random.default_rng(424242)
        checked = 0
        for _ in range(400):
            gains, budget = random_instance(rng)
            res = water_fill(gains, budget)
            mu = bisect_water_level(gains, budget)
            assert res.water_level == pytest.approx(mu, rel=1e-9, abs=1e-9)
            expected = np.zeros_like(gains)
            pos = gains > 0
            expected[pos] = np.clip(res.water_level - 1.0 / gains[pos], 0.0, None)
            assert np.allclose(res.powers, expected, atol=1e-9)
            checked += 1
        assert checked == 400


class TestWaterFillProperties:
    def test_kkt_and_budget_conservation(self):
        rng = np.random.default_rng(777)
        for _ in range(300):
            gains, budget = random_instance(rng)
            res = water_fill(gains, budget)
            assert abs(res.powers.sum() - budget) <= 1e-9 * max(1.0, budget)
            assert (res.powers >= 0).all()
            active = np.zeros(len(gains), dtype=bool)
            active[list(res.active_set)] = True
            # Active: p = mu - 1/H > 0. Inactive usable: mu <= 1/H.
            if active.any():
                inv = 1.0 / gains[active]
                assert np.allclose(res.powers[active], res.water_level - inv, atol=1e-12)
                assert (res.powers[active] > 0).all()
            inactive = (~active) & (gains > 0)
            if inactive.any():
                assert (res.water_level <= 1.0 / gains[inactive] + 1e-12).all()
            assert (res.powers[~active] == 0).all()

    def test_dominates_equal_split_and_concentration(self):
        rng = np.random.default_rng(31337)
        for _ in range(300):
            gains, budget = random_instance(rng)
            best = objective(gains, water_fill(gains, budget).powers)
            even = objective(gains, equal_split(len(gains), budget))
            focused = objective(gains, concentrate_on_best(gains, budget))
            slack = 1e-12 * max(1.0, abs(best))
            assert best + slack >= even
            assert best + slack >= focused


class TestEqualSplit:
    def test_pair(self):
        assert np.array_equal(equal_split(2, 1.0), [0.5, 0.5])

    def test_singleton(self):
        assert np.array_equal(equal_split(1, 3.0), [3.0])

    def test_zero_budget(self):
        assert np.array_equal(equal_split(4, 0.0), [0.0, 0.0, 0.0, 0.0])

    def test_rejects_empty_set(self):
        with pytest.raises(ValidationError):
            equal_split(0, 1.0)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValidationError):
            equal_split(2, -1.0)


class TestConcentrateOnBest:
    def test_argmax(self):
        assert np.array_equal(concentrate_on_best([1.0, 4.0, 2.0], 1.0), [0.0, 1.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        assert np.array_equal(concentrate_on_best([3.0, 3.0], 2.0), [2.0, 0.0])

    def test_zero_budget(self):
        assert np.array_equal(concentrate_on_best([1.0, 2.0], 0.0), [0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            concentrate_on_best([], 1.0)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValidationError):
            concentrate_on_best([1.0], -2.0)


def test_result_type_fields():
    res = water_fill([4.0, 1.0], 2.0)
    assert isinstance(res, WaterFillResult)
    assert isinstance(res.active_set, tuple)
    assert res.powers.shape == (2,)
