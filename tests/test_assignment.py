"""Assignment solver vs the exhaustive oracle, plus structural properties."""

import numpy as np
import pytest

from multiband_alloc.assignment import (
    AssignmentResult,
    CostMatrix,
    replicate_rows,
    solve_assignment,
)
from multiband_alloc.errors import GuardError, InfeasibleError, ValidationError
from oracles import brute_force_assignment


def feasible_forbidden_mask(rng, rows, cols, density=0.4):
    """Random forbidden mask guaranteed to leave one complete assignment."""
    mask = rng.random((rows, cols)) < density
    safe_cols = rng.permutation(cols)[:rows]
    mask[np.arange(rows), safe_cols] = False
    return mask


class TestCostMatrix:
    def test_basic_construction(self):
        cm = CostMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), "minimize")
        assert cm.num_rows == 2 and cm.num_cols == 2
        assert not cm.forbidden.any()

    def test_forbidden_cells_zeroed_out_of_arithmetic(self):
        values = np.array([[np.inf, 2.0], [3.0, 4.0]])
        forbidden = np.array([[True, False], [False, False]])
        cm = CostMatrix(values, "maximize", forbidden)
        assert cm.values[0, 0] == 0.0
        assert np.isfinite(cm.values).all()

    def test_arrays_read_only(self):
        cm = CostMatrix(np.ones((2, 3)), "minimize")
        with pytest.raises(ValueError):
            cm.values[0, 0] = 9.0

    @pytest.mark.parametrize(
        "values,orientation,forbidden",
        [
            (np.ones((3, 2)), "minimize", None),  # more rows than columns
            (np.ones(4), "minimize", None),  # not 2-D
            (np.ones((0, 3)), "minimize", None),  # empty
            (np.array([[np.nan, 1.0]]), "minimize", None),  # non-finite allowed cell
            (np.ones((2, 2)), "largest", None),  # bad orientation
            (np.ones((2, 2)), "minimize", np.zeros((2, 3), dtype=bool)),  # mask shape
        ],
    )
    def test_rejects_invalid(self, values, orientation, forbidden):
        with pytest.raises(ValidationError):
            CostMatrix(values, orientation, forbidden)


class TestKnownSolutions:
    def test_identity_dominant_maximize(self):
        res = solve_assignment(CostMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), "maximize"))
        assert res.column_of_row == (0, 1)
        assert res.objective_value == 2.0

    def test_rectangular_two_by_four(self):
        values = np.array([[4.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 1.0]])
        res = solve_assignment(CostMatrix(values, "maximize"))
        assert res.column_of_row == (0, 1)
        assert res.objective_value == 6.0

    def test_all_equal_matrix(self):
        res = solve_assignment(CostMatrix(np.full((5, 5), 3.0), "maximize"))
        assert sorted(res.column_of_row) == [0, 1, 2, 3, 4]
        assert res.objective_value == 15.0

    def test_all_equal_rectangular_matrix(self):
        # The low_snr tie at budget 0: every row takes the lowest free column.
        res = solve_assignment(CostMatrix(np.zeros((3, 7)), "maximize"))
        assert res.column_of_row == (0, 1, 2)
        assert res.objective_value == 0.0

    def test_one_by_one(self):
        res = solve_assignment(CostMatrix(np.array([[7.0]]), "minimize"))
        assert res == AssignmentResult(column_of_row=(0,), objective_value=7.0)

    def test_minimize_picks_cheapest(self):
        values = np.array([[10.0, 1.0], [1.0, 10.0]])
        res = solve_assignment(CostMatrix(values, "minimize"))
        assert res.column_of_row == (1, 0)
        assert res.objective_value == 2.0


class TestOracle:
    def test_one_by_one(self):
        res = brute_force_assignment(CostMatrix(np.array([[5.0]]), "maximize"))
        assert res.objective_value == 5.0

    def test_known_rectangular(self):
        values = np.array([[4.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 1.0]])
        res = brute_force_assignment(CostMatrix(values, "maximize"))
        assert res.objective_value == 6.0

    def test_size_guard(self):
        with pytest.raises(GuardError):
            brute_force_assignment(CostMatrix(np.ones((2, 11)), "minimize"))


class TestSolverMatchesOracle:
    def test_exact_equality_on_random_floats(self):
        rng = np.random.default_rng(314)
        for trial in range(300):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.normal(size=(rows, cols)) * 10
            orientation = "maximize" if trial % 2 else "minimize"
            cm = CostMatrix(values, orientation)
            fast = solve_assignment(cm)
            slow = brute_force_assignment(cm)
            assert fast.objective_value == slow.objective_value
            assert len(set(fast.column_of_row)) == rows

    def test_exact_equality_on_integer_ties(self):
        # Small integer range forces massive objective ties; equality must
        # still be exact because both sides share the canonical objective.
        rng = np.random.default_rng(2718)
        for trial in range(300):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.integers(-3, 4, size=(rows, cols)).astype(float)
            orientation = "maximize" if trial % 2 else "minimize"
            cm = CostMatrix(values, orientation)
            assert solve_assignment(cm).objective_value == brute_force_assignment(cm).objective_value

    def test_exact_equality_with_forbidden_cells(self):
        rng = np.random.default_rng(161)
        for trial in range(200):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.normal(size=(rows, cols))
            forbidden = feasible_forbidden_mask(rng, rows, cols)
            orientation = "maximize" if trial % 2 else "minimize"
            cm = CostMatrix(values, orientation, forbidden)
            fast = solve_assignment(cm)
            slow = brute_force_assignment(cm)
            assert fast.objective_value == slow.objective_value
            assert not forbidden[np.arange(rows), list(fast.column_of_row)].any()


class TestStructuralProperties:
    def test_row_shift_changes_objective_by_exactly_that_constant(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.integers(-20, 21, size=(rows, cols)).astype(float)
            shift = float(rng.integers(1, 15))
            shifted = values.copy()
            shifted[0] += shift
            base = solve_assignment(CostMatrix(values, "maximize")).objective_value
            moved = solve_assignment(CostMatrix(shifted, "maximize")).objective_value
            assert moved == base + shift

    def test_negation_swaps_orientations(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.normal(size=(rows, cols))
            hi = solve_assignment(CostMatrix(values, "maximize")).objective_value
            lo = solve_assignment(CostMatrix(-values, "minimize")).objective_value
            assert hi == -lo


class TestReplicateRows:
    def test_construction_order(self):
        cm = CostMatrix(np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]), "maximize")
        rep = replicate_rows(cm, 2)
        assert rep.values.shape == (4, 4)
        assert np.array_equal(rep.values[0], rep.values[1])
        assert np.array_equal(rep.values[2], rep.values[3])
        assert np.array_equal(rep.values[0], cm.values[0])

    def test_copies_one_is_identity(self):
        cm = CostMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), "minimize")
        rep = replicate_rows(cm, 1)
        assert np.array_equal(rep.values, cm.values)
        assert rep.orientation == cm.orientation

    def test_quota_infeasible(self):
        cm = CostMatrix(np.ones((2, 4)), "maximize")
        with pytest.raises(InfeasibleError):
            replicate_rows(cm, 3)

    def test_replicated_solution_recovers_block_partition(self):
        # ln-gain costs for two links whose good channels are disjoint.
        h = np.array([[4.0, 3.0, 1.0, 1.0], [1.0, 1.0, 4.0, 3.0]])
        cm = CostMatrix(np.log(h), "maximize")
        res = solve_assignment(replicate_rows(cm, 2))
        merged = {0: set(), 1: set()}
        for rep_row, col in enumerate(res.column_of_row):
            merged[rep_row // 2].add(col)
        assert merged[0] == {0, 1}
        assert merged[1] == {2, 3}


class TestInfeasibility:
    def test_all_forbidden_row_named(self):
        forbidden = np.array([[False, False], [True, True]])
        cm = CostMatrix(np.ones((2, 2)), "maximize", forbidden)
        with pytest.raises(InfeasibleError, match="row 1"):
            solve_assignment(cm)

    def test_no_complete_assignment(self):
        # Both rows can only use column 1, so no complete assignment exists.
        forbidden = np.array([[True, False], [True, False]])
        cm = CostMatrix(np.ones((2, 2)), "maximize", forbidden)
        with pytest.raises(InfeasibleError):
            solve_assignment(cm)
        with pytest.raises(InfeasibleError):
            brute_force_assignment(cm)


class TestScipyCrossCheck:
    @pytest.mark.parametrize("shape", [(30, 40), (50, 60), (8, 32), (2, 16), (1, 9)])
    @pytest.mark.parametrize("orientation", ["minimize", "maximize"])
    def test_large_matrices_match_scipy(self, shape, orientation):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(hash(shape) % (2**32))
        values = rng.normal(size=shape)
        ours = solve_assignment(CostMatrix(values, orientation))
        rows, cols = scipy_opt.linear_sum_assignment(
            values, maximize=(orientation == "maximize")
        )
        reference = float(values[rows, cols].sum())
        assert abs(ours.objective_value - reference) < 1e-9
