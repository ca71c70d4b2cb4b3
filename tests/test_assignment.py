"""Assignment solver vs the exhaustive oracle, plus structural properties.

The chosen columns (which the CSV and dump bytes depend on) are pinned by
`golden/assignment_columns.txt` on tie-heavy integer matrices, where every
float operation is exact, and by `golden/assignment_float_columns.txt` on
continuous values, where a reordered subtraction can change a near-tie; a
change that means to alter them regenerates the files and says so:

    PYTHONPATH=src python tests/test_assignment.py
"""

import pathlib

import numpy as np
import pytest

from multiband_alloc.assignment import (
    ORIENTATIONS,
    AssignmentResult,
    CostMatrix,
    replicate_rows,
    solve_assignment,
)
from multiband_alloc.errors import GuardError, InfeasibleError, ValidationError
from oracles import brute_force_assignment, selection_value

COLUMNS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "assignment_columns.txt"
COLUMN_CASES = 1000
FLOAT_COLUMNS_GOLDEN = COLUMNS_GOLDEN.with_name("assignment_float_columns.txt")
FLOAT_COLUMN_CASES = 500


def feasible_forbidden_mask(rng, rows, cols, density=0.4):
    """Random forbidden mask guaranteed to leave one complete assignment."""
    mask = rng.random((rows, cols)) < density
    safe_cols = rng.permutation(cols)[:rows]
    mask[np.arange(rows), safe_cols] = False
    return mask


def column_case(seed: int) -> CostMatrix:
    """Tie-heavy matrix number `seed` of the column golden: values in {0, 1, 2}
    or all equal, forbidden probability 0 or 0.3, either orientation; shapes
    up to 6x9, and every 50 seeds a 2x32 and an 8x32 matrix, each row
    replicated 4 times (8x32 and 32x32)."""
    rng = np.random.default_rng(seed)
    if seed % 50 >= 48:
        rows, cols, copies = (2, 32, 4) if seed % 50 == 48 else (8, 32, 4)
    else:
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(rows, 10))
        copies = 1
    if rng.random() < 0.25:
        values = np.full((rows, cols), float(rng.integers(0, 3)))
    else:
        values = rng.integers(0, 3, size=(rows, cols)).astype(float)
    forbidden = rng.random((rows, cols)) < (0.3 if rng.random() < 0.5 else 0.0)
    orientation = ORIENTATIONS[int(rng.integers(2))]
    return replicate_rows(CostMatrix(values, orientation, forbidden), copies)


def float_column_case(seed: int) -> CostMatrix:
    """Continuous-valued matrix number `seed` of the float column golden.

    Seed % 4 picks the shape: up to 6x9, 2x4, 8x32, or 8x32 with each row
    replicated 4 times (32x32). Seed // 4 % 2 picks the values: normal
    draws, or 1 + a multiple of 1e-12 (near-ties whose sums round). Seed
    // 8 % 2 adds forbidden cells (probability 0.2, one complete assignment
    kept before replication). Either orientation.
    """
    rng = np.random.default_rng(10_000 + seed)
    shape = seed % 4
    if shape == 0:
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(rows, 10))
    else:
        rows, cols = (2, 4) if shape == 1 else (8, 32)
    copies = 4 if shape == 3 else 1
    if seed // 4 % 2:
        values = 1.0 + np.round(rng.normal(scale=3.0, size=(rows, cols))) * 1e-12
    else:
        values = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4)
    forbidden = np.zeros((rows, cols), dtype=bool)
    if seed // 8 % 2:
        forbidden = feasible_forbidden_mask(rng, rows, cols, density=0.2)
    orientation = ORIENTATIONS[int(rng.integers(2))]
    return replicate_rows(CostMatrix(values, orientation, forbidden), copies)


def column_line(seed: int, case=column_case) -> str:
    """The golden line of matrix `case(seed)`: its columns, or the infeasibility message."""
    try:
        cols = solve_assignment(case(seed)).column_of_row
    except InfeasibleError as exc:
        return f"{seed}: {exc}"
    return f"{seed}: " + " ".join(map(str, cols))


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
        cost = CostMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), "maximize")
        res = solve_assignment(cost)
        assert res.column_of_row == (0, 1)
        assert selection_value(cost, res) == 2.0

    def test_rectangular_two_by_four(self):
        cost = CostMatrix(np.array([[4.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 1.0]]), "maximize")
        res = solve_assignment(cost)
        assert res.column_of_row == (0, 1)
        assert selection_value(cost, res) == 6.0

    def test_all_equal_matrix(self):
        cost = CostMatrix(np.full((5, 5), 3.0), "maximize")
        res = solve_assignment(cost)
        assert sorted(res.column_of_row) == [0, 1, 2, 3, 4]
        assert selection_value(cost, res) == 15.0

    def test_all_equal_rectangular_matrix(self):
        # The low_snr tie at budget 0: every row takes the lowest free column.
        cost = CostMatrix(np.zeros((3, 7)), "maximize")
        res = solve_assignment(cost)
        assert res.column_of_row == (0, 1, 2)
        assert selection_value(cost, res) == 0.0

    def test_one_by_one(self):
        cost = CostMatrix(np.array([[7.0]]), "minimize")
        res = solve_assignment(cost)
        assert res == AssignmentResult(column_of_row=(0,))
        assert selection_value(cost, res) == 7.0

    def test_near_float_max_values(self):
        # Each tree step shifts potentials by about 1e308; none may overflow.
        values = [[1.2e308, 1.0e308], [1.1e308, 0.9e308]]
        assert solve_assignment(CostMatrix(values, "maximize")).column_of_row == (0, 1)

    def test_minimize_picks_cheapest(self):
        cost = CostMatrix(np.array([[10.0, 1.0], [1.0, 10.0]]), "minimize")
        res = solve_assignment(cost)
        assert res.column_of_row == (1, 0)
        assert selection_value(cost, res) == 2.0


class TestOracle:
    def test_one_by_one(self):
        cost = CostMatrix(np.array([[5.0]]), "maximize")
        assert selection_value(cost, brute_force_assignment(cost)) == 5.0

    def test_known_rectangular(self):
        cost = CostMatrix(np.array([[4.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 1.0]]), "maximize")
        assert selection_value(cost, brute_force_assignment(cost)) == 6.0

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
            assert selection_value(cm, fast) == selection_value(cm, slow)
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
            fast, slow = solve_assignment(cm), brute_force_assignment(cm)
            assert selection_value(cm, fast) == selection_value(cm, slow)

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
            assert selection_value(cm, fast) == selection_value(cm, slow)
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
            base, moved = CostMatrix(values, "maximize"), CostMatrix(shifted, "maximize")
            base_value = selection_value(base, solve_assignment(base))
            assert selection_value(moved, solve_assignment(moved)) == base_value + shift

    def test_negation_swaps_orientations(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.normal(size=(rows, cols))
            hi, lo = CostMatrix(values, "maximize"), CostMatrix(-values, "minimize")
            assert selection_value(hi, solve_assignment(hi)) == -selection_value(lo, solve_assignment(lo))


class TestPotentials:
    @pytest.mark.parametrize("seed", range(40))
    def test_potentials_prove_the_columns(self, seed):
        # Up to rounding, reduced costs are >= 0 (minimize) or <= 0
        # (maximize) on allowed cells and 0 on assigned ones; unassigned
        # columns have potential 0 exactly.
        cost = float_column_case(seed)
        try:
            result = solve_assignment(cost)
        except InfeasibleError:
            return
        sign = 1.0 if cost.orientation == "minimize" else -1.0
        u, v = np.array(result.row_potentials), np.array(result.column_potentials)
        reduced = sign * (cost.values - u[:, None] - v[None, :])
        scale = np.abs(cost.values).max()
        assert (reduced[~cost.forbidden] >= -1e-12 * scale).all()
        rows = np.arange(cost.num_rows)
        assert np.abs(reduced[rows, list(result.column_of_row)]).max() <= 1e-12 * scale
        unassigned = np.setdiff1d(np.arange(cost.num_cols), result.column_of_row)
        assert (v[unassigned] == 0.0).all()

    def test_potentials_do_not_take_part_in_equality(self):
        cost = CostMatrix(np.array([[1.0, 2.0]]), "maximize")
        assert solve_assignment(cost) == AssignmentResult(column_of_row=(1,))


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
        cost = CostMatrix(values, orientation)
        ours = selection_value(cost, solve_assignment(cost))
        rows, cols = scipy_opt.linear_sum_assignment(
            values, maximize=(orientation == "maximize")
        )
        reference = float(values[rows, cols].sum())
        assert abs(ours - reference) < 1e-9


def test_columns_match_golden():
    expected = COLUMNS_GOLDEN.read_text().splitlines()
    assert [column_line(seed) for seed in range(COLUMN_CASES)] == expected


def test_float_columns_match_golden():
    expected = FLOAT_COLUMNS_GOLDEN.read_text().splitlines()
    lines = [column_line(seed, float_column_case) for seed in range(FLOAT_COLUMN_CASES)]
    assert lines == expected


if __name__ == "__main__":
    COLUMNS_GOLDEN.write_text("".join(column_line(seed) + "\n" for seed in range(COLUMN_CASES)))
    FLOAT_COLUMNS_GOLDEN.write_text(
        "".join(column_line(seed, float_column_case) + "\n" for seed in range(FLOAT_COLUMN_CASES))
    )
