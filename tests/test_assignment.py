"""Assignment solver vs the exhaustive oracle, plus structural properties.

Each matrix is built as values, an orientation and a forbidden mask and
solved as the lists `oracles.minimizing_lists` makes of it, at capacity 1
unless a test says otherwise.

The chosen columns (which the CSV and dump bytes depend on) are pinned by
three goldens. At capacity 1, `golden/assignment_columns.txt` holds
tie-heavy integer matrices, where every float operation is exact, and
`golden/assignment_float_columns.txt` continuous values, where a reordered
subtraction can change a near-tie. Their cases that copy each row 4 times
(32x32 lists) pin the capacity-1 core on a shape `high_snr` no longer
solves, as it copies no rows; only `low_snr` solves at capacity 1, on its
K x N lists. At capacity q > 1,
`golden/assignment_capacity_columns.txt` holds tie-heavy integer lists
from both starts (K * q == N and K * q < N): the tie-break `high_snr`
returns. A change that means to alter them regenerates the files and says
so:

    PYTHONPATH=src python tests/test_assignment.py

On the capacity-1 matrices the solver must also match the oracle loop
`oracles.hungarian_min` float for float, potentials included; on the
capacity-q lists it must reach the optimum of that loop's solve of the
lists with every row copied q times.
"""

import pathlib

import numpy as np
import pytest

from multiband_alloc.assignment import solve_capacitated
from multiband_alloc.errors import GuardError, InfeasibleError
from oracles import (
    assigned_columns,
    brute_force_assignment,
    hungarian_min,
    minimizing_lists,
    replicate_rows,
    selection_value,
)

COLUMNS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "assignment_columns.txt"
COLUMN_CASES = 1000
FLOAT_COLUMNS_GOLDEN = COLUMNS_GOLDEN.with_name("assignment_float_columns.txt")
FLOAT_COLUMN_CASES = 500
CAPACITY_COLUMNS_GOLDEN = COLUMNS_GOLDEN.with_name("assignment_capacity_columns.txt")
CAPACITY_COLUMN_CASES = 500
ORIENTATIONS = ("minimize", "maximize")


def feasible_forbidden_mask(rng, rows, cols, density=0.4):
    """Random forbidden mask guaranteed to leave one complete assignment."""
    mask = rng.random((rows, cols)) < density
    safe_cols = rng.permutation(cols)[:rows]
    mask[np.arange(rows), safe_cols] = False
    return mask


def tie_heavy_lists(rng, rows: int, cols: int) -> list[list[float]]:
    """A rows x cols matrix drawn from `rng` as minimizing lists: values in
    {0, 1, 2} or (one time in four) all equal, forbidden probability 0 or
    0.3, either orientation."""
    if rng.random() < 0.25:
        values = np.full((rows, cols), float(rng.integers(0, 3)))
    else:
        values = rng.integers(0, 3, size=(rows, cols)).astype(float)
    forbidden = rng.random((rows, cols)) < (0.3 if rng.random() < 0.5 else 0.0)
    orientation = ORIENTATIONS[int(rng.integers(2))]
    return minimizing_lists(values, orientation, forbidden)


def column_case(seed: int) -> list[list[float]]:
    """Tie-heavy matrix number `seed` of the column golden: values in {0, 1, 2}
    or all equal, forbidden probability 0 or 0.3, either orientation; shapes
    up to 6x9, and every 50 seeds a 2x32 and an 8x32 matrix, each row
    replicated 4 times (8x32 and 32x32); as minimizing lists."""
    rng = np.random.default_rng(seed)
    if seed % 50 >= 48:
        rows, cols, copies = (2, 32, 4) if seed % 50 == 48 else (8, 32, 4)
    else:
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(rows, 10))
        copies = 1
    return replicate_rows(tie_heavy_lists(rng, rows, cols), copies)


def float_column_case(seed: int) -> list[list[float]]:
    """Continuous-valued matrix number `seed` of the float column golden.

    Seed % 4 picks the shape: up to 6x9, 2x4, 8x32, or 8x32 with each row
    replicated 4 times (32x32). Seed // 4 % 2 picks the values: normal
    draws, or 1 + a multiple of 1e-12 (near-ties whose sums round). Seed
    // 8 % 2 adds forbidden cells (probability 0.2, one complete assignment
    kept before replication). Either orientation; as minimizing lists.
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
    return replicate_rows(minimizing_lists(values, orientation, forbidden), copies)


def capacity_column_case(seed: int) -> tuple[list[list[float]], int]:
    """Tie-heavy lists number `seed` of the capacity golden
    (`tie_heavy_lists`) and their capacity q > 1: up to 5 rows at q in
    2..3. Even seeds fill every column (K * q == N, the column-reduction
    start), odd seeds leave 1 to 3 idle (K * q < N, the zero start); every
    50 seeds an 8x32 and a 7x32 list at q = 4, one of each start."""
    rng = np.random.default_rng(20_000 + seed)
    if seed % 50 >= 48:
        rows, capacity = (8, 4) if seed % 50 == 48 else (7, 4)
        cols = 32
    else:
        rows = int(rng.integers(1, 6))
        capacity = int(rng.integers(2, 4))
        cols = rows * capacity + (0 if seed % 2 == 0 else int(rng.integers(1, 4)))
    return tie_heavy_lists(rng, rows, cols), capacity


def capacity_column_line(seed: int) -> str:
    """The golden line of `capacity_column_case(seed)`: the row owning each
    column (-1 if none), or the infeasibility message."""
    costs, capacity = capacity_column_case(seed)
    try:
        owner, _, _ = solve_capacitated(costs, capacity)
    except InfeasibleError as exc:
        return f"{seed}: {exc}"
    return f"{seed}: " + " ".join(map(str, owner))


def column_line(seed: int, case=column_case) -> str:
    """The golden line of matrix `case(seed)`: its columns, or the infeasibility message."""
    try:
        cols = assigned_columns(case(seed))
    except InfeasibleError as exc:
        return f"{seed}: {exc}"
    return f"{seed}: " + " ".join(map(str, cols))


class TestKnownSolutions:
    def test_identity_dominant_maximize(self):
        values = [[1.0, 0.0], [0.0, 1.0]]
        cols = assigned_columns(minimizing_lists(values, "maximize"))
        assert cols == (0, 1)
        assert selection_value(values, cols) == 2.0

    def test_rectangular_two_by_four(self):
        values = [[4.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 1.0]]
        cols = assigned_columns(minimizing_lists(values, "maximize"))
        assert cols == (0, 1)
        assert selection_value(values, cols) == 6.0

    def test_all_equal_matrix(self):
        values = np.full((5, 5), 3.0)
        cols = assigned_columns(minimizing_lists(values, "maximize"))
        assert sorted(cols) == [0, 1, 2, 3, 4]
        assert selection_value(values, cols) == 15.0

    def test_all_equal_rectangular_matrix(self):
        # The low_snr tie at budget 0: every row takes the lowest free column.
        values = np.zeros((3, 7))
        cols = assigned_columns(minimizing_lists(values, "maximize"))
        assert cols == (0, 1, 2)
        assert selection_value(values, cols) == 0.0

    def test_one_by_one(self):
        cols = assigned_columns([[7.0]])
        assert cols == (0,)
        assert selection_value([[7.0]], cols) == 7.0

    def test_near_float_max_values(self):
        # Each tree step shifts potentials by about 1e308; none may overflow.
        values = [[1.2e308, 1.0e308], [1.1e308, 0.9e308]]
        assert assigned_columns(minimizing_lists(values, "maximize")) == (0, 1)

    def test_minimize_picks_cheapest(self):
        values = [[10.0, 1.0], [1.0, 10.0]]
        cols = assigned_columns(values)
        assert cols == (1, 0)
        assert selection_value(values, cols) == 2.0


class TestOracle:
    def test_one_by_one(self):
        costs = minimizing_lists([[5.0]], "maximize")
        assert selection_value([[5.0]], brute_force_assignment(costs)) == 5.0

    def test_known_rectangular(self):
        values = [[4.0, 1.0, 1.0, 1.0], [3.0, 2.0, 1.0, 1.0]]
        cols = brute_force_assignment(minimizing_lists(values, "maximize"))
        assert selection_value(values, cols) == 6.0

    def test_size_guard(self):
        with pytest.raises(GuardError):
            brute_force_assignment(np.ones((2, 11)).tolist())


class TestSolverMatchesOracle:
    def test_exact_equality_on_random_floats(self):
        rng = np.random.default_rng(314)
        for trial in range(300):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.normal(size=(rows, cols)) * 10
            orientation = "maximize" if trial % 2 else "minimize"
            costs = minimizing_lists(values, orientation)
            fast = assigned_columns(costs)
            slow = brute_force_assignment(costs)
            assert selection_value(values, fast) == selection_value(values, slow)
            assert len(set(fast)) == rows

    def test_exact_equality_on_integer_ties(self):
        # Small integer range forces massive objective ties; equality must
        # still be exact because both sides share the canonical objective.
        rng = np.random.default_rng(2718)
        for trial in range(300):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.integers(-3, 4, size=(rows, cols)).astype(float)
            orientation = "maximize" if trial % 2 else "minimize"
            costs = minimizing_lists(values, orientation)
            fast, slow = assigned_columns(costs), brute_force_assignment(costs)
            assert selection_value(values, fast) == selection_value(values, slow)

    def test_exact_equality_with_forbidden_cells(self):
        rng = np.random.default_rng(161)
        for trial in range(200):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.normal(size=(rows, cols))
            forbidden = feasible_forbidden_mask(rng, rows, cols)
            orientation = "maximize" if trial % 2 else "minimize"
            costs = minimizing_lists(values, orientation, forbidden)
            fast = assigned_columns(costs)
            slow = brute_force_assignment(costs)
            assert selection_value(values, fast) == selection_value(values, slow)
            assert not forbidden[np.arange(rows), list(fast)].any()


class TestOracleLoop:
    @pytest.mark.parametrize(
        "case,count",
        [(column_case, COLUMN_CASES), (float_column_case, FLOAT_COLUMN_CASES)],
        ids=["integer", "float"],
    )
    def test_golden_cases_match_bit_for_bit(self, case, count):
        # Columns and both potential lists, on every matrix of both column
        # goldens; infeasible exactly when the oracle loop is.
        for seed in range(count):
            costs = case(seed)
            try:
                columns, u, v = hungarian_min(costs)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_capacitated(costs, 1)
                continue
            owner, cap_u, cap_v = solve_capacitated(costs, 1)
            assert [owner.index(i) for i in range(len(costs))] == columns, seed
            assert cap_u == u, seed
            assert cap_v == v, seed

    def test_capacity_golden_cases_reach_the_replicated_optimum(self):
        # Integer costs sum exactly, so any optimum has the value of the
        # oracle loop's solve of the lists with every row copied q times.
        for seed in range(CAPACITY_COLUMN_CASES):
            costs, capacity = capacity_column_case(seed)
            replicated = replicate_rows(costs, capacity)
            try:
                columns, _, _ = hungarian_min(replicated)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_capacitated(costs, capacity)
                continue
            owner, _, _ = solve_capacitated(costs, capacity)
            assert [owner.count(k) for k in range(len(costs))] == [capacity] * len(costs), seed
            total = sum(costs[k][n] for n, k in enumerate(owner) if k >= 0)
            assert total == selection_value(replicated, columns), seed


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
            base_value = selection_value(values, assigned_columns(minimizing_lists(values, "maximize")))
            moved = assigned_columns(minimizing_lists(shifted, "maximize"))
            assert selection_value(shifted, moved) == base_value + shift

    def test_negation_swaps_orientations(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(rows, 8))
            values = rng.normal(size=(rows, cols))
            hi = assigned_columns(minimizing_lists(values, "maximize"))
            lo = assigned_columns(minimizing_lists(-values, "minimize"))
            assert selection_value(values, hi) == -selection_value(-values, lo)


class TestPotentials:
    @pytest.mark.parametrize("seed", range(40))
    def test_potentials_prove_the_columns(self, seed):
        # Up to rounding, reduced costs are >= 0 on allowed cells and 0 on
        # assigned ones; unassigned columns have potential 0 exactly.
        costs = np.array(float_column_case(seed))
        try:
            owner, u, v = solve_capacitated(costs.tolist(), 1)
        except InfeasibleError:
            return
        allowed = costs < np.inf
        u, v = np.array(u), np.array(v)
        reduced = costs - u[:, None] - v[None, :]
        scale = np.abs(costs[allowed]).max()
        assert (reduced[allowed] >= -1e-12 * scale).all()
        rows = np.arange(len(costs))
        columns = [owner.index(i) for i in rows]
        assert np.abs(reduced[rows, columns]).max() <= 1e-12 * scale
        unassigned = [j for j, i in enumerate(owner) if i < 0]
        assert (v[unassigned] == 0.0).all()


class TestReplicateRows:
    def test_construction_order(self):
        costs = [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]
        rep = replicate_rows(costs, 2)
        assert len(rep) == 4
        assert rep[0] == rep[1] == costs[0]
        assert rep[2] == rep[3] == costs[1]

    def test_copies_one_is_identity(self):
        costs = [[1.0, 2.0], [3.0, 4.0]]
        assert replicate_rows(costs, 1) == costs

    def test_quota_infeasible(self):
        with pytest.raises(InfeasibleError):
            replicate_rows(np.ones((2, 4)).tolist(), 3)

    def test_replicated_solution_recovers_block_partition(self):
        # ln-gain costs for two links whose good channels are disjoint.
        h = np.array([[4.0, 3.0, 1.0, 1.0], [1.0, 1.0, 4.0, 3.0]])
        cols = assigned_columns(replicate_rows(minimizing_lists(np.log(h), "maximize"), 2))
        merged = {0: set(), 1: set()}
        for rep_row, col in enumerate(cols):
            merged[rep_row // 2].add(col)
        assert merged[0] == {0, 1}
        assert merged[1] == {2, 3}


class TestInfeasibility:
    def test_all_forbidden_row_named(self):
        forbidden = np.array([[False, False], [True, True]])
        costs = minimizing_lists(np.ones((2, 2)), "maximize", forbidden)
        with pytest.raises(InfeasibleError, match="row 1"):
            assigned_columns(costs)

    def test_no_complete_assignment(self):
        # Both rows can only use column 1, so no complete assignment exists.
        forbidden = np.array([[True, False], [True, False]])
        costs = minimizing_lists(np.ones((2, 2)), "maximize", forbidden)
        with pytest.raises(InfeasibleError):
            assigned_columns(costs)
        with pytest.raises(InfeasibleError):
            brute_force_assignment(costs)


class TestScipyCrossCheck:
    @pytest.mark.parametrize("shape", [(30, 40), (50, 60), (8, 32), (2, 16), (1, 9)])
    @pytest.mark.parametrize("orientation", ["minimize", "maximize"])
    def test_large_matrices_match_scipy(self, shape, orientation):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(hash(shape) % (2**32))
        values = rng.normal(size=shape)
        ours = selection_value(values, assigned_columns(minimizing_lists(values, orientation)))
        rows, cols = scipy_opt.linear_sum_assignment(
            values, maximize=(orientation == "maximize")
        )
        reference = float(values[rows, cols].sum())
        assert abs(ours - reference) < 1e-9


def test_columns_match_golden():
    expected = COLUMNS_GOLDEN.read_text().splitlines()
    assert [column_line(seed) for seed in range(COLUMN_CASES)] == expected


def test_capacity_columns_match_golden():
    expected = CAPACITY_COLUMNS_GOLDEN.read_text().splitlines()
    assert [capacity_column_line(seed) for seed in range(CAPACITY_COLUMN_CASES)] == expected


def test_float_columns_match_golden():
    expected = FLOAT_COLUMNS_GOLDEN.read_text().splitlines()
    lines = [column_line(seed, float_column_case) for seed in range(FLOAT_COLUMN_CASES)]
    assert lines == expected


if __name__ == "__main__":
    COLUMNS_GOLDEN.write_text("".join(column_line(seed) + "\n" for seed in range(COLUMN_CASES)))
    FLOAT_COLUMNS_GOLDEN.write_text(
        "".join(column_line(seed, float_column_case) + "\n" for seed in range(FLOAT_COLUMN_CASES))
    )
    CAPACITY_COLUMNS_GOLDEN.write_text(
        "".join(capacity_column_line(seed) + "\n" for seed in range(CAPACITY_COLUMN_CASES))
    )
