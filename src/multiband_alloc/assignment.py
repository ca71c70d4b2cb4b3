"""Rectangular linear assignment.

A Hungarian (augmenting-path, dual-potential) solver handles minimize or
maximize cost matrices with R rows <= C columns. Forbidden cells are
excluded via a large finite sentinel instead of non-finite arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, ValidationError

__all__ = [
    "CostMatrix",
    "AssignmentResult",
    "solve_assignment",
    "replicate_rows",
]

ORIENTATIONS = ("minimize", "maximize")


@dataclass(frozen=True)
class CostMatrix:
    """R x C matrix of finite assignment costs plus an optional forbidden mask.

    Rows are assignees, columns are items; R <= C is required. Entries under
    the forbidden mask never enter arithmetic: the solver substitutes a
    sentinel large enough that a forbidden cell is chosen only when no fully
    feasible assignment exists.
    """

    values: np.ndarray
    orientation: str
    forbidden: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.size == 0:
            raise ValidationError("cost matrix must be a non-empty 2-D matrix")
        rows, cols = values.shape
        if rows > cols:
            raise ValidationError(f"cost matrix needs rows <= columns, got {rows}x{cols}")
        if self.orientation not in ORIENTATIONS:
            raise ValidationError(f"orientation must be one of {ORIENTATIONS}")
        if self.forbidden is None:
            mask = np.zeros(values.shape, dtype=bool)
        else:
            mask = np.array(self.forbidden, dtype=bool)
            if mask.shape != values.shape:
                raise ValidationError("forbidden mask shape must match the cost matrix")
        if not np.isfinite(values[~mask]).all():
            raise ValidationError("allowed cost cells must be finite")
        # Keep forbidden slots finite so downstream arithmetic never sees inf/nan.
        values[mask] = 0.0
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "forbidden", mask)

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AssignmentResult:
    """Optimal row-to-column mapping and its objective value.

    `column_of_row[i]` is the column assigned to row i; columns are pairwise
    distinct. `objective_value` is the sum of the selected cells.
    """

    column_of_row: tuple[int, ...]
    objective_value: float


def _selection_value(values: np.ndarray, cols) -> float:
    # Canonical objective: sequential sum in row order, so the solver and the
    # oracle produce bit-identical values for the same selection.
    total = 0.0
    for i, j in enumerate(cols):
        total += float(values[i, j])
    return total


def _effective_min_matrix(cost: CostMatrix) -> np.ndarray:
    """Minimize-domain copy with forbidden cells replaced by a sentinel.

    Raises InfeasibleError for any row with no allowed cell. The sentinel is
    (span + 1) * C above the largest allowed value, which makes a forbidden
    cell strictly worse than any fully feasible assignment.
    """
    allowed = ~cost.forbidden
    bad_rows = np.flatnonzero(~allowed.any(axis=1))
    if bad_rows.size:
        raise InfeasibleError(f"row {int(bad_rows[0])} has no allowed cells")
    work = cost.values if cost.orientation == "minimize" else -cost.values
    allowed_vals = work[allowed]
    lo = float(allowed_vals.min())
    hi = float(allowed_vals.max())
    sentinel = hi + (hi - lo + 1.0) * cost.num_cols
    return np.where(allowed, work, sentinel)


def _hungarian_min_square(a: np.ndarray) -> np.ndarray:
    """Exact minimum-cost perfect matching on a square matrix.

    Augmenting-path Hungarian with row/column potentials; one alternating
    tree per row, column index n acting as the virtual root. Inner scans are
    vectorized over columns, giving O(n^3) total work.
    """
    n = a.shape[0]
    u = np.zeros(n)
    v = np.zeros(n + 1)
    assigned_row = np.full(n + 1, -1, dtype=np.int64)

    for i in range(n):
        assigned_row[n] = i
        j0 = n
        min_slack = np.full(n, np.inf)
        path_prev = np.full(n, n, dtype=np.int64)
        visited = np.zeros(n + 1, dtype=bool)

        while True:
            visited[j0] = True
            i0 = assigned_row[j0]
            free = ~visited[:n]
            free_idx = np.flatnonzero(free)

            reduced = a[i0, free_idx] - u[i0] - v[free_idx]
            improve = reduced < min_slack[free_idx]
            upd = free_idx[improve]
            min_slack[upd] = reduced[improve]
            path_prev[upd] = j0

            j1 = free_idx[np.argmin(min_slack[free_idx])]
            delta = min_slack[j1]

            # Shift potentials of the tree so the cheapest outgoing edge
            # becomes tight; slacks of untouched columns shrink by delta.
            vis = visited[:n]
            u[assigned_row[:n][vis]] += delta
            u[i] += delta
            v[np.flatnonzero(vis)] -= delta
            v[n] -= delta
            min_slack[~vis] -= delta

            j0 = int(j1)
            if assigned_row[j0] == -1:
                break

        while j0 != n:
            jprev = int(path_prev[j0])
            assigned_row[j0] = assigned_row[jprev]
            j0 = jprev

    col_of_row = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        col_of_row[assigned_row[j]] = j
    return col_of_row


def solve_assignment(cost: CostMatrix) -> AssignmentResult:
    """Solve the assignment problem exactly for either orientation.

    Rectangular inputs are padded to square with zero-cost dummy rows, whose
    assignments are dropped. Maximization runs through the minimizing core on
    the negated matrix; the reported objective is always the sum of the
    selected cells of the original matrix.

    Raises
    ------
    InfeasibleError
        If some row has all cells forbidden, or no complete assignment can
        avoid forbidden cells.
    """
    work = _effective_min_matrix(cost)
    rows, cols = work.shape
    if rows < cols:
        work = np.vstack([work, np.zeros((cols - rows, cols))])
    col_of_row = _hungarian_min_square(work)[:rows]
    if cost.forbidden[np.arange(rows), col_of_row].any():
        raise InfeasibleError("no complete assignment avoids the forbidden cells")
    return AssignmentResult(
        column_of_row=tuple(int(c) for c in col_of_row),
        objective_value=_selection_value(cost.values, col_of_row),
    )


def replicate_rows(cost: CostMatrix, copies: int) -> CostMatrix:
    """Stack `copies` consecutive duplicates of every row.

    Solving the replicated matrix yields a quota-respecting multi-assignment:
    replicated row r originates from row r // copies, so merging rows back to
    their origin gives each original row `copies` distinct columns.
    """
    if not isinstance(copies, int) or copies < 1:
        raise ValidationError("copies must be a positive integer")
    if cost.num_rows * copies > cost.num_cols:
        raise InfeasibleError(
            f"quota infeasible: {cost.num_rows} rows x {copies} copies exceed "
            f"{cost.num_cols} columns"
        )
    return CostMatrix(
        values=np.repeat(cost.values, copies, axis=0),
        orientation=cost.orientation,
        forbidden=np.repeat(cost.forbidden, copies, axis=0),
    )

