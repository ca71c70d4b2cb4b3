"""Rectangular linear assignment.

A Hungarian (augmenting-path, dual-potential) solver handles minimize or
maximize cost matrices with R rows <= C columns. Forbidden cells are
missing edges: the solver never relaxes them, and a row whose shortest-path
tree reaches no free column makes the problem infeasible (Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE TAES 2016).
"""

from __future__ import annotations

import math
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

    Rows are assignees, columns are items; R <= C is required. The solver
    never reads an entry under the forbidden mask.
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
        # Forbidden slots are zero for display (the dump prints them as 0);
        # the solver never reads them.
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
    """Optimal row-to-column mapping.

    `column_of_row[i]` is the column assigned to row i; columns are pairwise
    distinct.
    """

    column_of_row: tuple[int, ...]


def _hungarian_min(costs: list[list[float]], allowed: list[list[bool]]) -> list[int]:
    """Exact minimum-cost matching of every row of an R x C matrix, R <= C.

    Augmenting-path Hungarian with row/column potentials over Python lists;
    one shortest-path tree per row, column index C acting as its root, and
    O(R^2 C) total work. Forbidden cells are never relaxed.
    """
    rows, n = len(costs), len(costs[0])
    u = [0.0] * rows
    v = [0.0] * n
    assigned_row = [-1] * n + [0]

    for i in range(rows):
        assigned_row[n] = i
        j0 = n
        min_slack = [math.inf] * n
        path_prev = [n] * n
        free = list(range(n))
        tree = []

        while assigned_row[j0] != -1:
            i0 = assigned_row[j0]
            row_costs, row_allowed, u0 = costs[i0], allowed[i0], u[i0]
            j1, delta = -1, math.inf
            for j in free:
                if row_allowed[j]:
                    reduced = row_costs[j] - u0 - v[j]
                    if reduced < min_slack[j]:
                        min_slack[j] = reduced
                        path_prev[j] = j0
                if min_slack[j] < delta:
                    j1, delta = j, min_slack[j]
            if j1 < 0:
                raise InfeasibleError("no complete assignment avoids the forbidden cells")

            # Shift potentials of the tree so the cheapest outgoing edge
            # becomes tight; slacks of columns outside it shrink by delta.
            u[i] += delta
            for j in tree:
                u[assigned_row[j]] += delta
                v[j] -= delta
            for j in free:
                min_slack[j] -= delta

            free.remove(j1)
            tree.append(j1)
            j0 = j1

        while j0 != n:
            assigned_row[j0] = assigned_row[path_prev[j0]]
            j0 = path_prev[j0]

    col_of_row = {r: j for j, r in enumerate(assigned_row[:n]) if r >= 0}
    return [col_of_row[r] for r in range(rows)]


def solve_assignment(cost: CostMatrix) -> AssignmentResult:
    """Solve the assignment problem exactly for either orientation.

    Maximization runs through the minimizing core on the negated matrix.

    Raises
    ------
    InfeasibleError
        If some row has all cells forbidden, or no complete assignment can
        avoid forbidden cells.
    """
    allowed = ~cost.forbidden
    bad_rows = np.flatnonzero(~allowed.any(axis=1))
    if bad_rows.size:
        raise InfeasibleError(f"row {int(bad_rows[0])} has no allowed cells")
    work = cost.values if cost.orientation == "minimize" else -cost.values
    return AssignmentResult(tuple(_hungarian_min(work.tolist(), allowed.tolist())))


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

