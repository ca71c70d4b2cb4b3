"""Rectangular linear assignment, with rows of capacity one or q.

A Hungarian (augmenting-path, dual-potential) solver handles minimize or
maximize cost matrices with R rows <= C columns. Forbidden cells are
missing edges: the solver never relaxes them, and a row whose shortest-path
tree reaches no free column makes the problem infeasible (Crouse, "On
implementing 2D rectangular assignment algorithms", IEEE TAES 2016).

`solve_capacitated` gives every row q distinct columns (capacity q) with
the same augmenting-path core, visiting a row once per shortest-path tree
where `replicate_rows` would make q copies of it compete (the "similar
persons" reduction: Bertsekas & Castanon, "The auction algorithm for the
transportation problem", Annals of OR 1989). When its rows fill every
column it first reduces the columns, so most units start owned and only
the rest need an augmenting path (Jonker & Volgenant, "A shortest
augmenting path algorithm for dense and sparse linear assignment
problems", Computing 1987).
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
    "solve_capacitated",
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
    """Optimal row-to-column mapping and the dual potentials that prove it.

    `column_of_row[i]` is the column assigned to row i; columns are pairwise
    distinct. `row_potentials` u and `column_potentials` v are the solver's
    duals in the cost's orientation: up to rounding, every allowed cell has
    values[i, j] - u[i] - v[j] >= 0 when minimizing (<= 0 when maximizing),
    with equality on the assigned cells, and every unassigned column has
    v = 0 exactly. Results compare by their columns alone.
    """

    column_of_row: tuple[int, ...]
    row_potentials: tuple[float, ...] = field(default=(), compare=False)
    column_potentials: tuple[float, ...] = field(default=(), compare=False)


def _hungarian_min(costs: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
    """Exact minimum-cost matching of every row of an R x C matrix, R <= C,
    returned as (column of each row, row potentials u, column potentials v).

    Augmenting-path Hungarian with row/column potentials over Python lists;
    one shortest-path tree per row, column index C acting as its root, and
    O(R^2 C) total work. A forbidden cell costs +inf: with u and v finite
    its reduced cost is inf, never below a slack, so it is never relaxed,
    and a row whose free slacks are all inf is infeasible. Each step's
    shift of the slacks outside the tree by delta is applied as the next
    step's scan reads them, the same subtraction on the same floats, so
    the chosen columns and potentials are those of shifting them all at
    once. At return c[i][j] - u[i] - v[j] >= 0 on every allowed cell, up to
    rounding, and is 0 on the matched ones; v only ever decreases from 0,
    and only on columns that end up matched.
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
        delta = 0.0

        while assigned_row[j0] != -1:
            i0 = assigned_row[j0]
            row_costs, u0 = costs[i0], u[i0]
            # The slacks of the free columns still owe the last step's delta.
            shift, j1, delta = delta, -1, math.inf
            for j in free:
                slack = min_slack[j] - shift
                reduced = row_costs[j] - u0 - v[j]
                if reduced < slack:
                    slack = reduced
                    path_prev[j] = j0
                min_slack[j] = slack
                if slack < delta:
                    j1, delta = j, slack
            if j1 < 0:
                raise InfeasibleError("no complete assignment avoids the forbidden cells")

            # Shift potentials of the tree so the cheapest outgoing edge
            # becomes tight; slacks of columns outside it shrink by delta.
            u[i] += delta
            for j in tree:
                u[assigned_row[j]] += delta
                v[j] -= delta

            free.remove(j1)
            tree.append(j1)
            j0 = j1

        while j0 != n:
            assigned_row[j0] = assigned_row[path_prev[j0]]
            j0 = path_prev[j0]

    col_of_row = {r: j for j, r in enumerate(assigned_row[:n]) if r >= 0}
    return [col_of_row[r] for r in range(rows)], u, v


def solve_assignment(cost: CostMatrix) -> AssignmentResult:
    """Solve the assignment problem exactly for either orientation.

    Maximization runs through the minimizing core on the negated matrix,
    and its potentials are negated back.

    Raises
    ------
    InfeasibleError
        If some row has all cells forbidden, or no complete assignment can
        avoid forbidden cells.
    """
    forbidden = cost.forbidden
    work = cost.values if cost.orientation == "minimize" else -cost.values
    if forbidden.any():
        bad_rows = np.flatnonzero(forbidden.all(axis=1))
        if bad_rows.size:
            raise InfeasibleError(f"row {int(bad_rows[0])} has no allowed cells")
        work = np.where(forbidden, np.inf, work)
    columns, u, v = _hungarian_min(work.tolist())
    if cost.orientation == "maximize":
        u, v = [-x for x in u], [-x for x in v]
    return AssignmentResult(tuple(columns), tuple(u), tuple(v))


def solve_capacitated(
    costs: list[list[float]], capacity: int
) -> tuple[list[int], list[float], list[float]]:
    """Minimum-cost choice of `capacity` distinct columns for every row of an
    R x C list of costs, R * capacity <= C, returned as (row owning each
    column, -1 if none; row potentials u; column potentials v).

    A forbidden cell costs +inf. This is the assignment `replicate_rows`
    builds, solved without the copies: a row keeps one potential, and when
    a shortest-path tree reaches a row through one of its columns, all of
    the row's columns join the tree at that distance, so its matched edges
    stay tight and the tree scans the row once, not once per copy. Rows are
    filled in index order, one augmenting path per missing unit of
    capacity, each step shifting the tree's potentials lazily as
    `_hungarian_min` does. At return c[i][j] - u[i] - v[j] >= 0 on every
    allowed cell, up to rounding, and is 0 on the matched ones. O(R C^2)
    work in all (capacity * R <= C augmentations, each scanning at most R
    rows).

    Two starts. When R * capacity < C, u and v start at 0: at capacity 1
    every float operation is `_hungarian_min`'s, in its order, and so are
    the columns and potentials; v only ever decreases from 0, and only on
    columns that end up owned, so every unowned column keeps v = 0.
    When R * capacity == C every column ends up owned, and the solve starts
    from a column reduction (Jonker & Volgenant): v[j] is column j's
    cheapest cost and the column goes to its first cheapest row while that
    row has room (a column with every cell forbidden keeps v = 0 and no
    owner). Every reduced cost starts >= 0 and the owned ones at 0, so the
    augmenting paths stay exact, and on a random 8 x 32 draw at capacity 4
    about 6 of the 32 units still need one. The columns are an optimum;
    the potentials differ from the zero start's, and on ties the columns
    may too.

    Raises
    ------
    InfeasibleError
        If no choice avoids the forbidden cells.
    """
    rows, n = len(costs), len(costs[0])
    u = [0.0] * rows
    v = [0.0] * n
    owner = [-1] * n
    columns: list[list[int]] = [[] for _ in range(rows)]
    if rows * capacity == n:
        # Column reduction: every reduced cost starts >= 0, the owned ones 0.
        for j, column in enumerate(zip(*costs)):
            low = min(column)
            if low < math.inf:
                v[j] = low
                i = column.index(low)
                if len(columns[i]) < capacity:
                    owner[j] = i
                    columns[i].append(j)

    for i in range(rows):
        while len(columns[i]) < capacity:
            min_slack = [math.inf] * n
            path_prev = [i] * n  # the tree row whose scan set a column's slack
            entry = {}  # the column through which each tree row joined
            tree_rows = [i]
            tree = list(columns[i])
            free = [j for j in range(n) if owner[j] != i]
            i0, delta = i, 0.0

            while True:
                row_costs, u0 = costs[i0], u[i0]
                # The slacks of the free columns still owe the last step's delta.
                shift, j1, delta = delta, -1, math.inf
                for j in free:
                    slack = min_slack[j] - shift
                    reduced = row_costs[j] - u0 - v[j]
                    if reduced < slack:
                        slack = reduced
                        path_prev[j] = i0
                    min_slack[j] = slack
                    if slack < delta:
                        j1, delta = j, slack
                if j1 < 0:
                    raise InfeasibleError("no complete assignment avoids the forbidden cells")

                for k in tree_rows:
                    u[k] += delta
                for j in tree:
                    v[j] -= delta
                free.remove(j1)
                i0 = owner[j1]
                if i0 < 0:
                    break
                # The owner joins, and every column it owns joins at its distance.
                entry[i0] = j1
                tree_rows.append(i0)
                for j in columns[i0]:
                    tree.append(j)
                    if j != j1:
                        free.remove(j)

            # Hand the free column to the row whose scan reached it; each row
            # on the path passes on the column it joined through.
            while True:
                k = path_prev[j1]
                owner[j1] = k
                if k == i:
                    columns[i].append(j1)
                    break
                j0 = entry[k]
                columns[k][columns[k].index(j0)] = j1
                j1 = j0

    return owner, u, v


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

