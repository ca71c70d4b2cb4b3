"""Exhaustive oracles the tests check the package against.

`brute_force_assignment` evaluates every injection of rows into columns,
and `selection_value` is the objective of an assignment's selected cells;
`hungarian_min` is a second, one-column-per-row augmenting-path loop that
the package's capacitated loop must match float for float at capacity 1,
`replicate_rows` copies every row of a matrix for a quota, and
`hungarian_assignment` solves a `CostMatrix` with `hungarian_min`;
`water_fill_by_set` is the closed-form water-fill of one set at a time,
which the package's array `water_fill` must match bit for bit;
`enumerate_partitions` yields every quota partition in enumeration order,
and `optimal_by_enumeration` water-fills (through `water_fill_by_set`) and
scores each one; `equal_split` and `concentrate_on_best` are
the simpler power rules the water-filling dominance checks compare with.
None is used by the package itself.
"""

import math
from itertools import combinations

import numpy as np

from multiband_alloc.allocators import OPTIMAL, Allocation, _score
from multiband_alloc.assignment import AssignmentResult, CostMatrix
from multiband_alloc.errors import GuardError, InfeasibleError, ValidationError
from multiband_alloc.power import WaterFillResult

_ENUM_CHUNK = 1 << 18


def _enumerate_injections(num_cols: int, num_rows: int) -> np.ndarray:
    """All ordered choices of `num_rows` distinct columns, lexicographic."""
    prefixes = np.zeros((1, 0), dtype=np.int16)
    avail = np.ones((1, num_cols), dtype=bool)
    all_cols = np.arange(num_cols, dtype=np.int16)
    for depth in range(num_rows):
        m = prefixes.shape[0]
        parent = np.repeat(np.arange(m), num_cols - depth)
        chosen = np.broadcast_to(all_cols, (m, num_cols))[avail]
        prefixes = np.concatenate([prefixes[parent], chosen[:, None]], axis=1)
        avail = avail[parent]
        avail[np.arange(avail.shape[0]), chosen] = False
    return prefixes


def brute_force_assignment(cost: CostMatrix, max_columns: int = 10) -> AssignmentResult:
    """Exhaustive assignment oracle: evaluates every injection of rows into columns.

    Same contract as :func:`solve_assignment`; intended for validation only.
    Forbidden cells cost infinity, so an injection through one never wins,
    and no injection with a finite total means no complete assignment. The
    candidate count is C! / (C-R)!, so matrices wider than `max_columns`
    are rejected.
    """
    if cost.num_cols > max_columns:
        raise GuardError(
            f"oracle size guard: {cost.num_cols} columns exceed the limit of {max_columns}"
        )
    allowed = ~cost.forbidden
    bad_rows = np.flatnonzero(~allowed.any(axis=1))
    if bad_rows.size:
        raise InfeasibleError(f"row {int(bad_rows[0])} has no allowed cells")
    signed = cost.values if cost.orientation == "minimize" else -cost.values
    work = np.where(allowed, signed, np.inf)
    rows, _ = work.shape
    perms = _enumerate_injections(cost.num_cols, rows)
    row_idx = np.arange(rows)[None, :]

    best_val = np.inf
    best_cols = None
    for start in range(0, perms.shape[0], _ENUM_CHUNK):
        block = perms[start : start + _ENUM_CHUNK].astype(np.int64)
        totals = work[row_idx, block].sum(axis=1)
        pos = int(np.argmin(totals))
        if totals[pos] < best_val:
            best_val = float(totals[pos])
            best_cols = block[pos]

    if best_cols is None:
        raise InfeasibleError("no complete assignment avoids the forbidden cells")
    return AssignmentResult(column_of_row=tuple(int(c) for c in best_cols))


def selection_value(cost: CostMatrix, result: AssignmentResult) -> float:
    """Canonical objective of an assignment: the selected cells of the
    original matrix summed in row order, so equal selections from the solver
    and the oracle give bit-identical values."""
    total = 0.0
    for i, j in enumerate(result.column_of_row):
        total += float(cost.values[i, j])
    return total


def hungarian_min(costs: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
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


def hungarian_assignment(cost: CostMatrix) -> AssignmentResult:
    """The columns `hungarian_min` gives `cost` in its minimizing form
    (negated when maximizing), forbidden cells +inf."""
    work = cost.values if cost.orientation == "minimize" else -cost.values
    columns, _, _ = hungarian_min(np.where(cost.forbidden, np.inf, work).tolist())
    return AssignmentResult(column_of_row=tuple(columns))


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


def _as_gain_set(gains) -> np.ndarray:
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValidationError("gains must be a non-empty 1-D list")
    if not np.isfinite(g).all() or (g < 0).any():
        raise ValidationError("gains must be finite and >= 0")
    return g


def water_fill_by_set(gains, budget: float) -> WaterFillResult:
    """Closed-form water-fill of one set: admit channels in order of
    decreasing gain while the level (budget + sum of admitted 1/H) /
    #admitted clears the worst admitted channel. A set with no positive
    gain gets zero powers and an infinite level."""
    g = _as_gain_set(gains)
    if not np.isfinite(budget) or budget < 0.0:
        raise ValidationError("budget must be finite and >= 0")
    usable = np.flatnonzero(g > 0)
    if usable.size == 0:
        return WaterFillResult(powers=np.zeros(g.size), water_level=math.inf)

    inv = 1.0 / g[usable]
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    prefix = np.cumsum(inv_sorted)
    sizes = np.arange(1, inv_sorted.size + 1, dtype=float)

    levels = (budget + prefix) / sizes
    feasible = np.flatnonzero(levels > inv_sorted)
    n_active = int(feasible[-1]) + 1 if feasible.size else 0

    powers = np.zeros(g.size)
    if n_active == 0:
        mu = float(inv_sorted[0])
    else:
        mu = float(levels[n_active - 1])
        chosen = usable[order[:n_active]]
        powers[chosen] = mu - inv_sorted[:n_active]
    return WaterFillResult(powers=powers, water_level=mu)


def _water_filled_by_set(params, h, sets) -> np.ndarray:
    powers = np.zeros((params.num_links, params.num_subchannels))
    for k, subset in enumerate(sets):
        subset = list(subset)
        powers[k, subset] = water_fill_by_set(h[k, subset], params.power_budgets[k]).powers
    return powers


def enumerate_partitions(num_subchannels: int, num_links: int):
    """Yield every ordered partition, lexicographic in each link's choice.

    Each partition is a tuple of `num_links` sorted index tuples of size
    floor(N/K); surplus sub-channels are simply left out.
    """
    quota = num_subchannels // num_links

    def recurse(remaining: tuple[int, ...], depth: int, chosen: tuple):
        if depth == num_links:
            yield chosen
            return
        for subset in combinations(remaining, quota):
            rest = tuple(n for n in remaining if n not in subset)
            yield from recurse(rest, depth + 1, chosen + (subset,))

    yield from recurse(tuple(range(num_subchannels)), 0, ())


def optimal_by_enumeration(params, chan) -> Allocation:
    """Exhaustive optimum oracle: water-fill each link's set one at a time
    and score every partition in enumeration order; the first one with the
    strictly highest rate wins."""
    h = chan.normalized_gains
    best_rate, best = -math.inf, None
    for cand in enumerate_partitions(params.num_subchannels, params.num_links):
        powers = _water_filled_by_set(params, h, cand)
        rate = _score([params], h[None], [0], [cand], powers[None])[0].total_rate
        if rate > best_rate:
            best_rate, best = rate, (cand, powers)
    return Allocation(*best, OPTIMAL)


def equal_split(set_size: int, budget: float) -> np.ndarray:
    """Uniform split of the budget across a set of `set_size` sub-channels."""
    if not isinstance(set_size, int) or set_size < 1:
        raise ValidationError("set_size must be a positive integer")
    if not np.isfinite(budget) or budget < 0.0:
        raise ValidationError("budget must be finite and >= 0")
    return np.full(set_size, budget / set_size)


def concentrate_on_best(gains, budget: float) -> np.ndarray:
    """All budget on the highest-gain channel; ties go to the lowest index."""
    g = _as_gain_set(gains)
    if not np.isfinite(budget) or budget < 0.0:
        raise ValidationError("budget must be finite and >= 0")
    powers = np.zeros(g.size)
    powers[int(np.argmax(g))] = budget
    return powers
