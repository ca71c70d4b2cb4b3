"""Exhaustive oracles the tests check the package against.

Assignments take the package's one cost format, R lists of C floats,
minimized, +inf on forbidden cells: `minimizing_lists` builds them from a
matrix of either orientation and a forbidden mask, and `assigned_columns`
reads each row's column from the package's capacity-1 solve.
`brute_force_assignment` evaluates every injection of rows into columns,
and `selection_value` is the objective of an assignment's selected cells;
`hungarian_min` is a second, one-column-per-row augmenting-path loop that
the package's capacitated loop must match float for float at capacity 1,
and `replicate_rows` copies every row of the lists for a quota;
`water_fill_by_set` is the closed-form water-fill of one set at a time,
which the package's array `water_fill` must match bit for bit;
`enumerate_partitions` yields every quota partition in enumeration order,
and `optimal_by_enumeration` water-fills (through `water_fill_by_set`) and
scores each one; `equal_split` and `concentrate_on_best` are
the simpler power rules the water-filling dominance checks compare with.
Three are the loops that array code in the package replaced:
`link_sums_by_list` is the scorer's per-element log-sum over Python lists,
`pad_round_robin_by_scan` is low_snr's padding as a scan of the free
sub-channels per pick, and `optimal_sets_by_row` folds `optimal`'s partition
totals one (trial, point) cell at a time over the package's rate table.
None is used by the package itself.
"""

import math
import operator
from itertools import combinations

import numpy as np

from multiband_alloc.allocators import (
    OPTIMAL,
    Allocation,
    _partition_levels,
    _rate_tables,
    _score,
)
from multiband_alloc.assignment import solve_capacitated
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


def minimizing_lists(values, orientation: str, forbidden=None) -> list[list[float]]:
    """The cost lists that minimize the matrix `values` in its orientation
    ("minimize", or "maximize" by negation), +inf on the cells of the
    boolean mask `forbidden`."""
    work = np.array(values, dtype=float)
    if orientation == "maximize":
        work = -work
    if forbidden is not None:
        work[np.asarray(forbidden, dtype=bool)] = np.inf
    return work.tolist()


def _check_rows(costs: list[list[float]]) -> None:
    """Name the first row of `costs` with no allowed (finite) cell."""
    for i, row in enumerate(costs):
        if min(row) == math.inf:
            raise InfeasibleError(f"row {i} has no allowed cells")


def assigned_columns(costs: list[list[float]]) -> tuple[int, ...]:
    """Each row's column in `solve_capacitated(costs, 1)`; a row with no
    allowed cell raises first, naming it."""
    _check_rows(costs)
    owner, _, _ = solve_capacitated(costs, 1)
    return tuple(owner.index(i) for i in range(len(costs)))


def brute_force_assignment(costs: list[list[float]], max_columns: int = 10) -> tuple[int, ...]:
    """Exhaustive assignment oracle: evaluates every injection of rows into
    columns of the minimizing lists `costs` and returns each row's column.

    Same contract as `assigned_columns`; intended for validation only.
    Forbidden cells cost infinity, so an injection through one never wins,
    and no injection with a finite total means no complete assignment. The
    candidate count is C! / (C-R)!, so matrices wider than `max_columns`
    are rejected.
    """
    rows, cols = len(costs), len(costs[0])
    if cols > max_columns:
        raise GuardError(f"oracle size guard: {cols} columns exceed the limit of {max_columns}")
    _check_rows(costs)
    work = np.array(costs, dtype=float)
    perms = _enumerate_injections(cols, rows)
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
    return tuple(int(c) for c in best_cols)


def selection_value(values, columns) -> float:
    """Canonical objective of an assignment: the cells `values[i][columns[i]]`
    summed in row order, so equal selections from the solver and the
    oracle give bit-identical values."""
    total = 0.0
    for i, j in enumerate(columns):
        total += float(values[i][j])
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


def replicate_rows(costs: list[list[float]], copies: int) -> list[list[float]]:
    """Stack `copies` consecutive duplicates of every row of the lists `costs`.

    Solving the replicated lists yields a quota-respecting multi-assignment:
    replicated row r originates from row r // copies, so merging rows back to
    their origin gives each original row `copies` distinct columns.
    """
    if not isinstance(copies, int) or copies < 1:
        raise ValidationError("copies must be a positive integer")
    rows, cols = len(costs), len(costs[0])
    if rows * copies > cols:
        raise InfeasibleError(
            f"quota infeasible: {rows} rows x {copies} copies exceed {cols} columns"
        )
    return [row for row in costs for _ in range(copies)]


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
        _, totals = _score(params, np.array([params.power_budgets]), h[None], [0], [cand], powers[None])
        rate = totals[0]
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


def link_sums_by_list(snr: list[float], size: int, budgets) -> list[float]:
    """Sum of log2(1 + x) over each consecutive run of `size` entries of the
    list `snr`, element by element: `math.log1p(x) / ln 2` per entry, added
    from 0.0 in run order. The first run whose sum is not finite raises,
    naming `budgets[i]`."""
    ln2 = math.log(2.0)
    terms = [math.log1p(x) / ln2 for x in snr]
    sums = [0.0] * (len(terms) // size)
    for j in range(size):
        sums = list(map(operator.add, sums, terms[j::size]))
    if not all(map(math.isfinite, sums)):
        i = [math.isfinite(s) for s in sums].index(False)
        raise ValidationError(f"power budget {budgets[i]:g} W times a normalized gain overflows")
    return sums


def pad_round_robin_by_scan(h, columns, quota: int) -> list[list[int]]:
    """Link k's set: columns[k], then quota - 1 round-robin picks, each the
    first maximum over the free sub-channels in index order of link k's
    gains `h[k]`."""
    rows = np.asarray(h).tolist()
    sets = [[c] for c in columns]
    taken = set(columns)
    free = [n for n in range(len(rows[0])) if n not in taken]
    for _ in range(quota - 1):
        for link_sets, row in zip(sets, rows):
            pick = max(free, key=row.__getitem__)
            link_sets.append(pick)
            free.remove(pick)
    return sets


def optimal_sets_by_row(params, budgets, gains) -> list[list[tuple[int, ...]]]:
    """`optimal`'s selection for every (trial, point) cell of a (T, K, N)
    stack of gains at a (B, K) budget grid, trial-major, folding the
    partition totals of one cell at a time over the package's rate table:
    link rates added in index order, the first maximum wins."""
    subsets, columns, picks = _partition_levels(params.num_subchannels, params.num_links)
    selections = []
    for table in _rate_tables(params, budgets, gains, columns):
        for rates in table:
            totals = rates[0]
            for k, pick in enumerate(picks, start=1):
                totals = (totals[:, None] + rates[k, pick]).ravel()
            i = int(np.argmax(totals))
            sets = []
            for pick in reversed(picks):
                i, j = divmod(i, pick.shape[1])
                sets.insert(0, subsets[pick[i, j]])
            selections.append([subsets[i], *sets])
    return selections
