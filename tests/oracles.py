"""Exhaustive oracles the tests check the package against.

`brute_force_assignment` evaluates every injection of rows into columns;
`optimal_by_enumeration` water-fills and scores every quota partition;
`concentrate_on_best` is the single-channel power rule the water-filling
dominance checks compare with. None is used by the package itself.
"""

import math

import numpy as np

from multiband_alloc.allocators import (
    OPTIMAL,
    WATER_FILL,
    Allocation,
    _allocation,
    _apply_power,
    _score,
    enumerate_partitions,
)
from multiband_alloc.assignment import (
    AssignmentResult,
    CostMatrix,
    _effective_min_matrix,
    _selection_value,
)
from multiband_alloc.errors import GuardError, InfeasibleError, ValidationError
from multiband_alloc.power import _as_gain_array

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
    The candidate count is C! / (C-R)!, so matrices wider than `max_columns`
    are rejected.
    """
    if cost.num_cols > max_columns:
        raise GuardError(
            f"oracle size guard: {cost.num_cols} columns exceed the limit of {max_columns}"
        )
    work = _effective_min_matrix(cost)
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

    if cost.forbidden[np.arange(rows), best_cols].any():
        raise InfeasibleError("no complete assignment avoids the forbidden cells")
    return AssignmentResult(
        column_of_row=tuple(int(c) for c in best_cols),
        objective_value=_selection_value(cost.values, best_cols),
    )


def optimal_by_enumeration(params, chan) -> Allocation:
    """Exhaustive optimum oracle: water-fill and score every partition in
    enumeration order; the first one with the strictly highest rate wins."""
    h = chan.normalized_gains
    best_rate, best_sets = -math.inf, None
    for cand in enumerate_partitions(params.num_subchannels, params.num_links):
        rate = _score(params, h, cand, _apply_power(WATER_FILL, params, h, cand))[1]
        if rate > best_rate:
            best_rate, best_sets = rate, cand
    return _allocation(OPTIMAL, WATER_FILL, params, chan, best_sets, None)


def concentrate_on_best(gains, budget: float) -> np.ndarray:
    """All budget on the highest-gain channel; ties go to the lowest index."""
    g = _as_gain_array(gains)
    if not np.isfinite(budget) or budget < 0.0:
        raise ValidationError("budget must be finite and >= 0")
    powers = np.zeros(g.size)
    powers[int(np.argmax(g))] = budget
    return powers
