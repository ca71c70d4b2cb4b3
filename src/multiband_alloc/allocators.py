"""End-to-end sub-channel/power allocation strategies and the exact scorer.

Every strategy is a set selection followed by a named power rule. The
selection maps a channel realization to exactly floor(N/K) sub-channels per
link (surplus sub-channels stay idle when K does not divide N); the rule
splits each link's budget over its set:

- low_snr: one-per-link assignment on P*H, then `concentrate`;
- high_snr: assignment on ln H at capacity q per link (certified, with a
  replicated fallback), then `equal_split`;
- optimal: the best water-filled partition, then `water_fill`;
- max_select: greedy strongest-gain walk, then `water_fill` or `equal_split`.

The table `STRATEGIES` says this once: for each tag it names the selection
and the power rule. A selection maps a budget grid to one (sets, trace) per
point, as a function (points, chan, partition_guard): `high_snr` and
`max_select` read the channel alone and repeat one result, `low_snr` builds
every point's P*H in one multiply and solves one assignment per trial,
reusing its columns at every other point where that solve's dual
potentials prove them optimal (`_low_snr_sets`), `high_snr` solves one
capacity-q assignment per trial and keeps it where its potentials prove it
the unique optimum, falling back to the quota-replicated solve elsewhere
(`_high_snr_sets`), and `optimal` water-fills one rate table for the whole
grid. Both Hungarian selections solve with the one augmenting-path loop,
`assignment.solve_capacitated`, on lists of costs: `low_snr` at capacity
1 on -P*H, `high_snr` at capacity q on -ln H and its fallback at capacity
1 on those lists with every row copied q times; `_owned_sets` reads each
link's columns from the solve's owners. `allocate(tag, params, chan)` is
the one entry point that runs a strategy: it dispatches through the table
on a one-point grid. The trace keeps the assignment a Hungarian selection
solved, for instance dumps. The low_snr selection lists each link's
assigned sub-channel first, which is where `concentrate` puts the budget.
All strategies are scored with the same exact sum-rate formula; their
regime approximations only drive the selections.
`power_selections` and `exact_sum_rates` power and score the selections of
C cells at once, as a sweep does for one strategy over every (trial,
budget) cell of a chunk of trials: cell c reads its trial's gains from a
(T, K, N) stack of realizations by index, never from a per-cell copy.
`allocate` and `exact_sum_rate` are the one-cell case. Before scoring,
`validate_allocations` checks the C cells in one array check over their
(C, K, q) sets and (C, K, N) powers; only when a cell fails does it run
the one-cell `validate_allocation` on each cell in turn, so the first
failing cell raises with that check's message.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .assignment import CostMatrix, solve_capacitated
from .channel import ChannelParams, ChannelRealization
from .errors import GuardError, InfeasibleError, ValidationError
from .power import water_fill

__all__ = [
    "LOW_SNR",
    "HIGH_SNR",
    "OPTIMAL",
    "MAX_SELECT",
    "STRATEGY_ORDER",
    "APPROX_RATES",
    "Allocation",
    "AssignmentTrace",
    "RateReport",
    "validate_allocation",
    "validate_allocations",
    "exact_sum_rate",
    "exact_sum_rates",
    "linear_approx_rate",
    "log_approx_rate",
    "low_snr_cost_matrix",
    "high_snr_cost_matrix",
    "Strategy",
    "STRATEGIES",
    "allocate",
    "power_selections",
    "partition_count",
    "POWER_RULES",
    "check_power_rule",
    "check_partition_guard",
]

LOW_SNR = "low_snr"
HIGH_SNR = "high_snr"
OPTIMAL = "optimal"
MAX_SELECT = "max_select"
STRATEGY_ORDER = (LOW_SNR, HIGH_SNR, OPTIMAL, MAX_SELECT)

DEFAULT_PARTITION_GUARD = 10**6
# The named power rules; max_select may use either of POWER_RULES.
CONCENTRATE, EQUAL_SPLIT, WATER_FILL = "concentrate", "equal_split", "water_fill"
POWER_RULES = (WATER_FILL, EQUAL_SPLIT)
DEFAULT_MAX_SELECT_POWER_RULE = WATER_FILL
_LN2 = math.log(2.0)
_BUDGET_SLACK = 1e-9
# Most water-filled elements `optimal`'s rate table holds at once.
_TABLE_CHUNK = 1 << 16
# Margin, relative to the largest |cost| of an allowed cell, by which a
# certified assignment must beat every other one (`_certified`).
_CERTIFY_TOL = 1e-9
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class AssignmentTrace:
    """The assignment a Hungarian strategy solved: the read-only K x N
    values of its per-link cost matrix (forbidden cells 0), a label for its
    entries, and the column of each row. Row r is link r, or link r // copies
    when each link takes `copies` columns: high_snr lists each link's set
    sorted, link by link, whichever solve chose it. A low_snr point whose
    columns were reused from another point's solve keeps its own P*H values
    and the columns its own solve gives."""

    label: str
    values: np.ndarray
    column_of_row: tuple[int, ...]
    copies: int | None = None


@dataclass(frozen=True)
class Allocation:
    """Sub-channel sets and transmit powers chosen by one strategy.

    `subchannels_of_link[k]` is the sorted, pairwise-disjoint set assigned to
    link k (size floor(N/K)); `powers` is the K x N matrix of transmit powers
    in W, zero outside the assigned sets. `trace` holds the assignment the
    strategy solved, if it solved one.
    """

    subchannels_of_link: tuple[tuple[int, ...], ...]
    powers: np.ndarray
    strategy_tag: str
    trace: AssignmentTrace | None = None

    def __post_init__(self):
        powers = np.asarray(self.powers, dtype=float)
        powers.setflags(write=False)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(
            self,
            "subchannels_of_link",
            tuple(tuple(map(int, s)) for s in self.subchannels_of_link),
        )


@dataclass(frozen=True)
class RateReport:
    """Exact per-link rates and their total, in bit/s."""

    per_link_rate: tuple[float, ...]
    total_rate: float


def validate_allocation(params: ChannelParams, alloc: Allocation) -> None:
    """Check every Allocation invariant, naming the first violated constraint.

    A link's power sum may exceed its budget by 1e-9 of max(1, budget), the
    rounding a closed-form water-fill leaves at large budgets.
    """
    k_links = params.num_links
    n_sub = params.num_subchannels
    quota = params.quota
    sets = alloc.subchannels_of_link
    if len(sets) != k_links:
        raise ValidationError(f"subchannels_of_link must have {k_links} entries, got {len(sets)}")
    seen: set[int] = set()
    for k, subset in enumerate(sets):
        if len(subset) != quota:
            raise ValidationError(f"link {k}: quota is {quota} sub-channels, got {len(subset)}")
        for n in subset:
            if not (0 <= n < n_sub):
                raise ValidationError(f"link {k}: sub-channel index {n} out of range")
            if n in seen:
                raise ValidationError(f"sub-channel {n} assigned to more than one link")
            seen.add(n)
    powers = alloc.powers
    if powers.shape != (k_links, n_sub):
        raise ValidationError(f"powers must have shape ({k_links}, {n_sub}), got {powers.shape}")
    if not np.isfinite(powers).all():
        raise ValidationError("powers must be finite")
    if (powers < 0).any():
        k, n = np.argwhere(powers < 0)[0]
        raise ValidationError(f"link {k}: negative power on sub-channel {n}")
    for k, subset in enumerate(sets):
        stray = [n for n in np.flatnonzero(powers[k]) if n not in subset]
        if stray:
            raise ValidationError(f"link {k}: positive power on unassigned sub-channel {stray[0]}")
        total = float(powers[k].sum())
        budget = params.power_budgets[k]
        if total > budget + _BUDGET_SLACK * max(1.0, budget):
            raise ValidationError(f"link {k}: power sum {total!r} exceeds budget {budget!r}")


def validate_allocations(points, allocs) -> tuple[np.ndarray, np.ndarray]:
    """Check C allocations at once, allocation c under the params
    `points[c]`, for every invariant `validate_allocation` checks, and
    return their (C, K, q) sets and (C, K, N) powers as arrays.

    One array check covers all cells (`_cells_pass`). If any cell fails
    it, every cell goes through `validate_allocation` in order, so the
    first failing cell raises with the one-cell message.
    """
    try:
        sets = np.array([alloc.subchannels_of_link for alloc in allocs])
        powers = np.stack([alloc.powers for alloc in allocs])
    except ValueError:  # ragged sets, or powers of more than one shape
        sets = powers = None
    if sets is None or not _cells_pass(points, sets, powers):
        for params, alloc in zip(points, allocs):
            validate_allocation(params, alloc)
    return sets, powers


def _cells_pass(points, sets: np.ndarray, powers: np.ndarray) -> bool:
    """True if every cell c, with sets `sets[c]` and powers `powers[c]`,
    passes `validate_allocation` under `points[c]`: set count and quota,
    index range, sub-channels disjoint across links, power shape, finite
    and non-negative powers, none outside the sets, and each link's sum,
    the same `powers[k].sum()` float, within the same slack of its budget.
    Every cell must share the first cell's K and N."""
    cells = len(points)
    k_links, n_sub = points[0].num_links, points[0].num_subchannels
    if {(params.num_links, params.num_subchannels) for params in points} != {(k_links, n_sub)}:
        return False
    if sets.shape != (cells, k_links, n_sub // k_links) or powers.shape != (cells, k_links, n_sub):
        return False
    if not ((sets >= 0) & (sets < n_sub)).all():
        return False
    assigned = np.zeros(powers.shape, dtype=bool)
    assigned[np.arange(cells)[:, None, None], np.arange(k_links)[None, :, None], sets] = True
    # A cell's K * q indices are distinct iff they cover K * q sub-channels.
    if np.count_nonzero(assigned.any(axis=1)) != sets.size:
        return False
    if not np.isfinite(powers).all() or (powers < 0).any() or powers.any(where=~assigned):
        return False
    budgets = np.array([params.power_budgets for params in points])
    return not (powers.sum(axis=2) > budgets + _BUDGET_SLACK * np.maximum(1.0, budgets)).any()


def _link_sums(snr: list[float], size: int, budgets) -> list[float]:
    """Sum of log2(1 + p*H) over each consecutive run of `size` entries of
    `snr`, a flat list of p*H products. A run is one link's set; its terms
    add from 0.0 in set order. The products are Python floats, so one that
    overflowed is inf, not a numpy warning; the first run whose sum is not
    finite raises, naming `budgets[i]`, the budget of run i's link."""
    terms = [math.log1p(x) / _LN2 for x in snr]
    sums = [0.0] * (len(terms) // size)
    for j in range(size):
        sums = list(map(operator.add, sums, terms[j::size]))
    if not all(map(math.isfinite, sums)):
        i = [math.isfinite(s) for s in sums].index(False)
        raise ValidationError(f"power budget {budgets[i]:g} W times a normalized gain overflows")
    return sums


def _score(points, gains: np.ndarray, trials, sets, powers: np.ndarray) -> list[RateReport]:
    """Exact rates of C cells at once: cell c scores its K sets `sets[c]`,
    each of the same size, with the K x N powers `powers[c]` of a (C, K, N)
    array on the gains `gains[trials[c]]` of a (T, K, N) array, under the
    params `points[c]`. One `_link_sums` call sums every link over its set
    in set order; link k's rate is (B/N) times its sum, and the total adds
    links in index order, so every caller gets bit-identical scores for
    equal allocations."""
    sets = np.asarray(sets)
    cells, k_links, quota = sets.shape
    cell, link = np.arange(cells)[:, None, None], np.arange(k_links)[None, :, None]
    trial = np.asarray(trials)[:, None, None]
    with np.errstate(over="ignore"):
        snr = powers[cell, link, sets] * gains[trial, link, sets]
    budgets = [budget for params in points for budget in params.power_budgets]
    sums = _link_sums(snr.ravel().tolist(), quota, budgets)
    reports = []
    for c, params in enumerate(points):
        link_sums = sums[c * k_links : (c + 1) * k_links]
        per_link = tuple(params.subchannel_bandwidth * s for s in link_sums)
        total = 0.0
        for rate in per_link:
            total += rate
        reports.append(RateReport(per_link, total))
    return reports


def exact_sum_rates(points, gains: np.ndarray, trials, allocs) -> list[RateReport]:
    """Score C allocations with the exact objective, allocation c under the
    params `points[c]` on the normalized gains `gains[trials[c]]` of a
    (T, K, N) stack of realizations: one `validate_allocations` call checks
    them all first, then one `_score` call scores them."""
    sets, powers = validate_allocations(points, allocs)
    return _score(points, gains, trials, sets, powers)


def exact_sum_rate(
    params: ChannelParams, chan: ChannelRealization, alloc: Allocation
) -> RateReport:
    """Score an allocation with the exact objective.

    R_k = (B/N) * sum over assigned n of log2(1 + p_{k,n} * H_{k,n}); the
    report carries each link's rate and their total. The allocation is
    validated first. This is `exact_sum_rates` for one allocation.
    """
    return exact_sum_rates([params], chan.normalized_gains[None], [0], [alloc])[0]


def linear_approx_rate(
    params: ChannelParams, chan: ChannelRealization, alloc: Allocation
) -> float:
    """Low-SNR linearized objective: (B/N)/ln2 * sum of p * H."""
    return (
        params.subchannel_bandwidth
        / _LN2
        * float((alloc.powers * chan.normalized_gains).sum())
    )


def log_approx_rate(params: ChannelParams, chan: ChannelRealization, alloc: Allocation) -> float:
    """High-SNR log objective: (B/N) * sum over powered channels of log2(p * H).

    Returns -inf if a powered channel has zero gain.
    """
    powered = alloc.powers > 0
    if not powered.any():
        return 0.0
    x = alloc.powers[powered] * chan.normalized_gains[powered]
    with np.errstate(divide="ignore"):
        return params.subchannel_bandwidth * float(np.log2(x).sum())


# The regime objective each strategy's selection optimizes; the others
# optimize the exact objective only.
APPROX_RATES = {LOW_SNR: linear_approx_rate, HIGH_SNR: log_approx_rate}


def _apply_power(
    rule: str, gains: np.ndarray, trials, sets: np.ndarray, budgets: np.ndarray
) -> np.ndarray:
    """(C, K, N) powers from one named rule applied to C selections at once.

    `sets` is a (C, K, q) array of every link's set in selection order,
    `budgets` a (C, K) array and `gains` a (T, K, N) stack of realizations:
    cell c splits budgets[c, k] over sets[c, k] on the gains
    `gains[trials[c]]`. "concentrate" puts the whole budget on the first
    sub-channel of the set, the one its selection ranked first;
    "equal_split" spreads it evenly; "water_fill" water-fills it, every set
    of every cell in one call, and a set with no positive gain stays
    unpowered (its rate is zero either way).
    """
    cells, k_links, quota = sets.shape
    cell, link = np.arange(cells)[:, None, None], np.arange(k_links)[None, :, None]
    powers = np.zeros((cells, k_links, gains.shape[2]))
    if rule == CONCENTRATE:
        powers[cell[..., 0], link[..., 0], sets[..., 0]] = budgets
    elif rule == EQUAL_SPLIT:
        powers[cell, link, sets] = budgets[..., None] / quota
    else:
        trial = np.asarray(trials)[:, None, None]
        powers[cell, link, sets] = water_fill(gains[trial, link, sets], budgets).powers
    return powers


def _low_snr_values(points, chan: ChannelRealization) -> np.ndarray:
    """The read-only (B, K, N) P*H values of every point of a budget grid,
    from one multiply; the first point with an overflowing product raises."""
    budgets = np.array([params.power_budgets for params in points])[:, :, None]
    with np.errstate(over="ignore"):
        values = budgets * chan.normalized_gains
    overflows = np.isinf(values).any(axis=(1, 2))
    if overflows.any():
        params = points[int(np.argmax(overflows))]
        raise ValidationError(
            f"power budget {max(params.power_budgets):g} W times a normalized gain overflows"
        )
    values.setflags(write=False)
    return values


def low_snr_cost_matrix(params: ChannelParams, chan: ChannelRealization) -> CostMatrix:
    """Maximize matrix c[k, n] = P_k * H[k, n] for the one-per-link assignment."""
    return CostMatrix(values=_low_snr_values([params], chan)[0], orientation="maximize")


def _high_snr_costs(h: np.ndarray) -> list[list[float]]:
    """high_snr's costs -ln H as lists for `solve_capacitated`, +inf on
    zero gains. ln is `math.log` over `h.tolist()`, so its bits do not
    depend on which CPU features numpy dispatches to."""
    return [[-math.log(g) if g > 0 else math.inf for g in row] for row in h.tolist()]


def _high_snr_values(h: np.ndarray, costs: list[list[float]]) -> np.ndarray:
    """The read-only array of ln H from `_high_snr_costs`, zero-gain cells 0
    as `CostMatrix` stores its forbidden cells."""
    values = -np.array(costs)
    values[h <= 0] = 0.0
    values.setflags(write=False)
    return values


def high_snr_cost_matrix(params: ChannelParams, chan: ChannelRealization) -> CostMatrix:
    """Maximize matrix c[k, n] = ln H[k, n], zero-gain cells forbidden."""
    h = chan.normalized_gains
    return CostMatrix(_high_snr_values(h, _high_snr_costs(h)), "maximize", forbidden=h <= 0)


def _low_snr_sets(points, chan: ChannelRealization, partition_guard: int):
    """At each point, one sub-channel per link from the assignment
    maximizing the sum of P_k * H over links, listed first in its set. The
    remaining quota slots are padded round-robin over links in index order,
    each taking its highest-gain unassigned sub-channel (ties to the lowest
    index). The padding reads the assigned columns and H alone, so it runs
    once per distinct assignment of the grid.

    Each point gets the columns its own solve would give (`solve_capacitated`
    at capacity 1 on -P*H, as `solve_assignment` solves the maximizing
    `low_snr_cost_matrix`), but most points are not solved. Call a point
    scalable if its budgets are one positive P for every link and each of
    its P*H products is 0 (a zero gain) or a normal float. The first scalable point is solved; every
    later scalable point reuses its columns if that solve's potentials
    certify them (`_certified`) by a margin of tol * max P*H, tol =
    `_CERTIFY_TOL` = 1e-9. Every other point is solved on its own: budget 0,
    budgets that differ by link, subnormal or underflowing products, and
    every point of a grid whose certificate fails (ties, near-ties).

    Why that is exact. Scalable points' matrices are one matrix scaled:
    fl(P' H) = (P'/P) fl(P H) up to a relative 2^-52 per entry, so the
    first solve's potentials scaled by P'/P leave every reduced cost within
    about 2^-52 * max P'H of its scaled value. A certificate says every
    other assignment crosses a non-matching edge whose reduced cost exceeds
    the margin, while the others are >= 0 and the matched ones 0 up to the
    solver's rounding; so at every scalable point the certified assignment
    is the unique optimum, by about 1e-9 * max P'H. The solver's own
    rounding, a few ulps of its potentials summed over at most 2K edges,
    stays below K^2 * 2^-50 * max P'H (about 1e-12 at K = 32), orders of
    magnitude inside that margin, so a point's own solve cannot return any
    other assignment.
    """
    h = chan.normalized_gains
    quota = points[0].quota
    values = _low_snr_values(points, chan)
    budgets = np.array([params.power_budgets for params in points])
    uniform = (budgets > 0).all(axis=1) & (budgets == budgets[:, :1]).all(axis=1)
    normal = ((values >= _SMALLEST_NORMAL) | (h == 0)).all(axis=(1, 2))
    scalable = (uniform & normal).tolist()
    first = scalable.index(True) if True in scalable else -1
    shared = None  # the first scalable point's columns, once certified
    padded: dict[tuple[int, ...], list[list[int]]] = {}
    selections = []
    for b, cell in enumerate(values):
        if scalable[b] and shared is not None:
            columns = shared
        else:
            costs = (-cell).tolist()
            owner, u, v = solve_capacitated(costs, 1)
            sets = _owned_sets(owner, len(costs))
            columns = tuple(n for (n,) in sets)
            if b == first and _certified(costs, sets, u, v, float(cell.max())):
                shared = columns
        if columns not in padded:
            padded[columns] = _pad_round_robin(h, columns, quota)
        selections.append((padded[columns], AssignmentTrace("maximize, P*H", cell, columns)))
    return selections


def _certified(costs: list[list[float]], sets, u: list[float], v: list[float], scale: float) -> bool:
    """True if a minimizing solve of the K x N list `costs` (forbidden
    cells +inf) that gave row k the columns `sets[k]`, with row potentials
    u and column potentials v, is proved by them to beat every other choice
    of as many columns per row by more than tol * `scale`, the largest
    |cost| of an allowed cell; tol = `_CERTIFY_TOL` (see `_low_snr_sets`).

    Call an edge near if its reduced cost c[k][n] - u[k] - v[n] is at most
    that margin. Another choice differs from this one by alternating
    cycles and by alternating paths ending in a column this one leaves
    free (every row keeps its count, so no path ends at a row); each costs
    at least the reduced costs of its new edges, as the solvers leave v = 0
    on unowned columns and v <= 0 on owned ones whenever a column is left
    unowned (with every column owned there is no such path). So the proof
    holds when no near unmatched edge reaches a free column, and the near
    unmatched edges, read as row k -> the row owning column n, form no
    cycle.
    """
    owner = [-1] * len(v)
    for k, columns in enumerate(sets):
        for n in columns:
            owner[n] = k
    margin = _CERTIFY_TOL * scale
    near = []  # near[k]: the rows owning a column that row k reaches by a near edge
    for k, (row, uk) in enumerate(zip(costs, u)):
        owners = set()
        for c, vn, m in zip(row, v, owner):
            if c - uk - vn <= margin:
                owners.add(m)
        owners.discard(k)  # its own columns
        if -1 in owners:
            return False
        near.append(owners)
    # Peel rows with no near edge into the rows left; a cycle never peels.
    left = set(range(len(costs)))
    while left:
        peel = {k for k in left if not near[k] & left}
        if not peel:
            return False
        left -= peel
    return True


def _owned_sets(owner: list[int], num_links: int, copies: int = 1) -> list[list[int]]:
    """Each link's columns, ascending, from the row owning each column
    (-1 if none) that `solve_capacitated` returns; row r is link r // copies."""
    sets: list[list[int]] = [[] for _ in range(num_links)]
    for n, r in enumerate(owner):
        if r >= 0:
            sets[r // copies].append(n)
    return sets


def _pad_round_robin(h: np.ndarray, columns: tuple[int, ...], quota: int) -> list[list[int]]:
    """Link k's set: columns[k], then quota - 1 round-robin picks of its
    highest-gain sub-channel left free (ties to the lowest index: `max`
    keeps the first maximum of the free sub-channels in index order)."""
    rows = h.tolist()
    sets = [[c] for c in columns]
    taken = set(columns)
    free = [n for n in range(len(rows[0])) if n not in taken]
    for _ in range(quota - 1):
        for link_sets, row in zip(sets, rows):
            pick = max(free, key=row.__getitem__)
            link_sets.append(pick)
            free.remove(pick)
    return sets


def _high_snr_sets(points, chan: ChannelRealization, partition_guard: int):
    """Each link's quota of sub-channels, sorted, from the assignment on
    ln H that gives every link quota distinct ones with the largest sum;
    zero-gain cells are forbidden. The channel alone decides it, so every
    point gets the same selection.

    `solve_capacitated` solves it with each link's row at capacity quota.
    Its sets are kept when its potentials certify them (`_certified`, by
    tol * max |ln H| over the allowed cells): then they are the unique
    optimum by far more than either solve's rounding (the argument of
    `_low_snr_sets`), which is also what the replicated solve returns: the
    same loop at capacity 1 on the lists with every row copied quota
    times, row r standing for link r // quota. Any other draw (ties,
    near-ties) takes that replicated solve, so the sets are the replicated
    solve's in every case.
    """
    params = points[0]
    quota = params.quota
    h = chan.normalized_gains
    usable_counts = (h > 0).sum(axis=1)
    short = np.flatnonzero(usable_counts < quota)
    if short.size:
        k = int(short[0])
        raise InfeasibleError(
            f"link {k} has only {int(usable_counts[k])} usable sub-channels; quota is {quota}"
        )
    costs = _high_snr_costs(h)
    values = _high_snr_values(h, costs)
    owner, u, v = solve_capacitated(costs, quota)
    sets = _owned_sets(owner, params.num_links)
    # max |ln H| over the allowed cells: the forbidden ones hold 0.
    if not _certified(costs, sets, u, v, float(np.abs(values).max())):
        owner, _, _ = solve_capacitated([row for row in costs for _ in range(quota)], 1)
        sets = _owned_sets(owner, params.num_links, quota)
    label = "maximize, ln H; forbidden cells printed as 0"
    trace = AssignmentTrace(label, values, tuple(n for s in sets for n in s), quota)
    return [(sets, trace)] * len(points)


def partition_count(num_subchannels: int, num_links: int) -> int:
    """Number of ordered partitions into quota-sized disjoint link sets."""
    quota = num_subchannels // num_links
    return math.prod(math.comb(num_subchannels - k * quota, quota) for k in range(num_links))


@lru_cache(maxsize=8)
def _partition_levels(num_subchannels: int, num_links: int):
    """Every ordered partition as levels of indices into `subsets`, built
    once per (N, K) and returned as (subsets, columns, picks).

    `subsets` lists the quota sets in `combinations(range(N), q)` order and
    `columns` is the same as an array. `picks[k - 1]` has one row per prefix
    of k link sets, in partition order, and one column per continuation:
    each quota set of the sub-channels the prefix leaves free, lexicographic
    over them. Partition i is continuation i % width of prefix i // width
    of the last level, and so on down.
    """
    quota = num_subchannels // num_links
    subsets = tuple(combinations(range(num_subchannels), quota))
    columns = np.array(subsets)
    free = np.arange(num_subchannels)[None, :]  # each prefix's free sub-channels
    picks = []
    for _ in range(1, num_links):
        width = free.shape[1]
        rest = [[n for n in range(width) if n not in c] for c in combinations(range(width), quota)]
        free = free[:, rest].reshape(-1, width - quota)
        chosen = np.array(list(combinations(range(width - quota), quota)))
        # A sorted set c is subsets[C(N, q) - 1 - sum over i of C(N - 1 - c_i, q - i)].
        pick = len(subsets) - 1
        for i in range(quota):
            term = [math.comb(num_subchannels - 1 - n, quota - i) for n in range(num_subchannels)]
            pick = pick - np.array(term)[free[:, chosen[:, i]]]
        pick.setflags(write=False)
        picks.append(pick)
    columns.setflags(write=False)
    return subsets, columns, tuple(picks)


def _rate_table(points, h: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(B, K, C) water-filled link rates: entry [b, k, i] is link k's rate
    on the quota set `columns[i]` at the budgets of `points[b]`, the same
    float the scorer gives that link in every partition that hands it that
    set. The (B * K * C) sets are water-filled in chunks of at most
    `_TABLE_CHUNK` elements (one set if a set is larger), each one
    `water_fill` call and one `_link_sums` pass over flat lists."""
    k_links = h.shape[0]
    n_sets, quota = columns.shape
    budgets = np.array([params.power_budgets for params in points]).ravel()
    rows = budgets.size * n_sets
    step = max(1, _TABLE_CHUNK // quota)
    sums: list[float] = []
    for start in range(0, rows, step):
        row = np.arange(start, min(start + step, rows))
        link_of = row // n_sets  # b * K + k
        gains = h[(link_of % k_links)[:, None], columns[row % n_sets]]
        with np.errstate(over="ignore"):
            snr = water_fill(gains, budgets[link_of]).powers * gains
        sums += _link_sums(snr.ravel().tolist(), quota, budgets[link_of])
    bandwidths = np.array([params.subchannel_bandwidth for params in points])
    return bandwidths[:, None, None] * np.array(sums).reshape(len(points), k_links, n_sets)


def _optimal_sets(points, chan: ChannelRealization, partition_guard: int):
    """At each point, the partition with the best water-filled rate:
    exhaustive search over K * C(N, floor(N/K)) link rates from one rate
    table for the whole grid. The first partition with the highest rate
    wins, in enumeration order. The search folds the links into one array
    of partition totals per point over `_partition_levels`, cached per
    (N, K); the structure and the fold each hold about one integer or float
    per partition."""
    n_sub = points[0].num_subchannels
    k_links = points[0].num_links
    count = partition_count(n_sub, k_links)
    if count > partition_guard:
        raise GuardError(
            f"instance too large: {count} candidate partitions exceed the guard "
            f"of {partition_guard} (K={k_links}, N={n_sub})"
        )
    subsets, columns, picks = _partition_levels(n_sub, k_links)
    selections = []
    for rates in _rate_table(points, chan.normalized_gains, columns):
        # Partition totals add the link rates in index order, as the scorer
        # does, with partitions in enumeration order; argmax keeps the
        # first maximum.
        totals = rates[0]
        for k, pick in enumerate(picks, start=1):
            totals = (totals[:, None] + rates[k, pick]).ravel()
        i = int(np.argmax(totals))
        sets = []
        for pick in reversed(picks):
            i, j = divmod(i, pick.shape[1])
            sets.insert(0, subsets[pick[i, j]])
        selections.append(([subsets[i], *sets], None))
    return selections


def _max_select_sets(points, chan: ChannelRealization, partition_guard: int):
    """Greedy walk: repeatedly hand the globally strongest remaining gain to
    its link until every quota is filled. Only links with unfilled quota
    and still-unassigned sub-channels compete; ties break toward the lowest
    (link, sub-channel) pair. The channel alone decides it, so every point
    gets the same selection."""
    params = points[0]
    h = chan.normalized_gains
    n_sub = params.num_subchannels
    quota = params.quota
    # Stable argsort of the flattened gains keeps ties in (link, sub-channel)
    # order, which makes the walk identical to repeated global argmax.
    order = np.argsort(-h, axis=None, kind="stable").tolist()
    sets: list[list[int]] = [[] for _ in range(params.num_links)]
    taken = [False] * n_sub
    unfilled = params.num_links * quota
    for flat in order:
        k, n = divmod(flat, n_sub)
        if len(sets[k]) < quota and not taken[n]:
            sets[k].append(n)
            taken[n] = True
            unfilled -= 1
            if unfilled == 0:
                break
    return [(sets, None)] * len(points)


@dataclass(frozen=True)
class Strategy:
    """One entry of `STRATEGIES`.

    `select(points, chan, partition_guard)` takes a budget grid, a list of
    params that differ only in their budgets, and returns one (sets, trace)
    per point, equal to what it returns for that point alone; only
    `optimal` reads the guard, before any other work. `power_rule` is None
    where the caller names the rule (max_select).
    """

    select: Callable
    power_rule: str | None


STRATEGIES = {
    LOW_SNR: Strategy(_low_snr_sets, CONCENTRATE),
    HIGH_SNR: Strategy(_high_snr_sets, EQUAL_SPLIT),
    OPTIMAL: Strategy(_optimal_sets, WATER_FILL),
    MAX_SELECT: Strategy(_max_select_sets, None),
}


def check_power_rule(rule: str) -> None:
    """Reject a max_select power rule that is not one of POWER_RULES."""
    if rule not in POWER_RULES:
        raise ValidationError(f"max_select_power_rule must be one of {POWER_RULES}")


def check_partition_guard(guard: int) -> None:
    """Reject a partition guard below 1."""
    if guard < 1:
        raise ValidationError("partition_guard must be >= 1")


def allocate(
    strategy: str,
    params: ChannelParams,
    chan: ChannelRealization,
    *,
    partition_guard: int = DEFAULT_PARTITION_GUARD,
    max_select_power_rule: str = DEFAULT_MAX_SELECT_POWER_RULE,
) -> Allocation:
    """Select one strategy's sets and power them, dispatching by tag
    through `STRATEGIES` on a one-point grid. Only `optimal` reads
    `partition_guard` and only `max_select` uses `max_select_power_rule`,
    but a bad guard or rule is rejected for every tag."""
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGY_ORDER}")
    check_partition_guard(partition_guard)
    check_power_rule(max_select_power_rule)
    selections = STRATEGIES[strategy].select([params], chan, partition_guard)
    gains = chan.normalized_gains[None]
    return power_selections(strategy, [params], gains, [0], selections, max_select_power_rule)[0]


def power_selections(
    strategy: str,
    points,
    gains: np.ndarray,
    trials,
    selections,
    max_select_power_rule: str,
) -> list[Allocation]:
    """Power C selections (sets, trace) of one strategy by its rule, one
    `_apply_power` call for all of them, selection c at the budgets of
    the params `points[c]` on the gains `gains[trials[c]]` of a (T, K, N)
    stack of realizations, and package each cell's sets, sorted."""
    rule = STRATEGIES[strategy].power_rule or max_select_power_rule
    budgets = np.array([params.power_budgets for params in points])
    sets = np.array([cell_sets for cell_sets, _ in selections])
    powers = _apply_power(rule, gains, trials, sets, budgets)
    return [
        Allocation(tuple(tuple(sorted(s)) for s in cell_sets), cell_powers, strategy, trace)
        for (cell_sets, trace), cell_powers in zip(selections, powers)
    ]
