"""End-to-end sub-channel/power allocation strategies and the exact scorer.

Every strategy is a set selection followed by a named power rule. The
selection maps a channel realization to exactly floor(N/K) sub-channels per
link (surplus sub-channels stay idle when K does not divide N); the rule
splits each link's budget over its set:

- low_snr: one-per-link assignment on P*H, then `concentrate`;
- high_snr: quota-replicated assignment on ln H, then `equal_split`;
- optimal: the best water-filled partition, then `water_fill`;
- max_select: greedy strongest-gain walk, then `water_fill` or `equal_split`.

The table `STRATEGIES` says this once: for each tag it names the selection,
a function (params, chan, partition_guard) -> (sets, trace), the power
rule, and whether the selection reads the power budget. `low_snr` (on
P*H) and `optimal` (water-filled rates) do; the `high_snr` and
`max_select` selections read the channel alone, so a sweep runs them once
per trial. `allocate(tag, params, chan)` is the one entry point that runs a
strategy: it dispatches through the table. The trace keeps the assignment
a Hungarian selection solved, for instance dumps. The low_snr selection
lists each link's assigned sub-channel first, which is where `concentrate`
puts the budget. All strategies are scored with the same exact sum-rate
formula; their regime approximations only drive the selections.
`power_selections` and `exact_sum_rates` power and score the selections of
B cells at once, as a sweep does for one strategy over its budget grid;
`allocate` and `exact_sum_rate` are the one-cell case.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .assignment import CostMatrix, replicate_rows, solve_assignment
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
    "exact_sum_rate",
    "exact_sum_rates",
    "linear_approx_rate",
    "log_approx_rate",
    "low_snr_cost_matrix",
    "high_snr_cost_matrix",
    "Strategy",
    "STRATEGIES",
    "allocate",
    "power_selection",
    "power_selections",
    "partition_count",
    "POWER_RULES",
    "check_power_rule",
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


@dataclass(frozen=True)
class AssignmentTrace:
    """The assignment a Hungarian strategy solved: its per-link cost matrix
    (before row replication), a label for its entries, and the column of
    each solver row. Row r is link r, or link r // copies if rows were
    replicated."""

    label: str
    cost: CostMatrix
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
            tuple(tuple(int(n) for n in s) for s in self.subchannels_of_link),
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


def _link_rate(params: ChannelParams, k: int, powers, gains) -> float:
    """Exact rate of link k over one set: (B/N) * sum of log2(1 + p*H) over
    the paired entries of `powers` and `gains`, added in set order. Both
    are lists of floats, so an overflowing p*H gives inf, not a numpy
    warning, and is reported here."""
    link = 0.0
    for p, g in zip(powers, gains):
        link += math.log1p(p * g) / _LN2
    if not math.isfinite(link):
        raise ValidationError(
            f"power budget {params.power_budgets[k]:g} W times a normalized gain overflows"
        )
    return params.subchannel_bandwidth * link


def _score(points, h: np.ndarray, sets, powers: np.ndarray) -> list[RateReport]:
    """Exact rates of B cells at once: cell b scores sorted sets `sets[b]`
    with the K x N powers `powers[b]` of a (B, K, N) array under the params
    `points[b]`. One loop walks the `.tolist()` rows; each link is scored by
    `_link_rate` over its set and the total adds links in index order, so
    every caller gets bit-identical scores for equal allocations."""
    h_rows = h.tolist()
    reports = []
    for params, cell_sets, p_rows in zip(points, sets, powers.tolist()):
        per_link = tuple(
            _link_rate(params, k, [p_rows[k][n] for n in subset], [h_rows[k][n] for n in subset])
            for k, subset in enumerate(cell_sets)
        )
        total = 0.0
        for rate in per_link:
            total += rate
        reports.append(RateReport(per_link, total))
    return reports


def exact_sum_rates(points, chan: ChannelRealization, allocs) -> list[RateReport]:
    """Score B allocations of one realization with the exact objective,
    allocation b under the params `points[b]`: each is validated first,
    then one `_score` call scores them all."""
    for params, alloc in zip(points, allocs):
        validate_allocation(params, alloc)
    powers = np.stack([alloc.powers for alloc in allocs])
    sets = [alloc.subchannels_of_link for alloc in allocs]
    return _score(points, chan.normalized_gains, sets, powers)


def exact_sum_rate(
    params: ChannelParams, chan: ChannelRealization, alloc: Allocation
) -> RateReport:
    """Score an allocation with the exact objective.

    R_k = (B/N) * sum over assigned n of log2(1 + p_{k,n} * H_{k,n}); the
    report carries each link's rate and their total. The allocation is
    validated first. This is `exact_sum_rates` for one allocation.
    """
    return exact_sum_rates([params], chan, [alloc])[0]


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


def _apply_power(rule: str, h: np.ndarray, sets: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """(B, K, N) powers from one named rule applied to B selections at once.

    `sets` is a (B, K, q) array of every link's set in selection order and
    `budgets` a (B, K) array: cell b splits budgets[b, k] over sets[b, k].
    "concentrate" puts the whole budget on the first sub-channel of the set,
    the one its selection ranked first; "equal_split" spreads it evenly;
    "water_fill" water-fills it, every set of every cell in one call, and a
    set with no positive gain stays unpowered (its rate is zero either way).
    """
    cells, k_links, quota = sets.shape
    cell, link = np.arange(cells)[:, None, None], np.arange(k_links)[None, :, None]
    powers = np.zeros((cells, k_links, h.shape[1]))
    if rule == CONCENTRATE:
        powers[cell[..., 0], link[..., 0], sets[..., 0]] = budgets
    elif rule == EQUAL_SPLIT:
        powers[cell, link, sets] = budgets[..., None] / quota
    else:
        powers[cell, link, sets] = water_fill(h[link, sets], budgets).powers
    return powers


def low_snr_cost_matrix(params: ChannelParams, chan: ChannelRealization) -> CostMatrix:
    """Maximize matrix c[k, n] = P_k * H[k, n] for the one-per-link assignment."""
    budgets = np.asarray(params.power_budgets)[:, None]
    with np.errstate(over="ignore"):
        values = budgets * chan.normalized_gains
    if np.isinf(values).any():
        raise ValidationError(
            f"power budget {max(params.power_budgets):g} W times a normalized gain overflows"
        )
    return CostMatrix(values=values, orientation="maximize")


def high_snr_cost_matrix(params: ChannelParams, chan: ChannelRealization) -> CostMatrix:
    """Maximize matrix c[k, n] = ln H[k, n], zero-gain cells forbidden."""
    h = chan.normalized_gains
    usable = h > 0
    values = np.log(h, where=usable, out=np.zeros_like(h))
    return CostMatrix(values=values, orientation="maximize", forbidden=~usable)


def _low_snr_sets(params: ChannelParams, chan: ChannelRealization, partition_guard: int):
    """One sub-channel per link from the assignment maximizing the sum of
    P_k * H over links, listed first in its set. The remaining quota slots
    are padded round-robin over links in index order, each taking its
    highest-gain unassigned sub-channel (ties to the lowest index)."""
    cost = low_snr_cost_matrix(params, chan)
    result = solve_assignment(cost)
    h = chan.normalized_gains
    n_sub = params.num_subchannels
    sets = [[c] for c in result.column_of_row]
    taken = set(result.column_of_row)
    for _ in range(params.quota - 1):
        for k in range(params.num_links):
            avail = [n for n in range(n_sub) if n not in taken]
            pick = avail[int(np.argmax(h[k, avail]))]
            sets[k].append(pick)
            taken.add(pick)
    return sets, AssignmentTrace("maximize, P*H", cost, result.column_of_row)


def _high_snr_sets(params: ChannelParams, chan: ChannelRealization, partition_guard: int):
    """Each link's quota from one assignment on ln H with every link's row
    replicated quota times; zero-gain cells are forbidden."""
    quota = params.quota
    usable_counts = (chan.normalized_gains > 0).sum(axis=1)
    short = np.flatnonzero(usable_counts < quota)
    if short.size:
        k = int(short[0])
        raise InfeasibleError(
            f"link {k} has only {int(usable_counts[k])} usable sub-channels; quota is {quota}"
        )
    cost = high_snr_cost_matrix(params, chan)
    result = solve_assignment(replicate_rows(cost, quota))
    sets: list[list[int]] = [[] for _ in range(params.num_links)]
    for row, col in enumerate(result.column_of_row):
        sets[row // quota].append(col)
    label = "maximize, ln H; forbidden cells printed as 0"
    return sets, AssignmentTrace(label, cost, result.column_of_row, quota)


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


def _optimal_sets(params: ChannelParams, chan: ChannelRealization, partition_guard: int):
    """The partition with the best water-filled rate: exhaustive search over
    a table of K * C(N, floor(N/K)) link rates. The first partition with the
    highest rate wins, in enumeration order. The search folds the links
    into one array of partition totals over `_partition_levels`, cached per
    (N, K); the structure and the fold each hold about one integer or
    float per partition."""
    n_sub = params.num_subchannels
    k_links = params.num_links
    count = partition_count(n_sub, k_links)
    if count > partition_guard:
        raise GuardError(
            f"instance too large: {count} candidate partitions exceed the guard "
            f"of {partition_guard} (K={k_links}, N={n_sub})"
        )
    subsets, columns, picks = _partition_levels(n_sub, k_links)
    # The objective is separable by link: rates[k, i] is link k's
    # water-filled rate on subsets[i], the same float the scorer gives that
    # link in every partition that hands it that set.
    gains = chan.normalized_gains[:, columns]
    budgets = np.asarray(params.power_budgets)[:, None]
    powers = water_fill(gains, budgets).powers.tolist()
    rates = np.array(
        [
            [_link_rate(params, k, *rows) for rows in zip(powers[k], gains_k)]
            for k, gains_k in enumerate(gains.tolist())
        ]
    )

    # Partition totals add the link rates in index order, as the scorer
    # does, with partitions in enumeration order; argmax keeps the first
    # maximum.
    totals = rates[0]
    for k, pick in enumerate(picks, start=1):
        totals = (totals[:, None] + rates[k, pick]).ravel()
    i = int(np.argmax(totals))
    sets = []
    for pick in reversed(picks):
        i, j = divmod(i, pick.shape[1])
        sets.insert(0, subsets[pick[i, j]])
    return [subsets[i], *sets], None


def _max_select_sets(params: ChannelParams, chan: ChannelRealization, partition_guard: int):
    """Greedy walk: repeatedly hand the globally strongest remaining gain to
    its link until every quota is filled. Only links with unfilled quota
    and still-unassigned sub-channels compete; ties break toward the lowest
    (link, sub-channel) pair."""
    h = chan.normalized_gains
    n_sub = params.num_subchannels
    quota = params.quota
    # Stable argsort of the flattened gains keeps ties in (link, sub-channel)
    # order, which makes the walk identical to repeated global argmax.
    order = np.argsort(-h, axis=None, kind="stable")
    sets: list[list[int]] = [[] for _ in range(params.num_links)]
    taken = np.zeros(n_sub, dtype=bool)
    unfilled = params.num_links * quota
    for flat in order:
        k, n = divmod(int(flat), n_sub)
        if len(sets[k]) < quota and not taken[n]:
            sets[k].append(n)
            taken[n] = True
            unfilled -= 1
            if unfilled == 0:
                break
    return sets, None


@dataclass(frozen=True)
class Strategy:
    """One entry of `STRATEGIES`.

    `select(params, chan, partition_guard)` returns (sets, trace); only
    `optimal` reads the guard. `power_rule` is None where the caller names
    the rule (max_select). `reads_budget` is False for a selection that
    reads the channel alone, whose sets then hold for every budget of one
    realization.
    """

    select: Callable
    power_rule: str | None
    reads_budget: bool


STRATEGIES = {
    LOW_SNR: Strategy(_low_snr_sets, CONCENTRATE, reads_budget=True),
    HIGH_SNR: Strategy(_high_snr_sets, EQUAL_SPLIT, reads_budget=False),
    OPTIMAL: Strategy(_optimal_sets, WATER_FILL, reads_budget=True),
    MAX_SELECT: Strategy(_max_select_sets, None, reads_budget=False),
}


def check_power_rule(rule: str) -> None:
    """Reject a max_select power rule that is not one of POWER_RULES."""
    if rule not in POWER_RULES:
        raise ValidationError(f"max_select_power_rule must be one of {POWER_RULES}")


def allocate(
    strategy: str,
    params: ChannelParams,
    chan: ChannelRealization,
    *,
    partition_guard: int = DEFAULT_PARTITION_GUARD,
    max_select_power_rule: str = DEFAULT_MAX_SELECT_POWER_RULE,
) -> Allocation:
    """Select one strategy's sets and power them, dispatching by tag
    through `STRATEGIES`. Only `optimal` reads `partition_guard` and only
    `max_select` uses `max_select_power_rule`, but a bad rule is rejected
    for every tag."""
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGY_ORDER}")
    check_power_rule(max_select_power_rule)
    selection = STRATEGIES[strategy].select(params, chan, partition_guard)
    return power_selection(strategy, params, chan, selection, max_select_power_rule)


def power_selections(
    strategy: str,
    points,
    chan: ChannelRealization,
    selections,
    max_select_power_rule: str,
) -> list[Allocation]:
    """Power B selections (sets, trace) of one strategy by its rule, one
    `_apply_power` call for all of them, selection b at the budgets of
    the params `points[b]`, and package each cell's sets, sorted."""
    rule = STRATEGIES[strategy].power_rule or max_select_power_rule
    budgets = np.array([params.power_budgets for params in points])
    sets = np.array([cell_sets for cell_sets, _ in selections])
    powers = _apply_power(rule, chan.normalized_gains, sets, budgets)
    return [
        Allocation(tuple(tuple(sorted(s)) for s in cell_sets), cell_powers, strategy, trace)
        for (cell_sets, trace), cell_powers in zip(selections, powers)
    ]


def power_selection(
    strategy: str,
    params: ChannelParams,
    chan: ChannelRealization,
    selection,
    max_select_power_rule: str,
) -> Allocation:
    """Power one selection's (sets, trace) by the strategy's rule at the
    budgets of `params`: `power_selections` for one cell."""
    return power_selections(strategy, [params], chan, [selection], max_select_power_rule)[0]
