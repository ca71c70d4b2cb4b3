"""End-to-end sub-channel/power allocation strategies and the exact scorer.

Every strategy is a set selection followed by a named power rule. The
selection maps a channel realization to exactly floor(N/K) sub-channels per
link (surplus sub-channels stay idle when K does not divide N); the rule
splits each link's budget over its set:

- low_snr: one-per-link assignment on P*H, then `concentrate`;
- high_snr: quota-replicated assignment on ln H, then `equal_split`;
- optimal: the best water-filled partition, then `water_fill`;
- max_select: greedy strongest-gain walk, then `water_fill` or `equal_split`.

A selection is a function (params, chan) -> (sets, trace); the trace keeps
the assignment a Hungarian selection solved, for instance dumps. The
low_snr selection lists each link's assigned sub-channel first, which is
where `concentrate` puts the budget. All strategies are scored with the
same exact sum-rate formula; their regime approximations only drive the
selections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .assignment import CostMatrix, replicate_rows, solve_assignment
from .channel import ChannelParams, ChannelRealization
from .errors import GuardError, InfeasibleError, ValidationError
from .power import equal_split, water_fill

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
    "linear_approx_rate",
    "log_approx_rate",
    "low_snr_cost_matrix",
    "high_snr_cost_matrix",
    "low_snr_allocate",
    "high_snr_allocate",
    "optimal_allocate",
    "max_select_allocate",
    "allocate",
    "partition_count",
    "enumerate_partitions",
    "POWER_RULES",
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
_LN2 = math.log(2.0)
_BUDGET_SLACK = 1e-9
_CACHED_PARTITION_LIMIT = 20_000


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


def _score(params: ChannelParams, h: np.ndarray, sets, powers: np.ndarray):
    """Exact per-link rates and their total. Each link sums log2(1 + p*H)
    in set order and scales by B/N; the total adds links in index order, so
    every caller gets bit-identical scores for equal allocations."""
    bw = params.subchannel_bandwidth
    per_link = []
    total = 0.0
    for k, subset in enumerate(sets):
        p_row, h_row = powers[k], h[k]
        link = 0.0
        for n in subset:
            link += math.log1p(p_row[n] * h_row[n]) / _LN2
        rate = bw * link
        per_link.append(rate)
        total += rate
    return tuple(per_link), total


def exact_sum_rate(
    params: ChannelParams, chan: ChannelRealization, alloc: Allocation
) -> RateReport:
    """Score an allocation with the exact objective.

    R_k = (B/N) * sum over assigned n of log2(1 + p_{k,n} * H_{k,n}); the
    report carries each link's rate and their total. The allocation is
    validated first.
    """
    validate_allocation(params, alloc)
    return RateReport(*_score(params, chan.normalized_gains, alloc.subchannels_of_link, alloc.powers))


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


def _apply_power(rule: str, params: ChannelParams, h: np.ndarray, sets) -> np.ndarray:
    """K x N powers from one named rule applied to every link's set.

    "concentrate" puts the whole budget on the first sub-channel of the set,
    the one its selection ranked first; "equal_split" spreads it evenly;
    "water_fill" water-fills it, and leaves a set with no positive gain
    unpowered (its rate is zero either way).
    """
    powers = np.zeros((params.num_links, params.num_subchannels))
    for k, subset in enumerate(sets):
        budget = params.power_budgets[k]
        if rule == CONCENTRATE:
            powers[k, subset[0]] = budget
        elif rule == EQUAL_SPLIT:
            powers[k, subset] = equal_split(len(subset), budget)
        else:
            gains = h[k, subset]
            if (gains > 0).any():
                powers[k, subset] = water_fill(gains, budget).powers
    return powers


def _allocation(tag: str, rule: str, params, chan, sets, trace) -> Allocation:
    """Power the selected sets with `rule` and package them, sorted."""
    powers = _apply_power(rule, params, chan.normalized_gains, sets)
    return Allocation(tuple(tuple(sorted(s)) for s in sets), powers, tag, trace)


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
    values = np.where(usable, np.log(h, where=usable, out=np.zeros_like(h)), 0.0)
    return CostMatrix(values=values, orientation="maximize", forbidden=~usable)


def _low_snr_sets(params: ChannelParams, chan: ChannelRealization):
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


def low_snr_allocate(params: ChannelParams, chan: ChannelRealization) -> Allocation:
    """Low-SNR strategy: one powered sub-channel per link via the assignment solver.

    The solver maximizes sum of P_k * H over one-sub-channel-per-link
    assignments; the full budget lands on the assigned sub-channel. The
    remaining quota slots are filled with zero-power sub-channels,
    round-robin over links in index order, each taking its highest-gain
    unassigned sub-channel (ties to the lowest index).
    """
    return _allocation(LOW_SNR, CONCENTRATE, params, chan, *_low_snr_sets(params, chan))


def _high_snr_sets(params: ChannelParams, chan: ChannelRealization):
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


def high_snr_allocate(params: ChannelParams, chan: ChannelRealization) -> Allocation:
    """High-SNR strategy: quota-replicated log-gain assignment, equal power split."""
    return _allocation(HIGH_SNR, EQUAL_SPLIT, params, chan, *_high_snr_sets(params, chan))


def partition_count(num_subchannels: int, num_links: int) -> int:
    """Number of ordered partitions into quota-sized disjoint link sets."""
    quota = num_subchannels // num_links
    return math.prod(math.comb(num_subchannels - k * quota, quota) for k in range(num_links))


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


@lru_cache(maxsize=32)
def _partition_table(num_subchannels: int, num_links: int) -> tuple:
    return tuple(enumerate_partitions(num_subchannels, num_links))


def _optimal_sets(params: ChannelParams, chan: ChannelRealization, partition_guard: int):
    n_sub = params.num_subchannels
    k_links = params.num_links
    count = partition_count(n_sub, k_links)
    if count > partition_guard:
        raise GuardError(
            f"instance too large: {count} candidate partitions exceed the guard "
            f"of {partition_guard} (K={k_links}, N={n_sub})"
        )
    if count <= _CACHED_PARTITION_LIMIT:
        candidates = _partition_table(n_sub, k_links)
    else:
        candidates = enumerate_partitions(n_sub, k_links)

    h = chan.normalized_gains
    best_rate, best_sets = -math.inf, None
    for cand in candidates:
        rate = _score(params, h, cand, _apply_power(WATER_FILL, params, h, cand))[1]
        if rate > best_rate:
            best_rate, best_sets = rate, cand
    return best_sets, None


def optimal_allocate(
    params: ChannelParams,
    chan: ChannelRealization,
    partition_guard: int = DEFAULT_PARTITION_GUARD,
) -> Allocation:
    """Brute-force optimum: best water-filled rate over every quota partition.

    The first partition with the highest rate wins, in enumeration order. A
    link whose set has no positive gain keeps zero power (its rate
    contribution is zero either way).
    """
    return _allocation(
        OPTIMAL, WATER_FILL, params, chan, *_optimal_sets(params, chan, partition_guard)
    )


def _max_select_sets(params: ChannelParams, chan: ChannelRealization):
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


def max_select_allocate(
    params: ChannelParams,
    chan: ChannelRealization,
    power_rule: str = "water_fill",
) -> Allocation:
    """Greedy baseline: repeatedly hand the globally strongest remaining gain
    to its link until every quota is filled.

    Only links with unfilled quota and still-unassigned sub-channels compete;
    ties break toward the lowest (link, sub-channel) pair. Power over each
    final set follows `power_rule`: "water_fill" (default) or "equal_split".
    """
    if power_rule not in POWER_RULES:
        raise ValidationError(f"power_rule must be one of {POWER_RULES}")
    return _allocation(MAX_SELECT, power_rule, params, chan, *_max_select_sets(params, chan))


def allocate(
    strategy: str,
    params: ChannelParams,
    chan: ChannelRealization,
    *,
    partition_guard: int = DEFAULT_PARTITION_GUARD,
    max_select_power_rule: str = "water_fill",
) -> Allocation:
    """Dispatch one strategy by tag."""
    if strategy == LOW_SNR:
        return low_snr_allocate(params, chan)
    if strategy == HIGH_SNR:
        return high_snr_allocate(params, chan)
    if strategy == OPTIMAL:
        return optimal_allocate(params, chan, partition_guard=partition_guard)
    if strategy == MAX_SELECT:
        return max_select_allocate(params, chan, power_rule=max_select_power_rule)
    raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGY_ORDER}")
