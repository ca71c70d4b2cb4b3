"""End-to-end sub-channel/power allocation strategies and the exact scorer.

Every strategy is a set selection followed by a named power rule. The
selection maps a channel realization to exactly floor(N/K) sub-channels per
link (surplus sub-channels stay idle when K does not divide N); the rule
splits each link's budget over its set:

- low_snr: one-per-link assignment on P*H, then `concentrate`;
- high_snr: assignment on ln H at capacity q per link, then `equal_split`;
- optimal: the best water-filled partition, then `water_fill`;
- max_select: greedy strongest-gain walk, then `water_fill` or `equal_split`.

The table `STRATEGIES` says this once: for each tag it names the selection
and the power rule. A selection (params, budgets, gains, partition_guard)
runs over one params (K, N, the quota and B/N), a (B, K) budget grid and
a chunk's (T, K, N) gain stack, and returns one list of K sets per
(trial, point) cell, trial-major: `high_snr` and `max_select` read each
trial's channel alone and repeat one result per point; `low_snr` checks
every cell for overflow in one multiply (each P_k times its link's largest
gain), solves one assignment per trial and distinct budget ratio, since
scaling all budgets by one factor leaves the best assignment unchanged,
and pads the sets by walking each link's gains in sorted order
(`_low_snr_sets`); `high_snr`
solves one capacity-q assignment per trial and takes its sets
(`_high_snr_sets`); and `optimal` takes the cells in bounded groups,
trial-major, water-fills one rate table per group (`_rate_table`) and
searches the group's partitions in one array fold (`_optimal_sets`). The scorer
and the rate table take their logs with one `math.log1p` pass over an
array of products and add each link's terms with array adds
(`_link_sums`). Both Hungarian selections solve with the one
augmenting-path loop, `assignment.solve_capacitated`, on lists of costs:
`low_snr` at capacity 1 on -(P / max P)*H, `high_snr` at capacity q on
-ln H.
`allocate(tag, params, chan)` is the one entry point that runs a strategy
on one instance: it dispatches through the table on the one-point grid
`[params.power_budgets]` of one trial. The low_snr selection lists each
link's assigned sub-channel first, which is where `concentrate` puts the
budget and what an instance dump prints as its assignment.
All strategies are scored with the same exact sum-rate formula; their
regime approximations only drive the selections.
`power_selections` and `exact_sum_rates` power and score the selections of
C cells at once, as a sweep does for one strategy over every (trial,
budget) cell of a chunk of trials: cell c reads row c of (C, K) budgets
and its trial's gains from a (T, K, N) stack by index, never from a
per-cell copy; the scores are a (C, K) array of link rates and (C,)
totals. `allocate` and `exact_sum_rate` (row 0, as a `RateReport`) are
the one-cell case. Before
scoring, `validate_allocations` checks the C cells in one array check over
their (C, K, q) sets and (C, K, N) powers; only when a cell fails does it
run the one-cell `validate_allocation` on each cell in turn, so the first
failing cell raises with that check's message.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from .assignment import solve_capacitated
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
    "RateReport",
    "validate_allocation",
    "validate_allocations",
    "exact_sum_rate",
    "exact_sum_rates",
    "linear_approx_rate",
    "log_approx_rate",
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


@dataclass(frozen=True)
class Allocation:
    """Sub-channel sets and transmit powers chosen by one strategy.

    `subchannels_of_link[k]` is the sorted, pairwise-disjoint set assigned to
    link k (size floor(N/K)); `powers` is the K x N matrix of transmit powers
    in W, zero outside the assigned sets.
    """

    subchannels_of_link: tuple[tuple[int, ...], ...]
    powers: np.ndarray
    strategy_tag: str

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


def validate_allocations(params: ChannelParams, budgets, allocs) -> tuple[np.ndarray, np.ndarray]:
    """Check C allocations at once, allocation c under `params` at the
    budgets `budgets[c]`, for every invariant `validate_allocation` checks,
    and return their (C, K, q) sets and (C, K, N) powers as arrays.

    One array check covers all cells (`_cells_pass`). If any cell fails
    it, every cell goes through `validate_allocation` in order, so the
    first failing cell raises with the one-cell message.
    """
    try:
        sets = np.array([alloc.subchannels_of_link for alloc in allocs])
        powers = np.stack([alloc.powers for alloc in allocs])
    except ValueError:  # ragged sets, or powers of more than one shape
        sets = powers = None
    if sets is None or not _cells_pass(params, budgets, sets, powers):
        for row, alloc in zip(budgets.tolist(), allocs):
            validate_allocation(replace(params, power_budgets=row), alloc)
    return sets, powers


def _cells_pass(params: ChannelParams, budgets, sets: np.ndarray, powers: np.ndarray) -> bool:
    """True if every cell c, with sets `sets[c]` and powers `powers[c]`,
    passes `validate_allocation` under `params` with the budgets
    `budgets[c]`: set count and quota, index range, sub-channels disjoint
    across links, power shape, finite and non-negative powers, none outside
    the sets, and each link's sum, the same `powers[k].sum()` float, within
    the same slack of its budget."""
    cells = len(budgets)
    k_links, n_sub = params.num_links, params.num_subchannels
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
    return not (powers.sum(axis=2) > budgets + _BUDGET_SLACK * np.maximum(1.0, budgets)).any()


def _link_sums(snr: np.ndarray, size: int, budgets) -> np.ndarray:
    """Sum of log2(1 + p*H) over each consecutive run of `size` entries of
    `snr`, an array of p*H products read flat. A run is one link's set; its
    terms are `math.log1p` over the products as Python floats, the same libm
    values as a per-element loop (numpy's `log1p` may differ in the last
    bit), divided by ln 2 in one array division, and they add from 0.0 in
    set order, one array add per position. The first run whose sum is not
    finite raises, naming `budgets[i]`, the budget of run i's link."""
    flat = snr.ravel()
    terms = (np.fromiter(map(math.log1p, flat.tolist()), float, flat.size) / _LN2).reshape(-1, size)
    sums = np.zeros(len(terms))
    for column in terms.T:
        sums += column
    finite = np.isfinite(sums)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValidationError(f"power budget {budgets[i]:g} W times a normalized gain overflows")
    return sums


def _score(params: ChannelParams, budgets, gains: np.ndarray, trials, sets, powers: np.ndarray):
    """Exact (C, K) link rates and (C,) totals of C cells: cell c scores its
    K equal-sized sets `sets[c]` with the powers `powers[c]` of a (C, K, N)
    array on the gains `gains[trials[c]]` of a (T, K, N) stack, at the
    budgets `budgets[c]`. One `_link_sums` call sums every link over its
    set in set order; a link's rate is (B/N) times its sum, and the totals
    add the link columns from 0.0 in index order (`sum(axis=1)` regroups
    them from K = 8 on), so every caller gets bit-identical scores."""
    sets = np.asarray(sets)
    cells, k_links, quota = sets.shape
    cell, link = np.arange(cells)[:, None, None], np.arange(k_links)[None, :, None]
    trial = np.asarray(trials)[:, None, None]
    with np.errstate(over="ignore"):
        snr = powers[cell, link, sets] * gains[trial, link, sets]
    sums = _link_sums(snr, quota, budgets.ravel()).reshape(cells, k_links)
    per_link = params.subchannel_bandwidth * sums
    totals = np.zeros(cells)
    for rates in per_link.T:
        totals += rates
    return per_link, totals


def exact_sum_rates(params: ChannelParams, budgets, gains: np.ndarray, trials, allocs):
    """Score C allocations with the exact objective, allocation c at the
    budgets `budgets[c]` on the normalized gains `gains[trials[c]]` of a
    (T, K, N) stack of realizations: one `validate_allocations` call checks
    them all first, then `_score` returns their link rates and totals."""
    sets, powers = validate_allocations(params, budgets, allocs)
    return _score(params, budgets, gains, trials, sets, powers)


def exact_sum_rate(
    params: ChannelParams, chan: ChannelRealization, alloc: Allocation
) -> RateReport:
    """Score an allocation with the exact objective.

    R_k = (B/N) * sum over assigned n of log2(1 + p_{k,n} * H_{k,n}); the
    report carries each link's rate and their total. The allocation is
    validated first. This is row 0 of `exact_sum_rates` for one allocation.
    """
    gains, budgets = chan.normalized_gains[None], np.array([params.power_budgets])
    per_link, totals = exact_sum_rates(params, budgets, gains, [0], [alloc])
    return RateReport(tuple(per_link[0].tolist()), totals.item())


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


def _high_snr_costs(h: np.ndarray) -> list[list[float]]:
    """high_snr's costs -ln H as lists for `solve_capacitated`, +inf on
    zero gains. ln is `math.log` over `h.tolist()`, so its bits do not
    depend on which CPU features numpy dispatches to."""
    return [[-math.log(g) if g > 0 else math.inf for g in row] for row in h.tolist()]


def _low_snr_sets(params: ChannelParams, budgets, gains: np.ndarray, partition_guard: int):
    """At each point, one sub-channel per link from the assignment
    maximizing the sum of P_k * H over links, listed first in its set. The
    remaining quota slots are padded round-robin over links in index order,
    each taking its highest-gain unassigned sub-channel (ties to the lowest
    index).

    Scaling every budget by one factor scales every assignment's sum by it,
    so a point solves `solve_capacitated` at capacity 1 on -(P_k / max P) *
    H, its budget ratios times the gains (all zero when every budget is 0).
    Within a trial, points with the same ratios share one solve and one
    padding: a grid of uniform budgets solves -H once per trial, plus once
    for budget 0. Where two assignments' P*H sums tie to within rounding,
    the columns may differ from those of a solve of -P*H itself. The P*H
    overflow check runs first, over every (trial, point) in one multiply
    of the budgets by each link's largest gain: rounding is monotone, so
    that overflows exactly where some P_k * H does.
    """
    quota = params.quota
    with np.errstate(over="ignore"):
        overflows = np.isinf(budgets * gains.max(axis=2)[:, None]).any(axis=2)
    if overflows.any():
        top = budgets[int(np.argmax(overflows)) % len(budgets)].max()
        raise ValidationError(f"power budget {top:g} W times a normalized gain overflows")
    ratios = []
    for row in budgets.tolist():
        top = max(row)
        ratios.append(tuple(p / top if top > 0 else 0.0 for p in row))
    scales = {ratio: np.array(ratio)[:, None] for ratio in ratios}
    selections = []
    for h in gains:
        padded: dict[tuple[float, ...], list[list[int]]] = {}
        for ratio in ratios:
            if ratio not in padded:
                costs = (-(scales[ratio] * h)).tolist()
                owner, _, _ = solve_capacitated(costs, 1)
                padded[ratio] = _pad_round_robin(h, tuple(map(owner.index, range(len(h)))), quota)
            selections.append(padded[ratio])
    return selections


def _owned_sets(owner: list[int], num_links: int) -> list[list[int]]:
    """Each link's columns, ascending, from the link owning each column
    (-1 if none) that `solve_capacitated` returns."""
    sets: list[list[int]] = [[] for _ in range(num_links)]
    for n, k in enumerate(owner):
        if k >= 0:
            sets[k].append(n)
    return sets


def _pad_round_robin(h: np.ndarray, columns: tuple[int, ...], quota: int) -> list[list[int]]:
    """Link k's set: columns[k], then quota - 1 round-robin picks of its
    highest-gain sub-channel left free, ties to the lowest index. Each link
    walks its sub-channels by descending gain, ties in index order (a stable
    argsort of -H), with one pointer, skipping those already taken."""
    order = np.argsort(-h, axis=1, kind="stable").tolist()
    sets = [[c] for c in columns]
    taken = [False] * len(order[0])
    for c in columns:
        taken[c] = True
    at = [0] * len(columns)
    for _ in range(quota - 1):
        for k, (link_sets, link_order) in enumerate(zip(sets, order)):
            i = at[k]
            while taken[link_order[i]]:
                i += 1
            pick = link_order[i]
            link_sets.append(pick)
            taken[pick] = True
            at[k] = i + 1
    return sets


def _high_snr_sets(params: ChannelParams, budgets, gains: np.ndarray, partition_guard: int):
    """Each link's quota of sub-channels, sorted, from the assignment on
    ln H that gives every link quota distinct ones with the largest sum;
    zero-gain cells are forbidden. The channel alone decides it, so every
    point of a trial gets the same selection; the trials of a (T, K, N)
    stack of gains are solved in turn, so the first infeasible one raises.

    One `solve_capacitated` call per trial solves it, each link's row at
    capacity quota, and its owners are the sets. Where several choices
    tie for the optimum (exactly equal ln H sums, which continuous gains
    give with probability zero), the sets are whichever optimum that solve
    reaches, pinned by `tests/golden/assignment_capacity_columns.txt`.
    """
    quota = params.quota
    selections = []
    for h, usable_counts in zip(gains, (gains > 0).sum(axis=2).tolist()):
        short = [k for k, count in enumerate(usable_counts) if count < quota]
        if short:
            k = short[0]
            raise InfeasibleError(
                f"link {k} has only {usable_counts[k]} usable sub-channels; quota is {quota}"
            )
        owner, _, _ = solve_capacitated(_high_snr_costs(h), quota)
        selections += [_owned_sets(owner, len(h))] * len(budgets)
    return selections


@lru_cache(maxsize=8)
def partition_count(num_subchannels: int, num_links: int) -> int:
    """Number of ordered partitions into quota-sized disjoint link sets,
    cached per (N, K): at N = 100,000 one count takes about 0.15 s, and
    `bench` reports the count that `optimal`'s guard then checks."""
    quota = num_subchannels // num_links
    return math.prod(math.comb(num_subchannels - k * quota, quota) for k in range(num_links))


def count_text(count: int) -> str:
    """A count in decimal or, when it has too many digits for `str`, a true
    lower bound: count >= 2^(bits - 1) and 0.301029995 < log10(2)."""
    try:
        return str(count)
    except ValueError:
        return f"more than 10^{(count.bit_length() - 1) * 301029995 // 10**9}"


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

    `columns` is read-only. The picks are row-major and left writeable,
    because `np.take` copies an index array it may not write to; no caller
    writes to them.
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
        picks.append(np.ascontiguousarray(pick))
    columns.setflags(write=False)
    return subsets, columns, tuple(picks)


def _cell_groups(cells: int, count: int, table: int):
    """The (trial, point) cells 0 .. cells - 1 of a selection, trial-major,
    as index arrays of at most max(1, `_TABLE_CHUNK` // max(count, table))
    cells, for count partitions and a rate table of table = K * C(N, q) * q
    elements per cell."""
    group = max(1, _TABLE_CHUNK // max(count, table))
    return (np.arange(start, min(start + group, cells)) for start in range(0, cells, group))


def _rate_table(params: ChannelParams, budgets, gains: np.ndarray, columns: np.ndarray, cells):
    """The water-filled link rates of G (trial, point) cells as a (G, K, C)
    array: `cells` holds trial-major indices into T x B, and entry
    [g, k, i] is link k's rate on the quota set `columns[i]` at the budget
    `budgets[cells[g] % B, k]` of a (B, K) array on the gains
    `gains[cells[g] // B]` of a (T, K, N) array, the same float the scorer
    gives that link in every partition that hands it that set. The
    G * K * C sets are water-filled in pieces of at most `_TABLE_CHUNK`
    elements (one set if a set is larger), each one `water_fill` call and
    one `_link_sums` call; both work on each set alone, so how the sets
    split into pieces changes no rate."""
    n_sets, quota = columns.shape
    links = gains[cells // len(budgets)].reshape(-1, gains.shape[2])  # row g * K + k
    link_budgets = budgets[cells % len(budgets)].ravel()
    rows = len(links) * n_sets  # row (g * K + k) * C + i
    step = max(1, _TABLE_CHUNK // quota)
    sums = []
    for start in range(0, rows, step):
        link, i = np.divmod(np.arange(start, min(start + step, rows)), n_sets)
        piece_gains, piece_budgets = links[link[:, None], columns[i]], link_budgets[link]
        with np.errstate(over="ignore"):
            snr = water_fill(piece_gains, piece_budgets).powers * piece_gains
        sums.append(_link_sums(snr, quota, piece_budgets))
    return params.subchannel_bandwidth * np.concatenate(sums).reshape(len(cells), -1, n_sets)


def _best_partitions(rates: np.ndarray, subsets, picks) -> list[list[tuple[int, ...]]]:
    """The first partition with the highest total rate for each row of
    `rates`, a (G, K, C) array of link rates per quota set, as K sets from
    `subsets`. Partition totals add the link rates in index order, as the
    scorer does, with partitions in enumeration order over `picks`; argmax
    keeps the first maximum of each row, and array `divmod` decodes it one
    level at a time. The fold runs on (partition, row) arrays: each level
    gathers its link's rates into one new array and adds the totals into it
    in place (rate + total, the same float as total + rate)."""
    by_set = np.ascontiguousarray(rates.transpose(1, 2, 0))  # (K, C, G)
    totals = by_set[0]
    for k, pick in enumerate(picks, start=1):
        level = by_set[k].take(pick, axis=0)
        level += totals[:, None]
        totals = level.reshape(-1, len(rates))
    best = np.argmax(totals, axis=0)
    chosen = []
    for pick in reversed(picks):
        best, j = np.divmod(best, pick.shape[1])
        chosen.append(pick[best, j])
    chosen.append(best)
    return [[subsets[i] for i in row] for row in np.stack(chosen[::-1], axis=1).tolist()]


def _optimal_sets(params: ChannelParams, budgets, gains: np.ndarray, partition_guard: int):
    """At each point, the partition with the best water-filled rate:
    exhaustive search over K * C(N, floor(N/K)) link rates for every point
    of every trial of a (T, K, N) stack of gains. The first partition with
    the highest rate wins, in enumeration order. The (trial, point) cells
    go in bounded groups, trial-major (`_cell_groups`). Each group
    water-fills one rate table (`_rate_table`) and folds its links into
    partition totals over `_partition_levels`, cached per (N, K), in one
    array fold (`_best_partitions`), so the table, its gathered gains and
    the totals each hold about `_TABLE_CHUNK` floats, or one cell's worth
    when a cell has more, whatever the number of trials."""
    n_sub, k_links = params.num_subchannels, params.num_links
    count = partition_count(n_sub, k_links)
    if count > partition_guard:
        raise GuardError(
            f"instance too large: {count_text(count)} candidate partitions exceed the guard "
            f"of {partition_guard} (K={k_links}, N={n_sub})"
        )
    subsets, columns, picks = _partition_levels(n_sub, k_links)
    selections = []
    for cells in _cell_groups(len(gains) * len(budgets), count, k_links * columns.size):
        selections += _best_partitions(_rate_table(params, budgets, gains, columns, cells), subsets, picks)
    return selections


def _max_select_sets(params: ChannelParams, budgets, gains: np.ndarray, partition_guard: int):
    """Greedy walk: repeatedly hand the globally strongest remaining gain to
    its link until every quota is filled. Only links with unfilled quota
    and still-unassigned sub-channels compete; ties break toward the lowest
    (link, sub-channel) pair. The channel alone decides it, so every point
    of a trial gets the same selection."""
    trials, k_links, n_sub = gains.shape
    quota = params.quota
    # Stable argsort of each trial's flattened gains keeps ties in (link,
    # sub-channel) order, which makes the walk identical to repeated
    # global argmax.
    orders = np.argsort(-gains.reshape(trials, -1), axis=1, kind="stable").tolist()
    selections = []
    for order in orders:
        sets: list[list[int]] = [[] for _ in range(k_links)]
        taken = [False] * n_sub
        unfilled = k_links * quota
        for flat in order:
            k, n = divmod(flat, n_sub)
            if len(sets[k]) < quota and not taken[n]:
                sets[k].append(n)
                taken[n] = True
                unfilled -= 1
                if unfilled == 0:
                    break
        selections += [sets] * len(budgets)
    return selections


@dataclass(frozen=True)
class Strategy:
    """One entry of `STRATEGIES`.

    `select(params, budgets, gains, partition_guard)` takes one params
    (K, N, the quota and B/N), a budget grid as a (B, K) array, one row of
    link budgets per point, and the (T, K, N) normalized gains of T trials,
    and returns one list of K sets per (trial, point) cell, trial-major:
    cell t * B + b equals what it returns for row b alone on trial t alone.
    If a trial fails, it raises the error of the first failing trial, as
    that trial alone would. Only `optimal` reads
    the guard, before any other work. `power_rule` is None where the
    caller names the rule (max_select).
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
    """Run one strategy on one instance: its selection picks the sets and
    `power_selections` powers them by the strategy's rule (`_one_cell`).
    Only `optimal` reads `partition_guard` and only `max_select` uses
    `max_select_power_rule`, but a bad guard or rule is rejected for every
    tag."""
    return _one_cell(strategy, params, chan, partition_guard, max_select_power_rule)[1]


def _one_cell(strategy, params, chan, partition_guard, max_select_power_rule):
    """One instance's K sets, in selection order, and its `Allocation`, on
    the one-point grid `[params.power_budgets]` of one trial, after
    rejecting an unknown tag, a guard below 1 or an unknown max_select
    power rule."""
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGY_ORDER}")
    check_partition_guard(partition_guard)
    check_power_rule(max_select_power_rule)
    gains, budgets = chan.normalized_gains[None], np.array([params.power_budgets])
    sets = STRATEGIES[strategy].select(params, budgets, gains, partition_guard)[0]
    return sets, power_selections(strategy, budgets, gains, [0], [sets], max_select_power_rule)[0]


def power_selections(
    strategy: str,
    budgets: np.ndarray,
    gains: np.ndarray,
    trials,
    selections,
    max_select_power_rule: str,
) -> list[Allocation]:
    """Power C selections of one strategy, each a list of K sets, by its
    rule: one `_apply_power` call for all of them, selection c at the
    budgets `budgets[c]` of a (C, K) array on the gains `gains[trials[c]]`
    of a (T, K, N) stack of realizations; then package each cell's sets,
    sorted."""
    rule = STRATEGIES[strategy].power_rule or max_select_power_rule
    powers = _apply_power(rule, gains, trials, np.array(selections), budgets)
    return [
        Allocation(map(sorted, cell_sets), cell_powers, strategy)
        for cell_sets, cell_powers in zip(selections, powers)
    ]
