"""Monte Carlo sweep machinery, instance dumps, and the scaling bench.

A sweep evaluates every enabled strategy on the SAME seeded realizations at
each budget point (paired comparison); aggregates land in a schema-stable,
byte-deterministic CSV. One `ChannelParams` supplies K, N, the quota and
B/N; the budget grid is one (B, K) array of link budgets. The trials run
in contiguous chunks, each bounded by `allocators._TABLE_CHUNK` elements
of trials x budgets x K x N. A chunk samples each trial's realization
from its own (seed, trial) stream and runs each strategy once over all
its (trial, budget) cells: one `allocators.STRATEGIES` selection call on
the grid and the chunk's stack of gains returns every cell's sets, which
are then powered in one `allocators.power_selections` call (one
`water_fill` for the water-filled rules) at the grid tiled once per trial
and scored by one `allocators.exact_sum_rates` call into an array of
totals, after one array check of all the cells' invariants
(`allocators.validate_allocations`).
If any cell of a chunk fails, the chunk reruns that same pass one cell
at a time, a one-trial, one-budget chunk per cell, in trial order and
budget-major, so the sweep raises the error of the first failing cell in
(trial, budget, strategy) order. `run_sweep` reduces the sweep's
(B, S, T) rates over their trial axis once per statistic but the median,
which `statistics.median` takes row by row.

An instance dump takes one selection from `allocators.STRATEGIES` and
renders the two Hungarian strategies' solved matrix and assignment from
it: the sweep path never builds either.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import allocators
from .allocators import (
    APPROX_RATES,
    STRATEGIES,
    STRATEGY_ORDER,
    allocate,
    exact_sum_rate,
    exact_sum_rates,
    power_selections,
)
from .assignment import solve_capacitated
from .channel import ChannelParams, sample_realization, trial_rng
from .errors import AllocationError, GuardError, ValidationError

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepSamples",
    "collect_rates",
    "run_sweep",
    "sweep_rows_to_csv",
    "dump_instance",
    "BenchRow",
    "scaling_bench",
    "bench_rows_to_csv",
    "SWEEP_CSV_HEADER",
]

SWEEP_CSV_HEADER = "budget,strategy,trials,mean_rate,std_rate,median_rate,mean_gap_vs_optimal"
SCORE_MODES = ("exact", "both")
BENCH_METHODS = ("hungarian", "optimal", "max_select")


@dataclass(frozen=True)
class SweepConfig:
    """One sum-rate-versus-budget experiment.

    Each `budget_grid` budget is applied uniformly to every link, and a
    sweep never reads `channel_params.power_budgets` (the CLI passes a
    placeholder 1.0). Realizations depend only on (seed, trial), so all
    budget points and strategies share them. `score_mode` "both" adds each
    regime strategy's own approximate objective as an extra CSV column.
    """

    channel_params: ChannelParams
    budget_grid: tuple[float, ...]
    trials: int
    seed: int
    strategies: tuple[str, ...] = STRATEGY_ORDER
    score_mode: str = "exact"
    workers: int = 1
    partition_guard: int = allocators.DEFAULT_PARTITION_GUARD
    max_select_power_rule: str = allocators.DEFAULT_MAX_SELECT_POWER_RULE

    def __post_init__(self):
        grid = tuple(float(b) for b in self.budget_grid)
        if len(grid) == 0:
            raise ValidationError("budget_grid must not be empty")
        if any(not np.isfinite(b) or b < 0 for b in grid):
            raise ValidationError("budgets must be finite and >= 0")
        if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
            raise ValidationError("budget_grid must be strictly increasing")
        object.__setattr__(self, "budget_grid", grid)
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValidationError("trials must be a positive integer")
        strategies = tuple(s for s in STRATEGY_ORDER if s in self.strategies)
        if len(strategies) != len(set(self.strategies)) or not strategies:
            unknown = set(self.strategies) - set(STRATEGY_ORDER)
            raise ValidationError(
                f"strategies must be a non-empty subset of {STRATEGY_ORDER}"
                + (f"; unknown: {sorted(unknown)}" if unknown else "")
            )
        object.__setattr__(self, "strategies", strategies)
        if self.score_mode not in SCORE_MODES:
            raise ValidationError(f"score_mode must be one of {SCORE_MODES}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValidationError("workers must be a positive integer")
        allocators.check_partition_guard(self.partition_guard)
        allocators.check_power_rule(self.max_select_power_rule)


@dataclass(frozen=True)
class SweepRow:
    """Aggregated statistics for one (budget, strategy) cell."""

    budget: float
    strategy: str
    trials: int
    mean_rate: float
    std_rate: float
    median_rate: float
    mean_gap_vs_optimal: float | None
    mean_approx_rate: float | None = None


@dataclass(frozen=True)
class SweepSamples:
    """Per-trial exact (and optionally approximate) rates of a sweep.

    `exact[b, s, t]` is the exact sum rate at budget index b, strategy index
    s (config order), trial t. `approx` is None unless score_mode is "both";
    entries are NaN for strategies without a regime approximation.
    """

    budgets: tuple[float, ...]
    strategies: tuple[str, ...]
    exact: np.ndarray
    approx: np.ndarray | None


def _chunk_rates(config: SweepConfig, budgets: np.ndarray, trials) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact and approximate rates of a chunk, the (B, K) `budgets` over a
    range of trials, as (B, S, T) arrays, T the chunk's trial count. A
    chunk of more than one cell that fails reruns each of its cells as a
    one-cell chunk, trial-major then budget-major, before it re-raises, so
    the first failing cell in per-cell order raises its own error."""
    n_b, n_s, n_t = len(budgets), len(config.strategies), len(trials)
    exact = np.zeros((n_b, n_s, n_t))
    approx = np.full((n_b, n_s, n_t), np.nan) if config.score_mode == "both" else None
    try:
        chans = [sample_realization(config.channel_params, trial_rng(config.seed, t)) for t in trials]
        gains = np.stack([chan.normalized_gains for chan in chans])
        for si, strategy in enumerate(config.strategies):
            cell_exact, cell_approx = _strategy_pass(config, strategy, budgets, chans, gains)
            exact[:, si] = np.reshape(cell_exact, (n_t, n_b)).T
            if cell_approx is not None:
                approx[:, si] = np.reshape(cell_approx, (n_t, n_b)).T
    except AllocationError:
        # The pass samples every trial first and then runs strategy-major,
        # so the error it met need not be the first in per-cell order.
        if n_b * n_t > 1:
            for t in trials:
                for b in range(n_b):
                    _chunk_rates(config, budgets[b : b + 1], range(t, t + 1))
        raise
    return exact, approx


def _strategy_pass(config: SweepConfig, strategy: str, budgets: np.ndarray, chans, gains):
    """One strategy's exact rates, and its approximate ones if the score
    mode is "both" and it has one (else None), on every cell of a chunk:
    cell c is trial c // B at the budgets `budgets[c % B]`. One selection
    call over the (B, K) grid and the chunk's (T, K, N) `gains` selects
    every cell, then one `power_selections` call powers them and one
    `exact_sum_rates` call validates them in one array check and scores
    them. Its per-cell objects are freed on return, before the next
    strategy's pass."""
    params = config.channel_params
    selections = STRATEGIES[strategy].select(params, budgets, gains, config.partition_guard)
    cell_budgets = np.tile(budgets, (len(chans), 1))
    cell_trials = np.repeat(np.arange(len(chans)), len(budgets))
    allocs = power_selections(
        strategy, cell_budgets, gains, cell_trials, selections, config.max_select_power_rule
    )
    _, exact = exact_sum_rates(params, cell_budgets, gains, cell_trials, allocs)
    if config.score_mode != "both" or strategy not in APPROX_RATES:
        return exact, None
    rate = APPROX_RATES[strategy]
    return exact, [rate(params, chans[t], a) for t, a in zip(cell_trials, allocs)]


def collect_rates(config: SweepConfig) -> SweepSamples:
    """Evaluate all (budget, strategy, trial) cells, in contiguous chunks of
    trials taken in trial order. A chunk of T trials holds at most
    `allocators._TABLE_CHUNK` elements of T x B x K x N (but at least one
    trial), so the working set does not grow with the trial count. With
    `workers` > 1, W = min(workers, trials) processes run the chunks, each
    of at most ceil(trials / (4 W)) trials, so every worker gets about four
    chunks; the results come back in trial order."""
    params = config.channel_params
    per_trial = len(config.budget_grid) * params.num_links * params.num_subchannels
    size = max(1, allocators._TABLE_CHUNK // per_trial)
    workers = min(config.workers, config.trials)
    if workers > 1:
        size = min(size, math.ceil(config.trials / (4 * workers)))
    budgets = np.outer(config.budget_grid, np.ones(params.num_links))
    chunks = [range(start, min(start + size, config.trials)) for start in range(0, config.trials, size)]
    if workers == 1:
        results = [_chunk_rates(config, budgets, trials) for trials in chunks]
    else:
        # Imported here: serial sweeps, the default, skip the cost.
        from concurrent.futures import ProcessPoolExecutor

        n = len(chunks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_rates, [config] * n, [budgets] * n, chunks))
    exact = np.concatenate([r[0] for r in results], axis=2)
    approx = np.concatenate([r[1] for r in results], axis=2) if config.score_mode == "both" else None
    return SweepSamples(
        budgets=config.budget_grid,
        strategies=config.strategies,
        exact=exact,
        approx=approx,
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Aggregate a sweep into rows, budget-major then strategy order."""
    samples = collect_rates(config)
    exact = samples.exact
    means = exact.mean(axis=2).tolist()
    stds = (exact.std(axis=2, ddof=1) if config.trials > 1 else np.zeros(exact.shape[:2])).tolist()
    gaps = approx = None
    if allocators.OPTIMAL in config.strategies:
        opt = exact[:, [config.strategies.index(allocators.OPTIMAL)]]
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps = np.where(opt > 0, (opt - exact) / opt, 0.0).mean(axis=2).tolist()
    if samples.approx is not None:
        approx = samples.approx.mean(axis=2).tolist()
    rates = exact.tolist()
    return [
        SweepRow(
            budget=budget,
            strategy=strategy,
            trials=config.trials,
            mean_rate=means[bi][si],
            std_rate=stds[bi][si],
            median_rate=statistics.median(rates[bi][si]),
            mean_gap_vs_optimal=gaps[bi][si] if gaps else None,
            mean_approx_rate=approx[bi][si] if approx and strategy in APPROX_RATES else None,
        )
        for bi, budget in enumerate(config.budget_grid)
        for si, strategy in enumerate(config.strategies)
    ]


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".12g")


def sweep_rows_to_csv(rows: list[SweepRow], score_mode: str = "exact") -> str:
    header = SWEEP_CSV_HEADER + (",mean_approx_rate" if score_mode == "both" else "")
    lines = [header]
    for row in rows:
        cells = [
            _fmt(row.budget),
            row.strategy,
            str(row.trials),
            _fmt(row.mean_rate),
            _fmt(row.std_rate),
            _fmt(row.median_rate),
            _fmt(row.mean_gap_vs_optimal),
        ]
        if score_mode == "both":
            cells.append(_fmt(row.mean_approx_rate))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _matrix_lines(label: str, matrix, fmt: str = ".17g") -> list[str]:
    lines = [f"{label}:"]
    for row in matrix:
        lines.append("  " + " ".join(format(x, fmt) for x in row))
    return lines


def dump_instance(
    params: ChannelParams,
    seed: int,
    strategy: str,
    *,
    partition_guard: int = allocators.DEFAULT_PARTITION_GUARD,
    max_select_power_rule: str = allocators.DEFAULT_MAX_SELECT_POWER_RULE,
) -> str:
    """Text report of one seeded instance under one strategy.

    The sets are the strategy's own selection, powered by its rule;
    `optimal` runs under `partition_guard`. The two Hungarian strategies
    also print the matrix they maximize and the assignment their selection
    holds: low_snr's P*H (its solve reads (P / max P)*H, the same
    assignment problem scaled) and each link's first sub-channel,
    high_snr's ln H (forbidden zero-gain cells as 0) and each link's
    sorted set, row r standing for link r // quota. Floats are printed
    with 17 significant digits so rates recomputed from the printed gains
    and powers reproduce the printed rate.
    """
    chan = sample_realization(params, trial_rng(seed, 0))
    sets, alloc = allocators._one_cell(strategy, params, chan, partition_guard, max_select_power_rule)
    report = exact_sum_rate(params, chan, alloc)

    lines = [
        "# instance dump",
        f"strategy: {strategy}",
        f"seed: {seed}",
        f"links: {params.num_links}",
        f"subchannels: {params.num_subchannels}",
        f"quota: {params.quota}",
        f"bandwidth: {format(params.total_bandwidth, '.17g')}",
        f"noise_psd: {format(params.noise_psd, '.17g')}",
        f"shadow_prob: {format(params.shadow_prob, '.17g')}",
        f"shadow_attenuation: {format(params.shadow_attenuation, '.17g')}",
        "power_budgets: " + " ".join(format(p, ".17g") for p in params.power_budgets),
    ]
    lines += _matrix_lines("normalized_gains", chan.normalized_gains)
    lines += _matrix_lines("shadow_mask", chan.shadow_mask.astype(int), "d")

    if strategy == allocators.LOW_SNR:
        values = np.array(params.power_budgets)[:, None] * chan.normalized_gains
        lines += _matrix_lines("cost_matrix (maximize, P*H)", values)
        lines.append("assignment: " + " ".join(f"{k}->{s[0]}" for k, s in enumerate(sets)))
    elif strategy == allocators.HIGH_SNR:
        h = chan.normalized_gains.tolist()
        log_h = [[math.log(g) if g > 0 else 0.0 for g in row] for row in h]
        lines += _matrix_lines("cost_matrix (maximize, ln H; forbidden cells printed as 0)", log_h)
        columns = [n for s in alloc.subchannels_of_link for n in s]
        pairs = (f"{r}(link {r // params.quota})->{n}" for r, n in enumerate(columns))
        lines.append("assignment: " + " ".join(pairs))

    lines.append("subchannels_of_link:")
    for k, subset in enumerate(alloc.subchannels_of_link):
        lines.append(f"  link {k}: " + " ".join(str(n) for n in subset))
    lines += _matrix_lines("powers", alloc.powers)
    lines.append("per_link_rate:")
    for k, rate in enumerate(report.per_link_rate):
        lines.append(f"  link {k}: {format(rate, '.17g')}")
    lines.append(f"total_rate: {format(report.total_rate, '.17g')}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BenchRow:
    """Median wall time for one method at one (K, N) point."""

    method: str
    num_links: int
    num_subchannels: int
    reps: int
    median_seconds: float | None
    partition_count: int | None
    status: str


def scaling_bench(
    dims: list[tuple[int, int]],
    methods: tuple[str, ...] = BENCH_METHODS,
    reps: int = 20,
    optimal_guard: int = allocators.DEFAULT_PARTITION_GUARD,
    seed: int = 0,
) -> list[BenchRow]:
    """Median wall time per method per dimension over `reps` repetitions.

    "hungarian" times high_snr's capacity-q assignment solve on -ln H (the
    solve a sweep runs), "optimal" the
    exhaustive partition search (a rate table that water-fills
    K * C(N, floor(N/K)) sets in chunks, plus one rate-table lookup per
    partition and link), run with
    `optimal_guard` as its partition guard and reported "skipped" when that
    guard trips, and "max_select" the greedy allocator. Rows are emitted
    per dimension, method order fixed.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    allocators.check_partition_guard(optimal_guard)
    if not methods:
        raise ValidationError(f"methods must name at least one of {BENCH_METHODS}")
    unknown = set(methods) - set(BENCH_METHODS)
    if unknown:
        raise ValidationError(f"unknown bench methods: {sorted(unknown)}")
    rows = []
    for num_links, num_subchannels in dims:
        params = ChannelParams(
            num_links=num_links,
            num_subchannels=num_subchannels,
            total_bandwidth=float(num_subchannels),
            noise_psd=1.0,
            shadow_prob=0.0,
            power_budgets=(1.0,) * num_links,
        )
        chan = sample_realization(params, trial_rng(seed, 0))
        for method in BENCH_METHODS:
            if method not in methods:
                continue
            count = None
            if method == "optimal":
                count = allocators.partition_count(num_subchannels, num_links)
                target = lambda: allocate(
                    allocators.OPTIMAL, params, chan, partition_guard=optimal_guard
                )
            elif method == "hungarian":
                costs = allocators._high_snr_costs(chan.normalized_gains)
                target = lambda: solve_capacitated(costs, params.quota)
            else:
                target = lambda: allocate(allocators.MAX_SELECT, params, chan)
            times = []
            try:
                for _ in range(reps):
                    t0 = time.perf_counter()
                    target()
                    times.append(time.perf_counter() - t0)
                median, status = statistics.median(times), "ok"
            except GuardError:
                median, status = None, "skipped"
            rows.append(BenchRow(method, num_links, num_subchannels, reps, median, count, status))
    return rows


def bench_rows_to_csv(rows: list[BenchRow]) -> str:
    lines = ["method,links,subchannels,reps,median_seconds,partition_count,status"]
    for r in rows:
        seconds = "" if r.median_seconds is None else format(r.median_seconds, ".6g")
        count = "" if r.partition_count is None else allocators.count_text(r.partition_count)
        lines.append(f"{r.method},{r.num_links},{r.num_subchannels},{r.reps},{seconds},{count},{r.status}")
    return "\n".join(lines) + "\n"
