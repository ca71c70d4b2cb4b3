"""Monte Carlo sweep machinery, instance dumps, and the scaling bench.

A sweep evaluates every enabled strategy on the SAME seeded realizations at
each budget point (paired comparison); aggregates land in a schema-stable,
byte-deterministic CSV.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import allocators
from .allocators import APPROX_RATES, STRATEGY_ORDER, allocate, exact_sum_rate
from .assignment import replicate_rows, solve_assignment
from .channel import ChannelParams, sample_realization, trial_rng
from .errors import ValidationError

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

    `budget_grid` budgets are applied uniformly to every link; realizations
    depend only on (seed, trial), so all budget points and strategies share
    them. `score_mode` "both" adds each regime strategy's own approximate
    objective as an extra CSV column.
    """

    channel_params: ChannelParams
    budget_grid: tuple[float, ...]
    trials: int
    seed: int
    strategies: tuple[str, ...] = STRATEGY_ORDER
    score_mode: str = "exact"
    workers: int = 1
    partition_guard: int = allocators.DEFAULT_PARTITION_GUARD
    max_select_power_rule: str = "water_fill"

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
        if self.partition_guard < 1:
            raise ValidationError("partition_guard must be >= 1")
        if self.max_select_power_rule not in allocators.POWER_RULES:
            raise ValidationError(
                f"max_select_power_rule must be one of {allocators.POWER_RULES}"
            )


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


def _trial_worker(args) -> tuple[np.ndarray, np.ndarray | None]:
    config, trial = args
    params = config.channel_params
    chan = sample_realization(params, trial_rng(config.seed, trial))
    budgets, strategies = config.budget_grid, config.strategies
    n_b, n_s = len(budgets), len(strategies)
    exact = np.zeros((n_b, n_s))
    approx = np.full((n_b, n_s), np.nan) if config.score_mode == "both" else None
    for bi, budget in enumerate(budgets):
        point = params.with_uniform_budget(budget)
        for si, strategy in enumerate(strategies):
            alloc = allocate(
                strategy,
                point,
                chan,
                partition_guard=config.partition_guard,
                max_select_power_rule=config.max_select_power_rule,
            )
            exact[bi, si] = exact_sum_rate(point, chan, alloc).total_rate
            if approx is not None and strategy in APPROX_RATES:
                approx[bi, si] = APPROX_RATES[strategy](point, chan, alloc)
    return exact, approx


def collect_rates(config: SweepConfig) -> SweepSamples:
    """Evaluate all (budget, strategy, trial) cells; trials may run in parallel."""
    jobs = [(config, trial) for trial in range(config.trials)]
    if config.workers == 1:
        results = [_trial_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_trial_worker, jobs))
    exact = np.stack([r[0] for r in results], axis=2)
    approx = np.stack([r[1] for r in results], axis=2) if config.score_mode == "both" else None
    return SweepSamples(
        budgets=config.budget_grid,
        strategies=config.strategies,
        exact=exact,
        approx=approx,
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Aggregate a sweep into rows, budget-major then strategy order."""
    samples = collect_rates(config)
    has_optimal = allocators.OPTIMAL in config.strategies
    opt_idx = config.strategies.index(allocators.OPTIMAL) if has_optimal else -1
    rows = []
    for bi, budget in enumerate(config.budget_grid):
        opt_rates = samples.exact[bi, opt_idx] if has_optimal else None
        for si, strategy in enumerate(config.strategies):
            rates = samples.exact[bi, si]
            gap = None
            if has_optimal:
                with np.errstate(divide="ignore", invalid="ignore"):
                    gaps = np.where(opt_rates > 0, (opt_rates - rates) / opt_rates, 0.0)
                gap = float(gaps.mean())
            approx = None
            if samples.approx is not None and strategy in APPROX_RATES:
                approx = float(samples.approx[bi, si].mean())
            rows.append(
                SweepRow(
                    budget=budget,
                    strategy=strategy,
                    trials=config.trials,
                    mean_rate=float(rates.mean()),
                    std_rate=float(rates.std(ddof=1)) if config.trials > 1 else 0.0,
                    median_rate=float(np.median(rates)),
                    mean_gap_vs_optimal=gap,
                    mean_approx_rate=approx,
                )
            )
    return rows


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


def _matrix_lines(label: str, matrix: np.ndarray, fmt: str = ".17g") -> list[str]:
    lines = [f"{label}:"]
    for row in matrix:
        lines.append("  " + " ".join(format(x, fmt) for x in row))
    return lines


def dump_instance(
    params: ChannelParams,
    seed: int,
    strategy: str,
    *,
    max_select_power_rule: str = "water_fill",
) -> str:
    """Text report of one seeded instance under one strategy.

    For the two Hungarian strategies the cost matrix and assignment are the
    ones the allocator solved. Floats are printed with 17 significant digits
    so rates recomputed from the printed gains and powers reproduce the
    printed rate.
    """
    chan = sample_realization(params, trial_rng(seed, 0))
    alloc = allocate(strategy, params, chan, max_select_power_rule=max_select_power_rule)
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

    trace = alloc.trace
    if trace is not None:
        lines += _matrix_lines(f"cost_matrix ({trace.label})", trace.cost.values)
        pairs = (
            f"{r}->{c}" if trace.copies is None else f"{r}(link {r // trace.copies})->{c}"
            for r, c in enumerate(trace.column_of_row)
        )
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

    "hungarian" times the quota-replicated assignment solve, "optimal" the
    full partition enumeration (skipped when the guard trips), "max_select"
    the greedy allocator. Rows are emitted per dimension, method order fixed.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
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
                if count > optimal_guard:
                    rows.append(
                        BenchRow(method, num_links, num_subchannels, reps, None, count, "skipped")
                    )
                    continue
                target = lambda: allocators.optimal_allocate(params, chan)
            elif method == "hungarian":
                cost = replicate_rows(allocators.high_snr_cost_matrix(params, chan), params.quota)
                target = lambda: solve_assignment(cost)
            else:
                target = lambda: allocators.max_select_allocate(params, chan)
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                target()
                times.append(time.perf_counter() - t0)
            rows.append(
                BenchRow(
                    method,
                    num_links,
                    num_subchannels,
                    reps,
                    statistics.median(times),
                    count,
                    "ok",
                )
            )
    return rows


def bench_rows_to_csv(rows: list[BenchRow]) -> str:
    lines = ["method,links,subchannels,reps,median_seconds,partition_count,status"]
    for r in rows:
        seconds = "" if r.median_seconds is None else format(r.median_seconds, ".6g")
        count = "" if r.partition_count is None else str(r.partition_count)
        lines.append(f"{r.method},{r.num_links},{r.num_subchannels},{r.reps},{seconds},{count},{r.status}")
    return "\n".join(lines) + "\n"
