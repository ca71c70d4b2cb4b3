"""Output checks on the CSVs of measured batches, run outside the timed loop.

The optimum oracle here is the benchmark's own: it redraws each trial's
channel from the documented (seed, trial) stream, water-fills every
quota-sized subset of every link in closed form, and takes the best
partition. It depends on no function of the program, so a refactor of
the program cannot silently change what the check compares against.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import combinations

import numpy as np

from workloads import BUDGETS, CSV_HEADER, NOISE_PSD, SHADOW_ATTEN, SHADOW_PROB, Workload

GAP_FLOOR = -1e-9
REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def parse_csv(text: str, wl: Workload) -> list[dict[str, str]]:
    """Check the header, row count and row order of one batch CSV."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise CheckFailed(f"header {lines[0]!r} != documented {CSV_HEADER!r}")
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = len(BUDGETS) * len(wl.strategy_tags)
    if len(rows) != expected:
        raise CheckFailed(f"{len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        budget = BUDGETS[i // len(wl.strategy_tags)]
        strategy = wl.strategy_tags[i % len(wl.strategy_tags)]
        if row["strategy"] != strategy or not math.isclose(float(row["budget"]), budget, rel_tol=1e-11):
            raise CheckFailed(f"row {i}: ({row['budget']}, {row['strategy']}) out of order")
        if int(row["trials"]) != wl.trials:
            raise CheckFailed(f"row {i}: trials {row['trials']} != {wl.trials}")
        gap = row["mean_gap_vs_optimal"]
        if wl.has_optimal:
            if float(gap) < GAP_FLOOR:
                raise CheckFailed(f"row {i}: mean_gap_vs_optimal {gap} < {GAP_FLOOR}")
        elif gap != "":
            raise CheckFailed(f"row {i}: gap {gap!r} without an optimal strategy")
    return rows


def channel_gains(wl: Workload, seed: int, trial: int) -> np.ndarray:
    """Normalized gains of one trial, drawn as the README's channel model says."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    shape = (wl.links, wl.subchannels)
    squared = rng.exponential(1.0, size=shape)
    blocked = rng.random(size=shape) < SHADOW_PROB
    squared = np.where(blocked, squared * SHADOW_ATTEN, squared)
    return squared / NOISE_PSD  # noise per sub-channel N0 * B/N, with B = N


def _water_filled_rate(gains: np.ndarray, budget: float, bandwidth: float) -> float:
    g = np.sort(gains[gains > 0])[::-1]
    if g.size == 0:
        return 0.0
    inv = 1.0 / g
    level = 0.0
    for m in range(1, g.size + 1):
        candidate = (budget + inv[:m].sum()) / m
        if candidate <= inv[m - 1]:
            break
        level = candidate
    if level == 0.0:
        return 0.0
    powers = np.maximum(level - inv, 0.0)
    return bandwidth * float(np.log2(1.0 + powers * g).sum())


def _partitions(remaining: tuple[int, ...], links: int, quota: int):
    if links == 0:
        yield ()
        return
    for subset in combinations(remaining, quota):
        rest = tuple(n for n in remaining if n not in subset)
        for tail in _partitions(rest, links - 1, quota):
            yield (subset,) + tail


def oracle_optimal_rates(wl: Workload, seed: int, trial: int) -> list[float]:
    """Best water-filled sum rate over every quota partition, per budget."""
    h = channel_gains(wl, seed, trial)
    quota = wl.subchannels // wl.links
    bandwidth = 1.0  # sub-channel bandwidth B/N, with B = N
    parts = list(_partitions(tuple(range(wl.subchannels)), wl.links, quota))
    subsets = list(combinations(range(wl.subchannels), quota))
    rates = []
    for budget in BUDGETS:
        table = [
            {s: _water_filled_rate(h[k, list(s)], budget, bandwidth) for s in subsets}
            for k in range(wl.links)
        ]
        rates.append(max(sum(table[k][s] for k, s in enumerate(p)) for p in parts))
    return rates


def check_oracle(wl: Workload, seed: int, rows: list[dict[str, str]], trials: range) -> int:
    """Oracle optimum vs the CSV's optimal mean_rate over a whole batch.

    Returns the number of instances compared.
    """
    per_trial = np.array([oracle_optimal_rates(wl, seed, t) for t in trials])
    n_s = len(wl.strategy_tags)
    s_opt = wl.strategy_tags.index("optimal")
    for bi, budget in enumerate(BUDGETS):
        row = rows[bi * n_s + s_opt]
        want = float(per_trial[:, bi].mean())
        got = float(row["mean_rate"])
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-300):
            raise CheckFailed(f"seed {seed} budget {budget:g}: optimal mean_rate {got!r} != oracle {want!r}")
    return per_trial.size


def check_collect_rates(harness, channel, wl: Workload, seed: int, rows: list[dict[str, str]]) -> str:
    """Per-trial optimal dominance and CSV means, from harness.collect_rates.

    Returns a note; the check is skipped with a note if the API has changed.
    """
    try:
        params = channel.ChannelParams(
            num_links=wl.links,
            num_subchannels=wl.subchannels,
            total_bandwidth=float(wl.subchannels),
            noise_psd=NOISE_PSD,
            shadow_prob=SHADOW_PROB,
            shadow_attenuation=SHADOW_ATTEN,
            power_budgets=(1.0,) * wl.links,
        )
        config = harness.SweepConfig(
            channel_params=params,
            budget_grid=BUDGETS,
            trials=wl.trials,
            seed=seed,
            strategies=wl.strategy_tags,
        )
        exact = np.asarray(harness.collect_rates(config).exact)
    except (AttributeError, TypeError) as exc:
        return f"collect_rates check skipped: {exc}"
    n_s = len(wl.strategy_tags)
    if exact.shape != (len(BUDGETS), n_s, wl.trials):
        raise CheckFailed(f"collect_rates shape {exact.shape}")
    for bi in range(len(BUDGETS)):
        for si in range(n_s):
            want = float(rows[bi * n_s + si]["mean_rate"])
            if not math.isclose(float(exact[bi, si].mean()), want, rel_tol=1e-11, abs_tol=1e-300):
                raise CheckFailed(f"collect_rates mean {exact[bi, si].mean()!r} != CSV {want!r}")
    if wl.has_optimal:
        s_opt = wl.strategy_tags.index("optimal")
        opt = exact[:, s_opt, :][:, None, :]
        if (exact > opt * (1 + REL_TOL) + 1e-300).any():
            raise CheckFailed(f"a strategy beats optimal on some trial by {(exact - opt).max()!r}")
        return "collect_rates: per-trial optimal >= every strategy; means match the CSV"
    return "collect_rates: means match the CSV (no optimal strategy in this workload)"
