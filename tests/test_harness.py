"""Sweep harness, CSV schema, instance dumps, bench, and CLI plumbing."""

import concurrent.futures
import dataclasses
import gc
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from multiband_alloc import allocators, cli, harness
from multiband_alloc.allocators import (
    APPROX_RATES,
    HIGH_SNR,
    LOW_SNR,
    MAX_SELECT,
    OPTIMAL,
    STRATEGY_ORDER,
    exact_sum_rate,
)
from multiband_alloc.channel import ChannelParams, realization_from_squared_gains
from multiband_alloc.errors import AllocationError, InfeasibleError, ValidationError
from multiband_alloc.harness import (
    SWEEP_CSV_HEADER,
    BenchRow,
    SweepConfig,
    bench_rows_to_csv,
    collect_rates,
    dump_instance,
    run_sweep,
    scaling_bench,
    sweep_rows_to_csv,
)


def small_params(**overrides):
    base = dict(
        num_links=2,
        num_subchannels=4,
        total_bandwidth=4.0,
        noise_psd=1.0,
        shadow_prob=0.02,
        power_budgets=(1.0, 1.0),
    )
    base.update(overrides)
    return ChannelParams(**base)


def small_config(**overrides):
    base = dict(
        channel_params=small_params(),
        budget_grid=(0.1, 10.0),
        trials=6,
        seed=11,
    )
    base.update(overrides)
    return SweepConfig(**base)


def constant_gains(params, rng):
    gains = np.full((params.num_links, params.num_subchannels), 2.0)
    return realization_from_squared_gains(params, gains)


class TestSweepConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(budget_grid=()),
            dict(budget_grid=(1.0, 1.0)),
            dict(budget_grid=(2.0, 1.0)),
            dict(budget_grid=(-1.0, 2.0)),
            dict(trials=0),
            dict(strategies=("bogus",)),
            dict(strategies=()),
            dict(score_mode="fancy"),
            dict(workers=0),
            dict(partition_guard=0),
            dict(partition_guard=-5),
            dict(max_select_power_rule="argmax"),
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ValidationError):
            small_config(**overrides)

    def test_power_rule_message_matches_allocate(self):
        params = small_params()
        chan = constant_gains(params, None)
        with pytest.raises(ValidationError) as from_config:
            small_config(max_select_power_rule="argmax")
        with pytest.raises(ValidationError) as from_allocate:
            allocators.allocate(LOW_SNR, params, chan, max_select_power_rule="argmax")
        assert str(from_config.value) == str(from_allocate.value)

    def test_strategies_normalized_to_canonical_order(self):
        config = small_config(strategies=(MAX_SELECT, OPTIMAL, LOW_SNR))
        assert config.strategies == (LOW_SNR, OPTIMAL, MAX_SELECT)

    def test_budgets_coerced_to_floats(self):
        config = small_config(budget_grid=(1, 10))
        assert config.budget_grid == (1.0, 10.0)


class TestRunSweep:
    def test_deterministic_reruns(self):
        a = sweep_rows_to_csv(run_sweep(small_config()))
        b = sweep_rows_to_csv(run_sweep(small_config()))
        assert a == b

    def test_workers_match_serial(self):
        serial = sweep_rows_to_csv(run_sweep(small_config(trials=8)))
        parallel = sweep_rows_to_csv(run_sweep(small_config(trials=8, workers=3)))
        assert serial == parallel

    def test_pool_capped_at_trial_count(self, monkeypatch):
        started, chunks = [], []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                # Run the chunks last first: the results must still come back in trial order.
                jobs = list(zip(*iterables))
                chunks.append([list(trials) for _, _, trials in jobs])
                done = {i: fn(*jobs[i]) for i in reversed(range(len(jobs)))}
                return [done[i] for i in range(len(jobs))]

        # Patched at both names harness could bind, so no real pool starts.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool, raising=False)
        seen = spy_chunks(monkeypatch)
        # (trials, workers, pool size, chunk size = ceil(trials / (4 * pool size)))
        for trials, workers, pool_size, chunksize in [(2, 64, 2, 1), (9, 2, 2, 2), (25, 3, 3, 3)]:
            seen.clear()
            pooled = sweep_rows_to_csv(run_sweep(small_config(trials=trials, workers=workers)))
            assert started.pop() == pool_size
            split = chunks.pop()
            assert max(len(chunk) for chunk in split) == chunksize
            assert [trial for chunk in split for trial in chunk] == list(range(trials))
            # One call per chunk, last first: a feasible sweep reruns no cell.
            assert seen == [len(chunk) for chunk in reversed(split)]
            assert pooled == sweep_rows_to_csv(run_sweep(small_config(trials=trials)))

    def test_serial_sweep_imports_no_process_pool(self):
        code = (
            "import sys, multiband_alloc.cli as cli\n"
            "assert cli.main(['sweep', '--trials', '2', '--budgets', '1:2:2']) == 0\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'\n"
        )
        src = os.path.dirname(os.path.dirname(harness.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            check=True,
            capture_output=True,
            timeout=120,
        )

    def test_realizations_depend_only_on_seed_and_trial(self):
        full = run_sweep(small_config())
        only_opt = run_sweep(small_config(strategies=(OPTIMAL,)))
        full_opt = [r for r in full if r.strategy == OPTIMAL]
        assert [r.mean_rate for r in full_opt] == [r.mean_rate for r in only_opt]

    def test_row_order_budget_major_strategy_minor(self):
        rows = run_sweep(small_config())
        assert [(r.budget, r.strategy) for r in rows] == [
            (0.1, LOW_SNR),
            (0.1, HIGH_SNR),
            (0.1, OPTIMAL),
            (0.1, MAX_SELECT),
            (10.0, LOW_SNR),
            (10.0, HIGH_SNR),
            (10.0, OPTIMAL),
            (10.0, MAX_SELECT),
        ]

    def test_gap_against_optimal(self):
        rows = run_sweep(small_config())
        for row in rows:
            assert row.trials == 6
            if row.strategy == OPTIMAL:
                assert row.mean_gap_vs_optimal == 0.0
            else:
                assert row.mean_gap_vs_optimal >= -1e-12

    def test_gap_absent_without_optimal(self):
        rows = run_sweep(small_config(strategies=(LOW_SNR,)))
        assert all(r.mean_gap_vs_optimal is None for r in rows)

    def test_symmetric_closed_form(self, monkeypatch):
        # All-equal gains: water-filling degenerates to an equal split, so the
        # optimum has the closed form K * quota * (B/N) * log2(1 + (P/quota) H).
        config = small_config(
            strategies=(OPTIMAL,),
            budget_grid=(0.5, 2.0),
            trials=3,
            channel_params=small_params(shadow_prob=0.0),
        )
        monkeypatch.setattr(harness, "sample_realization", constant_gains)
        rows = run_sweep(config)
        for row in rows:
            expected = 2 * 2 * 1.0 * math.log2(1.0 + (row.budget / 2.0) * 2.0)
            assert row.mean_rate == pytest.approx(expected, rel=1e-12)
            assert row.std_rate == 0.0

    def test_selections_run_once_per_chunk(self, monkeypatch):
        # Each strategy selects once per chunk of trials over the whole
        # budget grid; these 5 trials are one chunk.
        # high_snr makes one solve_capacitated call per trial at capacity
        # q = 2 and nothing else. low_snr solves at capacity 1 once per
        # distinct budget ratio: budget 0 (all-zero costs) and -H, which
        # budgets 0.1 and 10 share: 2 capacity-1 solves per trial.
        # optimal's rate table for the chunk is one water_fill call (its
        # 5 * 3 * 2 * 6 sets of 2 fill one piece); optimal's and
        # max_select's powers are one call each per chunk. A passing chunk
        # validates each strategy's cells in one batched check and no cell
        # on its own.
        selections = {tag: 0 for tag in allocators.STRATEGIES}
        solves, capacitated, fills, validations, batch_checks = [], [], [], [], []

        def counting(tag, select):
            def select_and_count(*args):
                selections[tag] += 1
                return select(*args)

            return select_and_count

        for tag, spec in list(allocators.STRATEGIES.items()):
            counted = dataclasses.replace(spec, select=counting(tag, spec.select))
            monkeypatch.setitem(allocators.STRATEGIES, tag, counted)
        original_solve = allocators.solve_capacitated

        def solve_by_capacity(costs, capacity):
            (solves if capacity == 1 else capacitated).append(1)
            return original_solve(costs, capacity)

        monkeypatch.setattr(allocators, "solve_capacitated", solve_by_capacity)
        for name, calls in [
            ("water_fill", fills),
            ("validate_allocation", validations),
            ("validate_allocations", batch_checks),
        ]:
            original = getattr(allocators, name)
            monkeypatch.setattr(
                allocators, name, lambda *a, f=original, c=calls: c.append(1) or f(*a)
            )
        trials, budgets = 5, (0.0, 0.1, 10.0)
        run_sweep(small_config(trials=trials, budget_grid=budgets))
        assert selections == {tag: 1 for tag in STRATEGY_ORDER}
        assert len(solves) == 2 * trials
        assert len(capacitated) == trials
        assert len(fills) == 1 + 2
        assert len(validations) == 0
        assert len(batch_checks) == len(STRATEGY_ORDER)

    @pytest.mark.parametrize(
        "budgets,code,message",
        [
            # low_snr's P*H overflows before high_snr, later in strategy
            # order, finds link 0 short of usable sub-channels.
            ("1e308:1e308:1", 2, "error: power budget 1e+308 W times a normalized gain overflows\n"),
            ("1e-3:1e-3:1", 3, "error: link 0 has only 1 usable sub-channels; quota is 2\n"),
            # Budget-major order: high_snr fails at 1e300 before low_snr's
            # P*H overflows at 1e308, which the strategy-major pass meets first.
            ("1e300:1e308:2log", 3, "error: link 0 has only 1 usable sub-channels; quota is 2\n"),
        ],
        ids=["overflow", "infeasible", "infeasible_before_overflow"],
    )
    def test_errors_raise_in_cell_order(self, monkeypatch, capsys, budgets, code, message):
        def short_link(params, rng):
            return realization_from_squared_gains(params, [[5.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])

        monkeypatch.setattr(harness, "sample_realization", short_link)
        assert cli.main(["sweep", "--trials", "2", "--budgets", budgets]) == code
        assert capsys.readouterr().err == message

    def test_near_max_budgets_fail_with_one_line(self, capsys):
        # At budget 1e308 the trials before the overflowing one solve low_snr
        # on P*H near the float maximum; the solve itself must stay silent.
        args = ["sweep", "--seed", "3", "--budgets", "1e300:1e308:3log", "--trials", "20"]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == "error: power budget 1e+308 W times a normalized gain overflows\n"

    @pytest.mark.parametrize(
        "trials_per_chunk,workers",
        [(None, 1), (None, 2), (1, 1), (3, 1)],
        ids=["serial", "workers2", "chunk1", "chunk3"],
    )
    def test_guard_raises_before_a_later_overflow(self, monkeypatch, capsys, trials_per_chunk, workers):
        # low_snr's P*H overflows at budget 1e308 in a later trial, and the
        # strategy-major pass meets it first; in per-cell order optimal's
        # guard trips at trial 0, budget 1e300.
        args = ["sweep", "--seed", "3", "--budgets", "1e300:1e308:3log", "--trials", "20"]
        args += ["--strategies", "low,opt", "--links", "4", "--subchannels", "8", "--guard", "10"]
        if trials_per_chunk is not None:
            # A trial holds B x K x N = 3 x 4 x 8 elements.
            monkeypatch.setattr(allocators, "_TABLE_CHUNK", trials_per_chunk * 3 * 4 * 8)
        assert cli.main(args + ["--workers", str(workers)]) == 4
        message = "error: instance too large: 2520 candidate partitions exceed the guard of 10 (K=4, N=8)\n"
        assert capsys.readouterr().err == message

    def test_collect_rates_shapes(self):
        samples = collect_rates(small_config(trials=5))
        assert samples.exact.shape == (2, 4, 5)
        assert samples.approx is None
        both = collect_rates(small_config(trials=5, score_mode="both"))
        assert both.approx.shape == (2, 4, 5)
        low = both.approx[:, 0, :]
        assert np.isfinite(low).all()
        assert np.isnan(both.approx[:, 2, :]).all()


def cli_sweep_config(
    links, subchannels, trials, seed=0, noise_psd=1.0, shadow_prob=0.02, shadow_atten=0.0, **config
):
    """A sweep with B = N on the CLI's default budget grid, as `sweep` builds it."""
    params = ChannelParams(
        num_links=links,
        num_subchannels=subchannels,
        total_bandwidth=float(subchannels),
        noise_psd=noise_psd,
        shadow_prob=shadow_prob,
        shadow_attenuation=shadow_atten,
        power_budgets=(1.0,) * links,
    )
    grid = cli.parse_budget_grid(cli.FLAGS["budgets"].default)
    return SweepConfig(channel_params=params, budget_grid=grid, trials=trials, seed=seed, **config)


def rates_cell_by_cell(config):
    """The per-cell reference: every (trial, budget, strategy) cell in that
    order through `allocate` and `exact_sum_rate`, as (exact, approx). It
    samples through harness's names, so a test that patches the sampler
    there patches the reference too."""
    params = config.channel_params
    shape = (len(config.budget_grid), len(config.strategies), config.trials)
    exact, approx = np.zeros(shape), np.full(shape, np.nan)
    for t in range(config.trials):
        chan = harness.sample_realization(params, harness.trial_rng(config.seed, t))
        for b, budget in enumerate(config.budget_grid):
            point = dataclasses.replace(params, power_budgets=(budget,) * params.num_links)
            for s, tag in enumerate(config.strategies):
                alloc = allocators.allocate(
                    tag,
                    point,
                    chan,
                    partition_guard=config.partition_guard,
                    max_select_power_rule=config.max_select_power_rule,
                )
                exact[b, s, t] = exact_sum_rate(point, chan, alloc).total_rate
                if tag in APPROX_RATES:
                    approx[b, s, t] = APPROX_RATES[tag](point, chan, alloc)
    return exact, approx


SWEEPS = [
    cli_sweep_config(8, 32, 3, shadow_atten=1e-3, strategies=(LOW_SNR, HIGH_SNR, MAX_SELECT)),
    cli_sweep_config(4, 8, 3, shadow_prob=0.3, shadow_atten=1e-3, score_mode="both"),
    cli_sweep_config(3, 7, 5, max_select_power_rule="equal_split"),
    cli_sweep_config(2, 4, 5, seed=11, shadow_prob=0.3, shadow_atten=1e-3),
]
SWEEP_IDS = ["k8_n32", "k4_n8_score_both", "k3_n7_equal_split", "k2_n4_shadowed"]


def spy_chunks(monkeypatch):
    """Patch `harness._chunk_rates` with a spy in this process; the list it
    returns gets the trial count of every call."""
    seen, chunk_rates = [], harness._chunk_rates

    def spy(config, budgets, trials):
        seen.append(len(trials))
        return chunk_rates(config, budgets, trials)

    monkeypatch.setattr(harness, "_chunk_rates", spy)
    return seen


def chunk_trials(monkeypatch, config, trials_per_chunk):
    """Patch the chunk bound so that a chunk of `config` holds
    `trials_per_chunk` trials."""
    params = config.channel_params
    per_trial = len(config.budget_grid) * params.num_links * params.num_subchannels
    monkeypatch.setattr(allocators, "_TABLE_CHUNK", trials_per_chunk * per_trial)


class TestBatchedTrialsMatchCells:
    """A chunk of trials powers and scores each strategy over all its
    (trial, budget) cells in one pass; every cell must equal the per-cell
    path bit for bit, whatever the chunk layout."""

    @pytest.mark.parametrize("config", SWEEPS, ids=SWEEP_IDS)
    def test_every_cell_matches_allocate(self, monkeypatch, config):
        seen = spy_chunks(monkeypatch)
        samples = collect_rates(config)
        # Each sweep fits one chunk, and a feasible sweep reruns no cell.
        assert seen == [config.trials]
        exact, approx = rates_cell_by_cell(config)
        assert samples.exact.tobytes() == exact.tobytes()
        if config.score_mode == "both":
            assert samples.approx.tobytes() == approx.tobytes()

    @pytest.mark.parametrize("config", SWEEPS, ids=SWEEP_IDS)
    @pytest.mark.parametrize(
        "trials_per_chunk,workers,chunks",
        [(1, 1, [1] * 5), (3, 1, [3, 2]), (5, 1, [5]), (None, 2, None), (None, 3, None)],
        ids=["chunk1", "chunk3", "chunk_all", "workers2", "workers3"],
    )
    def test_chunk_layout_changes_no_cell(self, monkeypatch, config, trials_per_chunk, workers, chunks):
        config = dataclasses.replace(config, trials=5, workers=workers)
        seen = []
        if trials_per_chunk is not None:
            # The pool cannot pickle a spy; the fake pool of
            # `test_pool_capped_at_trial_count` counts the pooled calls.
            chunk_trials(monkeypatch, config, trials_per_chunk)
            seen = spy_chunks(monkeypatch)
        samples = collect_rates(config)
        assert seen == (chunks or [])
        exact, approx = rates_cell_by_cell(config)
        assert samples.exact.tobytes() == exact.tobytes()
        if config.score_mode == "both":
            assert samples.approx.tobytes() == approx.tobytes()

    @pytest.mark.parametrize("later", [None, "sampling", "overflow"])
    @pytest.mark.parametrize(
        "trials_per_chunk,workers",
        [(1, 1), (3, 1), (None, 1), (None, 2)],
        ids=["chunk1", "chunk3", "chunk_all", "workers2"],
    )
    def test_failure_inside_a_chunk(self, monkeypatch, later, trials_per_chunk, workers):
        # Only trial 3 of 6 leaves link 0 one usable sub-channel, so
        # high_snr fails there (exit 3). With `later`, trial 5 fails too,
        # and sooner in a pass that samples or runs low_snr over the whole
        # chunk first: its draw raises (exit 2), or low_snr's P*H overflows
        # at budget 1e3 (exit 2).
        def sample(params, trial):
            if trial == 5 and later == "sampling":
                raise ValidationError("trial 5 cannot be drawn")
            squared = np.random.default_rng(trial).uniform(0.5, 2.0, (2, 4))
            if trial == 3:
                squared = [[5.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]
            if trial == 5 and later == "overflow":
                squared = np.full((2, 4), 1e306)
            return realization_from_squared_gains(params, squared)

        monkeypatch.setattr(harness, "trial_rng", lambda seed, trial: trial)
        monkeypatch.setattr(harness, "sample_realization", sample)
        config = cli_sweep_config(2, 4, 6, workers=workers)
        if trials_per_chunk is not None:
            chunk_trials(monkeypatch, config, trials_per_chunk)
        with pytest.raises(AllocationError) as expected:
            rates_cell_by_cell(config)
        assert type(expected.value) is InfeasibleError
        assert str(expected.value) == "link 0 has only 1 usable sub-channels; quota is 2"
        with pytest.raises(AllocationError) as raised:
            collect_rates(config)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        assert raised.value.exit_code == 3

    @pytest.mark.parametrize("seed", [8, 11])
    def test_first_failing_cell_raises(self, seed):
        # Low-SNR budget overshoot. At seed 8 the strategy-major pass first
        # meets optimal at budget 0.01, but max_select fails earlier in
        # budget-major order, at 0.001.
        config = cli_sweep_config(2, 4, 4, seed=seed, noise_psd=1e7)
        with pytest.raises(ValidationError) as expected:
            rates_cell_by_cell(config)
        assert str(expected.value) == "link 0: power sum 0.0010000020265579224 exceeds budget 0.001"
        with pytest.raises(ValidationError) as raised:
            collect_rates(config)
        assert str(raised.value) == str(expected.value)


class TestChunkMemory:
    def test_chunk_bound_sets_the_working_set(self):
        # At K=8, N=32 and 7 budgets a chunk holds 36 trials, so 40 trials
        # already fill one; 400 trials run 12 chunks and must peak within
        # 10% of that. Warm up first: the interpreter's free lists fill
        # during the first sweeps and stay filled. A full gc collection
        # empties them, so none may run after the warm-up, or the peaks
        # would depend on which tests ran before: collect first, and keep
        # automatic collection off until both sweeps are measured.
        def sweep(trials):
            return cli_sweep_config(8, 32, trials, shadow_atten=1e-3, strategies=(MAX_SELECT,))

        gc.collect()
        gc.disable()
        peaks = []
        try:
            collect_rates(sweep(400))
            for trials in (40, 400):
                tracemalloc.start()
                try:
                    collect_rates(sweep(trials))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            gc.enable()
        assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]


class TestCsvFormat:
    def test_header_and_float_format(self):
        text = sweep_rows_to_csv(run_sweep(small_config(trials=3)))
        lines = text.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 2 * 4
        first = lines[1].split(",")
        assert first[0] == "0.1"
        assert first[1] == LOW_SNR
        assert first[2] == "3"
        float(first[3]), float(first[4]), float(first[5]), float(first[6])

    def test_gap_column_blank_without_optimal(self):
        text = sweep_rows_to_csv(run_sweep(small_config(trials=2, strategies=(LOW_SNR,))))
        row = text.splitlines()[1]
        assert row.endswith(",")
        assert len(row.split(",")) == 7

    def test_score_both_adds_column(self):
        config = small_config(trials=2, score_mode="both")
        text = sweep_rows_to_csv(run_sweep(config), score_mode="both")
        lines = text.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER + ",mean_approx_rate"
        by_strategy = {line.split(",")[1]: line.split(",") for line in lines[1:5]}
        assert by_strategy[LOW_SNR][7] != ""
        assert by_strategy[HIGH_SNR][7] != ""
        assert by_strategy[OPTIMAL][7] == ""
        assert by_strategy[MAX_SELECT][7] == ""


class TestDumpInstance:
    @pytest.mark.parametrize("strategy", [LOW_SNR, HIGH_SNR, OPTIMAL, MAX_SELECT])
    def test_deterministic_and_round_trips(self, strategy):
        params = small_params()
        report = dump_instance(params, seed=5, strategy=strategy)
        assert report == dump_instance(params, seed=5, strategy=strategy)

        lines = report.splitlines()
        def matrix_after(label):
            start = lines.index(label + ":") + 1
            return np.array(
                [[float(x) for x in lines[start + k].split()] for k in range(2)]
            )

        gains = matrix_after("normalized_gains")
        powers = matrix_after("powers")
        sets = []
        start = lines.index("subchannels_of_link:") + 1
        for k in range(2):
            sets.append([int(x) for x in lines[start + k].split(":")[1].split()])
        total = float(report.split("total_rate: ")[1])

        recomputed = sum(
            math.log2(1.0 + powers[k, n] * gains[k, n]) for k in range(2) for n in sets[k]
        )
        assert recomputed == pytest.approx(total, abs=1e-9)
        for k in range(2):
            assert powers[k].sum() <= 1.0 + 1e-9

    def test_hungarian_strategies_include_cost_matrix(self):
        low = dump_instance(small_params(), seed=2, strategy=LOW_SNR)
        high = dump_instance(small_params(), seed=2, strategy=HIGH_SNR)
        other = dump_instance(small_params(), seed=2, strategy=MAX_SELECT)
        assert "cost_matrix" in low and "assignment:" in low
        assert "cost_matrix" in high and "assignment:" in high
        assert "cost_matrix" not in other

    @pytest.mark.parametrize("strategy", [LOW_SNR, HIGH_SNR])
    def test_reads_the_allocators_own_solve(self, strategy, monkeypatch):
        # low_snr makes one solve at capacity 1; high_snr one at capacity
        # q = 2.
        calls = {1: [], 2: []}
        original = allocators.solve_capacitated

        def counting(costs, capacity):
            calls[capacity].append(1)
            return original(costs, capacity)

        for module in (allocators, harness):
            monkeypatch.setattr(module, "solve_capacitated", counting)
        report = dump_instance(small_params(), seed=2, strategy=strategy)
        expected = (1, 0) if strategy == LOW_SNR else (0, 1)
        assert (len(calls[1]), len(calls[2])) == expected
        assert "assignment:" in report


class TestScalingBench:
    def test_rows_and_counts(self):
        rows = scaling_bench([(2, 4)], reps=2)
        assert [r.method for r in rows] == ["hungarian", "optimal", "max_select"]
        for row in rows:
            assert row.status == "ok"
            assert row.median_seconds > 0
        assert rows[1].partition_count == 6

    def test_guard_skips_optimal(self):
        rows = scaling_bench([(2, 8)], reps=1, optimal_guard=5)
        opt = [r for r in rows if r.method == "optimal"][0]
        assert opt.status == "skipped"
        assert opt.median_seconds is None
        assert opt.partition_count == 70

    def test_optimal_runs_under_the_bench_guard(self, monkeypatch):
        guards = []

        def spy(tag, params, chan, **kwargs):
            guards.append(kwargs.get("partition_guard"))
            return allocators.allocate(tag, params, chan, **kwargs)

        monkeypatch.setattr(harness, "allocate", spy)
        rows = scaling_bench([(2, 8)], methods=("optimal",), reps=2, optimal_guard=70)
        assert guards == [70, 70]
        assert rows[0].status == "ok" and rows[0].partition_count == 70

    def test_method_filter(self):
        rows = scaling_bench([(2, 4)], methods=("max_select",), reps=1)
        assert len(rows) == 1 and rows[0].method == "max_select"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            scaling_bench([(2, 4)], reps=0)
        with pytest.raises(ValidationError):
            scaling_bench([(2, 4)], methods=("simplex",))
        with pytest.raises(ValidationError):
            scaling_bench([(2, 4)], methods=())
        with pytest.raises(ValidationError, match=r"^partition_guard must be >= 1$"):
            scaling_bench([(2, 4)], methods=("max_select",), optimal_guard=0)

    def test_partition_count_too_long_to_print(self):
        # C(100000, 50000) has 30,101 digits, more than `str` prints.
        count = allocators.partition_count(100000, 2)
        rows = [BenchRow("optimal", 2, 100000, 1, None, count, "skipped")]
        assert bench_rows_to_csv(rows).splitlines()[1] == "optimal,2,100000,1,,more than 10^30100,skipped"

    def test_partition_count_computed_once_per_dims(self):
        # The row's count and `optimal`'s guard check share one computation,
        # which takes about 0.15 s at N = 100,000.
        allocators.partition_count.cache_clear()
        rows = scaling_bench([(2, 200), (2, 200)], reps=1, methods=("optimal",), optimal_guard=10)
        assert [row.status for row in rows] == ["skipped", "skipped"]
        assert rows[0].partition_count == math.comb(200, 100)
        info = allocators.partition_count.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_csv_blank_for_skipped(self):
        rows = [BenchRow("optimal", 2, 8, 1, None, 70, "skipped")]
        text = bench_rows_to_csv(rows)
        assert text.splitlines()[0] == "method,links,subchannels,reps,median_seconds,partition_count,status"
        assert text.splitlines()[1] == "optimal,2,8,1,,70,skipped"


class TestBudgetGridParsing:
    def test_log_default(self):
        grid = cli.parse_budget_grid("1e-3:1e3:7")
        assert len(grid) == 7
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e3)
        assert grid[3] == pytest.approx(1.0)

    def test_linear(self):
        assert cli.parse_budget_grid("1:3:3lin") == (1.0, 2.0, 3.0)

    def test_explicit_log_suffix(self):
        assert cli.parse_budget_grid("1:100:3log") == pytest.approx((1.0, 10.0, 100.0))

    def test_single_point(self):
        # One point is LO: HI needs no order, only a finite value >= 0.
        assert cli.parse_budget_grid("5:9:1") == (5.0,)
        assert cli.parse_budget_grid("1e308:1e308:1") == (1e308,)
        assert cli.parse_budget_grid("1e-3:1e-3:1") == (1e-3,)

    @pytest.mark.parametrize(
        "text",
        ["1:2", "a:2:3", "1:2:0", "3:2:4", "0:10:3log", "1:2:3:4", "1:inf:1", "1:nan:1", "1:-3:1"],
    )
    def test_rejects_bad_grids(self, text):
        with pytest.raises(ValidationError):
            cli.parse_budget_grid(text)

    @pytest.mark.parametrize("spacing", ["", "lin"])
    @pytest.mark.parametrize("points", [cli.MAX_GRID_POINTS + 1, 10**11])
    def test_point_count_bounded_before_the_grid_is_built(self, monkeypatch, points, spacing):
        # 10**11 log-spaced points would ask numpy for 745 GiB.
        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(cli.np, "geomspace", no_grid)
        monkeypatch.setattr(cli.np, "linspace", no_grid)
        with pytest.raises(ValidationError) as exc:
            cli.parse_budget_grid(f"1:2:{points}{spacing}")
        assert str(exc.value) == f"budget grid has {points} points; at most 1000000 allowed"


class TestStrategyAndDimsParsing:
    def test_short_names(self):
        assert cli.parse_strategies("low,high,opt,maxsel") == (
            LOW_SNR,
            HIGH_SNR,
            OPTIMAL,
            MAX_SELECT,
        )

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            cli.parse_strategies("low,best")

    def test_empty(self):
        with pytest.raises(ValidationError):
            cli.parse_strategies(" , ")

    def test_dims(self):
        assert cli.parse_dims("2:4, 8:32") == [(2, 4), (8, 32)]

    def test_bad_dims(self):
        with pytest.raises(ValidationError):
            cli.parse_dims("2x4")


class TestCliMain:
    def sweep_args(self, out, extra=()):
        return [
            "sweep",
            "--trials",
            "3",
            "--budgets",
            "0.5:2:2lin",
            "--seed",
            "4",
            "--out",
            str(out),
            *extra,
        ]

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(self.sweep_args(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 2 * 4

    def test_sweep_matches_library_call(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cli.main(self.sweep_args(out))
        config = SweepConfig(
            channel_params=small_params(),
            budget_grid=(0.5, 2.0),
            trials=3,
            seed=4,
        )
        assert out.read_text() == sweep_rows_to_csv(run_sweep(config))

    def test_dump_runs(self, tmp_path):
        out = tmp_path / "dump.txt"
        code = cli.main(
            ["dump", "--strategy", "opt", "--seed", "6", "--budget", "2.5", "--out", str(out)]
        )
        assert code == 0
        assert "total_rate:" in out.read_text()

    def test_bench_runs(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main(
            ["bench", "--dims", "2:4", "--reps", "1", "--methods", "max_select", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("method,")

    def test_empty_bench_methods_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--dims", "2:4", "--reps", "1", "--methods", ",", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        # (flags, the parameter the one-line error must name)
        bad = [
            (["--seed", "-1"], "seed"),
            (["--noise-psd", "inf"], "noise_psd"),
            (["--bandwidth", "inf"], "bandwidth"),
            (["--shadow-atten", "inf"], "shadow_atten"),
            (["--noise-psd", "1e-320"], "noise_psd"),
            (["--bandwidth", "1e-320"], "bandwidth"),
            (["--shadow-atten", "1e308", "--shadow-prob", "1"], "shadow_atten"),
        ]
        sweep_bad = [(["--budgets", "1e-3:1e400:3"], "budgets"), (["--budgets", "1e300:1e308:2"], "budget")]
        # The exact scorer's p*H overflows for every strategy but low_snr.
        sweep_bad += [
            (["--strategies", strategy, "--budgets", "1e307:1.7e308:2"], "budget")
            for strategy in ("high", "opt", "maxsel")
        ]
        runs = [(self.sweep_args(out, extra=["--links", "4", "--subchannels", "2"]), "subchannels")]
        runs += [(self.sweep_args(out, extra=extra), name) for extra, name in bad + sweep_bad]
        runs += [(["dump", "--strategy", "low", *extra], name) for extra, name in bad]
        runs += [(["dump", "--strategy", "low", "--budget", "1e308"], "budget")]
        runs += [
            (["dump", "--strategy", strategy, "--budget", "1.7e308"], "budget")
            for strategy in ("high", "opt", "maxsel")
        ]
        for args, name in runs:
            assert cli.main(args) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,stage",
        [
            (["sweep", "--trials", "1"], "run_sweep"),
            (["dump", "--strategy", "low"], "dump_instance"),
            (["bench", "--dims", "2:4", "--reps", "1"], "scaling_bench"),
        ],
    )
    def test_unwritable_out_exit_code(self, tmp_path, capsys, monkeypatch, command, stage):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{stage} ran before --out was checked")

        monkeypatch.setattr(harness, stage, must_not_run)
        not_a_directory = tmp_path / "bad.cfg"
        not_a_directory.write_text("trials = 5\n")
        # A missing directory, a path that names an existing directory, an
        # empty path (whose dirname "" would read as the writable "."), and
        # a path under a regular file, which is writable but no directory.
        for out in (tmp_path / "missing" / "x.csv", tmp_path, "", not_a_directory / "x"):
            assert cli.main([*command, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_infeasible_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        args = self.sweep_args(
            out, extra=["--strategies", "high", "--shadow-prob", "1.0"]
        )
        assert cli.main(args) == 3

    def test_guard_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        args = self.sweep_args(
            out, extra=["--strategies", "opt", "--subchannels", "8", "--guard", "10"]
        )
        assert cli.main(args) == 4

    @pytest.mark.parametrize("guard", ["0", "-5"])
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--trials", "1"],
            ["dump", "--strategy", "opt"],
            ["dump", "--strategy", "low"],
            ["bench", "--dims", "2:4", "--reps", "1", "--methods", "optimal"],
        ],
        ids=["sweep", "dump_opt", "dump_low", "bench"],
    )
    def test_guard_below_one_exit_code(self, capsys, command, guard):
        assert cli.main([*command, "--guard", guard]) == 2
        assert capsys.readouterr() == ("", "error: partition_guard must be >= 1\n")

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--trials", "1", "--strategies", "opt"],
            ["dump", "--strategy", "opt"],
        ],
        ids=["sweep", "dump"],
    )
    def test_guard_on_a_count_too_long_to_print(self, capsys, command):
        # C(20000, 10000) partitions: 6,019 digits, more than `str` prints.
        assert cli.main([*command, "--links", "2", "--subchannels", "20000"]) == 4
        assert capsys.readouterr() == (
            "",
            "error: instance too large: more than 10^6018 candidate partitions exceed "
            "the guard of 1000000 (K=2, N=20000)\n",
        )

    def test_bench_skips_a_count_too_long_to_print(self, capsys):
        assert cli.main(["bench", "--dims", "2:100000", "--reps", "1", "--methods", "optimal"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[1] == "optimal,2,100000,1,,more than 10^30100,skipped"

    def test_too_many_grid_points_exit_code(self, capsys):
        assert cli.main(["sweep", "--budgets", "1:2:100000000000"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: budget grid has 100000000000 points; at most 1000000 allowed\n",
        )

    def test_dump_guard(self, capsys):
        # K=2, N=4 has 6 partitions.
        args = ["dump", "--strategy", "opt", "--seed", "3", "--budget", "10"]
        assert cli.main([*args, "--guard", "5"]) == 4
        assert capsys.readouterr().err == (
            "error: instance too large: 6 candidate partitions exceed the guard of 5 (K=2, N=4)\n"
        )
        assert cli.main([*args, "--guard", "6"]) == 0
        out = capsys.readouterr().out
        assert out.encode() == (pathlib.Path(__file__).parent / "golden" / "dump_opt.txt").read_bytes()

    def test_subnormal_gains_sweep_without_warnings(self, capsys):
        # 1/H overflows for gains shadowed down to 1e-320; such a channel
        # counts as unpowerable, silently.
        args = ["sweep", "--seed", "11", "--trials", "20", "--shadow-atten", "1e-320", "--shadow-prob", "0.3"]
        assert cli.main(args) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_flag_exit_code(self):
        assert cli.main(["sweep", "--frobnicate"]) == 2

    def test_bad_budget_grid_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--budgets", "10:1:5", "--out", str(out)]) == 2

    @pytest.mark.parametrize("grid", ["nan:1:3", "1:nan:3", "inf:inf:2"])
    def test_non_finite_budget_grid_names_finiteness(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--budgets", grid, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: budgets must be finite and >= 0\n"
        assert not out.exists()


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# experiment setup\n"
            "links = 2\n"
            "subchannels = 4\n"
            "budgets = 1:10:2lin\n"
            "trials = 5\n"
            "seed = 21\n"
        )
        out = tmp_path / "out.csv"
        code = cli.main(
            ["sweep", "--config", str(cfg), "--trials", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        budgets = {line.split(",")[0] for line in lines[1:]}
        trials = {line.split(",")[2] for line in lines[1:]}
        assert budgets == {"1", "10"}
        assert trials == {"2"}

    def test_dash_and_underscore_keys_equivalent(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("noise-psd = 2.0\nshadow_prob = 0.0\nbudgets=1:2:2lin\ntrials=1\n")
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("warp_factor = 9\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("links 2\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert cli.main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(b"trials = 5\n\xff\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1
