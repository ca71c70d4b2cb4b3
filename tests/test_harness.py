"""Sweep harness, CSV schema, instance dumps, bench, and CLI plumbing."""

import math

import numpy as np
import pytest

from multiband_alloc import allocators, cli, harness
from multiband_alloc.allocators import HIGH_SNR, LOW_SNR, MAX_SELECT, OPTIMAL
from multiband_alloc.assignment import solve_assignment
from multiband_alloc.channel import ChannelParams, realization_from_squared_gains
from multiband_alloc.errors import ValidationError
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
            dict(max_select_power_rule="argmax"),
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ValidationError):
            small_config(**overrides)

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

    def test_collect_rates_shapes(self):
        samples = collect_rates(small_config(trials=5))
        assert samples.exact.shape == (2, 4, 5)
        assert samples.approx is None
        both = collect_rates(small_config(trials=5, score_mode="both"))
        assert both.approx.shape == (2, 4, 5)
        low = both.approx[:, 0, :]
        assert np.isfinite(low).all()
        assert np.isnan(both.approx[:, 2, :]).all()


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
        calls = []

        def counting(cost):
            calls.append(cost)
            return solve_assignment(cost)

        for module in (allocators, harness):
            monkeypatch.setattr(module, "solve_assignment", counting, raising=False)
        report = dump_instance(small_params(), seed=2, strategy=strategy)
        assert len(calls) == 1
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

    def test_method_filter(self):
        rows = scaling_bench([(2, 4)], methods=("max_select",), reps=1)
        assert len(rows) == 1 and rows[0].method == "max_select"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            scaling_bench([(2, 4)], reps=0)
        with pytest.raises(ValidationError):
            scaling_bench([(2, 4)], methods=("simplex",))

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
        assert cli.parse_budget_grid("5:9:1") == (5.0,)

    @pytest.mark.parametrize(
        "text", ["1:2", "a:2:3", "1:2:0", "3:2:4", "0:10:3log", "1:2:3:4"]
    )
    def test_rejects_bad_grids(self, text):
        with pytest.raises(ValidationError):
            cli.parse_budget_grid(text)


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
        runs = [(self.sweep_args(out, extra=["--links", "4", "--subchannels", "2"]), "subchannels")]
        runs += [(self.sweep_args(out, extra=extra), name) for extra, name in bad + sweep_bad]
        runs += [(["dump", "--strategy", "low", *extra], name) for extra, name in bad]
        runs += [(["dump", "--strategy", "low", "--budget", "1e308"], "budget")]
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
        out = tmp_path / "missing" / "x.csv"
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

    def test_unknown_flag_exit_code(self):
        assert cli.main(["sweep", "--frobnicate"]) == 2

    def test_bad_budget_grid_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--budgets", "10:1:5", "--out", str(out)]) == 2


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
