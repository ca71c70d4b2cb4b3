"""Command-line front-end: `sweep`, `dump`, and `bench` subcommands.

Exit codes: 0 success, 2 validation error, 3 infeasible instance, 4
enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

import numpy as np

from . import allocators, harness
from .allocators import DEFAULT_MAX_SELECT_POWER_RULE, DEFAULT_PARTITION_GUARD, POWER_RULES
from .channel import ChannelParams
from .errors import AllocationError, ValidationError

__all__ = ["main", "entrypoint", "parse_budget_grid", "parse_strategies", "parse_dims", "parse_methods"]

STRATEGY_SHORT = {
    "low": allocators.LOW_SNR,
    "high": allocators.HIGH_SNR,
    "opt": allocators.OPTIMAL,
    "maxsel": allocators.MAX_SELECT,
}


SWEEP, DUMP, BENCH = "sweep", "dump", "bench"
_SHORT_NAMES, _METHODS = ",".join(STRATEGY_SHORT), ",".join(harness.BENCH_METHODS)


class Flag(NamedTuple):
    """One option: the subcommands that take it, value type (also applied
    to config-file values), default, help text and, if restricted, its
    allowed values."""

    commands: tuple[str, ...]
    type: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None
    required: bool = False


# Every option of every subcommand but -h and sweep's --config, in --help
# order, except that dump and bench list --out last. The sweep's rows are
# also its config-file keys.
FLAGS = {
    "links": Flag((SWEEP, DUMP), int, 2, "number of links K"),
    "subchannels": Flag((SWEEP, DUMP), int, 4, "number of sub-channels N"),
    "bandwidth": Flag((SWEEP, DUMP), float, 4.0, "total bandwidth B in Hz"),
    "noise_psd": Flag((SWEEP, DUMP), float, 1.0, "noise PSD N0 in W/Hz"),
    "shadow_prob": Flag((SWEEP, DUMP), float, 0.02, "per-entry shadowing probability"),
    "shadow_atten": Flag((SWEEP, DUMP), float, 0.0, "squared-gain multiplier for shadowed entries"),
    "budgets": Flag((SWEEP,), str, "1e-3:1e3:7log", "per-link budget grid LO:HI:POINTS[log|lin] (default log)"),
    "budget": Flag((DUMP,), float, 1.0, "per-link power budget in W"),
    "trials": Flag((SWEEP,), int, 200, "Monte Carlo trials per budget point"),
    "dims": Flag((BENCH,), str, "2:8,2:12,2:16,4:16,8:32", "comma list of K:N pairs"),
    "methods": Flag((BENCH,), str, _METHODS, "comma list from: " + _METHODS),
    "reps": Flag((BENCH,), int, 20, "repetitions per cell (median reported)"),
    "seed": Flag((SWEEP, DUMP, BENCH), int, 0, "base RNG seed"),
    "strategies": Flag((SWEEP,), str, _SHORT_NAMES, "comma list from: " + _SHORT_NAMES),
    "strategy": Flag((DUMP,), str, None, "strategy short name", tuple(sorted(STRATEGY_SHORT)), required=True),
    "out": Flag((SWEEP, DUMP, BENCH), str, None, "output path (default: stdout)"),
    "score": Flag((SWEEP,), str, "exact", "'both' adds the regime strategies' own approximate objectives", harness.SCORE_MODES),
    "workers": Flag((SWEEP,), int, 1, "parallel trial workers (default 1)"),
    "guard": Flag((SWEEP, DUMP, BENCH), int, DEFAULT_PARTITION_GUARD, "partition-count guard for the optimal strategy"),
    "maxsel_power": Flag((SWEEP, DUMP), str, DEFAULT_MAX_SELECT_POWER_RULE, "max_select power rule", POWER_RULES),
}
SWEEP_FLAGS = {name: flag for name, flag in FLAGS.items() if SWEEP in flag.commands}
# Most points a budget grid may have: far more than any sweep needs, and far
# less than a grid whose array alone would take gigabytes.
MAX_GRID_POINTS = 10**6


def parse_budget_grid(text: str) -> tuple[float, ...]:
    """Parse "LO:HI:POINTS[log|lin]" into a strictly increasing budget grid.

    The spacing suffix is optional and defaults to log.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"budget grid must look like LO:HI:POINTS[log|lin], got {text!r}")
    lo_s, hi_s, pts_s = parts
    spacing = "log"
    for suffix in ("log", "lin"):
        if pts_s.endswith(suffix):
            spacing = suffix
            pts_s = pts_s[: -len(suffix)]
    try:
        lo, hi, points = float(lo_s), float(hi_s), int(pts_s)
    except ValueError as err:
        raise ValidationError(f"bad budget grid {text!r}: {err}") from None
    if points < 1:
        raise ValidationError("budget grid needs at least one point")
    if points > MAX_GRID_POINTS:
        raise ValidationError(f"budget grid has {points} points; at most {MAX_GRID_POINTS} allowed")
    # Before the one-point shortcut and the order check: NaN and inf
    # endpoints are neither skipped nor out of order.
    if not all(0.0 <= b < np.inf for b in (lo, hi)):
        raise ValidationError("budgets must be finite and >= 0")
    if points == 1:
        return (lo,)
    if not lo < hi:
        raise ValidationError("budget grid needs LO < HI")
    if spacing == "log":
        if lo <= 0:
            raise ValidationError("log-spaced budget grid needs LO > 0")
        grid = np.geomspace(lo, hi, points)
    else:
        grid = np.linspace(lo, hi, points)
    return tuple(float(b) for b in grid)


def _comma_items(text: str) -> list[str]:
    """The stripped, non-blank items of a comma list."""
    return [item.strip() for item in text.split(",") if item.strip()]


def parse_strategies(text: str) -> tuple[str, ...]:
    """Map comma-separated short names (low,high,opt,maxsel) to strategy tags."""
    names = _comma_items(text)
    if not names:
        raise ValidationError("strategies must name at least one of " + _SHORT_NAMES)
    tags = []
    for name in names:
        if name not in STRATEGY_SHORT:
            raise ValidationError(f"unknown strategy {name!r}; choose from {_SHORT_NAMES}")
        tags.append(STRATEGY_SHORT[name])
    return tuple(tags)


def parse_dims(text: str) -> list[tuple[int, int]]:
    """Parse "K:N,K:N,..." bench dimensions."""
    dims = []
    for item in _comma_items(text):
        try:
            k_s, n_s = item.split(":")
            dims.append((int(k_s), int(n_s)))
        except ValueError:
            raise ValidationError(f"bad dimension {item!r}; expected K:N") from None
    if not dims:
        raise ValidationError("dims must contain at least one K:N pair")
    return dims


def parse_methods(text: str) -> tuple[str, ...]:
    """Split a comma list of bench methods; `scaling_bench` checks the names."""
    methods = tuple(_comma_items(text))
    if not methods:
        raise ValidationError("methods must name at least one of " + _METHODS)
    return methods


def read_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value UTF-8 file; '#' starts a comment, blank lines skipped."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in SWEEP_FLAGS:
                    raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read config file {path}: {err}") from None
    return values


def _resolve_sweep_settings(args: argparse.Namespace) -> dict:
    """Merge per-flag precedence: command line > config file > defaults."""
    config = read_config_file(args.config) if args.config else {}
    settings = {}
    for key, flag in SWEEP_FLAGS.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            settings[key] = flag_value
        elif key in config:
            try:
                settings[key] = flag.type(config[key])
            except ValueError as err:
                raise ValidationError(f"config key {key}: {err}") from None
        else:
            settings[key] = flag.default
    return settings


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the FLAGS rows `command` takes; sweep defaults wait for its config file."""
    names = [name for name, flag in FLAGS.items() if command in flag.commands]
    if command != SWEEP:
        names.sort(key=lambda name: name == "out")
    for name in names:
        flag = FLAGS[name]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=flag.type,
            default=None if command == SWEEP else flag.default,
            choices=flag.choices,
            required=flag.required,
            help=flag.help,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiband-alloc",
        description="Sub-channel and power allocation experiments for centralized multi-band networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        (SWEEP, "Monte Carlo sum-rate vs power budget sweep (CSV)", _run_sweep),
        (DUMP, "allocate one seeded instance and print the full report", _run_dump),
        (BENCH, "solver scaling micro-benchmark (CSV)", _run_bench),
    )
    for command, help_text, run in commands:
        subparser = sub.add_parser(command, help=help_text)
        subparser.set_defaults(run=run)
        _add_flags(subparser, command)
        if command == SWEEP:
            subparser.add_argument("--config", help="flat key=value file mirroring sweep flags; flags override")
    return parser


def _check_out(out_path: str | None) -> None:
    """Fail before any work runs if the output path is empty or a
    directory, or the path it lies in is not a writable directory."""
    if out_path is None:
        return
    if not out_path:
        raise ValidationError("cannot write --out: the path is empty")
    if os.path.isdir(out_path):
        raise ValidationError(f"cannot write --out {out_path}: it is a directory")
    parent = os.path.dirname(out_path) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ValidationError(f"cannot write --out {out_path}: no writable directory")


def _channel_params(flags: dict, budget: float) -> ChannelParams:
    return ChannelParams(
        num_links=flags["links"],
        num_subchannels=flags["subchannels"],
        total_bandwidth=flags["bandwidth"],
        noise_psd=flags["noise_psd"],
        shadow_prob=flags["shadow_prob"],
        shadow_attenuation=flags["shadow_atten"],
        power_budgets=(budget,) * flags["links"],
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise ValidationError(f"cannot write --out {out_path}: {err.strerror}") from None


def _run_sweep(args: argparse.Namespace) -> None:
    s = _resolve_sweep_settings(args)
    _check_out(s["out"])
    config = harness.SweepConfig(
        channel_params=_channel_params(s, 1.0),
        budget_grid=parse_budget_grid(s["budgets"]),
        trials=s["trials"],
        seed=s["seed"],
        strategies=parse_strategies(s["strategies"]),
        score_mode=s["score"],
        workers=s["workers"],
        partition_guard=s["guard"],
        max_select_power_rule=s["maxsel_power"],
    )
    rows = harness.run_sweep(config)
    _emit(harness.sweep_rows_to_csv(rows, config.score_mode), s["out"])


def _run_dump(args: argparse.Namespace) -> None:
    _check_out(args.out)
    report = harness.dump_instance(
        _channel_params(vars(args), args.budget),
        args.seed,
        STRATEGY_SHORT[args.strategy],
        partition_guard=args.guard,
        max_select_power_rule=args.maxsel_power,
    )
    _emit(report, args.out)


def _run_bench(args: argparse.Namespace) -> None:
    _check_out(args.out)
    rows = harness.scaling_bench(
        parse_dims(args.dims),
        methods=parse_methods(args.methods),
        reps=args.reps,
        optimal_guard=args.guard,
        seed=args.seed,
    )
    _emit(harness.bench_rows_to_csv(rows), args.out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.run(args)
    except AllocationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
