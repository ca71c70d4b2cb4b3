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
from .allocators import DEFAULT_PARTITION_GUARD, POWER_RULES
from .channel import ChannelParams
from .errors import AllocationError, ValidationError

__all__ = ["main", "entrypoint", "parse_budget_grid", "parse_strategies", "parse_dims"]

STRATEGY_SHORT = {
    "low": allocators.LOW_SNR,
    "high": allocators.HIGH_SNR,
    "opt": allocators.OPTIMAL,
    "maxsel": allocators.MAX_SELECT,
}


class Flag(NamedTuple):
    """One sweep flag: value type (also applied to config-file values),
    default, help text and, if restricted, its allowed values."""

    type: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None


# Every sweep flag, in --help order. The table drives the sweep parser, the
# config-file keys and their types, and the channel flags dump shares.
SWEEP_FLAGS = {
    "links": Flag(int, 2, "number of links K"),
    "subchannels": Flag(int, 4, "number of sub-channels N"),
    "bandwidth": Flag(float, 4.0, "total bandwidth B in Hz"),
    "noise_psd": Flag(float, 1.0, "noise PSD N0 in W/Hz"),
    "shadow_prob": Flag(float, 0.02, "per-entry shadowing probability"),
    "shadow_atten": Flag(float, 0.0, "squared-gain multiplier for shadowed entries"),
    "budgets": Flag(str, "1e-3:1e3:7log", "per-link budget grid LO:HI:POINTS[log|lin] (default log)"),
    "trials": Flag(int, 200, "Monte Carlo trials per budget point"),
    "seed": Flag(int, 0, "base RNG seed"),
    "strategies": Flag(str, "low,high,opt,maxsel", "comma list from: low,high,opt,maxsel"),
    "out": Flag(str, None, "output CSV path (default: stdout)"),
    "score": Flag(str, "exact", "'both' adds the regime strategies' own approximate objectives", harness.SCORE_MODES),
    "workers": Flag(int, 1, "parallel trial workers (default 1)"),
    "guard": Flag(int, DEFAULT_PARTITION_GUARD, "partition-count guard for the optimal strategy"),
    "maxsel_power": Flag(str, "water_fill", "max_select power rule", POWER_RULES),
}
CHANNEL_FLAGS = ("links", "subchannels", "bandwidth", "noise_psd", "shadow_prob", "shadow_atten")


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
    if points == 1:
        return (lo,)
    if not lo < hi:
        raise ValidationError("budget grid needs LO < HI")
    if not (0.0 <= lo and hi < np.inf):
        raise ValidationError("budgets must be finite and >= 0")
    if spacing == "log":
        if lo <= 0:
            raise ValidationError("log-spaced budget grid needs LO > 0")
        grid = np.geomspace(lo, hi, points)
    else:
        grid = np.linspace(lo, hi, points)
    return tuple(float(b) for b in grid)


def parse_strategies(text: str) -> tuple[str, ...]:
    """Map comma-separated short names (low,high,opt,maxsel) to strategy tags."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise ValidationError("strategies must name at least one of " + ",".join(STRATEGY_SHORT))
    tags = []
    for name in names:
        if name not in STRATEGY_SHORT:
            raise ValidationError(
                f"unknown strategy {name!r}; choose from {','.join(STRATEGY_SHORT)}"
            )
        tags.append(STRATEGY_SHORT[name])
    return tuple(tags)


def parse_dims(text: str) -> list[tuple[int, int]]:
    """Parse "K:N,K:N,..." bench dimensions."""
    dims = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            k_s, n_s = item.split(":")
            dims.append((int(k_s), int(n_s)))
        except ValueError:
            raise ValidationError(f"bad dimension {item!r}; expected K:N") from None
    if not dims:
        raise ValidationError("dims must contain at least one K:N pair")
    return dims


def read_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment, blank lines skipped."""
    values = {}
    try:
        with open(path) as fh:
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
    except OSError as err:
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


def _add_flags(parser: argparse.ArgumentParser, names, with_defaults: bool) -> None:
    for name in names:
        flag = SWEEP_FLAGS[name]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=flag.type,
            default=flag.default if with_defaults else None,
            choices=flag.choices,
            help=flag.help,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiband-alloc",
        description="Sub-channel and power allocation experiments for centralized multi-band networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="Monte Carlo sum-rate vs power budget sweep (CSV)")
    sweep.set_defaults(run=_run_sweep)
    _add_flags(sweep, SWEEP_FLAGS, with_defaults=False)
    sweep.add_argument("--config", help="flat key=value file mirroring sweep flags; flags override")

    dump = sub.add_parser("dump", help="allocate one seeded instance and print the full report")
    dump.set_defaults(run=_run_dump)
    _add_flags(dump, CHANNEL_FLAGS, with_defaults=True)
    dump.add_argument("--budget", type=float, default=1.0, help="per-link power budget in W")
    dump.add_argument("--seed", type=int, default=0, help="RNG seed")
    dump.add_argument(
        "--strategy",
        required=True,
        choices=sorted(STRATEGY_SHORT),
        help="strategy short name",
    )
    dump.add_argument("--maxsel-power", dest="maxsel_power", choices=POWER_RULES, default="water_fill")
    dump.add_argument("--out", help="output path (default: stdout)")

    bench = sub.add_parser("bench", help="solver scaling micro-benchmark (CSV)")
    bench.set_defaults(run=_run_bench)
    bench.add_argument("--dims", default="2:8,2:12,2:16,4:16,8:32", help="comma list of K:N pairs")
    bench.add_argument(
        "--methods",
        default=",".join(harness.BENCH_METHODS),
        help="comma list from: hungarian,optimal,max_select",
    )
    bench.add_argument("--reps", type=int, default=20, help="repetitions per cell (median reported)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--guard", type=int, default=DEFAULT_PARTITION_GUARD, help="optimal is skipped above this partition count")
    bench.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


def _check_out(out_path: str | None) -> None:
    """Fail before any work runs if the output directory is missing or read-only."""
    if out_path is not None and not os.access(os.path.dirname(out_path) or ".", os.W_OK):
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
        max_select_power_rule=args.maxsel_power,
    )
    _emit(report, args.out)


def _run_bench(args: argparse.Namespace) -> None:
    _check_out(args.out)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    rows = harness.scaling_bench(
        parse_dims(args.dims),
        methods=methods,
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
