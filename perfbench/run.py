"""Sweep benchmark for multiband-alloc: completed cells per second.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload regime --seed 0 --seconds 30 --trace 0

Each workload is a closed loop with one client: it calls
``cli.main(["sweep", ...])`` in process, one batch after the other, each
batch with its own seed, until ``--seconds`` have passed. Exit 0 is a
completed batch; exits 2, 3 and 4 are failed batches, whose wall time
still counts. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced runs of the same
batches and reports the per-layer metrics. Output checks, and an untimed
rerun of the batch seeds under full blocking (see workloads.py), run
after the timed loop. The last line of stdout is one JSON object; a full
record goes to perfbench/results/.

End-to-end times are in reference seconds: each batch's wall and CPU
time, and each set-up, is rescaled by the host speed sampled around it
(see hostspeed.py). The raw figures go to the results file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import hostspeed
from checks import CheckFailed, check_collect_rates, check_oracle, parse_csv
from tracing import Tracer, layer_metrics, layer_unit
from workloads import FULL_BLOCKING, WARM_UP_BUDGETS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_SAMPLES = 5  # this run's own set-up and that of fresh processes
POOL_CHECKS = 1  # completed and failed batches each rerun with --workers 2
ORACLE_BATCHES = 2
TAIL_BEYOND = 10
DIGEST_BATCHES = 3  # leading measured batches whose CSVs form one digest
FULL_BLOCKING_BATCHES = 200  # leading measured batch seeds rerun under full blocking


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "multiband_alloc" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'multiband_alloc'} is missing")
    sys.path.insert(0, str(SRC))
    from multiband_alloc import cli

    if Path(cli.__file__).resolve().parent != SRC / "multiband_alloc":
        fail(f"imported multiband_alloc from {cli.__file__}, not from {SRC}")
    # Only the checks use these; a refactor that drops them skips those checks.
    harness = sys.modules.get("multiband_alloc.harness")
    channel = sys.modules.get("multiband_alloc.channel")
    return cli, harness, channel


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def machine_record(seed: int, load_at_start: float) -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_1min_at_start": load_at_start,
        "seed": seed,
    }


def run_batch(cli, wl, seed: int, out: Path, **argv_options) -> dict:
    """One operation: one in-process sweep call. Returns its record."""
    out.unlink(missing_ok=True)
    argv = wl.argv(seed, str(out), **argv_options)
    err = io.StringIO()
    rc, error = None, ""
    cpu = cpu_seconds()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a crash is recorded and fails the correctness check
        error = traceback.format_exc()
    wall = time.perf_counter() - t
    cpu = cpu_seconds() - cpu
    text = out.read_text() if rc == 0 and out.is_file() else None
    return {"seed": seed, "rc": rc, "start": t, "wall": wall, "cpu": cpu, "csv": text,
            "error": error or err.getvalue().strip()}


def setup(wl, workload_seed: int, out: Path):
    """Import, inputs and one untimed warm-up sweep.

    Returns the modules, the time set-up ended and the warm-up's record.
    """
    cli, harness, channel = import_program()
    warm = run_batch(cli, wl, wl.batch_seed(workload_seed, 0), out, budgets=WARM_UP_BUDGETS)
    return (cli, harness, channel), time.perf_counter(), warm


def setup_sample(sampler, setup_end: float) -> dict:
    net, scale = sampler.rescale(_T0, setup_end)
    return {"setup_s": net * scale, "raw_s": setup_end - _T0}


def probe_setup(args) -> dict:
    """Set-up time of a fresh process doing this run's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(walls: list[float]) -> tuple[float, float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would not lie above
    the median, so the maximum is reported instead.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, f"only {n} batches: maximum reported"
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, ""


def digest(records: list[dict], count: int) -> dict:
    per_batch = {
        str(r["seed"]): hashlib.sha256((r["csv"] or f"exit {r['rc']}").encode()).hexdigest()[:16]
        for r in records
    }
    first = records[:count]
    joined = "".join(r["csv"] or f"exit {r['rc']}" for r in first)
    return {
        "first_batches": len(first),
        "first_batches_sha256": hashlib.sha256(joined.encode()).hexdigest(),
        "per_batch": per_batch,
    }


def run_checks(modules, wl, records: list[dict], out: Path) -> tuple[list[str], list[str]]:
    """Untimed output checks on the measured batches. Returns (notes, failures)."""
    cli, harness, channel = modules
    notes, failures = [], []
    ok = [r for r in records if r["rc"] == 0]
    for r in records:
        if r["rc"] not in (0, 2, 3, 4):
            failures.append(f"batch seed {r['seed']}: unexpected exit {r['rc']}: {r['error']}")
    parsed = {}
    for r in ok:
        if r["csv"] is None:
            failures.append(f"batch seed {r['seed']}: exit 0 but no CSV written")
            continue
        try:
            parsed[r["seed"]] = parse_csv(r["csv"], wl)
        except CheckFailed as exc:
            failures.append(f"batch seed {r['seed']}: {exc}")
    notes.append(f"csv: {len(parsed)} of {len(ok)} batch CSVs have the documented header, rows and gaps")
    if not ok:
        failures.append("no batch completed")
    if not ok or len(parsed) != len(ok):
        return notes, failures
    try:
        first = ok[0]
        notes.append(check_collect_rates(harness, channel, wl, first["seed"], parsed[first["seed"]]))
        if wl.has_optimal:
            compared = sum(
                check_oracle(wl, r["seed"], parsed[r["seed"]], range(wl.trials))
                for r in ok[:ORACLE_BATCHES]
            )
            notes.append(f"oracle: {compared} optimal instances match partition enumeration + water-filling")
    except CheckFailed as exc:
        failures.append(str(exc))
    sample = ok[:POOL_CHECKS] + [r for r in records if r["rc"] != 0][:POOL_CHECKS]
    for r in sample:
        rerun = run_batch(cli, wl, r["seed"], out, workers=2)
        if (rerun["rc"], rerun["csv"]) != (r["rc"], r["csv"]):
            failures.append(f"batch seed {r['seed']}: --workers 2 output differs from --workers 1")
    notes.append(f"workers: {len(sample)} batches rerun with --workers 2 and compared by exit code and CSV bytes")
    return notes, failures


def probe_full_blocking(cli, wl, records: list[dict], out: Path) -> tuple[dict, list[str]]:
    """Rerun batch seeds with shadowed cells fully blocked: the known exit 3.

    Only `high_snr` can find no complete assignment, and a draw's gains do
    not depend on the budget, so each rerun takes `high_snr` at one budget.
    Returns the exit-code counts and any failures.
    """
    exits, failures = {}, []
    for r in records[:FULL_BLOCKING_BATCHES]:
        rerun = run_batch(cli, wl, r["seed"], out, strategies="high", budgets=WARM_UP_BUDGETS,
                          shadow_atten=FULL_BLOCKING)
        exits[str(rerun["rc"])] = exits.get(str(rerun["rc"]), 0) + 1
        if rerun["rc"] not in (0, 3):
            failures.append(f"batch seed {r['seed']} under full blocking: exit {rerun['rc']}: {rerun['error']}")
    tried = sum(exits.values())
    return {"batches": tried, "exit_codes": exits, "exit3_frac": exits.get("3", 0) / max(tried, 1)}, failures


def timings(wl, records, scaled: bool) -> tuple[dict[str, float], float, str]:
    """Timing metrics, and the tail's percentile and note.

    Scaled times leave out the host-speed sampling and are in reference
    seconds; raw times are as measured, sampling included.
    """
    def wall_of(r):
        return r["net"] * r["scale"] if scaled else r["wall"]

    def cpu_of(r):
        return (r["cpu"] - r["wall"] + r["net"]) * r["scale"] if scaled else r["cpu"]

    ok = [r for r in records if r["rc"] == 0]
    walls = [wall_of(r) for r in (ok or records)]
    ok_cells = len(ok) * wl.cells_per_batch
    tail_s, tail_pct, tail_note = tail(walls)
    return {
        "cells_per_s": ok_cells / sum(wall_of(r) for r in records),
        "batch_s_p50": statistics.median(walls),
        "batch_s_tail": tail_s,
        "cpu_s_per_kcell": 1000.0 * sum(cpu_of(r) for r in records) / max(ok_cells, 1),
    }, tail_pct, tail_note


def end_to_end(wl, records, setup_samples, rss_mb) -> tuple[dict, dict]:
    ok = [r for r in records if r["rc"] == 0]
    units = {"cells_per_s": "cells/s", "batch_s_p50": "s", "batch_s_tail": "s", "cpu_s_per_kcell": "s"}
    scaled, tail_pct, tail_note = timings(wl, records, scaled=True)
    raw, _, _ = timings(wl, records, scaled=False)
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["ok_frac"] = (len(ok) / len(records), "1")
    metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setup_samples), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    exits = {}
    for r in records:
        exits[str(r["rc"])] = exits.get(str(r["rc"]), 0) + 1
    scales = [r["scale"] for r in records]
    detail = {
        "batches_attempted": len(records),
        "batches_failed": len(records) - len(ok),
        "failed_frac": (len(records) - len(ok)) / len(records),
        "exit_codes": exits,
        "first_errors": sorted({r["error"].splitlines()[-1] for r in records if r["rc"] != 0 and r["error"]}),
        "cells_completed": len(ok) * wl.cells_per_batch,
        "latency_samples": len(ok) or len(records),
        "tail_percentile": tail_pct,
        "tail_note": tail_note,
        "raw": raw | {"setup_s": statistics.median(s["raw_s"] for s in setup_samples)},
        "host_scale_quartiles": statistics.quantiles(scales, n=4) if len(scales) > 1 else scales,
        "setup_samples": setup_samples,
    }
    return metrics, detail


def measure(modules, wl, args, out: Path) -> list[dict]:
    cli = modules[0]
    records = []
    start = time.perf_counter()
    index = 1
    while True:
        records.append(run_batch(cli, wl, wl.batch_seed(args.seed, index), out))
        index += 1
        if time.perf_counter() - start >= args.seconds:
            return records


def measure_traced(modules, wl, args, out: Path, tracer):
    """Each batch runs untraced and traced, in alternating order."""
    cli = modules[0]
    plain, traced = [], []
    start = time.perf_counter()
    index = 1
    while True:
        seed = wl.batch_seed(args.seed, index)
        for with_trace in ((False, True) if index % 2 else (True, False)):
            if not with_trace:
                plain.append(run_batch(cli, wl, seed, out))
                continue
            tracer.batch_id = index
            tracer.install()
            try:
                rec = run_batch(cli, wl, seed, out)
            finally:
                tracer.uninstall()
            rec["index"] = index
            traced.append(rec)
        index += 1
        if time.perf_counter() - start >= args.seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")
    load_at_start = os.getloadavg()[0]

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / "batch.csv"
    try:
        return run(args, wl, out, load_at_start)
    finally:
        out.unlink(missing_ok=True)
        scratch.rmdir()


def run(args, wl, out: Path, load_at_start: float) -> int:
    sampler = hostspeed.Sampler() if args.trace == 0 else None
    modules, setup_end, warm = setup(wl, args.seed, out)
    if args.probe_setup:
        sampler.stop()
        print(json.dumps(setup_sample(sampler, setup_end)))
        return 0
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "machine": machine_record(args.seed, load_at_start), "warm_up": {"rc": warm["rc"], "wall": warm["wall"]}}
    if args.trace == 0:
        records = measured = measure(modules, wl, args, out)
        sampler.stop()
        for r in records:
            r["net"], r["scale"] = sampler.rescale(r["start"], r["start"] + r["wall"])
        # Probes run only now, so that no sample of this process sees them.
        samples = [setup_sample(sampler, setup_end)] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        record["host_speed"] = {"t": [t - _T0 for t in sampler.starts], "speed": sampler.speeds}
        metrics, detail = end_to_end(wl, records, samples, peak_rss_mb())
        record["end_to_end"] = detail
        blocking, blocking_failures = probe_full_blocking(modules[0], wl, measured, out)
    else:
        tracer = Tracer()
        plain, traced = measure_traced(modules, wl, args, out, tracer)
        mismatched = [p["seed"] for p, t in zip(plain, traced) if (p["rc"], p["csv"]) != (t["rc"], t["csv"])]
        records, measured = plain + traced, plain
        ok_traced = [t for t in traced if t["rc"] == 0]
        traced_wall = sum(t["wall"] for t in traced)
        spans = tracer.arrays()
        layers, shares = layer_metrics(
            spans,
            ok_batches={t["index"] for t in ok_traced},
            ok_trials=len(ok_traced) * wl.trials,
            ok_cells=len(ok_traced) * wl.cells_per_batch,
            traced_wall=traced_wall,
        )
        layers["trace.overhead_frac"] = traced_wall / sum(p["wall"] for p in plain) - 1.0
        blocking, blocking_failures = probe_full_blocking(modules[0], wl, measured, out)
        layers["cli.full_blocking.exit3_frac"] = blocking["exit3_frac"]
        metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
        record["trace"] = {
            "batches": len(traced),
            "traced_wall_s": traced_wall,
            "self_sum_over_wall": sum(s["self_share"] for s in shares.values()),
            "shares": shares,
            "notes": tracer.notes,
            "traced_vs_untraced_mismatch": mismatched,
        }
        tracer.save(RESULTS / f"{wl.name}-seed{args.seed}-spans.npz")

    record["full_blocking"] = blocking
    notes, failures = run_checks(modules, wl, measured, out)
    notes.append(f"full blocking: {blocking['exit_codes'].get('3', 0)} of {blocking['batches']} batch seeds "
                 "exit 3 in high_snr (ROADMAP item 4); the measured batches use 30 dB shadowing")
    failures += blocking_failures
    if args.trace == 1 and record["trace"]["traced_vs_untraced_mismatch"]:
        failures.append(f"traced output differs on seeds {record['trace']['traced_vs_untraced_mismatch']}")
    record["checks"] = {"notes": notes, "failures": failures}
    record["digest"] = digest(measured, DIGEST_BATCHES)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["batches"] = [{k: r.get(k) for k in ("seed", "rc", "wall", "net", "cpu", "scale")} | {"start": r["start"] - _T0}
                         for r in records]
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    report(wl, args, record, metrics, notes, failures)
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["rc"] != 0),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def report(wl, args, record, metrics, notes, failures) -> None:
    m = record["machine"]
    print(f"# {wl.name} seed={args.seed} trace={args.trace} on {m['cores']} cores, {m['cpu_model']}, "
          f"Python {m['python']}, numpy {m['numpy']}, load {m['load_1min_at_start']:.2f}")
    if args.trace == 0:
        d = record["end_to_end"]
        print(f"# batches {d['batches_attempted']}, failed {d['batches_failed']} {d['exit_codes']}, "
              f"tail at p{d['tail_percentile']:.1f} of {d['latency_samples']} {d['tail_note']}")
        print("# raw, not rescaled: " + ", ".join(f"{k} {v:.6g}" for k, v in d["raw"].items()))
    else:
        t = record["trace"]
        print(f"# traced batches {t['batches']}, self times sum to {t['self_sum_over_wall']:.3f} of traced wall")
        for name, share in t["shares"].items():
            print(f"#   {name:34s} busy {share['busy_share']:6.1%}  self {share['self_share']:6.1%}")
        for note in t["notes"]:
            print(f"# note: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:.6g} {unit}")
    for note in notes:
        print(f"# check: {note}")
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
