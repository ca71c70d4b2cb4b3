"""Spans around the program's public layer functions, installed from outside.

Wrappers replace module attributes only while a traced batch runs. A
function imported by name into other modules (``from .power import
water_fill``) is replaced everywhere the same object is bound, so calls
through either name are recorded. A target that a refactor removed is
skipped and reported with zero calls and a note; nothing crashes.

Spans stay in memory (name, start, end, parent, batch id, error, two
payload integers) and are written out once, at the end of the run.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

PACKAGE = "multiband_alloc"

# (module, function) pairs; the metric prefix is "module.function".
TARGETS = (
    ("cli", "main"),
    ("harness", "run_sweep"),
    ("channel", "sample_realization"),
    ("allocators", "low_snr_allocate"),
    ("allocators", "high_snr_allocate"),
    ("allocators", "optimal_allocate"),
    ("allocators", "max_select_allocate"),
    ("allocators", "exact_sum_rate"),
    ("allocators", "validate_allocation"),
    ("assignment", "solve_assignment"),
    ("power", "water_fill"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)
ALLOCATORS = ("low_snr", "high_snr", "optimal", "max_select")

ERR_NONE, ERR_INFEASIBLE, ERR_OTHER = 0, 1, 2

_UNIT_OF_SUFFIX = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "p50_us": "us",
    "infeasible": "count",
    "calls_per_trial": "calls/trial",
    "calls_per_cell": "calls/cell",
    "active_frac": "1",
    "partitions": "count",
    "overhead_frac": "1",
    "exit3_frac": "1",
}


def _water_fill_payload(args, kwargs, result):
    gains = args[0] if args else kwargs["gains"]
    return int(np.size(gains)), len(result.active_set)


def _make_optimal_payload():
    counts = {}

    def payload(args, kwargs, result):
        params = args[0] if args else kwargs["params"]
        key = (params.num_subchannels, params.num_links)
        if key not in counts:
            counts[key] = sys.modules[f"{PACKAGE}.allocators"].partition_count(*key)
        return counts[key], 0

    return payload


class Tracer:
    """In-memory span store plus the wrapper installer."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.batch = array("i")
        self.err = array("b")
        self.pay_a = array("q")
        self.pay_b = array("q")
        self._stack: list[int] = []
        self.batch_id = -1
        self.notes: list[str] = []
        self._payloads = {
            "power.water_fill": _water_fill_payload,
            "allocators.optimal_allocate": _make_optimal_payload(),
        }
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _wrap(self, name_id: int, fn, payload):
        names, starts, ends = self.name, self.start, self.end
        parents, batches, errs = self.parent, self.batch, self.err
        pay_a, pay_b, stack = self.pay_a, self.pay_b, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            batches.append(tracer.batch_id)
            errs.append(ERR_NONE)
            pay_a.append(0)
            pay_b.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                infeasible = type(exc).__name__ == "InfeasibleError"
                errs[idx] = ERR_INFEASIBLE if infeasible else ERR_OTHER
                raise
            ends[idx] = clock()
            stack.pop()
            if payload is not None:
                try:
                    pay_a[idx], pay_b[idx] = payload(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pay_a[idx] = pay_b[idx] = -1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Wrap every target on every package module that binds it."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name_id, (mod_name, fn_name) in enumerate(TARGETS):
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                if NAMES[name_id] not in self.missing:
                    self.missing.add(NAMES[name_id])
                    self.notes.append(f"{NAMES[name_id]}: not found; reported with 0 calls")
                continue
            wrapper = self._wrap(name_id, original, self._payloads.get(NAMES[name_id]))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "batch": np.frombuffer(self.batch, dtype=np.int32).copy(),
            "err": np.frombuffer(self.err, dtype=np.int8).copy(),
            "pay_a": np.frombuffer(self.pay_a, dtype=np.int64).copy(),
            "pay_b": np.frombuffer(self.pay_b, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def layer_metrics(
    spans: dict[str, np.ndarray],
    ok_batches: set[int],
    ok_trials: int,
    ok_cells: int,
    traced_wall: float,
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics plus each layer's share of the traced wall time.

    Call counts, busy and self times cover every traced batch; the
    per-trial and per-cell ratios use only batches that succeeded, whose
    trial and cell counts are known.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child_time = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    in_ok = np.isin(spans["batch"], np.fromiter(ok_batches, dtype=np.int32, count=len(ok_batches)))
    # A payload reads -1 when the call's arguments or result no longer have the expected shape.
    has_payload = spans["pay_a"] >= 0

    stats = {}
    for name_id, name in enumerate(NAMES):
        sel = spans["name"] == name_id
        stats[name] = {
            "calls": int(sel.sum()),
            "ok_calls": int((sel & in_ok).sum()),
            "busy_s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
            "p50_us": float(np.median(dur[sel]) * 1e6) if sel.any() else 0.0,
            "infeasible": int((sel & (spans["err"] == ERR_INFEASIBLE)).sum()),
            "pay_a": int(spans["pay_a"][sel & has_payload].sum()),
            "pay_b": int(spans["pay_b"][sel & has_payload].sum()),
        }

    m: dict[str, float] = {}
    sa = stats["assignment.solve_assignment"]
    for key in ("calls", "busy_s", "p50_us", "infeasible"):
        m[f"assignment.solve_assignment.{key}"] = sa[key]
    m["assignment.solve_assignment.calls_per_trial"] = sa["ok_calls"] / ok_trials if ok_trials else 0.0
    wf = stats["power.water_fill"]
    for key in ("calls", "busy_s", "p50_us"):
        m[f"power.water_fill.{key}"] = wf[key]
    m["power.water_fill.active_frac"] = wf["pay_b"] / wf["pay_a"] if wf["pay_a"] > 0 else 0.0
    m["power.water_fill.calls_per_cell"] = wf["ok_calls"] / ok_cells if ok_cells else 0.0
    for strategy in ALLOCATORS:
        st = stats[f"allocators.{strategy}_allocate"]
        for key in ("calls", "busy_s", "self_s"):
            m[f"allocators.{strategy}_allocate.{key}"] = st[key]
    m["allocators.optimal_allocate.partitions"] = stats["allocators.optimal_allocate"]["pay_a"]
    for key in ("calls", "busy_s"):
        m[f"allocators.exact_sum_rate.{key}"] = stats["allocators.exact_sum_rate"][key]
    m["allocators.validate_allocation.busy_s"] = stats["allocators.validate_allocation"]["busy_s"]
    for key in ("calls", "busy_s"):
        m[f"channel.sample_realization.{key}"] = stats["channel.sample_realization"][key]
    for key in ("calls", "busy_s", "self_s"):
        m[f"harness.run_sweep.{key}"] = stats["harness.run_sweep"][key]
    m["cli.main.self_s"] = stats["cli.main"]["self_s"]

    shares = {
        name: {
            "busy_share": s["busy_s"] / traced_wall if traced_wall else 0.0,
            "self_share": s["self_s"] / traced_wall if traced_wall else 0.0,
        }
        for name, s in stats.items()
    }
    return m, shares


def layer_unit(name: str) -> str:
    return _UNIT_OF_SUFFIX[name.rsplit(".", 1)[1]]
