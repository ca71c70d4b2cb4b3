"""Workload definitions: which sweep batches each workload runs.

One operation is one in-process `cli.main(["sweep", ...])` call that writes
its CSV to a scratch file. Every batch has a fixed trial count and its own
seed, derived from the workload seed given on the benchmark's command line.
All workloads share B = N, N0 = 1, shadow probability 0.02 with a 30 dB
shadowing loss (attenuation 1e-3) and 7 log-spaced budgets from 1e-3 to 1e3.

Shadowing is not full blocking (attenuation 0, the CLI default), because
under full blocking `high_snr` exits 3 on about one draw in 750, where a
sub-channel is blocked for every link (ROADMAP item 4), and the measured
batches must be ones the program completes. run.py still reruns measured
batch seeds under full blocking, untimed, and reports how many exit 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BUDGET_SPEC = "1e-3:1e3:7log"
BUDGETS = tuple(float(b) for b in np.geomspace(1e-3, 1e3, 7))
SHADOW_PROB = 0.02
SHADOW_ATTEN = 1e-3
FULL_BLOCKING = 0.0
NOISE_PSD = 1.0

# Order of rows inside each budget block of the CSV.
STRATEGY_TAGS = {"low": "low_snr", "high": "high_snr", "opt": "optimal", "maxsel": "max_select"}

# The documented CSV header (README, "CSV schema").
CSV_HEADER = "budget,strategy,trials,mean_rate,std_rate,median_rate,mean_gap_vs_optimal"

# Batch seeds are workload_seed * SEED_STRIDE + index; index 0 is the warm-up.
SEED_STRIDE = 100_000
# The warm-up runs the first budget only: that fills the same caches
# (the partition table) at a seventh of a batch's cost.
WARM_UP_BUDGETS = "1e-3:1e3:1"


@dataclass(frozen=True)
class Workload:
    name: str
    links: int
    subchannels: int
    strategies: str
    trials: int

    @property
    def strategy_tags(self) -> tuple[str, ...]:
        return tuple(STRATEGY_TAGS[s] for s in self.strategies.split(","))

    @property
    def has_optimal(self) -> bool:
        return "optimal" in self.strategy_tags

    @property
    def cells_per_batch(self) -> int:
        return self.trials * len(BUDGETS) * len(self.strategy_tags)

    def batch_seed(self, workload_seed: int, index: int) -> int:
        return workload_seed * SEED_STRIDE + index

    def argv(self, seed: int, out_path: str, workers: int = 1, budgets: str = BUDGET_SPEC,
             strategies: str | None = None, shadow_atten: float = SHADOW_ATTEN) -> list[str]:
        """The sweep command line of one batch."""
        n = self.subchannels
        return [
            "sweep",
            "--links", str(self.links),
            "--subchannels", str(n),
            "--bandwidth", str(n),
            "--noise-psd", str(NOISE_PSD),
            "--shadow-prob", str(SHADOW_PROB),
            "--shadow-atten", str(shadow_atten),
            "--budgets", budgets,
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--strategies", strategies or self.strategies,
            "--workers", str(workers),
            "--out", out_path,
        ]


ALL4 = "low,high,opt,maxsel"

# Why each workload exists is recorded in BENCHMARK.json and RATIONALE.md.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's acceptance configuration; call overhead dominates.
        # 10 trials keep batches short, so a run holds a few hundred.
        Workload("regime", links=2, subchannels=4, strategies=ALL4, trials=10),
        # 2520 partitions per optimal cell; water-filling dominates.
        Workload("exact", links=4, subchannels=8, strategies=ALL4, trials=1),
        # Padded 32x32 Hungarian solves dominate; optimal would trip the guard.
        Workload("wide", links=8, subchannels=32, strategies="low,high,maxsel", trials=4),
    )
}
