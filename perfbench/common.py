"""What every workload shares: run context, result, world and helpers."""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro import GaiaConfig, build_dataset, build_marketplace
from repro.experiments import benchmark_marketplace_config
from repro.nn import engine

#: The marketplace never depends on ``--seed``: the seed varies the
#: traffic, so runs with different seeds measure the same world.
WORLD_SEED = 7
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def spin(seconds: float) -> None:
    """Busy-wait: a sleeping thread wakes late by a scheduler-dependent
    amount, which would land in the latency tail as host noise."""
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


#: The reference unit's typical time on the host the benchmark was
#: calibrated on (``perfbench/README.md``): host-normalized figures read
#: as if measured at that host's typical speed.
REFERENCE_S = 0.0185
#: The parts of the reference unit.
REFERENCE_PARTS = ("interpreter", "blas", "memory")


class HostSpeed:
    """How slow the host runs right now, from a fixed reference unit.

    On a shared host the speed of a core drifts by a quarter or more
    over tens of seconds, and every CPU-bound figure drifts with it.
    The reference unit is fixed interpreter, BLAS and memory-streaming
    work that uses no code of the program.  Timed right after a
    CPU-bound sample, its time over :data:`REFERENCE_S` is the host's
    momentary slowdown; dividing the sample by it gives the sample at
    the reference speed.  A change to the program moves the sample and
    not the unit, so it moves the normalized figure.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((200, 200))
        # 64 MB: far beyond the 4 MB L2, like the training plan's arena.
        self._stream = rng.standard_normal(8_000_000)
        #: Every slowdown returned, in order.
        self.slowdowns: List[float] = []
        #: Seconds of every part at every measurement, in order.
        self.samples: Dict[str, List[float]] = {
            name: [] for name in REFERENCE_PARTS}

    def _interpreter(self) -> None:
        total = 0
        for i in range(100_000):
            total += i

    def _blas(self) -> None:
        for _ in range(10):
            self._square @ self._square

    def _memory(self) -> None:
        np.multiply(self._stream, -1.0, out=self._stream)

    def slowdown(self) -> float:
        """Time the reference unit now; its time over :data:`REFERENCE_S`.

        Each part is the fastest of three tries, so an interrupt during
        one try does not count as a slow host.
        """
        for name in REFERENCE_PARTS:
            part = getattr(self, f"_{name}")
            tries = []
            for _ in range(3):
                started = time.perf_counter()
                part()
                tries.append(time.perf_counter() - started)
            self.samples[name].append(min(tries))
        self.slowdowns.append(
            sum(self.samples[p][-1] for p in REFERENCE_PARTS) / REFERENCE_S)
        return self.slowdowns[-1]


@dataclass
class Context:
    """Run parameters shared by every workload."""

    seed: int
    seconds: float
    trace: bool
    work_dir: Path
    shops: int = 1000


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    correct: bool
    attempted: int
    failed: int
    #: End-to-end metrics (always measured, printed when untraced).
    end_to_end: Dict[str, float]
    #: The workload's figures under their workload-specific names.
    named: Dict[str, float]
    run: Dict[str, object]
    checks: Dict[str, object]
    layers: Dict[str, float] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    self_time: Dict[str, dict] = field(default_factory=dict)


def build_world(shops: int):
    """Marketplace, shop-split dataset and the Gaia config for it."""
    market = build_marketplace(
        benchmark_marketplace_config(num_shops=shops, seed=WORLD_SEED))
    dataset = build_dataset(market, train_fraction=0.65, val_fraction=0.15)
    config = GaiaConfig(
        input_window=dataset.input_window,
        horizon=dataset.horizon,
        temporal_dim=dataset.temporal_dim,
        static_dim=dataset.static_dim,
    )
    return market, dataset, config


def settle_heap() -> None:
    """Collect set-up garbage and exempt what survives from later GC scans,
    so collector pauses in the timed phases scale with their own work."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def fused_hits(stats: Dict[str, int]) -> int:
    """Fusions the engine applied (one counter per fused kernel)."""
    return sum(v for k, v in stats.items() if k.startswith("fused_"))


def stats_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = engine.stats_snapshot()
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def max_rel_diff(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
