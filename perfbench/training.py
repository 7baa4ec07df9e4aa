"""The ``retrain`` workload: ``Trainer.fit`` with the engine on.

The fit runs epoch by epoch, with the host's speed measured after each
epoch and after each restart; step, epoch and restart times are divided
by it (:class:`~perfbench.common.HostSpeed`).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro import Gaia, Trainer, TrainConfig
from repro.nn import engine
from repro.obs import tracing as obs_tracing
from repro.obs.profiling import KernelProfiler, profile_kernels

from . import driver, layers
from .common import (SETUP_REPEATS, Context, HostSpeed, Result, build_world,
                     fused_hits, mean, median, peak_rss_mb, settle_heap,
                     stats_delta)
from .shims import Shims, SpanRecorder, assert_no_shims

#: Epochs per second of ``--seconds``: the fit runs a fixed epoch count
#: derived from the run length, never one tuned to the host's speed.
EPOCHS_PER_SECOND = 0.8
#: Leading epochs replayed under the eager engine for the equality check.
EAGER_EPOCHS = 2
#: Fused plan replay against the eager engine, per recorded loss.
ENGINE_TOLERANCE = 1e-12
#: Restart -> first epoch cycles, spread evenly over the fit.
RESTARTS = 8
_NEVER = 10 ** 9


def _trainer(model, dataset, epochs: int) -> Trainer:
    """A trainer whose early stopping can never fire."""
    return Trainer(model, dataset, TrainConfig(
        epochs=epochs, patience=_NEVER, min_epochs=_NEVER,
        learning_rate=7e-3))


def _fit_epoch(trainer: Trainer):
    """Fit one epoch under the program's own span tracer.

    Returns the step durations and the epoch duration from its
    ``train.step`` and ``train.epoch`` spans.  With early stopping off,
    epoch-by-epoch fits follow the trajectory of one long fit: a fit
    restores its best weights at the end, which after a single epoch
    are the current ones or none.
    """
    tracer = obs_tracing.Tracer()
    trainer.config.epochs = 1
    with obs_tracing.use_tracer(tracer):
        trainer.fit()
    (epoch,) = [r for r in tracer.roots if r.name == "train.epoch"]
    steps = [c.duration for c in epoch.children if c.name == "train.step"]
    return steps, epoch.duration


def _restart(trainer: Trainer, config, dataset, seed: int) -> float:
    """Weights into a fresh model and trainer, through its first epoch."""
    state = trainer.model.state_dict()
    gc.collect()      # earlier epochs' garbage is not the restart's cost
    started = time.perf_counter()
    model = Gaia(config, seed=seed)
    model.load_state_dict(state)
    _trainer(model, dataset, 1).fit()
    return time.perf_counter() - started


def run_retrain(ctx: Context) -> Result:
    epochs = max(RESTARTS + 1, int(round(ctx.seconds * EPOCHS_PER_SECOND)))
    speed = HostSpeed()
    setups, worlds_s, compiles = [], [], []
    stats_start = engine.stats_snapshot()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        market, dataset, config = build_world(ctx.shops)
        built = time.perf_counter()
        trainer = _trainer(Gaia(config, seed=ctx.seed), dataset, 1)
        trainer.fit()     # the first epoch compiles the training plan
        done = time.perf_counter()
        slow = speed.slowdown()
        setups.append((done - started) / slow)
        worlds_s.append((built - started) / slow)
        compiles.append((done - built) / slow)

    rec = SpanRecorder(time.perf_counter) if ctx.trace else None
    profiler = KernelProfiler() if ctx.trace else None
    if not ctx.trace:
        assert_no_shims()
    settle_heap()
    # A restart after every stretch of the fit but the last, so steps
    # and restarts are sampled across the whole run.  A traced run
    # traces every other epoch: comparing their median step with the
    # untraced ones' gives the overhead, and alternating keeps host
    # speed drift out of the comparison.
    stretches = np.array_split(np.arange(epochs), RESTARTS + 1)
    restart_after = {int(part[-1]) for part in stretches[:-1]}
    steps, plain_steps, raw_steps, epoch_s, restarts = [], [], [], [], []
    traced_wall = 0.0
    for epoch in range(epochs):
        traced = ctx.trace and epoch % 2 == 1
        if traced:
            started = time.perf_counter()
            with Shims(rec), profile_kernels(profiler):
                with rec.span("driver.fit"):
                    epoch_steps, seconds = _fit_epoch(trainer)
            traced_wall += time.perf_counter() - started
        else:
            epoch_steps, seconds = _fit_epoch(trainer)
        slow = speed.slowdown()
        (steps if traced or not ctx.trace else plain_steps).extend(
            step / slow for step in epoch_steps)
        raw_steps.extend(epoch_steps)
        epoch_s.append(seconds / slow)
        if epoch in restart_after:
            seconds = _restart(trainer, config, dataset, ctx.seed)
            restarts.append(seconds / speed.slowdown())

    # Fused plan replay == the eager engine over the leading epochs.
    with engine.use_mode("eager"):
        eager = _trainer(Gaia(config, seed=ctx.seed), dataset, EAGER_EPOCHS)
        eager.fit()
    fused_loss = np.array(trainer.history.train_loss[:EAGER_EPOCHS]
                          + trainer.history.val_loss[:EAGER_EPOCHS])
    eager_loss = np.array(eager.history.train_loss
                          + eager.history.val_loss)
    drift = float(np.max(np.abs(fused_loss - eager_loss)
                         / np.maximum(np.abs(eager_loss), 1e-300)))
    checks = {
        "eager_relative_drift": drift,
        "replay_matches_eager": drift <= ENGINE_TOLERANCE,
        "losses_finite": bool(np.all(np.isfinite(
            trainer.history.train_loss))),
    }
    correct = checks["replay_matches_eager"] and checks["losses_finite"]
    latency = driver.latency_summary(steps)
    epoch_median = median(epoch_s)
    restart_ms = median(restarts) * 1e3
    result = Result(
        correct=correct,
        attempted=len(trainer.history.train_loss),
        failed=0,
        end_to_end={
            "setup_s": median(setups),
            "p50_ms": latency["p50_ms"],
            "tail_ms": latency["tail_ms"],
            "capacity_per_s": 1.0 / epoch_median,
            "restart_ms": restart_ms,
            "peak_rss_mb": peak_rss_mb(),
        },
        named={
            "setup_s": median(setups),
            "train_step_ms": latency["p50_ms"],
            f"train_step_p{latency['tail_pct']:g}_ms": latency["tail_ms"],
            "train_epoch_s": epoch_median,
            "restart_to_first_epoch_ms": restart_ms,
            "failed_frac": 0.0,
            "peak_rss_mb": peak_rss_mb(),
        },
        run={
            "epochs": epochs,
            "steps_timed": len(steps),
            "tail_pct": latency["tail_pct"],
            "restarts_ms": [t * 1e3 for t in restarts],
            "setups_s": setups,
            "raw_step_p50_ms": median(raw_steps) * 1e3,
            "host_slowdown": speed.slowdowns,
            "host_samples": speed.samples,
            "driver.late_p99_ms": 0.0,
        },
        checks=checks,
    )
    if ctx.trace:
        stats = stats_delta(stats_start)
        found = {
            "plan.forward_ms": mean(rec.durations("plan.forward")) * 1e3,
            "plan.backward_ms": mean(rec.durations("plan.backward")) * 1e3,
            "optim.clip_ms": mean(rec.durations("optim.clip")) * 1e3,
            "optim.adam_ms": mean(rec.durations("optim.adam")) * 1e3,
            "val.forward_ms": mean(rec.durations("forward")) * 1e3,
            "engine.plan_replays": float(stats.get("plan_replays", 0)),
            "engine.fused_hits": float(fused_hits(stats)),
            "engine.inference_forwards": float(
                stats.get("inference_forwards", 0)),
            "setup.world_s": median(worlds_s),
            "setup.compile_s": median(compiles),
            "trace.overhead_frac": median(steps) / median(plain_steps) - 1.0,
            "trace.coverage_frac": rec.layer_seconds() / traced_wall,
        }
        report = profiler.report()
        replays = max(report["replays"], 1)
        rows = {(r["op"], r["phase"]): r for r in report["kernels"]}
        for op, phase in layers.KERNELS:
            row = rows.get((op, phase))
            if row is None:
                continue
            key = f"kernel.{op}.{phase}"
            found[f"{key}.ms"] = row["seconds"] * 1e3 / replays
            found[f"{key}.flops"] = row["flops"] / replays
            found[f"{key}.bytes"] = row["bytes"] / replays
        result.layers = layers.finish(found)
        result.spans = rec.spans
        result.self_time = rec.self_time_table(
            traced_wall - rec.root_seconds())
        result.run["kernel_coverage"] = report["coverage"]
    return result
