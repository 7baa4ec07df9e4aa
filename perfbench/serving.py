"""The serving workloads: ``serve_hot`` and ``serve_churn``.

A run alternates :data:`CYCLES` times between a fixed-rate window, an
over-offered window and crash -> serve cycles, so each figure is sampled
across the whole run rather than in one stretch of it (the host speed
drifts over seconds).  ``serve_churn`` ends with an event burst.  The
CPU-bound figures (set-up, capacity, restart) are divided by the host's
slowdown measured right after each sample
(:class:`~perfbench.common.HostSpeed`); latencies at the fixed rate are
reported as measured, since the batcher's timers set much of them.
"""

from __future__ import annotations

import gc
import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import Gaia
from repro.deploy import ModelRegistry
from repro.nn import engine
from repro.serving import GatewayConfig, LoadGenerator, ServingGateway
from repro.serving.batching import PRIORITIES
from repro.streaming import EventLog, MarketplaceSimulator
from repro.streaming.durable import Checkpointer, DurableEventLog, recover

from . import driver, layers
from .common import (SETUP_REPEATS, Context, HostSpeed, Result,
                     build_world, max_abs_diff, max_rel_diff, median,
                     peak_rss_mb, settle_heap, spin, stats_delta)
from .shims import Shims, SpanRecorder, assert_no_shims

#: Forecast agreement between a batched, cached gateway and a batch-1,
#: cache-off one, relative to the forecast.  Batching changes BLAS
#: summation order, so a few ULPs differ: at 1000 shops the largest
#: relative deviation over every shop was 2.0e-15.  An absolute bound
#: cannot hold, because forecasts reach 1.4e7 GMV, where one ULP is
#: 1.9e-9.
SERVING_TOLERANCE = 1e-14
#: Shops compared by the end-of-run forecast check.
CHECK_SHOPS = 48
#: Requests in the first batch after a restart.
FIRST_BATCH = 32
#: Crash -> serve cycles after each over-offered window.
RESTARTS_PER_CYCLE = 3
#: Streaming months before the live one are folded during set-up.
LIVE_MONTH_OFFSET = 1
#: Most slices the fixed-rate latencies are cut into for the tail; each
#: keeps at least 1000 samples, so each slice supports p99.
TAIL_WINDOWS = 10
#: A budget no set-up or check request can exceed: those never shed.
UNHURRIED_S = 60.0
#: Latency limit of both serving workloads, and the admission deadline
#: budget of ``serve_hot``: the gateway's own default budget
#: (``GatewayConfig.default_deadline_s``).
LATENCY_LIMIT_S = 0.05
#: The fixed-rate windows offer this share of the workload's measured
#: capacity: light load, well below the knee of the latency curve.
FIXED_SHARE = 0.1
#: The over-offered windows offer this multiple of it.
OVER_FACTOR = 2.0
#: Fixed-rate / over-offered / restart cycles per run.
CYCLES = 10
#: Events in the burst that ends ``serve_churn``.
BURST_EVENTS = 400


@dataclass(frozen=True)
class ServeSpec:
    """Traffic shape of one serving workload.

    ``fixed_share`` and ``over_share`` are the fractions of ``--seconds``
    spent at the fixed rate and over-offered, split over :data:`CYCLES`.
    """

    name: str
    zipf: bool
    admission: bool
    #: Requests per second completed while over-offered, at the
    #: reference host speed: the median ``capacity_per_s`` of ten seeds
    #: (``perfbench/README.md``).  The offered rates derive from it.
    capacity_rps: float
    fixed_share: float
    over_share: float
    #: Journal and fold the simulator's stream beside the requests.
    streaming: bool = False
    #: Result and subgraph cache capacity as a share of the shops; 0
    #: keeps the gateway defaults.
    cache_share: float = 0.0

    @property
    def fixed_rps(self) -> float:
        return FIXED_SHARE * self.capacity_rps

    @property
    def over_rps(self) -> float:
        return OVER_FACTOR * self.capacity_rps

    def window_seconds(self, ctx: Context) -> tuple:
        """Length of one fixed-rate and one over-offered window."""
        return (ctx.seconds * self.fixed_share / CYCLES,
                ctx.seconds * self.over_share / CYCLES)


SERVE_HOT = ServeSpec(
    name="serve_hot", zipf=True, admission=True, capacity_rps=31000.0,
    fixed_share=0.55, over_share=0.3,
)
SERVE_CHURN = ServeSpec(
    name="serve_churn", zipf=False, admission=False, capacity_rps=2800.0,
    fixed_share=0.45, over_share=0.2, streaming=True,
    # A quarter of the shops fit the caches, so most uniform requests
    # miss and extraction and the forward pass do the work.
    cache_share=0.25,
)


# ----------------------------------------------------------------------
# the world one set-up builds
# ----------------------------------------------------------------------
def _simulator(market, seed: int) -> MarketplaceSimulator:
    """Churn (edge retire/rebound) plus 25% late ticks, seeded per run."""
    return MarketplaceSimulator(
        market, start_month=market.config.num_months // 2,
        edge_churn_per_month=40, late_tick_fraction=0.25,
        late_tick_max_delay=2, seed=seed)


def _stream_plan(simulator: MarketplaceSimulator) -> tuple:
    """The event stream and where its live part and its burst begin.

    A month's events arrive as graph events (rebounds, arrivals, edge
    reveals, churn) followed by its sales ticks.  The live windows start
    at the live month's first tick, which advances the event-time
    frontier and so expires every cached forecast; they fold that
    month's ticks.  The burst starts with the next month's graph events,
    which drive delta invalidation.
    """
    live_month = simulator.start_month + LIVE_MONTH_OFFSET
    events: list = []
    live_start = burst_start = None
    for month in simulator.streaming_months:
        batch = simulator.events_for_month(month)
        if month == live_month:
            first_tick = next(i for i, e in enumerate(batch)
                              if type(e).__name__ == "SalesTick")
            live_start = len(events) + first_tick
        elif month == live_month + 1:
            burst_start = len(events)
        events += batch
    return events, live_start, burst_start


class ServeWorld:
    """Everything one serving set-up builds (timed by ``setup_s``)."""

    def __init__(self, spec: ServeSpec, ctx: Context, index: int) -> None:
        gc.collect()
        started = time.perf_counter()
        self.market, self.dataset, config = build_world(ctx.shops)
        self.world_s = time.perf_counter() - started
        self.factory = lambda: Gaia(config, seed=0)
        self.registry = ModelRegistry()
        self.registry.publish(
            self.factory(), trained_at_month=self.market.config.num_months - 3)
        self.spec = spec
        self.streaming = spec.streaming
        if self.streaming:
            self._build_stream(ctx, index)
        self.gateway = self.make_gateway()
        if self.streaming:
            self.gateway.attach_stream(self.dyn, store=self.store)
            # The stream's history up to the live month's first sales
            # tick, journaled and folded like live events.
            self.catch_up(self.live_start)
        # Warm-up: every shop once, so the caches are full before timing.
        self.predict(range(ctx.shops))
        self.setup_s = time.perf_counter() - started

    def _build_stream(self, ctx: Context, index: int) -> None:
        self.simulator = _simulator(self.market, ctx.seed)
        self.events, self.live_start, self.burst_start = _stream_plan(
            self.simulator)
        self.dir = ctx.work_dir / f"stream-{index}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.journal = DurableEventLog(self.dir / "journal",
                                       segment_events=1024)
        self.log = EventLog(durable=self.journal)
        self.dyn = self.simulator.initial_dynamic_graph()
        self.store = self.simulator.initial_store(watermark=2)
        self.checkpointer = Checkpointer(
            self.dir / "checkpoints", interval_events=1000,
            dynamic_graph=self.dyn, store=self.store)
        self.checkpointer.observe(0)
        self.cursor = 0

    def make_gateway(self, **overrides) -> ServingGateway:
        spec = self.spec
        config = dict(max_batch_size=32)
        if spec.admission:
            config.update(admission=True, default_deadline_s=LATENCY_LIMIT_S)
        if self.streaming:
            config.update(max_staleness_months=0)
        if spec.cache_share:
            size = max(spec.cache_share * self.dataset.test.num_shops, 1)
            config.update(result_cache_size=int(size),
                          subgraph_cache_size=int(size))
        config.update(overrides)
        return ServingGateway(model_factory=self.factory,
                              dataset=self.dataset, registry=self.registry,
                              config=GatewayConfig(**config))

    def attached_gateway(self, dyn, store, **overrides) -> ServingGateway:
        gateway = self.make_gateway(**overrides)
        gateway.attach_stream(dyn, store=store)
        return gateway

    def predict(self, shops, gateway: Optional[ServingGateway] = None):
        """Unhurried forecasts (set-up, checks) that never shed.

        Chunks of ``max_batch_size`` stay below the admission queue
        bound, and a long budget keeps every request from expiring.
        """
        gateway = gateway or self.gateway
        shops = [int(s) for s in shops]
        size = gateway.config.max_batch_size
        budget = {"deadline_s": UNHURRIED_S} if self.spec.admission else {}
        responses = []
        for i in range(0, len(shops), size):
            responses += gateway.predict_many(shops[i:i + size], **budget)
        return np.stack([r.forecast for r in responses])

    def ingest(self) -> None:
        """Journal the next event, then fold it; the fold drives cache
        invalidation through the gateway's stream subscriptions."""
        event = self.events[self.cursor]
        self.cursor += 1
        self.log.append(event)
        self.dyn.apply(event)
        self.store.apply(event)
        self.checkpointer.observe(self.journal.high_water)

    def catch_up(self, cursor: int) -> None:
        """Fold, untimed, up to stream offset ``cursor``."""
        while self.cursor < cursor:
            self.ingest()

    def close(self) -> None:
        self.gateway.close()
        if self.streaming:
            self.journal.close()


def _setup(spec: ServeSpec, ctx: Context, speed: HostSpeed) -> tuple:
    """Set up ``SETUP_REPEATS`` times; keep the last world.

    Returns the world and the host-normalized set-up and world-build
    seconds of every set-up.
    """
    world = None
    setups, worlds_s = [], []
    for index in range(SETUP_REPEATS):
        if world is not None:
            world.close()
            if world.streaming:
                shutil.rmtree(world.dir, ignore_errors=True)
        world = ServeWorld(spec, ctx, index)
        slow = speed.slowdown()
        setups.append(world.setup_s / slow)
        worlds_s.append(world.world_s / slow)
    return world, setups, worlds_s


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def _requests(spec: ServeSpec, ctx: Context, rate: float, duration: float,
              salt: tuple) -> driver.Schedule:
    """Poisson arrivals; Zipf-skewed or uniform shops; a priority mix."""
    rng = np.random.default_rng([ctx.seed, *salt])
    times = driver.poisson_times(rng, rate, duration)
    if spec.zipf:
        picks = LoadGenerator(ctx.shops, seed=int(rng.integers(2 ** 31)))
        shops = picks.generate("zipf", max(times.size, 1),
                               zipf_exponent=1.2)[:times.size]
    else:
        shops = rng.integers(0, ctx.shops, size=times.size)
    mix = rng.choice(len(PRIORITIES), size=times.size, p=(0.1, 0.7, 0.2))
    return driver.Schedule.of(times, driver.REQUEST, shops, mix)


def _schedules(spec: ServeSpec, ctx: Context, live_events: int,
              burst_events: int) -> Dict[str, object]:
    """Every window's items, a pure function of ``--seed`` and the spec.

    Event slots carry no event: the world folds the *next* event of its
    stream, so a slot an over-offered window drops leaves no gap.  The
    ``live_events`` of the live month are spread evenly over every
    window, which sets the event rate.  The burst takes up to
    :data:`BURST_EVENTS` of the ``burst_events`` left after the live
    month.
    """
    fixed_s, over_s = spec.window_seconds(ctx)
    event_rps = live_events / (CYCLES * (fixed_s + over_s))
    out: Dict[str, object] = {"fixed": [], "over": [],
                              "event_rps": event_rps}
    for cycle in range(CYCLES):
        for name, rate, duration in (("fixed", spec.fixed_rps, fixed_s),
                                     ("over", spec.over_rps, over_s)):
            slots = int(event_rps * duration)
            out[name].append(driver.Schedule.merge(
                _requests(spec, ctx, rate, duration,
                          (cycle, name == "over")),
                driver.Schedule.of(np.arange(slots) * (duration / max(
                    slots, 1)), driver.EVENT)))
    out["burst"] = driver.Schedule.of(
        np.zeros(min(BURST_EVENTS, burst_events)), driver.EVENT)
    return out


def _world_schedules(spec: ServeSpec, ctx: Context,
                     world: ServeWorld) -> Dict[str, object]:
    if not world.streaming:
        return _schedules(spec, ctx, 0, 0)
    return _schedules(spec, ctx, world.burst_start - world.live_start,
                     len(world.events) - world.burst_start)


def _streams_identical(spec: ServeSpec, ctx: Context, world: ServeWorld,
                       planned: Dict[str, object]) -> bool:
    """Regenerate every stream from the seed and compare."""
    if world.streaming:
        twin = _stream_plan(_simulator(world.market, ctx.seed))
        if twin != (world.events, world.live_start, world.burst_start):
            return False
    return planned == _world_schedules(spec, ctx, world)


# ----------------------------------------------------------------------
# driving
# ----------------------------------------------------------------------
class _Adapter:
    """Driver callbacks for one world; roots spans when recording."""

    def __init__(self, world: ServeWorld) -> None:
        self.world = world
        self.rec: Optional[SpanRecorder] = None
        self.schedule: Optional[driver.Schedule] = None
        self.count = 0

    def root(self, name: str, trace_id: str):
        if self.rec is None:
            return nullcontext()
        self.rec.trace_id = trace_id
        return self.rec.span(name)

    def submit(self, i: int):
        self.count += 1
        schedule, world = self.schedule, self.world
        if schedule.kind[i] == driver.EVENT:
            with self.root("driver.event", f"e{self.count}"):
                world.ingest()
            return None
        shop = int(schedule.shop[i])
        with self.root("driver.request", f"r{self.count}"):
            if world.spec.admission:
                return world.gateway.submit(
                    shop, priority=PRIORITIES[schedule.priority[i]])
            return world.gateway.submit(shop)

    def poll(self) -> bool:
        gateway = self.world.gateway
        with self.root("driver.poll", f"b{self.count}"):
            if self.world.spec.admission:
                return gateway.pump()
            parked = len(gateway.batcher)
            if not parked:
                return False
            gateway.poll()
            return len(gateway.batcher) < parked

    def drain(self) -> None:
        with self.root("driver.poll", f"b{self.count}"):
            self.world.gateway.flush()

    def drive(self, schedule: driver.Schedule,
              stop_after: float = math.inf) -> driver.PhaseResult:
        self.schedule = schedule
        return driver.run_open_loop(
            schedule, self.submit, self.poll, time.perf_counter, spin,
            drain=self.drain, stop_after=stop_after,
            completed_at=_completed_at)


def _completed_at(request) -> float:
    """When the gateway resolved a request, on the gateway's own clock."""
    if request.response is None:
        return math.nan
    return request.enqueued_at + request.response.latency_seconds


def _restart(world: ServeWorld, shops,
             rec: Optional[SpanRecorder]) -> tuple:
    """Crash -> (recover) -> cold gateway -> first batch.

    Returns ``(seconds, forecasts, tail_events)``.  For a streaming
    world the "crash" loses every in-memory object: the journal is
    reopened from disk and ``recover`` rebuilds the fold from the newest
    checkpoint plus the journal tail, while the live process carries on.
    """
    def span(name):
        return rec.span(name) if rec is not None else nullcontext()

    journal = None
    tail = 0
    gc.collect()      # earlier windows' garbage is not the restart's cost
    started = time.perf_counter()
    with span("recover.cycle"):
        if world.streaming:
            with span("recover.reopen"):
                journal = DurableEventLog(world.dir / "journal")
            with span("recover.recover"):
                state = recover(
                    journal, world.dir / "checkpoints",
                    base_graph=world.simulator.initial_graph(),
                    store_factory=lambda: world.simulator.initial_store(
                        watermark=2))
            tail = state.replayed_events
        with span("recover.attach"):
            if world.streaming:
                gateway = world.attached_gateway(state.dynamic_graph,
                                                 state.store)
            else:
                gateway = world.make_gateway()
        with span("recover.first_batch"):
            forecasts = world.predict(shops, gateway)
    elapsed = time.perf_counter() - started
    gateway.close()
    if journal is not None:
        journal.close()
    return elapsed, forecasts, tail


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run_serving(spec: ServeSpec, ctx: Context) -> Result:
    speed = HostSpeed()
    world, setups, worlds_s = _setup(spec, ctx, speed)
    planned = _world_schedules(spec, ctx, world)
    streams_identical = _streams_identical(spec, ctx, world, planned)
    check = np.random.default_rng([ctx.seed, 99]).choice(
        ctx.shops, size=min(CHECK_SHOPS, ctx.shops), replace=False)
    # The same shops on every seed: their ego-subgraph sizes set the
    # cost of a first batch, which should not vary with the seed.
    first = np.linspace(0, ctx.shops - 1, FIRST_BATCH).astype(np.int64)
    fixed_s, over_s = spec.window_seconds(ctx)
    adapter = _Adapter(world)
    rec = SpanRecorder(time.perf_counter) if ctx.trace else None
    restart_rec = SpanRecorder(time.perf_counter) if ctx.trace else None
    if not ctx.trace:
        assert_no_shims()
    settle_heap()

    fixed_runs, over_runs, over_slow, restarts, tails = [], [], [], [], []
    recovered_equal = True
    counters: Dict[str, float] = {}
    stats: Dict[str, int] = {}
    traced_busy = 0.0
    traced_events = 0
    plain_busy, traced_items_busy = [], []
    for cycle in range(CYCLES):
        # A traced run traces every other cycle: comparing the cost per
        # item of traced and untraced cycles gives the shims' overhead,
        # and alternating keeps host speed drift out of the comparison.
        traced = ctx.trace and cycle % 2 == 1
        adapter.rec = rec if traced else None
        counters0 = dict(world.gateway.metrics.counters)
        stats0 = engine.stats_snapshot()
        with Shims(rec) if traced else nullcontext():
            fixed = adapter.drive(planned["fixed"][cycle],
                                  stop_after=2 * fixed_s)
            over = adapter.drive(planned["over"][cycle], stop_after=over_s)
        over_slow.append(speed.slowdown())
        fixed_runs.append(fixed)
        over_runs.append(over)
        (traced_items_busy if traced else plain_busy).append(
            _busy_per_item(fixed))
        if traced:
            for key, value in world.gateway.metrics.counters.items():
                counters[key] = (counters.get(key, 0.0) + value
                                 - counters0.get(key, 0.0))
            for key, value in stats_delta(stats0).items():
                stats[key] = stats.get(key, 0) + value
            traced_busy += sum(r.end - r.start - r.idle_s
                               for r in (fixed, over))
            traced_events += sum(r.attempted(driver.EVENT)
                                 for r in (fixed, over))
        # Crash -> serve cycles, checked against the never-crashed fold
        # at the same stream offset.
        with Shims(restart_rec) if traced else nullcontext():
            for _ in range(RESTARTS_PER_CYCLE):
                seconds, forecasts, tail = _restart(
                    world, first, restart_rec if traced else None)
                restarts.append(seconds / speed.slowdown())
                tails.append(tail)
        if world.streaming:
            reference = world.attached_gateway(world.dyn, world.store)
            recovered_equal &= bool(np.array_equal(
                forecasts, world.predict(first, reference)))
            reference.close()

    burst = None
    if world.streaming:
        adapter.rec = rec
        with Shims(rec) if ctx.trace else nullcontext():
            started = time.perf_counter()
            with adapter.root("driver.catch_up", "catch_up"):
                world.catch_up(world.burst_start)
            traced_busy += time.perf_counter() - started
            burst = adapter.drive(planned["burst"])
        traced_busy += burst.end - burst.start - burst.idle_s
        traced_events += burst.count
        adapter.rec = None

    # --- forecasts on the final state against the batch-1 oracle -------
    live = world.predict(check)
    live_first = world.predict(first)
    oracle_gw = world.make_gateway(max_batch_size=1, subgraph_cache_size=1,
                                   result_cache_size=1)
    if world.streaming:
        oracle_gw.attach_stream(world.dyn, store=world.store)
    oracle = world.predict(check, oracle_gw)
    oracle_first = world.predict(first, oracle_gw)
    oracle_gw.close()
    world.close()

    # --- accounting ----------------------------------------------------
    served = np.concatenate([r.latency(driver.REQUEST) for r in fixed_runs])
    if not served.size:
        raise RuntimeError("no request was served at the fixed rate")
    # Every request scheduled at the fixed rate is attempted; one not
    # served (an error, shed, expired, or never submitted because the
    # window overran) failed.  Refusals while over-offered are the
    # admission plane doing its job and count in neither.
    attempted = sum(int(np.count_nonzero(s.kind == driver.REQUEST))
                    for s in planned["fixed"])
    failed = attempted - int(served.size)
    latency = driver.latency_summary(
        served, windows=max(1, min(TAIL_WINDOWS, served.size // 1000)))
    # Requests served inside each over-offered window (not in its drain),
    # per second at the reference host speed: a rate, so it is
    # multiplied by the slowdown where a time is divided by it.
    served_over = [int(np.count_nonzero(
        (r.kind == driver.REQUEST) & r.ok & (r.done <= r.start + over_s)))
        for r in over_runs]
    capacities = [n / over_s * slow for n, slow in zip(served_over,
                                                       over_slow)]
    capacity = median(capacities)
    over_offered = sum(r.attempted(driver.REQUEST) for r in over_runs)
    over_served = sum(int(np.count_nonzero(
        (r.kind == driver.REQUEST) & r.ok)) for r in over_runs)
    late_p99 = float(np.percentile(
        np.concatenate([r.lateness for r in fixed_runs]) * 1e3, 99))
    restart_ms = median(restarts) * 1e3
    serve_diff = max_rel_diff(live, oracle)
    restart_diff = max_rel_diff(live_first, oracle_first)

    checks = {
        "serve_max_rel_diff": serve_diff,
        "serve_max_abs_diff": max_abs_diff(live, oracle),
        "serve_within_tolerance": serve_diff <= SERVING_TOLERANCE,
        "first_batch_max_rel_diff": restart_diff,
        "first_batch_within_tolerance": restart_diff <= SERVING_TOLERANCE,
        "streams_identical_for_seed": streams_identical,
    }
    if world.streaming:
        checks["recovered_equals_never_crashed"] = recovered_equal
    correct = all(v for v in checks.values() if isinstance(v, bool))

    named = {
        "setup_s": median(setups),
        "serve_p50_ms": latency["p50_ms"],
        f"serve_p{latency['tail_pct']:g}_ms": latency["tail_ms"],
        "serve_capacity_rps": capacity,
        "failed_frac": failed / attempted,
    }
    ingest = {}
    if world.streaming:
        lag = driver.latency_summary(np.concatenate(
            [r.latency(driver.EVENT) for r in fixed_runs]))
        ingest = {
            "lag_p50_ms": lag["p50_ms"],
            "lag_tail_ms": lag["tail_ms"],
            "capacity_eps": (burst.count / (burst.done.max() - burst.start)
                             if burst.count else 0.0),
        }
        named["ingest_lag_p50_ms"] = ingest["lag_p50_ms"]
        named[f"ingest_lag_p{lag['tail_pct']:g}_ms"] = ingest["lag_tail_ms"]
        named["ingest_capacity_eps"] = ingest["capacity_eps"]
        named["recover_to_serve_ms"] = restart_ms
    else:
        named["restart_to_serve_ms"] = restart_ms
    named["peak_rss_mb"] = peak_rss_mb()

    result = Result(
        correct=correct,
        attempted=attempted,
        failed=failed,
        end_to_end={
            "setup_s": median(setups),
            "p50_ms": latency["p50_ms"],
            "tail_ms": latency["tail_ms"],
            "capacity_per_s": capacity,
            "restart_ms": restart_ms,
            "peak_rss_mb": named["peak_rss_mb"],
        },
        named=named,
        run={
            "latency_limit_ms": LATENCY_LIMIT_S * 1e3,
            "deadline_budget_ms": (LATENCY_LIMIT_S * 1e3
                                   if spec.admission else None),
            "batcher": ("DeadlineBatcher" if spec.admission
                        else "MicroBatcher"),
            "cycles": CYCLES,
            "fixed_rps": spec.fixed_rps,
            "over_rps": spec.over_rps,
            "event_rps": planned["event_rps"],
            "fixed_requests": attempted,
            "fixed_served": int(served.size),
            "over_offered": over_offered,
            "over_refused": over_offered - over_served,
            "capacity_per_window": capacities,
            "raw_capacity_per_window": [n / over_s for n in served_over],
            "burst_events": burst.count if burst else 0,
            "tail_pct": latency["tail_pct"],
            "tail_windows": latency["tail_windows"],
            "restarts_ms": [t * 1e3 for t in restarts],
            "restart_tail_events": tails,
            "setups_s": setups,
            "host_slowdown": speed.slowdowns,
            "host_samples": speed.samples,
            "driver.late_p99_ms": late_p99,
        },
        checks=checks,
    )
    if ctx.trace:
        found = layers.serving_layers(rec, counters, stats, traced_events)
        found.update(layers.stream_layers(rec, restart_rec, world, tails))
        if ingest:
            found["ingest.lag_p50_ms"] = ingest["lag_p50_ms"]
            found["ingest.lag_p99_ms"] = ingest["lag_tail_ms"]
            found["ingest.capacity_eps"] = ingest["capacity_eps"]
        found["setup.world_s"] = median(worlds_s)
        found["driver.late_p99_ms"] = late_p99
        found["trace.overhead_frac"] = (median(traced_items_busy)
                                        / median(plain_busy) - 1.0)
        found["trace.coverage_frac"] = rec.layer_seconds() / traced_busy
        result.layers = layers.finish(found)
        result.spans = rec.spans + _reparent(restart_rec.spans,
                                             len(rec.spans))
        result.self_time = {
            # Driver bookkeeping between spans is the loop's own cost.
            "driven": rec.self_time_table(traced_busy - rec.root_seconds()),
            "restarts": restart_rec.self_time_table(),
        }
        result.run["forward_fit"] = {
            "fixed_ms": found["forward.fixed_ms"],
            "per_row_ms": found["forward.per_row_us"] / 1e3,
            "forward_spans": len(rec.of("forward")),
            "service_time_model": {"per_forward_ms": 2.0,
                                   "per_row_ms": 0.5},
        }
    return result


def _busy_per_item(phase: driver.PhaseResult) -> float:
    """Non-idle seconds per offered item: the window's cost of its work."""
    return (phase.end - phase.start - phase.idle_s) / max(phase.count, 1)


def _reparent(spans: List[dict], offset: int) -> List[dict]:
    """Spans of a second recorder, indices shifted past the first's."""
    return [dict(s, parent=None if s["parent"] is None
                 else s["parent"] + offset) for s in spans]
