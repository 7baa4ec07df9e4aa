"""Per-layer metrics: their names and units, and how spans become them.

A traced run reports every name here; a layer the workload does not run
reads 0.  ``perfbench/README.md`` maps each layer metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

from typing import Dict, List

from . import driver
from .common import fused_hits, mean, median
from .shims import SpanRecorder

#: Kernels whose per-replay time, FLOPs and bytes the traced retrain
#: reports: the eight heaviest of the 1000-shop Gaia training plan.
KERNELS = (
    ("multi_conv1d", "backward"), ("scaled_masked_softmax", "forward"),
    ("conv1d", "backward"), ("conv1d", "forward"),
    ("multi_conv1d", "forward"), ("matmul", "backward"),
    ("matmul", "forward"), ("scaled_masked_softmax", "backward"),
)



def layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = list(LAYER_UNITS)
    for op, phase in KERNELS:
        names += [f"kernel.{op}.{phase}.{m}" for m in ("ms", "flops", "bytes")]
    return names


LAYER_UNITS: Dict[str, str] = {
    "gateway.submit_us": "us",
    "gateway.serve_self_ms": "ms",
    "batch.queue_wait_p50_ms": "ms",
    "batch.size_mean": "requests",
    "admission.shed_frac": "ratio",
    "admission.expired": "count",
    "cache.result_hit_rate": "ratio",
    "cache.subgraph_hit_rate": "ratio",
    "cache.delta_evicted_per_event": "entries",
    "cache.freshness_evictions": "count",
    "cache.invalidate_ms": "ms",
    "extract.ms_per_call": "ms",
    "extract.egos_per_call": "egos",
    "extract.nodes_per_ego": "nodes",
    "assembly.ms_per_batch": "ms",
    "forward.ms_per_batch": "ms",
    "forward.rows_per_batch": "rows",
    "forward.fixed_ms": "ms",
    "forward.per_row_us": "us",
    "engine.inference_forwards": "count",
    "engine.fused_serving": "count",
    "plan.forward_ms": "ms",
    "plan.backward_ms": "ms",
    "optim.clip_ms": "ms",
    "optim.adam_ms": "ms",
    "val.forward_ms": "ms",
    "engine.plan_replays": "count",
    "engine.fused_hits": "count",
    "fold.graph_apply_us": "us",
    "fold.store_apply_us": "us",
    "fold.compactions": "count",
    "fold.compact_ms": "ms",
    "journal.append_us": "us",
    "journal.bytes_per_event": "B",
    "checkpoint.write_ms": "ms",
    "checkpoint.bytes": "B",
    "recover.load_ms": "ms",
    "recover.replay_ms": "ms",
    "recover.tail_events": "count",
    "recover.attach_ms": "ms",
    "recover.first_batch_ms": "ms",
    "ingest.lag_p50_ms": "ms",
    "ingest.lag_p99_ms": "ms",
    "ingest.capacity_eps": "1/s",
    "setup.world_s": "s",
    "setup.compile_s": "s",
    "driver.late_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


#: End-to-end metrics: every workload measures every one of them.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "capacity_per_s": "1/s",
    "restart_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.startswith("kernel."):
        return {"ms": "ms", "flops": "flop",
                "bytes": "B"}[name.rsplit(".", 1)[1]]
    return LAYER_UNITS[name]


def serving_layers(rec: SpanRecorder, counters: Dict[str, float],
                   stats: Dict[str, int], events: int) -> Dict[str, float]:
    """Layer metrics of the gateway path from spans and counter deltas."""
    out: Dict[str, float] = {}
    out["gateway.submit_us"] = mean(rec.durations("gateway.submit")) * 1e6
    self_times = rec.self_times()
    serve_self = sum(t for s, t in zip(rec.spans, self_times)
                     if s["name"] == "gateway.serve")
    batches = max(len(rec.notes["batch.size"]), 1)
    out["gateway.serve_self_ms"] = serve_self * 1e3 / batches
    waits = rec.notes["batch.queue_wait"]
    out["batch.queue_wait_p50_ms"] = median(waits) * 1e3 if waits else 0.0
    out["batch.size_mean"] = mean(rec.notes["batch.size"])
    total = counters.get("requests_total", 0.0)
    out["admission.shed_frac"] = (counters.get("requests_shed", 0.0) / total
                                  if total else 0.0)
    out["admission.expired"] = counters.get("requests_expired", 0.0)

    def rate(hit, miss):
        seen = counters.get(hit, 0.0) + counters.get(miss, 0.0)
        return counters.get(hit, 0.0) / seen if seen else 0.0

    out["cache.result_hit_rate"] = rate("cache_hits", "cache_misses")
    out["cache.subgraph_hit_rate"] = rate("subgraph_cache_hits",
                                          "subgraph_cache_misses")
    evicted = (counters.get("delta_evicted_subgraphs", 0.0)
               + counters.get("delta_evicted_results", 0.0))
    out["cache.delta_evicted_per_event"] = evicted / events if events else 0.0
    out["cache.freshness_evictions"] = counters.get("freshness_evictions", 0.0)
    out["cache.invalidate_ms"] = mean(rec.durations("cache.invalidate")) * 1e3
    extract = rec.durations("extract")
    out["extract.ms_per_call"] = mean(extract) * 1e3
    out["extract.egos_per_call"] = mean(rec.notes["extract.egos"])
    egos = sum(rec.notes["extract.egos"])
    out["extract.nodes_per_ego"] = (sum(rec.notes["extract.nodes"]) / egos
                                    if egos else 0.0)
    out["assembly.ms_per_batch"] = mean(rec.durations("assembly")) * 1e3
    forward = rec.durations("forward")
    rows = rec.notes["forward.rows"]
    out["forward.ms_per_batch"] = mean(forward) * 1e3
    out["forward.rows_per_batch"] = mean(rows)
    fixed, per_row = driver.fit_line(rows, forward)
    out["forward.fixed_ms"] = fixed * 1e3
    out["forward.per_row_us"] = per_row * 1e6
    out["engine.inference_forwards"] = float(stats.get("inference_forwards", 0))
    out["engine.fused_serving"] = float(fused_hits(stats))
    return out


def finish(layers: Dict[str, float]) -> Dict[str, float]:
    """Every layer name present; a layer off this workload's path is 0."""
    return {name: float(layers.get(name, 0.0)) for name in layer_names()}


def stream_layers(rec: SpanRecorder, restart_rec: SpanRecorder,
                  world, tails) -> Dict[str, float]:
    """Fold, journal, checkpoint and crash-to-serve layer metrics."""
    out: Dict[str, float] = {}
    out["fold.graph_apply_us"] = mean(rec.durations("fold.graph_apply")) * 1e6
    out["fold.store_apply_us"] = mean(rec.durations("fold.store_apply")) * 1e6
    compacts = rec.durations("fold.compact")
    out["fold.compactions"] = float(len(compacts))
    out["fold.compact_ms"] = mean(compacts) * 1e3
    out["journal.append_us"] = mean(rec.durations("journal.append")) * 1e6
    out["checkpoint.write_ms"] = mean(rec.durations("checkpoint.write")) * 1e3
    if world.streaming:
        segments = (world.dir / "journal").glob("events-*.seg")
        out["journal.bytes_per_event"] = sum(
            p.stat().st_size for p in segments) / max(len(world.log), 1)
        checkpoints = sorted((world.dir / "checkpoints").glob("ckpt-*"))
        if checkpoints:
            out["checkpoint.bytes"] = float(sum(
                p.stat().st_size for p in checkpoints[-1].iterdir()))
    # Per cycle: load = checkpoint load + rebuild; replay = the rest of
    # recover(); attach and first batch are spans of their own.
    spans = restart_rec.spans
    children: Dict[int, Dict[str, float]] = {}
    for span in spans:
        if span["parent"] is not None:
            row = children.setdefault(span["parent"], {})
            row[span["name"]] = (row.get(span["name"], 0.0)
                                 + span["end"] - span["start"])
    parts: Dict[str, List[float]] = {"load": [], "replay": [], "attach": [],
                                     "first": []}
    for i, span in enumerate(spans):
        if span["name"] == "recover.recover":
            load = children.get(i, {}).get("recover.load", 0.0)
            parts["load"].append(load)
            parts["replay"].append(span["end"] - span["start"] - load)
        elif span["name"] == "recover.attach":
            parts["attach"].append(span["end"] - span["start"])
        elif span["name"] == "recover.first_batch":
            parts["first"].append(span["end"] - span["start"])
    for key, name in (("load", "recover.load_ms"),
                      ("replay", "recover.replay_ms"),
                      ("attach", "recover.attach_ms"),
                      ("first", "recover.first_batch_ms")):
        if parts[key]:
            out[name] = median(parts[key]) * 1e3
    if world.streaming:
        out["recover.tail_events"] = median(tails)
    return out
