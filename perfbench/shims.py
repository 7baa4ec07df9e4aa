"""Timing shims around the program's public callables (traced runs only).

A :class:`Shims` context replaces each target attribute with a wrapper
that records one span per call into a :class:`SpanRecorder`, and puts
the original object back on exit.  Nothing inside ``src/`` changes:
the shims live on module and class attributes for the duration of the
traced run.  :func:`assert_no_shims` is the untraced run's guard.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

SHIM_MARK = "_perfbench_shim"
#: Prefix of the spans the benchmark opens around its own work.
DRIVER = "driver."

#: (module path, owner attribute or None for the module, attribute, span).
#: Functions the gateway imported by name are patched where it looks
#: them up (``repro.serving.gateway``), not where they are defined.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.serving.gateway", "ServingGateway", "submit", "gateway.submit"),
    ("repro.serving.gateway", "ServingGateway", "pump", "gateway.serve"),
    ("repro.serving.gateway", "ServingGateway", "poll", "gateway.serve"),
    ("repro.serving.gateway", "ServingGateway", "flush", "gateway.serve"),
    # The gateway subscribes bound methods to the stream at attach time,
    # so invalidation is timed at the cache, which it looks up per call.
    ("repro.serving.cache", "SubgraphCache", "invalidate_nodes",
     "cache.invalidate"),
    ("repro.serving.cache", "ResultCache", "invalidate_nodes",
     "cache.invalidate"),
    ("repro.serving.cache", "ResultCache", "expire_older_than",
     "cache.invalidate"),
    ("repro.serving.batching", "MicroBatcher", "drain", "batch.drain"),
    ("repro.serving.batching", "DeadlineBatcher", "drain", "batch.drain"),
    ("repro.serving.gateway", None, "ego_subgraphs", "extract"),
    ("repro.streaming.dynamic_graph", "DynamicGraph", "ego_subgraphs",
     "extract"),
    ("repro.serving.gateway", None, "build_disjoint_batch", "assembly"),
    ("repro.core.gaia", "Gaia", "forward", "forward"),
    ("repro.nn.engine", "ExecutionPlan", "forward", "plan.forward"),
    ("repro.nn.engine", "ExecutionPlan", "backward", "plan.backward"),
    ("repro.training.trainer", None, "clip_grad_norm", "optim.clip"),
    ("repro.nn.optim", "Adam", "step", "optim.adam"),
    ("repro.streaming.dynamic_graph", "DynamicGraph", "apply",
     "fold.graph_apply"),
    ("repro.streaming.features", "StreamingFeatureStore", "apply",
     "fold.store_apply"),
    ("repro.streaming.dynamic_graph", "DynamicGraph", "compact",
     "fold.compact"),
    ("repro.streaming.durable.log", "DurableEventLog", "append",
     "journal.append"),
    ("repro.streaming.durable.checkpoint", None, "write_checkpoint",
     "checkpoint.write"),
    ("repro.streaming.durable.checkpoint", None, "load_checkpoint",
     "recover.load"),
    ("repro.streaming.durable.checkpoint", "Checkpoint",
     "build_dynamic_graph", "recover.load"),
    ("repro.streaming.durable.checkpoint", "Checkpoint", "build_store",
     "recover.load"),
)


class SpanRecorder:
    """In-memory spans: name, start, end, parent index and trace id.

    ``trace_id`` is set by the driver before it hands over one request,
    event or batch, so every span that work causes shares the id.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.trace_id = ""
        #: Per-span-name argument observations (e.g. batch rows).
        self.notes: Dict[str, List[float]] = defaultdict(list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": self.clock(), "end": None,
                  "parent": parent, "id": self.trace_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = self.clock()

    def note(self, key: str, value: float) -> None:
        self.notes[key].append(float(value))

    def of(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.of(name)]

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its children cover.

        One thread records every span, so children nest inside their
        parent without overlapping each other.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c
                for s, c in zip(self.spans, covered)]

    def self_time_table(self, unspanned: float = 0.0) -> Dict[str, dict]:
        """Per program-layer span name: calls, total and self milliseconds.

        The ``unattributed`` row is the time no program layer accounts
        for: the self time of the benchmark's own ``driver.*`` spans plus
        ``unspanned`` seconds the caller measured outside every span.
        The self times of all rows add up to the measured wall time.
        """
        unattributed = unspanned * 1e3
        table: Dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span["name"].startswith(DRIVER):
                unattributed += own * 1e3
                continue
            row = table.setdefault(span["name"],
                                   {"calls": 0, "total_ms": 0.0,
                                    "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (span["end"] - span["start"]) * 1e3
            row["self_ms"] += own * 1e3
        table["unattributed"] = {"calls": 0, "total_ms": unattributed,
                                 "self_ms": unattributed}
        return dict(sorted(table.items(),
                           key=lambda kv: -kv[1]["self_ms"]))

    def root_seconds(self) -> float:
        """Wall time inside root spans (sum of every span's self time)."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None)

    def layer_seconds(self) -> float:
        """Self time of every program-layer span (every span but the
        benchmark's own ``driver.*`` ones)."""
        return sum(own for span, own in zip(self.spans, self.self_times())
                   if not span["name"].startswith(DRIVER))


def _observe(recorder: SpanRecorder, record: dict, name: str, args,
             result) -> None:
    """Record the argument/result sizes the layer metrics need.

    A submit span keeps the admitted request's ``seq`` and a drain span
    the ``links`` to every request it took, which joins a request's
    admission to the batch that served it.
    """
    if name == "gateway.submit":
        record["seq"] = int(result.seq)
    elif name == "extract":
        recorder.note("extract.egos", len(result))
        recorder.note("extract.nodes",
                      sum(int(e.num_nodes) for e in result))
    elif name == "forward":
        recorder.note("forward.rows", int(args[1].num_shops))
    elif name == "batch.drain":
        now = recorder.clock()
        recorder.note("batch.size", len(result))
        record["links"] = [int(request.seq) for request in result]
        for request in result:
            recorder.note("batch.queue_wait", now - request.enqueued_at)


def _wrap(original: Callable, name: str, recorder: SpanRecorder) -> Callable:
    @functools.wraps(original)
    def shim(*args, **kwargs):
        with recorder.span(name) as record:
            result = original(*args, **kwargs)
            _observe(recorder, record, name, args, result)
        return result

    setattr(shim, SHIM_MARK, True)
    return shim


def _owner(module_path: str, owner_name: Optional[str]):
    module = importlib.import_module(module_path)
    return module if owner_name is None else getattr(module, owner_name)


class Shims:
    """Install timing shims on :data:`TARGETS`; restore originals on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[tuple] = []

    def __enter__(self) -> "Shims":
        for module_path, owner_name, attr, name in TARGETS:
            owner = _owner(module_path, owner_name)
            # Every target is defined on its owner itself, so restoring
            # the owner's own attribute undoes the patch exactly.
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, self.recorder))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def installed_shims() -> List[str]:
    """Names of target attributes currently carrying a shim."""
    found = []
    for module_path, owner_name, attr, _ in TARGETS:
        value = getattr(_owner(module_path, owner_name), attr)
        if getattr(value, SHIM_MARK, False):
            found.append(f"{module_path}.{owner_name or ''}.{attr}")
    return found


def assert_no_shims() -> None:
    """The untraced run's guard: every target is the program's own."""
    found = installed_shims()
    if found:
        raise RuntimeError(f"timing shims installed in an untraced run: "
                           f"{found}")
