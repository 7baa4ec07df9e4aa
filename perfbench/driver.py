"""Open-loop load driver and the statistics every workload reports.

One thread is both the load generator and the serving worker: before
each item's due time it serves whatever the system has due (``poll``)
or sleeps; at the due time it hands the item to ``submit``.  Every
latency is measured from the item's *due* time, so a stall in the
system (or in the driver) is charged to every item scheduled behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

#: The driver sleeps at most this long between polls of an idle system.
IDLE_SLICE_S = 0.001
#: Parked handles the driver accumulates before it records and drops
#: the resolved ones.
COLLECT_EVERY = 512


#: Item kinds in a :class:`Schedule`.
REQUEST, EVENT = 0, 1


@dataclass
class Schedule:
    """A phase's items as arrays: due time (seconds from phase start),
    kind, shop and priority index.  Arrays keep a long schedule compact
    and out of the garbage collector's way."""

    due: np.ndarray
    kind: np.ndarray
    shop: np.ndarray
    priority: np.ndarray

    @classmethod
    def merge(cls, *parts: "Schedule") -> "Schedule":
        """One schedule from several, stable by due time."""
        due = np.concatenate([p.due for p in parts])
        order = np.argsort(due, kind="stable")
        return cls(due[order],
                   *(np.concatenate([getattr(p, f) for p in parts])[order]
                     for f in ("kind", "shop", "priority")))

    @classmethod
    def of(cls, due, kind: int, shop=None, priority=None) -> "Schedule":
        due = np.asarray(due, dtype=np.float64)
        zeros = np.zeros(due.size, dtype=np.int64)
        return cls(due, np.full(due.size, kind, dtype=np.int8),
                   zeros if shop is None else np.asarray(shop, np.int64),
                   zeros if priority is None else np.asarray(priority,
                                                             np.int64))

    def __len__(self) -> int:
        return int(self.due.size)

    def __eq__(self, other) -> bool:
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in ("due", "kind", "shop", "priority"))


@dataclass
class PhaseResult:
    """What happened to each submitted item (absolute clock readings).

    Index ``i`` is schedule item ``i``; only the first ``count`` items
    were submitted.
    """

    start: float
    end: float
    count: int
    due: np.ndarray
    submitted: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    kind: np.ndarray
    #: Seconds spent sleeping (the system had nothing due).
    idle_s: float = 0.0

    def latency(self, kind: int, served: bool = True) -> np.ndarray:
        """Completion minus due time of submitted items of ``kind``."""
        mask = self.kind == kind
        if served:
            mask &= self.ok
        return (self.done - self.due)[mask]

    def attempted(self, kind: int) -> int:
        return int(np.count_nonzero(self.kind == kind))

    @property
    def lateness(self) -> np.ndarray:
        """How late the driver handed each item over (submit - due)."""
        return self.submitted - self.due


def run_open_loop(schedule: Schedule, submit: Callable, poll: Callable,
                  clock: Callable[[], float], sleep: Callable[[float], None],
                  drain: Optional[Callable[[], None]] = None,
                  stop_after: float = math.inf,
                  completed_at: Optional[Callable] = None) -> PhaseResult:
    """Drive ``schedule`` open-loop on one thread.

    ``submit(i)`` hands over item ``i`` and returns ``None`` when the
    operation completed synchronously, or a handle whose ``done`` flag a
    later ``poll()`` sets; ``completed_at(handle)`` then reads when it
    completed (by default ``handle.completed_at``) and :func:`is_ok`
    tells served from refused.  ``poll()`` serves at most what the
    system has due and returns whether it did any work; it also runs
    once after every submit, so a driver that fell behind schedule still
    interleaves serving with intake.  ``drain()`` finishes everything
    parked once the last item was submitted.  Items still unsubmitted
    ``stop_after`` seconds into the phase are dropped unattempted, which
    bounds an over-offered phase.
    """
    completed_at = completed_at or (lambda handle: handle.completed_at)
    n = len(schedule)
    submitted = np.full(n, math.nan)
    done = np.full(n, math.nan)
    ok = np.ones(n, dtype=bool)
    waiting: List[tuple] = []

    def collect() -> None:
        # Record resolved handles and let them go, so the driver holds
        # only what the system still has parked.
        still = []
        for i, handle in waiting:
            if handle.done:
                ok[i] = is_ok(handle)
                done[i] = completed_at(handle)
            else:
                still.append((i, handle))
        waiting[:] = still

    idle = 0.0
    start = clock()
    count = 0
    for i in range(n):
        if clock() - start >= stop_after:
            break
        due = start + float(schedule.due[i])
        while True:
            now = clock()
            if now >= due:
                break
            if poll():
                continue
            nap = min(due - now, IDLE_SLICE_S)
            sleep(nap)
            idle += nap
        submitted[i] = clock()
        count = i + 1
        handle = submit(i)
        if handle is None:
            done[i] = clock()
        else:
            waiting.append((i, handle))
            if len(waiting) >= COLLECT_EVERY:
                collect()
        poll()
    collect()
    while waiting:
        if not poll():
            if drain is not None:
                drain()
            else:
                sleep(IDLE_SLICE_S)
                idle += IDLE_SLICE_S
        collect()
    end = clock()
    return PhaseResult(start=start, end=end, count=count,
                       due=start + schedule.due[:count],
                       submitted=submitted[:count], done=done[:count],
                       ok=ok[:count], kind=schedule.kind[:count],
                       idle_s=idle)


def is_ok(handle) -> bool:
    """A resolved gateway request counts as served unless shed or failed."""
    if getattr(handle, "error", None) is not None:
        return False
    response = getattr(handle, "response", None)
    return not getattr(response, "shed", False)


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def poisson_times(rng: np.random.Generator, rate: float, duration: float,
                  offset: float = 0.0) -> np.ndarray:
    """Arrival times of a Poisson process at ``rate`` over ``duration``."""
    count = int(rng.poisson(rate * duration))
    return offset + np.sort(rng.uniform(0.0, duration, size=count))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_percentile(count: int) -> float:
    """Highest percentile (at most 99) with at least ten samples beyond it."""
    if count <= 10:
        return 50.0
    return min(99.0, math.floor(100.0 * (1.0 - 10.0 / count)))


def latency_summary(latencies_s: Sequence[float], windows: int = 1) -> dict:
    """Median and supported tail of latencies, in milliseconds.

    With ``windows > 1`` the tail is the median of the tails of that
    many consecutive slices, each holding enough samples for the same
    percentile: one stall then moves one slice's tail, not the figure.
    """
    values = np.asarray(latencies_s, dtype=np.float64) * 1e3
    if values.size == 0:
        raise ValueError("no latencies to summarise")
    slices = np.array_split(values, windows)
    pct = tail_percentile(min(s.size for s in slices))
    return {
        "p50_ms": float(np.percentile(values, 50)),
        "tail_ms": float(np.median([np.percentile(s, pct) for s in slices])),
        "tail_pct": pct,
        "tail_windows": windows,
        "count": int(values.size),
    }


def fit_line(x: Sequence[float], y: Sequence[float]):
    """Least-squares ``y = a + b x``; returns ``(a, b)``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2 or np.ptp(x) == 0:
        return float(np.mean(y)) if y.size else 0.0, 0.0
    b, a = np.polyfit(x, y, 1)
    return float(a), float(b)
