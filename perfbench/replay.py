"""One closed-loop replay: a fresh deployment, every poll, every check.

The loop has a single caller. Each poll is ``realtime.run(poll)``
followed by ``batch.ingest_from_broker()`` — what ``DatacronSystem.run``
does, split so each half is timed — and then the star queries of that
poll's time window. Polls are cut by simulated time, not by arrival: each
``run()`` closes the stream (cleaning state resets, live trajectories
emit an ``end`` point), so a wall-clock cut would make the outputs depend
on machine speed.
"""

from __future__ import annotations

import gc
import multiprocessing
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, Iterator

import numpy as np

from repro.kgstore import STConstraint

import steal
from checks import invariants, row_in_range, topic_digest
from spans import SpanRecorder, install


@dataclass
class ReplayResult:
    """Timings and outcome of one replay. Every timing is a wall with the
    time the hypervisor stole taken out (see steal.py)."""

    setup_s: float
    realtime_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    #: One sample per fix: pulled from the input to return of its run().
    latency_s: list[np.ndarray] = field(default_factory=list)
    #: Per poll, the share of CPU time that was not stolen.
    unstolen: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    report: Any = None
    graph_triples: int = 0
    balance: float = 0.0
    #: Summed peak RSS of the worker processes alive at the end (KiB).
    children_peak_kb: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.realtime_s) + sum(self.batch_s)

    @property
    def raw_wall_s(self) -> float:
        """The replay's wall before the stolen time was taken out."""
        return sum((r + b) / u for r, b, u in zip(self.realtime_s, self.batch_s, self.unstolen))

    def fail(self, ops: int, message: str) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        self.failures.append(message)


def _pull(fixes: Iterable, stamps: list[float]) -> Iterator:
    """The input iterator: stamps the instant the layer pulls each fix."""
    append = stamps.append
    for fix in fixes:
        append(perf_counter())
        yield fix


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _drive(workload: Any, polls: list, tiles: list, dep: Any, res: ReplayResult,
           rec: SpanRecorder | None) -> None:
    poll_span = rec.intern("poll") if rec is not None else -1
    ops_per_poll = 2 + len(tiles)
    report = batch_report = None
    for k, (poll, (w0, w1)) in enumerate(zip(polls, workload.windows)):
        if rec is not None:
            rec.poll_id = k
            root = rec.open(poll_span)
        try:
            stamps: list[float] = []
            clock = steal.sample()
            t0 = perf_counter()
            report = dep.realtime.run(_pull(poll, stamps))
            t1 = perf_counter()
            res.realtime_s.append(t1 - t0)
            res.latency_s.append(t1 - np.asarray(stamps))
            t0 = perf_counter()
            batch_report = dep.batch.ingest_from_broker()
            res.batch_s.append(perf_counter() - t0)
            for tile in tiles:
                t0 = perf_counter()
                rows = dep.batch.nodes_in_range(tile, w0, w1)
                res.query_s.append(perf_counter() - t0)
                st = STConstraint(tile, w0, w1)
                outside = sum(1 for row in rows if not row_in_range(dep.batch.graph, row, st))
                if outside:
                    res.fail(1, f"poll {k}: {outside} query rows outside {st}")
            share = steal.unstolen_share(clock, steal.sample())
            res.unstolen.append(share)
            res.realtime_s[-1] *= share
            res.batch_s[-1] *= share
            res.latency_s[-1] *= share
            res.query_s[-len(tiles):] = [q * share for q in res.query_s[-len(tiles):]]
        # The replay loop is the boundary that must keep reporting: any
        # failure in the system counts against the rest of this replay.
        except Exception:
            res.fail((len(polls) - k) * ops_per_poll, f"poll {k} raised:\n{traceback.format_exc()}")
            return
        finally:
            if rec is not None:
                rec.close(root)
                rec.poll_id = -1
    for message in invariants(report, batch_report, len(workload.fixes)):
        res.fail(2 * len(polls), message)
    res.report = report
    res.digest = topic_digest(dep.realtime.broker)
    res.graph_triples = len(dep.batch.graph)
    if workload.pooled:
        res.balance = dep.realtime.balance()


def replay(workload: Any, polls: list, tiles: list, training: list[str],
           rec: SpanRecorder | None = None) -> ReplayResult:
    """Build a fresh deployment (timed as set-up) and replay every poll."""
    # The previous deployment's cycles go now, not inside this replay's timers.
    gc.collect()
    setup_s, dep = _timed_build(workload, training)
    res = ReplayResult(setup_s=setup_s)
    res.attempted = len(polls) * (2 + len(tiles))
    undo = install(rec, dep, workload.pooled) if rec is not None else None
    try:
        _drive(workload, polls, tiles, dep, res, rec)
        res.children_peak_kb = sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    finally:
        if undo is not None:
            undo()
        dep.close()
    return res


def oracle(workload: Any, polls: list, training: list[str]) -> tuple[Any, str]:
    """ais-pooled's reference: the in-process sharded layer at the same
    ``n_shards`` and poll split; returns its report and topic digest."""
    dep = workload.build(training, worker_pool=False)
    try:
        report = None
        for poll in polls:
            report = dep.realtime.run(poll)
        return report, topic_digest(dep.realtime.broker)
    finally:
        dep.close()


def _timed_build(workload: Any, training: list[str]) -> tuple[float, Any]:
    """Build a deployment; return its set-up time and the deployment."""
    clock = steal.sample()
    t0 = perf_counter()
    dep = workload.build(training)
    elapsed = perf_counter() - t0
    return elapsed * steal.unstolen_share(clock, steal.sample()), dep


def setup_only(workload: Any, training: list[str]) -> float:
    """One more set-up sample: build a deployment and tear it down."""
    gc.collect()
    setup_s, dep = _timed_build(workload, training)
    dep.close()
    return setup_s
