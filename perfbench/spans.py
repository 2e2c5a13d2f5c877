"""Layer spans for the traced run, recorded from outside the program.

The traced replay wraps the public calls each Figure-2 layer makes into
the next — instance attributes of the freshly built deployment, and the
three module-level names ``repro.core`` binds (``clean_stream``,
``merge_shard_outputs``, ``synopses_rdfizer``). Every wrapped call
becomes one span: name, start, end, parent, and the poll it belongs to.
Spans live in flat arrays while the replay runs and are written out once
it ends. A span's self time is its duration minus the time its direct
children cover; calls run on one thread, so children never overlap.

Wrappers are installed after the deployment is built, i.e. after a
pooled layer has forked its workers, so the workers run unwrapped: on
ais-pooled the per-entity stages show only through the IPC spans.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

import numpy as np

import repro.core.batch as core_batch
import repro.core.realtime as core_realtime
import repro.core.sharded as core_sharded
from repro.streams import Consumer


class SpanRecorder:
    """In-memory span store plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.poll = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: The poll id every new span carries; -1 outside the poll loop.
        self.poll_id = -1
        #: (poll id, counter name) -> accumulated value.
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.poll.append(self.poll_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counts[self.poll_id, counter] += value

    def wrap(
        self, name: str, fn: Callable, on_result: Callable[[Any, tuple], None] | None = None
    ) -> Callable:
        """``fn`` timed as span ``name``; ``on_result(result, args)`` counts."""
        nid = self.intern(name)
        open_, close = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def iterate(self, name: str, iterable: Iterable, counter: str | None = None) -> Iterator:
        """Each ``next()`` on ``iterable`` timed as span ``name``."""
        nid = self.intern(name)
        open_, close, add = self.open, self.close, self.add
        it = iter(iterable)
        while True:
            idx = open_(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                close(idx)
            if counter is not None:
                add(counter, 1)
            yield item

    def counted(self, counter: str, iterable: Iterable) -> Iterator:
        """``iterable`` passed through, counting its items (no span)."""
        add = self.add
        for item in iterable:
            add(counter, 1)
            yield item

    # -- analysis ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        # Outermost: not directly nested in a span of the same name (a probe
        # observe calling a histogram observe counts once).
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        return {
            "name": name,
            "poll": np.frombuffer(self.poll, dtype=np.int32),
            "dur": dur,
            "self": dur - child_time,
            "outer": parent_name != name,
        }

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (_, counter), value in self.counts.items():
            out[counter] += value
        return out

    def layer_times(self, a: dict[str, np.ndarray], poll: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: busy seconds, outermost calls, self seconds."""
        keep = np.ones(len(a["dur"]), dtype=bool) if poll is None else a["poll"] == poll
        out = {}
        for nid, name in enumerate(self.names):
            mine = keep & (a["name"] == nid)
            outer = mine & a["outer"]
            out[name] = {
                "busy_s": float(a["dur"][outer].sum()),
                "calls": int(outer.sum()),
                "self_s": float(a["self"][mine].sum()),
            }
        return out

    def write(self, path: Path, polls: list[dict]) -> None:
        """Write every span (and the per-poll rows) out after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            poll=np.frombuffer(self.poll, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            polls=np.array(json.dumps(polls)),
        )


class _TracedProbe:
    """An ``OperatorProbe`` stand-in whose ``observe`` is a span (the probe
    class is slotted, so its method cannot be replaced per instance)."""

    def __init__(self, probe: Any, observe: Callable):
        self._probe = probe
        self.observe = observe

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._probe, attr)


def _len_arg(rec: SpanRecorder, counter: str) -> Callable[[Any, tuple], None]:
    return lambda result, args: rec.add(counter, len(args[0]))


def _len_result(rec: SpanRecorder, *counters: str) -> Callable[[Any, tuple], None]:
    def count(result: Any, args: tuple) -> None:
        for counter in counters:
            rec.add(counter, len(result))

    return count


def _links(rec: SpanRecorder, pair: bool) -> Callable[[Any, tuple], None]:
    def count(result: Any, args: tuple) -> None:
        rec.add("linkdiscovery.calls", 1)
        rec.add("linkdiscovery.links", len(result[0] if pair else result))

    return count


def _install_metrics(rec: SpanRecorder, registry: Any) -> None:
    """Wrap every histogram's ``observe``, present and future."""

    def traced_histogram(hist: Any) -> Any:
        if "observe" not in vars(hist):
            hist.observe = rec.wrap("obs.observe", hist.observe)
        return hist

    for name in registry.snapshot()["histograms"]:
        traced_histogram(registry.histogram(name))
    factory = registry.histogram
    registry.histogram = lambda *args, **kwargs: traced_histogram(factory(*args, **kwargs))


def _install_layer_common(rec: SpanRecorder, layer: Any) -> None:
    """Stages both real-time layers run in the calling process."""
    _install_metrics(rec, layer.metrics)
    for name, probe in list(layer._probes.items()):
        layer._probes[name] = _TracedProbe(probe, rec.wrap("obs.observe", probe.observe))
    layer.health.evaluate = rec.wrap("obs.health", layer.health.evaluate)
    dash = layer.dashboard
    for method in ("ingest_fix", "ingest_critical_point", "ingest_alert"):
        setattr(dash, method, rec.wrap("va.dashboard", getattr(dash, method)))
    if layer.proximity is not None:
        layer.proximity.process = rec.wrap(
            "linkdiscovery.proximity", layer.proximity.process, _links(rec, pair=False)
        )
    if layer.cep is not None:
        layer.cep.run = rec.wrap("cep.run", layer.cep.run, _len_arg(rec, "cep.events_in"))
    for topic in layer.broker.topics():
        topic.publish_many = rec.wrap(
            "streams.publish", topic.publish_many, _len_arg(rec, "streams.publish.records")
        )


def _install_realtime(rec: SpanRecorder, layer: Any) -> None:
    _install_layer_common(rec, layer)
    layer.run = rec.wrap("core.realtime", layer.run)
    layer.area_detector.process = rec.wrap(
        "insitu.area_events", layer.area_detector.process
    )
    syn = layer.synopses
    syn.process = rec.wrap(
        "synopses.process", syn.process, _len_result(rec, "synopses.points_out")
    )
    syn.flush = rec.wrap(
        "synopses.flush",
        syn.flush,
        _len_result(rec, "synopses.points_out", "synopses.flush_points"),
    )
    layer.region_links.links_for = rec.wrap(
        "linkdiscovery.region", layer.region_links.links_for, _links(rec, pair=True)
    )
    layer.port_links.links_for = rec.wrap(
        "linkdiscovery.port", layer.port_links.links_for, _links(rec, pair=True)
    )
    layer.weather.sample = rec.wrap("weather.sample", layer.weather.sample)


def _install_sharded(rec: SpanRecorder, layer: Any) -> None:
    _install_layer_common(rec, layer)
    for host in layer._hosts or ():
        host.send = rec.wrap("streams.workers.send", host.send)
        host.receive = rec.wrap("streams.workers.receive", host.receive)
        # Frame sizes at the pipe: Connection.send/recv pickle the frame and
        # hand the bytes to these two methods, so wrapping them costs a len().
        conn = host._conn
        send_bytes, recv_bytes = conn._send_bytes, conn._recv_bytes

        def traced_send(buf: Any, send_bytes: Callable = send_bytes) -> None:
            rec.add("streams.workers.bytes_out", len(buf))
            send_bytes(buf)

        def traced_recv(*args: Any, recv_bytes: Callable = recv_bytes) -> Any:
            buf = recv_bytes(*args)
            rec.add("streams.workers.bytes_in", buf.getbuffer().nbytes)
            return buf

        conn._send_bytes, conn._recv_bytes = traced_send, traced_recv
    traced_run = rec.wrap("core.sharded", layer.run)

    def run(fixes: Iterable) -> Any:
        # The parent waits for the slowest shard: per poll, the largest
        # growth of any shard's cumulative run wall.
        before = layer.shard_walls()
        report = traced_run(fixes)
        after = layer.shard_walls()
        rec.add("streams.workers.compute_s", max(b - a for a, b in zip(before, after)))
        return report

    layer.run = run


def _install_batch(rec: SpanRecorder, batch: Any) -> None:
    batch.ingest_from_broker = rec.wrap("core.batch", batch.ingest_from_broker)
    for value in vars(batch).values():
        if isinstance(value, Consumer):
            value.poll = rec.wrap("streams.poll", value.poll)
    batch.store.load = rec.wrap(
        "kgstore.load", batch.store.load, _len_arg(rec, "kgstore.load.triples")
    )
    batch.store.execute = rec.wrap(
        "kgstore.query",
        batch.store.execute,
        lambda result, args: rec.add("kgstore.query.rows", len(result[0])),
    )


def _patch_module_names(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap the module-level names ``repro.core`` calls; returns the undo."""
    clean_stream = core_realtime.clean_stream
    merge = core_sharded.merge_shard_outputs
    rdfizer = core_batch.synopses_rdfizer
    rdfize_id = rec.intern("rdf.rdfize")

    def traced_clean_stream(fixes: Iterable, *args: Any, **kwargs: Any) -> Iterator:
        inner = clean_stream(rec.counted("insitu.clean.fixes_in", fixes), *args, **kwargs)
        return rec.iterate("insitu.clean", inner, counter="insitu.clean.fixes_out")

    def traced_rdfizer(points: Any) -> Any:
        generator = rdfizer(points)
        triples = generator.triples

        def traced_triples() -> Iterator:
            # One span over the whole (list-consumed) triple stream.
            idx = rec.open(rdfize_id)
            before = generator.stats.triples
            try:
                yield from triples()
            finally:
                rec.close(idx)
                rec.add("rdf.triples_out", generator.stats.triples - before)

        generator.triples = traced_triples
        return generator

    core_realtime.clean_stream = traced_clean_stream
    core_sharded.merge_shard_outputs = rec.wrap("streams.merge", merge)
    core_batch.synopses_rdfizer = traced_rdfizer

    def undo() -> None:
        core_realtime.clean_stream = clean_stream
        core_sharded.merge_shard_outputs = merge
        core_batch.synopses_rdfizer = rdfizer

    return undo


def install(rec: SpanRecorder, deployment: Any, sharded: bool) -> Callable[[], None]:
    """Wrap a freshly built deployment; returns the undo for module names."""
    if sharded:
        _install_sharded(rec, deployment.realtime)
    else:
        _install_realtime(rec, deployment.realtime)
    _install_batch(rec, deployment.batch)
    return _patch_module_names(rec)
