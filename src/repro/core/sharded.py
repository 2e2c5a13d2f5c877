"""Sharded real-time layer: N entity-partitioned Figure-2 replicas.

The multi-core deployment of :class:`~repro.core.realtime.RealtimeLayer`:
the surveillance stream is partitioned by ``entity_id``
(``repro.streams.sharding.shard_index``) across
``SystemConfig.n_shards`` full replicas, each owning partition-local
state for every per-entity stage (cleaning, in-situ area events,
synopses, region/port link discovery, weather enrichment). Stages whose
state spans entities cannot be partitioned that way and run once, on the
*merged* stream:

* **proximity discovery** — pairs of entities may land on different
  shards; per-shard discovery would silently miss every cross-shard pair;
* **complex event recognition** — the Wayeb engine consumes one global
  symbol sequence;
* **the dashboard** — one situational picture over all entities.

The merge is canonical: per-shard topic streams are combined with the
``(t, key)`` stable merge (``merge_shard_outputs``), so the merged stream — and
therefore every global stage and the merged broker topics — is
*identical* for ``n_shards=1`` and ``n_shards=N``. The single-shard run
is the equivalence oracle, exactly as ``vectorized=False`` is for the
columnar fast path; the shard-equivalence tests drive both.

Replicas live in-process (the default) or each in a long-lived worker
process (``worker_pool=True``, hosted by
:class:`repro.streams.workers.WorkerHost`). Both are served by the same
:class:`_RealtimeShardSpec` and answer each run with the same response,
so one code path records, folds and merges them; the in-process layer is
the determinism oracle for the pooled one.

The replica boundary is slim in both directions. A run request carries
the shard's sub-stream as one columnar :class:`FixFrame`, not a list of
pickled fixes. The response carries only what the parent lacks: the
synopses, links and events records, one ingest wall stamp per routed
fix, and the positions cleaning dropped. The parent already holds every
routed fix, so it rebuilds the raw and clean topic records itself — one
shared :class:`~repro.streams.Record` per fix, since a fix's raw and
clean records are equal — instead of receiving a pickled copy of each.

Observability: each shard's counters surface as ``shard.<i>.*`` gauges
on the layer-wide registry, next to a ``shard.count`` and a
``shard.balance`` gauge (slowest-shard share of the aggregate work —
the routing-balance number the sharded throughput floor gates).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter, time as wall_clock
from typing import Any, Iterable, Sequence

import numpy as np

from ..cep import TURN_ALPHABET, WayebEngine, north_to_south_reversal, turn_event_stream
from ..geo import PositionFix
from ..linkdiscovery import MovingProximityDiscoverer
from ..obs import (
    EventLog,
    HealthMonitor,
    MetricsRegistry,
    ObsHarvest,
    OperatorProbe,
    Tracer,
    consumer_lags,
    default_realtime_rules,
    fold_harvests,
    harvest_obs,
    instrument_broker,
    operator_rates,
    watch_broker,
)
from ..streams import (
    Broker,
    Consumer,
    Record,
    WorkerHost,
    critical_path_speedup,
    merge_shard_outputs,
    shard_index,
)
from ..va import Dashboard

from .config import (
    SystemConfig,
    TOPIC_CLEAN,
    TOPIC_EVENTS,
    TOPIC_LINKS,
    TOPIC_RAW,
    TOPIC_SYNOPSES,
)
from .realtime import RealtimeLayer, RealtimeReport

_ALL_TOPICS = (TOPIC_RAW, TOPIC_CLEAN, TOPIC_SYNOPSES, TOPIC_LINKS, TOPIC_EVENTS)
#: The topics a replica ships back; the parent rebuilds raw and clean.
_SHIPPED_TOPICS = (TOPIC_SYNOPSES, TOPIC_LINKS, TOPIC_EVENTS)


def _float_column(values: list[float]) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _floats(column: bytes) -> list[float]:
    return np.frombuffer(column, dtype=np.float64).tolist()


def _dictionary_code(values: list[str]) -> tuple[tuple[str, ...], bytes]:
    """Distinct values in first-seen order plus one uint32 code per value."""
    table: dict[str, int] = {}
    codes = [table.setdefault(v, len(table)) for v in values]
    return tuple(table), np.asarray(codes, dtype=np.uint32).tobytes()


def _decode_dictionary(table: tuple[str, ...], codes: bytes) -> list[str]:
    return [table[c] for c in np.frombuffer(codes, dtype=np.uint32).tolist()]


@dataclass(frozen=True, slots=True)
class FixFrame:
    """A list of :class:`PositionFix` as one struct-of-arrays frame.

    What a shard run request carries across the replica boundary. Float
    fields are raw float64 bytes, so NaN, ±inf and −0.0 survive bit-exact.
    The optional kinematic fields (``speed``, ``heading``, ``vrate``) add
    the positions that were ``None``, which decode back to ``None``.
    ``entity_id`` and ``source`` are dictionary-coded: a table of
    distinct strings plus one uint32 code per fix. ``annotations`` holds
    each fix's annotation dict, in order.

    :meth:`decode` returns new, distinct fix objects equal to the encoded
    ones (the same object encoded twice decodes to two objects). An int
    given for a float field comes back as a float.
    """

    t: bytes
    lon: bytes
    lat: bytes
    alt: bytes
    speed: bytes
    speed_none: tuple[int, ...]
    heading: bytes
    heading_none: tuple[int, ...]
    vrate: bytes
    vrate_none: tuple[int, ...]
    entity_ids: tuple[str, ...]
    entity_codes: bytes
    sources: tuple[str, ...]
    source_codes: bytes
    annotations: tuple[dict, ...]

    @classmethod
    def encode(cls, fixes: Sequence[PositionFix]) -> "FixFrame":
        def optional(values: list[float | None]) -> tuple[bytes, tuple[int, ...]]:
            nones = tuple(i for i, v in enumerate(values) if v is None)
            for i in nones:
                values[i] = 0.0
            return _float_column(values), nones

        speed, speed_none = optional([f.speed for f in fixes])
        heading, heading_none = optional([f.heading for f in fixes])
        vrate, vrate_none = optional([f.vrate for f in fixes])
        entity_ids, entity_codes = _dictionary_code([f.entity_id for f in fixes])
        sources, source_codes = _dictionary_code([f.source for f in fixes])
        return cls(
            t=_float_column([f.t for f in fixes]),
            lon=_float_column([f.lon for f in fixes]),
            lat=_float_column([f.lat for f in fixes]),
            alt=_float_column([f.alt for f in fixes]),
            speed=speed,
            speed_none=speed_none,
            heading=heading,
            heading_none=heading_none,
            vrate=vrate,
            vrate_none=vrate_none,
            entity_ids=entity_ids,
            entity_codes=entity_codes,
            sources=sources,
            source_codes=source_codes,
            annotations=tuple(f.annotations for f in fixes),
        )

    def __len__(self) -> int:
        return len(self.t) // 8

    def decode(self) -> list[PositionFix]:
        def optional(column: bytes, nones: tuple[int, ...]) -> list[float | None]:
            values: list[float | None] = _floats(column)
            for i in nones:
                values[i] = None
            return values

        return [
            PositionFix(*fields)
            for fields in zip(
                _decode_dictionary(self.entity_ids, self.entity_codes),
                _floats(self.t),
                _floats(self.lon),
                _floats(self.lat),
                _floats(self.alt),
                optional(self.speed, self.speed_none),
                optional(self.heading, self.heading_none),
                optional(self.vrate, self.vrate_none),
                _decode_dictionary(self.sources, self.source_codes),
                self.annotations,
            )
        ]


def _drain_all(consumer: Consumer) -> list[Record]:
    """Everything a consumer group has not seen yet, in delivery order."""
    out: list[Record] = []
    while True:
        batch = consumer.poll()
        if not batch:
            break
        out.extend(batch)
    return out


@dataclass(slots=True)
class _RealtimeReplica:
    """One shard's live state: the replica layer, its merge consumers, and
    the delta-harvest bookkeeping. Lives in the parent process when the
    replicas are in-process, inside the worker when they are pooled."""

    layer: RealtimeLayer
    consumers: dict[str, Consumer]
    setup_s: float
    prev_harvest: ObsHarvest | None = None


@dataclass(frozen=True, slots=True)
class _RealtimeShardSpec:
    """Picklable recipe for one :class:`RealtimeLayer` shard replica.

    Serves both replica homes. In-process, the layer calls :meth:`setup`
    and :meth:`handle` directly; pooled, a
    :class:`repro.streams.workers.WorkerHost` ships the spec to its worker
    once, at spawn (only the :class:`SystemConfig` crosses the process
    boundary), and the worker calls the same two methods.

    A ``("run", frame)`` request carries the shard's sub-stream as a
    :class:`FixFrame`. The response carries the shard's cumulative
    report and run wall, the per-run delta
    :class:`~repro.obs.ObsHarvest`, and that run's new synopses, links
    and events records under ``"topics"`` (drained through replica-local
    merge consumers, whose group offsets make repeated runs see only new
    records). The raw and clean records stay behind: ``"ingest_wall_s"``
    holds each fix's raw ingest stamp as float64 bytes, in request
    order, and ``"dropped"`` the request positions cleaning dropped.
    Decoded fixes are distinct objects, so mapping each drained raw and
    clean record back to its request position by identity is exact.
    """

    config: SystemConfig

    def setup(self, shard: int) -> _RealtimeReplica:
        t0 = perf_counter()
        layer = RealtimeLayer(self.config, enable_proximity=False)
        consumers = {
            topic: layer.broker.consumer(topic, "merge") for topic in _ALL_TOPICS
        }
        return _RealtimeReplica(
            layer=layer, consumers=consumers, setup_s=perf_counter() - t0
        )

    def handle(self, shard: int, replica: _RealtimeReplica, request: Any) -> dict[str, Any]:
        kind, frame = request
        if kind != "run":
            raise ValueError(f"unknown realtime shard request {kind!r}")
        fixes = frame.decode()
        layer = replica.layer
        layer.run(fixes)
        wall_s = layer.metrics.gauge("realtime.wall_s").value()
        current = harvest_obs(
            shard,
            layer.metrics,
            layer.events,
            layer.tracer,
            wall_seconds=wall_s,
            setup_seconds=replica.setup_s,
        )
        delta = current.delta(replica.prev_harvest)
        replica.prev_harvest = current
        consumers = replica.consumers
        position = {id(fix): i for i, fix in enumerate(fixes)}
        stamps = [0.0] * len(fixes)
        for rec in _drain_all(consumers[TOPIC_RAW]):
            stamps[position[id(rec.value)]] = rec.ingest_wall_s
        kept = {position[id(rec.value)] for rec in _drain_all(consumers[TOPIC_CLEAN])}
        return {
            "report": layer.report,
            "topics": {t: _drain_all(consumers[t]) for t in _SHIPPED_TOPICS},
            "ingest_wall_s": _float_column(stamps),
            "dropped": tuple(i for i in range(len(fixes)) if i not in kept),
            "wall_s": wall_s,
            "harvest": delta,
        }


def _raw_and_clean(
    fixes: list[PositionFix], response: dict[str, Any]
) -> tuple[list[Record], list[Record]]:
    """One shard's raw and clean topic records, rebuilt from the fixes the
    parent routed to it. A fix's clean record equals its raw record (same
    time, key, value and ingest stamp), so both topics share the object."""
    raw = [
        Record(fix.t, fix, fix.entity_id, stamp)
        for fix, stamp in zip(fixes, _floats(response["ingest_wall_s"]))
    ]
    dropped = response["dropped"]
    if not dropped:
        return raw, raw
    dropped = set(dropped)
    return raw, [rec for i, rec in enumerate(raw) if i not in dropped]


class ShardedRealtimeLayer:
    """Entity-sharded real-time layer with a merged global stage.

    Drop-in for :class:`RealtimeLayer` where it matters downstream: after
    :meth:`run`, :attr:`broker` holds the five Figure-2 topics with the
    canonically merged streams (the batch layer consumes them unchanged),
    :attr:`report` holds layer-wide counters, cumulative across runs like
    the plain layer's, and :attr:`metrics` / :meth:`system_metrics` expose
    the shard-annotated observability view.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        cep_training_symbols: list[str] | None = None,
        worker_pool: bool | None = None,
    ):
        self.config = config or SystemConfig()
        cfg = self.config
        self.n_shards = max(1, cfg.n_shards)
        # Where the replicas live: worker_pool=False (the default, and
        # the determinism oracle) keeps them in-process; worker_pool=True
        # hosts each in a long-lived worker process that builds it once
        # and serves batched run requests (repro.streams.workers).
        self.use_worker_pool = cfg.worker_pool if worker_pool is None else worker_pool
        self.metrics = MetricsRegistry(seed=cfg.seed)
        self.events = EventLog(capacity=cfg.event_log_capacity)
        self.tracer = Tracer()
        # The merged broker: what the batch layer and the dashboard read.
        self.broker = Broker()
        for topic in _ALL_TOPICS:
            self.broker.create_topic(topic, partitions=2)
        instrument_broker(self.broker, self.metrics)
        watch_broker(self.broker, self.events)
        # Replicas own every per-entity stage; proximity is global (below).
        # In-process they sit in self.shards; pooled, each lives in the
        # worker behind self._hosts[i]. One spec serves both.
        self._spec = _RealtimeShardSpec(cfg)
        self.shards: list[_RealtimeReplica] = []
        self._hosts: list[WorkerHost] | None = None
        if self.use_worker_pool:
            self._hosts = [
                WorkerHost(
                    self._spec, i, request_timeout_s=cfg.worker_request_timeout_s
                )
                for i in range(self.n_shards)
            ]
            self._setup_s = [host.setup_s for host in self._hosts]
        else:
            self.shards = [self._spec.setup(i) for i in range(self.n_shards)]
            self._setup_s = [replica.setup_s for replica in self.shards]
        # Each shard's cumulative report and run wall, as of its last response.
        self._shard_reports = [RealtimeReport() for _ in range(self.n_shards)]
        self._shard_walls = [0.0] * self.n_shards
        # The global stages' counters, cumulative across runs.
        self._global = RealtimeReport()
        self.proximity = MovingProximityDiscoverer(
            cfg.bbox, cfg.proximity_space_m, cfg.proximity_time_s,
            cell_deg=cfg.grid_cell_deg, registry=self.metrics,
        )
        self.cep: WayebEngine | None = None
        if cep_training_symbols:
            self.cep = WayebEngine(
                north_to_south_reversal(), TURN_ALPHABET, order=1, threshold=0.5, horizon=60,
                registry=self.metrics,
            )
            self.cep.train(cep_training_symbols)
        self.metrics.gauge(
            "realtime.error_rate",
            fn=lambda: (
                self.report.quality.dropped / self.report.raw_fixes
                if self.report.raw_fixes
                else 0.0
            ),
        )
        self.health = default_realtime_rules(
            HealthMonitor(self.metrics, event_log=self.events)
        )
        self.dashboard = Dashboard(cfg.bbox, registry=self.metrics, health=self.health)
        # Global-stage probes report under op.* like every other hop.
        self._probes = {
            name: OperatorProbe(self.metrics, name)
            for name in ("proximity", "cep")
        }
        for i in range(self.n_shards):
            self._register_shard_gauges(i)
        self.metrics.gauge("shard.count", fn=lambda: float(self.n_shards))
        self.metrics.gauge("shard.balance", fn=self.balance)
        self.report = RealtimeReport()

    def _register_shard_gauges(self, i: int) -> None:
        base = f"shard.{i}"
        self.metrics.gauge(f"{base}.raw_fixes", fn=lambda i=i: float(self.shard_reports()[i].raw_fixes))
        self.metrics.gauge(f"{base}.clean_fixes", fn=lambda i=i: float(self.shard_reports()[i].clean_fixes))
        self.metrics.gauge(f"{base}.critical_points", fn=lambda i=i: float(self.shard_reports()[i].critical_points))
        self.metrics.gauge(f"{base}.links", fn=lambda i=i: float(self.shard_reports()[i].links))
        self.metrics.gauge(f"{base}.wall_s", fn=lambda i=i: self.shard_walls()[i])

    def shard_reports(self) -> list[RealtimeReport]:
        """Per-shard cumulative reports, wherever the replicas live."""
        return list(self._shard_reports)

    def shard_walls(self) -> list[float]:
        """Per-shard cumulative run walls (replica setup excluded)."""
        return list(self._shard_walls)

    def shard_setups(self) -> list[float]:
        """Per-shard replica build seconds — the one-off cost the worker
        pool amortizes, reported apart from run walls on both paths."""
        return list(self._setup_s)

    def balance(self) -> float:
        """Aggregate-over-slowest shard work ratio (ideal: ``n_shards``).

        Work is measured in clean fixes routed to each shard — the
        routing-balance counterpart of the bench's critical-path speedup.
        """
        counts = [r.clean_fixes for r in self.shard_reports()]
        slowest = max(counts, default=0)
        if slowest <= 0:
            return 0.0
        return sum(counts) / slowest

    def shard_for(self, entity_id: str) -> int:
        """Which shard an entity's whole trajectory lives on."""
        return shard_index(entity_id, self.n_shards)

    def run(self, fixes: Iterable[PositionFix]) -> RealtimeReport:
        """Route, run every replica, then merge and run the global stages.

        A replica failure propagates: a dead or hung pooled worker raises
        :class:`~repro.streams.workers.ShardWorkerDied` naming its shard,
        and the layer is then unusable — :meth:`close` reaps the rest.
        """
        self.events.emit("info", "realtime", "sharded_run_started", shards=self.n_shards)
        routed: list[list[PositionFix]] = [[] for _ in range(self.n_shards)]
        for fix in fixes:
            routed[self.shard_for(fix.entity_id)].append(fix)
        requests = [("run", FixFrame.encode(sub_stream)) for sub_stream in routed]
        if self._hosts is not None:
            # Scatter every frame before gathering any: the workers compute
            # concurrently and the parent waits for the slowest.
            for host, request in zip(self._hosts, requests):
                host.send(request)
            responses = [host.receive() for host in self._hosts]
        else:
            responses = [
                self._spec.handle(i, replica, request)
                for i, (replica, request) in enumerate(zip(self.shards, requests))
            ]
        for i, resp in enumerate(responses):
            self._shard_reports[i] = resp["report"]
            self._shard_walls[i] = resp["wall_s"]
        # Counters land under shard.<i>.* and as merged families (exactly
        # the n_shards=1 oracle's); shard events merge by wall time,
        # shard-tagged; shard traces hang under one sharded.run root.
        fold_harvests(
            self.metrics,
            [resp["harvest"] for resp in responses],
            events=self.events,
            tracer=self.tracer,
        )
        rebuilt = [_raw_and_clean(*pair) for pair in zip(routed, responses)]
        per_shard = {
            TOPIC_RAW: [raw for raw, _ in rebuilt],
            TOPIC_CLEAN: [clean for _, clean in rebuilt],
            **{t: [resp["topics"][t] for resp in responses] for t in _SHIPPED_TOPICS},
        }
        merged = {topic: merge_shard_outputs(per_shard[topic]) for topic in _ALL_TOPICS}
        glob = self._global
        # The merged-stream consumer is where the paper's headline number
        # lives on the sharded path: ingest wall stamp (record provenance,
        # written by the shard replica) to merged consumption.
        e2e_latency = self.metrics.histogram("e2e.record_latency_s")
        # Dashboard over the merged picture.
        for rec in merged[TOPIC_CLEAN]:
            self.dashboard.ingest_fix(rec.value)
        for rec in merged[TOPIC_SYNOPSES]:
            self.dashboard.ingest_critical_point(rec.value)
            if rec.ingest_wall_s is not None:
                e2e_latency.observe(wall_clock() - rec.ingest_wall_s)
        # Global stage 1: cross-entity proximity over the merged synopses.
        prox_probe = self._probes["proximity"]
        for rec in merged[TOPIC_SYNOPSES]:
            t0 = perf_counter()
            links = self.proximity.process(rec.value.fix)
            prox_probe.observe(len(links), perf_counter() - t0)
            glob.proximity_links += len(links)
            for link in links:
                merged[TOPIC_LINKS].append(
                    Record(link.t, link, key=link.source_id, ingest_wall_s=rec.ingest_wall_s)
                )
        # Global stage 2: complex event recognition over the merged synopses.
        if self.cep is not None:
            cep_events = list(
                turn_event_stream(rec.value for rec in merged[TOPIC_SYNOPSES])
            )
            if cep_events:
                t0 = perf_counter()
                run = self.cep.run(cep_events)
                self._probes["cep"].observe(
                    len(run.detections) + len(run.forecasts),
                    perf_counter() - t0,
                    n_in=len(cep_events),
                )
                glob.cep_detections += len(run.detections)
                glob.cep_forecasts += len(run.forecasts)
                for det in run.detections:
                    merged[TOPIC_EVENTS].append(Record(det.t, det))
                    self.dashboard.ingest_alert(det.t, "NorthToSouthReversal")
                    self.events.emit(
                        "warn", "cep", "detection", "NorthToSouthReversal",
                        t=det.t, position=det.position,
                    )
        for topic, records in merged.items():
            if records:
                self.broker.publish_many(topic, records)
        report = self.report = self._merged_report()
        self.health.evaluate()
        self.events.emit(
            "info", "realtime", "sharded_run_finished",
            shards=self.n_shards, raw=report.raw_fixes, clean=report.clean_fixes,
            critical_points=report.critical_points,
        )
        return report

    def close(self) -> None:
        """Shut pooled shard workers down cleanly (no-op in-process)."""
        for host in self._hosts or ():
            host.close()

    def __enter__(self) -> "ShardedRealtimeLayer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def critical_path_speedup(self) -> float:
        """Aggregate shard compute over the slowest shard (cumulative run
        walls; replica setup is tracked apart, see :meth:`shard_setups`)."""
        return critical_path_speedup(self.shard_walls())

    def _merged_report(self) -> RealtimeReport:
        """Layer-wide counters: per-entity stages summed across shards, plus
        the global stages' cumulative counts."""
        glob = self._global
        report = RealtimeReport(
            links=glob.proximity_links,
            proximity_links=glob.proximity_links,
            cep_detections=glob.cep_detections,
            cep_forecasts=glob.cep_forecasts,
        )
        quality = report.quality
        for r in self.shard_reports():
            report.raw_fixes += r.raw_fixes
            report.clean_fixes += r.clean_fixes
            report.critical_points += r.critical_points
            report.area_events += r.area_events
            report.links += r.links
            quality.seen += r.quality.seen
            quality.passed += r.quality.passed
            for issue, count in r.quality.flagged.items():
                quality.flagged[issue] = quality.flagged.get(issue, 0) + count
        return report

    def system_metrics(self) -> dict[str, Any]:
        """The observability view: layer registry plus per-shard reports."""
        self.health.evaluate()
        snap = self.metrics.snapshot()
        snap["operators"] = operator_rates(self.metrics)
        snap["consumer_lag"] = consumer_lags(self.metrics)
        snap["health"] = self.health.snapshot()
        snap["events"] = self.events.snapshot()
        snap["shards"] = [
            {
                "raw_fixes": r.raw_fixes,
                "clean_fixes": r.clean_fixes,
                "critical_points": r.critical_points,
                "links": r.links,
            }
            for r in self.shard_reports()
        ]
        return snap
