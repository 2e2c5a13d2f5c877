"""Tests for the long-lived shard worker host (repro.streams.workers).

``WorkerHost`` runs one replica per process behind a strict lockstep
request/reply protocol. These tests pin that protocol, its liveness
guarantees (dead and hung workers surface as ``ShardWorkerDied`` naming
the shard) and the pickle boundary every frame crosses.

The determinism oracle: keyed pipeline replicas hosted in worker
processes must produce the same merged streams, watermarks and folded
obs counters as the same replicas run in-process, across repeated
incremental runs. The pooled sharded real-time layer built on the host
is checked against its in-process oracle in ``tests/test_core_sharded.py``.
"""

import math
import pickle
import struct
import time
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    TOPIC_EVENTS,
    TOPIC_LINKS,
    TOPIC_RAW,
    TOPIC_SYNOPSES,
    ShardedRealtimeLayer,
    SystemConfig,
)
from repro.core.realtime import RealtimeReport
from repro.core.sharded import FixFrame, _RealtimeShardSpec
from repro.geo import PositionFix
from repro.obs import MetricsRegistry, fold_harvests, harvest_obs, instrument_pipeline
from repro.obs.harvest import HistogramSnapshot, MetricsSnapshot, ObsHarvest
from repro.streams import (
    Map,
    Pipeline,
    Record,
    ShardWorkerDied,
    ShardWorkerError,
    TumblingWindow,
    WatermarkAssigner,
    WorkerHost,
    mean_aggregate,
    merge_shard_outputs,
    shard_index,
)

N_SHARDS = 3


def keyed_records(n, n_keys=7, dt=1.0):
    return [Record(i * dt, float(i), key=f"vessel-{i % n_keys}") for i in range(n)]


def window_pipeline() -> Pipeline:
    return Pipeline(
        [Map(lambda v: v * 2 + 1), TumblingWindow(10.0, mean_aggregate)],
        name="pool_test",
    )


def slow_setup_pipeline() -> Pipeline:
    time.sleep(0.05)  # deliberate replica build cost, must never hit run walls
    return Pipeline([Map(lambda v: v + 1)], name="slow_setup")


def assigner() -> WatermarkAssigner:
    return WatermarkAssigner(out_of_orderness_s=5.0)


def canonical(records):
    return [(r.t, r.key, r.value) for r in records]


def chunked(records, n_chunks):
    size = (len(records) + n_chunks - 1) // n_chunks
    return [records[i: i + size] for i in range(0, len(records), size)]


@dataclass(frozen=True)
class EchoSpec:
    """Minimal WorkerSpec for exercising the host protocol directly."""

    def setup(self, shard):
        return {"shard": shard}

    def handle(self, shard, state, request):
        if request == "boom":
            raise ValueError("requested failure")
        return (shard, request)


@dataclass(frozen=True)
class SleeperSpec:
    """WorkerSpec whose handle can be told to hang (hung-worker injection)."""

    def setup(self, shard):
        return None

    def handle(self, shard, state, request):
        if request == "hang":
            time.sleep(30.0)
        return request


@dataclass
class PipelineReplica:
    pipeline: Pipeline
    watermarks: WatermarkAssigner
    registry: MetricsRegistry
    setup_s: float
    prev_harvest: ObsHarvest | None = None


@dataclass(frozen=True)
class PipelineSpec:
    """WorkerSpec hosting one long-lived, instrumented pipeline replica.

    ``("run", records)`` continues the replica's stream incrementally and
    ``("finish",)`` closes it. Each reply carries that request's outputs,
    the replica's watermark, record count and run wall, and the delta
    harvest since the previous reply.
    """

    factory: Callable[[], Pipeline]

    def setup(self, shard):
        t0 = time.perf_counter()
        registry = MetricsRegistry()
        pipeline = instrument_pipeline(self.factory(), registry)
        return PipelineReplica(pipeline, assigner(), registry, time.perf_counter() - t0)

    def handle(self, shard, replica, request):
        pipeline = replica.pipeline
        if request[0] == "run":
            out = pipeline.run(request[1], watermarks=replica.watermarks, flush=False)
        elif request[0] == "finish":
            out = pipeline.run([], watermarks=replica.watermarks, flush=True)
        else:
            raise ValueError(f"unknown request {request[0]!r}")
        current = harvest_obs(
            shard, replica.registry,
            wall_seconds=pipeline.wall_seconds, setup_seconds=replica.setup_s,
        )
        delta = current.delta(replica.prev_harvest)
        replica.prev_harvest = current
        return {
            "out": out,
            "watermark": replica.watermarks.current_watermark(),
            "records": pipeline.records_processed,
            "wall_s": pipeline.wall_seconds,
            "harvest": delta,
        }


class ShardedReplicas:
    """Key-routed PipelineSpec replicas, in-process or one per WorkerHost.

    Both homes go through the same spec, and every reply batch is merged
    and its harvests folded into :attr:`registry`.
    """

    def __init__(self, factory, n_shards, pooled):
        self.spec = PipelineSpec(factory)
        self.n_shards = n_shards
        self.hosts = [WorkerHost(self.spec, i) for i in range(n_shards)] if pooled else None
        self.replicas = None if pooled else [self.spec.setup(i) for i in range(n_shards)]
        self.registry = MetricsRegistry()
        self.replies = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for host in self.hosts or ():
            host.close()

    def _request(self, requests):
        if self.hosts is not None:
            for host, request in zip(self.hosts, requests):
                host.send(request)
            self.replies = [host.receive() for host in self.hosts]
        else:
            self.replies = [
                self.spec.handle(i, replica, request)
                for i, (replica, request) in enumerate(zip(self.replicas, requests))
            ]
        fold_harvests(self.registry, [reply["harvest"] for reply in self.replies])
        return merge_shard_outputs([reply["out"] for reply in self.replies])

    def run(self, records):
        routed = [[] for _ in range(self.n_shards)]
        for record in records:
            routed[shard_index(record.key, self.n_shards)].append(record)
        return self._request([("run", sub_stream) for sub_stream in routed])

    def finish(self):
        return self._request([("finish",)] * self.n_shards)

    def run_to_end(self, records):
        return self.run(records) + self.finish()

    def min_watermark(self):
        return min(reply["watermark"] for reply in self.replies)

    def records_processed(self):
        return [reply["records"] for reply in self.replies]

    def wall_seconds(self):
        return [reply["wall_s"] for reply in self.replies]

    def setup_seconds(self):
        if self.hosts is not None:
            return [host.setup_s for host in self.hosts]
        return [replica.setup_s for replica in self.replicas]


class TestShardWorkerPool:
    def test_three_incremental_runs_match_sequential_oracle(self):
        """The acceptance contract: >= 3 consecutive incremental runs,
        each byte-identical to the in-process oracle, plus the tail."""
        chunks = chunked(keyed_records(600), 3)
        oracle = ShardedReplicas(window_pipeline, N_SHARDS, pooled=False)
        with ShardedReplicas(window_pipeline, N_SHARDS, pooled=True) as pool:
            for chunk in chunks:
                assert canonical(pool.run(chunk)) == canonical(oracle.run(chunk))
                assert pool.min_watermark() == oracle.min_watermark()
                assert pool.records_processed() == oracle.records_processed()
            assert canonical(pool.finish()) == canonical(oracle.finish())

    def test_single_shard_pool_matches_unsharded_oracle(self):
        records = keyed_records(200)
        plain = window_pipeline().run(records, watermarks=assigner(), flush=True)
        with ShardedReplicas(window_pipeline, 1, pooled=True) as pool:
            assert canonical(pool.run_to_end(records)) == canonical(merge_shard_outputs([plain]))

    def test_restart_shard_respawns_fresh_replica(self):
        with ShardedReplicas(window_pipeline, 2, pooled=True) as pool:
            pool.run(keyed_records(40))
            pool.hosts[0]._proc.terminate()
            pool.hosts[0]._proc.join(timeout=5.0)
            pool.hosts[0].restart()
            assert pool.hosts[0].alive()
            # Restarted replicas serve again; a full fresh stream after
            # reset matches the oracle (mid-stream state is rebuilt, so
            # only a new stream re-enters the determinism contract).
            for host in pool.hosts:
                host.reset()
            oracle = ShardedReplicas(window_pipeline, 2, pooled=False)
            assert canonical(pool.run_to_end(keyed_records(80))) == canonical(
                oracle.run_to_end(keyed_records(80))
            )

    def test_obs_deltas_fold_to_oracle_counters(self):
        """Per-run delta harvests, folded run by run, must accumulate to
        exactly the counters the in-process oracle folds."""
        chunks = chunked(keyed_records(600), 3)
        oracle = ShardedReplicas(window_pipeline, N_SHARDS, pooled=False)
        with ShardedReplicas(window_pipeline, N_SHARDS, pooled=True) as pool:
            for chunk in chunks:
                pool.run(chunk)
                oracle.run(chunk)
            pool.finish()
            oracle.finish()
        assert pool.registry.counters() == oracle.registry.counters()
        assert pool.registry.counters()["op.pool_test.map.records_in"] == 600
        # Histogram *counts* are deterministic (one observation per hop);
        # the observed values are wall timings, so only the counts can be
        # compared across two executions. Exact count/sum/min/max delta
        # semantics are covered by the hypothesis suite in
        # test_obs_harvest.py over controlled observations.
        oracle_hists = oracle.registry._histograms
        assert set(pool.registry._histograms) == set(oracle_hists)
        for name, h in pool.registry._histograms.items():
            assert h.count == oracle_hists[name].count, name


class TestSetupExcludedFromWalls:
    """Replica build cost must be reported as setup seconds, never folded
    into the run walls a critical-path speedup is computed from — on the
    worker-hosted and in-process paths alike."""

    def test_pool_reports_setup_apart_from_run_walls(self):
        with ShardedReplicas(slow_setup_pipeline, 2, pooled=True) as pool:
            pool.run_to_end(keyed_records(40))
            assert all(s >= 0.05 for s in pool.setup_seconds())
            assert all(w < 0.05 for w in pool.wall_seconds())
            assert pool.registry.gauge("shard.0.setup_s").value() >= 0.05

    def test_sequential_pipeline_reports_setup_apart_from_run_walls(self):
        sharded = ShardedReplicas(slow_setup_pipeline, 2, pooled=False)
        sharded.run_to_end(keyed_records(40))
        assert all(s >= 0.05 for s in sharded.setup_seconds())
        assert all(w < 0.05 for w in sharded.wall_seconds())


class TestWorkerHost:
    def test_lockstep_request_response(self):
        host = WorkerHost(EchoSpec(), shard=2)
        try:
            assert host.request("hello") == (2, "hello")
            assert host.request([1, 2, 3]) == (2, [1, 2, 3])
        finally:
            host.close()

    def test_replica_error_keeps_worker_alive(self):
        host = WorkerHost(EchoSpec(), shard=1)
        try:
            with pytest.raises(ShardWorkerError) as err:
                host.request("boom")
            assert err.value.shard == 1
            assert "requested failure" in str(err.value)
            # The process survived the in-replica exception.
            assert host.alive()
            assert host.request("after") == (1, "after")
        finally:
            host.close()

    def test_dead_worker_raises_typed_error_with_shard(self):
        host = WorkerHost(EchoSpec(), shard=4)
        host._proc.terminate()
        host._proc.join(timeout=5.0)
        with pytest.raises(ShardWorkerDied) as err:
            host.request("anything")
        assert err.value.shard == 4
        host.close()

    def test_restart_gives_fresh_replica(self):
        host = WorkerHost(EchoSpec(), shard=0)
        try:
            host._proc.terminate()
            host._proc.join(timeout=5.0)
            host.restart()
            assert host.alive()
            assert host.request("again") == (0, "again")
        finally:
            host.close()

    def test_close_is_idempotent(self):
        host = WorkerHost(EchoSpec(), shard=0)
        host.close()
        host.close()
        assert not host.alive()


class TestRequestTimeout:
    """Satellite regression: the unbounded `_recv` liveness hole.

    `Connection.recv` only raises for *dead* peers, so before the
    `request_timeout_s` deadline existed, a hung-but-alive worker wedged
    the parent forever — the exact defect the resource-lifecycle
    checker's recv-without-poll rule detects statically.
    """

    def test_hung_worker_surfaces_as_shard_worker_died(self):
        host = WorkerHost(SleeperSpec(), shard=3, request_timeout_s=0.3)
        try:
            assert host.request("ping") == "ping"
            host.send("hang")
            with pytest.raises(ShardWorkerDied) as err:
                host.receive()
            assert err.value.shard == 3
            assert "hung" in str(err.value)
            # The lockstep is desynchronised after a timeout (a late reply
            # could pair with the wrong request), so the host reaps the
            # worker rather than leaving it half-alive.
            assert not host.alive()
        finally:
            host.close()

    def test_slow_but_live_worker_is_not_killed(self):
        host = WorkerHost(EchoSpec(), shard=0, request_timeout_s=30.0)
        try:
            assert host.request("fine") == (0, "fine")
            assert host.alive()
        finally:
            host.close()

    def test_none_restores_unbounded_behavior(self):
        host = WorkerHost(EchoSpec(), shard=0, request_timeout_s=None)
        try:
            assert host.request_timeout_s is None
            assert host.request("fine") == (0, "fine")
        finally:
            host.close()

    def test_pool_default_is_generous_but_finite(self):
        timeout = SystemConfig().worker_request_timeout_s
        assert timeout is not None and 60.0 <= timeout < float("inf")
        with ShardedRealtimeLayer(SystemConfig(n_shards=1, worker_pool=True)) as layer:
            assert all(host.request_timeout_s == timeout for host in layer._hosts)

    def test_host_recovers_from_hung_worker_via_restart(self):
        host = WorkerHost(SleeperSpec(), shard=0, request_timeout_s=0.4)
        try:
            with pytest.raises(ShardWorkerDied) as err:
                host.request("hang")
            assert err.value.shard == 0
            assert not host.alive()
            host.restart()
            assert host.alive()
            assert host.request("ping") == "ping"
        finally:
            host.close()


def _bit_equal_roundtrip(obj) -> bool:
    """Pickle round-trip that must reproduce both the object and its bytes."""
    blob = pickle.dumps(obj)
    clone = pickle.loads(blob)
    return clone == obj and pickle.dumps(clone) == blob


_metric_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz._", min_size=1, max_size=24
)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def _histogram_snapshots(draw):
    reservoir = tuple(draw(st.lists(_finite, max_size=8)))
    return HistogramSnapshot(
        count=draw(st.integers(min_value=0, max_value=10**6)),
        sum=draw(_finite),
        min=draw(_finite),
        max=draw(_finite),
        reservoir=reservoir,
    )


@st.composite
def _harvests(draw, shard=0):
    metrics = MetricsSnapshot(
        counters=draw(
            st.dictionaries(_metric_names, st.integers(0, 10**9), max_size=6)
        ),
        gauges=draw(st.dictionaries(_metric_names, _finite, max_size=6)),
        histograms=draw(
            st.dictionaries(_metric_names, _histogram_snapshots(), max_size=4)
        ),
    )
    events = tuple(
        {"seq": i, "wall_s": float(i)}
        for i in range(draw(st.integers(0, 4)))
    )
    return ObsHarvest(
        shard=shard,
        metrics=metrics,
        events=events,
        wall_seconds=draw(st.floats(0.0, 1e6, allow_nan=False)),
        setup_seconds=draw(st.floats(0.0, 1e3, allow_nan=False)),
    )


class TestPickleBoundaryRoundTrip:
    """Runtime witness for the pickle-safety checker: everything the
    checker declares (or observes) crossing the worker IPC boundary must
    survive `pickle.dumps`/`loads` round-trips bit-equal."""

    @given(n_shards=st.integers(1, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_realtime_shard_spec_round_trips(self, n_shards, seed):
        spec = _RealtimeShardSpec(SystemConfig(n_shards=n_shards, seed=seed))
        assert _bit_equal_roundtrip(spec)

    @given(ts=st.lists(st.floats(0.0, 1e9, allow_nan=False), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_request_and_reply_frames_round_trip(self, ts):
        fixes = [
            PositionFix(f"vessel-{i % 3}", t, 0.5 * i, 40.0, speed=5.0)
            for i, t in enumerate(ts)
        ]
        synopses = [Record(f.t, f, key=f.entity_id) for f in fixes[::2]]
        reply_payload = {
            "report": RealtimeReport(raw_fixes=len(fixes), clean_fixes=len(fixes)),
            "topics": {TOPIC_SYNOPSES: synopses, TOPIC_LINKS: [], TOPIC_EVENTS: []},
            "ingest_wall_s": struct.pack(f"{len(fixes)}d", *ts),
            "dropped": tuple(range(0, len(fixes), 3)),
            "wall_s": 0.25,
            "harvest": None,
        }
        frames = [
            ("req", ("run", FixFrame.encode(fixes))),
            ("reset",),
            ("close",),
            ("ready", 0.015),
            ("ok", reply_payload),
            ("err", "ValueError('requested failure')"),
            ("fatal", "RuntimeError('setup exploded')"),
            ("closed",),
        ]
        for frame in frames:
            assert _bit_equal_roundtrip(frame), frame[0]

    @given(cur=_harvests(), prev=_harvests())
    @settings(max_examples=50, deadline=None)
    def test_obs_harvest_and_delta_round_trip(self, cur, prev):
        assert _bit_equal_roundtrip(cur)
        delta = cur.delta(prev)
        assert _bit_equal_roundtrip(delta)


_FLOAT_FIELDS = ("t", "lon", "lat", "alt", "speed", "heading", "vrate")


def _fix_bits(fix):
    """A fix's fields with every float as its IEEE-754 bytes, so NaN
    payloads, infinities and the sign of zero compare exactly."""
    return (
        fix.entity_id,
        fix.source,
        fix.annotations,
        *(
            None if getattr(fix, name) is None else struct.pack("<d", getattr(fix, name))
            for name in _FLOAT_FIELDS
        ),
    )


_any_float = st.floats(allow_nan=True, allow_infinity=True)
_special = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0])
_kinematic = st.none() | _special | _any_float


@st.composite
def _fixes(draw):
    entity_ids = st.sampled_from(["", "vessel-1", "ναυς-2", "船-3", "🚢"]) | st.text(max_size=6)
    return PositionFix(
        draw(entity_ids),
        draw(_special | _any_float),
        draw(_special | _any_float),
        draw(_special | _any_float),
        alt=draw(_special | _any_float),
        speed=draw(_kinematic),
        heading=draw(_kinematic),
        vrate=draw(_kinematic),
        source=draw(st.sampled_from(["", "ais", "radar"]) | st.text(max_size=4)),
        annotations=draw(
            st.just({})
            | st.dictionaries(st.text(max_size=4), st.booleans() | st.integers(), max_size=2)
        ),
    )


@st.composite
def _streams(draw):
    """Fix lists in which one object may appear at several positions."""
    pool = draw(st.lists(_fixes(), max_size=8))
    if not pool:
        return []
    return draw(st.lists(st.sampled_from(pool), max_size=12))


class TestFixFrameCodec:
    """The columnar request frame: decoding (also after a pickle round
    trip) gives back every field bit-exact, as new and distinct objects."""

    @staticmethod
    def assert_round_trip(fixes):
        frame = FixFrame.encode(fixes)
        assert len(frame) == len(fixes)
        for clone in (frame, pickle.loads(pickle.dumps(frame))):
            decoded = clone.decode()
            assert [_fix_bits(f) for f in decoded] == [_fix_bits(f) for f in fixes]
            assert all(type(f.t) is float for f in decoded)
            assert len({id(f) for f in decoded}) == len(decoded)
            assert not {id(f) for f in decoded} & {id(f) for f in fixes}

    @given(fixes=_streams())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact(self, fixes):
        self.assert_round_trip(fixes)

    def test_none_nan_inf_and_negative_zero_kinematics_stay_distinct(self):
        values = [None, math.nan, math.inf, -math.inf, -0.0, 0.0, 3.5]
        fixes = [
            PositionFix("v", float(i), 1.0, 2.0, speed=v, heading=w, vrate=x)
            for i, (v, w, x) in enumerate(zip(values, values[1:] + values[:1], values[2:] + values[:2]))
        ]
        self.assert_round_trip(fixes)
        decoded = FixFrame.encode(fixes).decode()
        assert decoded[0].speed is None and decoded[6].heading is None
        assert math.isnan(decoded[1].speed) and decoded[2].speed == math.inf
        assert math.copysign(1.0, decoded[4].speed) == -1.0
        assert math.copysign(1.0, decoded[5].speed) == 1.0

    def test_empty_ids_sources_and_annotations(self):
        fixes = [
            PositionFix("", 1.0, 2.0, 3.0),
            PositionFix("Ωμέγα-船", 2.0, 2.0, 3.0, source=""),
            PositionFix("", 3.0, 2.0, 3.0, source="ais", annotations={"outlier": True}),
        ]
        self.assert_round_trip(fixes)
        frame = FixFrame.encode(fixes)
        assert frame.entity_ids == ("", "Ωμέγα-船")
        assert frame.sources == ("", "ais")
        assert frame.annotations == ({}, {}, {"outlier": True})

    def test_same_object_twice_decodes_to_two_objects(self):
        fix = PositionFix("v", 1.0, 2.0, 3.0, speed=None, annotations={"k": 1})
        decoded = FixFrame.encode([fix, fix]).decode()
        assert decoded[0] is not decoded[1]
        assert decoded[0] == decoded[1] == fix
        assert decoded[0].annotations == decoded[1].annotations == {"k": 1}

    def test_empty_sub_stream(self):
        frame = FixFrame.encode([])
        assert len(frame) == 0 and frame.decode() == []
        assert _bit_equal_roundtrip(frame)

    def test_replica_answers_an_empty_sub_stream(self):
        """A shard that got no fixes in a poll still runs and answers."""
        spec = _RealtimeShardSpec(SystemConfig(n_shards=2))
        replica = spec.setup(0)
        reply = spec.handle(0, replica, ("run", FixFrame.encode([])))
        assert reply["ingest_wall_s"] == b"" and reply["dropped"] == ()
        assert set(reply["topics"]) == {TOPIC_SYNOPSES, TOPIC_LINKS, TOPIC_EVENTS}
        assert reply["report"].raw_fixes == 0

    def test_replica_maps_records_to_request_positions(self):
        """Stamps and drops line up with request positions, also when the
        caller routed one object twice (its repeat is a duplicate time)."""
        spec = _RealtimeShardSpec(SystemConfig(n_shards=2))
        replica = spec.setup(0)
        a = PositionFix("v", 0.0, 24.0, 37.0, speed=5.0)
        b = PositionFix("v", 60.0, 24.001, 37.0, speed=5.0)
        bad = PositionFix("v", 90.0, math.nan, 37.0)
        reply = spec.handle(0, replica, ("run", FixFrame.encode([a, a, bad, b])))
        stamps = struct.unpack("4d", reply["ingest_wall_s"])
        assert all(s > 0.0 for s in stamps)
        # Each position's stamp is the one on its fix's raw record.
        raw = replica.layer.broker.consumer(TOPIC_RAW, "check").poll()
        assert sorted((rec.value.t, rec.ingest_wall_s) for rec in raw) == sorted(
            zip((0.0, 0.0, 90.0, 60.0), stamps)
        )
        assert reply["dropped"] == (1, 2)
        assert replica.layer.report.quality.flagged == {
            "duplicate_timestamp": 1,
            "non_finite_field": 1,
        }
