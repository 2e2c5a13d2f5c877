"""Tests for the sharded real-time layer (repro.core.sharded).

The oracle contract: ``ShardedRealtimeLayer`` with ``SystemConfig(n_shards=1)``
is the single-shard baseline, and every ``n_shards >= 2`` run must produce
byte-identical merged topic streams — the canonical ``(t, key)`` merge makes
that hold by construction, and these tests make it load-bearing.
"""

import math
import random
import struct
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import (
    RealtimeLayer,
    ShardedRealtimeLayer,
    SystemConfig,
    TOPIC_CLEAN,
    TOPIC_EVENTS,
    TOPIC_LINKS,
    TOPIC_RAW,
    TOPIC_SYNOPSES,
)
from repro.datasources import AISSimulator
from repro.geo import PositionFix
from repro.insitu import ALL_ISSUES

ALL_TOPICS = (TOPIC_RAW, TOPIC_CLEAN, TOPIC_SYNOPSES, TOPIC_LINKS, TOPIC_EVENTS)


@pytest.fixture(scope="module")
def fixes():
    return list(AISSimulator(n_vessels=10, seed=5).fixes(900.0))


def topic_streams(layer):
    out = {}
    for name in ALL_TOPICS:
        consumer = layer.broker.consumer(name, "test-dump")
        records = []
        while True:
            batch = consumer.poll()
            if not batch:
                break
            records.extend(batch)
        out[name] = [(r.t, r.key, type(r.value).__name__) for r in records]
    return out


class TestShardEquivalence:
    def test_n_shards_2_matches_single_shard_oracle(self, fixes):
        oracle = ShardedRealtimeLayer(SystemConfig(n_shards=1))
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        r1 = oracle.run(list(fixes))
        r2 = sharded.run(list(fixes))
        assert r2 == r1
        assert topic_streams(sharded) == topic_streams(oracle)

    def test_n_shards_4_matches_single_shard_oracle(self, fixes):
        oracle = ShardedRealtimeLayer(SystemConfig(n_shards=1))
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=4))
        assert sharded.run(list(fixes)) == oracle.run(list(fixes))
        assert topic_streams(sharded) == topic_streams(oracle)

    def test_per_entity_counters_match_plain_layer(self, fixes):
        """Every per-entity stage (cleaning, synopses, area events, region/
        port links) is key-local, so the sharded totals must equal the plain
        unsharded layer's."""
        plain = RealtimeLayer(SystemConfig())
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        rp = plain.run(list(fixes))
        rs = sharded.run(list(fixes))
        assert rs.raw_fixes == rp.raw_fixes
        assert rs.clean_fixes == rp.clean_fixes
        assert rs.critical_points == rp.critical_points
        assert rs.area_events == rp.area_events
        assert rs.quality == rp.quality

    def test_entity_routing_is_sticky(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        sharded.run(list(fixes))
        for fix in fixes:
            shard = sharded.shard_for(fix.entity_id)
            assert shard == sharded.shard_for(fix.entity_id)
        # Every raw fix landed on the shard its entity hashes to.
        per_shard_raw = [s.layer.report.raw_fixes for s in sharded.shards]
        assert sum(per_shard_raw) == len(fixes)

    def test_global_proximity_sees_cross_shard_pairs(self, fixes):
        """Proximity runs once over the merged stream, so link counts are
        shard-count invariant — per-shard discovery would miss every
        cross-shard pair."""
        cfg = dict(proximity_space_m=500_000.0, proximity_time_s=3600.0)
        oracle = ShardedRealtimeLayer(SystemConfig(n_shards=1, **cfg))
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=4, **cfg))
        r1 = oracle.run(list(fixes))
        r4 = sharded.run(list(fixes))
        assert r1.proximity_links > 0  # the loose threshold must actually fire
        assert r4.proximity_links == r1.proximity_links
        assert r4.links == r1.links


class TestShardObservability:
    def test_shard_gauges_registered(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        sharded.run(list(fixes))
        gauges = sharded.metrics.gauges("shard.")
        for i in range(3):
            for leaf in ("raw_fixes", "clean_fixes", "critical_points", "links", "wall_s"):
                assert f"shard.{i}.{leaf}" in gauges
        assert gauges["shard.count"] == 3.0
        assert sum(gauges[f"shard.{i}.raw_fixes"] for i in range(3)) == len(fixes)

    def test_balance_gauge_tracks_routing(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        assert sharded.balance() == 0.0  # nothing routed yet
        sharded.run(list(fixes))
        assert 1.0 <= sharded.balance() <= 3.0
        assert sharded.metrics.gauges("shard.")["shard.balance"] == sharded.balance()

    def test_system_metrics_includes_per_shard_view(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        snap = sharded.system_metrics()
        assert len(snap["shards"]) == 2
        assert {"health", "events", "operators"} <= snap.keys()
        assert sum(s["raw_fixes"] for s in snap["shards"]) == len(fixes)

    def test_run_events_emitted(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        kinds = [e.kind for e in sharded.events.events(component="realtime")]
        assert "sharded_run_started" in kinds and "sharded_run_finished" in kinds


class TestHarvestFold:
    """The distributed obs plane over the Figure-2 shard replicas."""

    def nonshard_counters(self, layer):
        return {
            name: value
            for name, value in layer.metrics.counters().items()
            if not name.startswith("shard.")
        }

    def test_folded_counters_equal_single_shard_oracle(self, fixes):
        oracle = ShardedRealtimeLayer(SystemConfig(n_shards=1))
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        oracle.run(list(fixes))
        sharded.run(list(fixes))
        assert self.nonshard_counters(sharded) == self.nonshard_counters(oracle)

    def test_per_shard_counter_families_sum_to_merged(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        sharded.run(list(fixes))
        counters = sharded.metrics.counters()
        for family in ("op.clean.records_in", "stage.raw.records"):
            parts = sum(
                counters.get(f"shard.{i}.{family}", 0) for i in range(3)
            )
            assert parts == counters[family] > 0

    def test_e2e_record_latency_on_merged_stream(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        e2e = sharded.metrics.histogram("e2e.record_latency_s")
        assert e2e.count > 0
        assert 0.0 <= e2e.min and e2e.max < 60.0  # wall stamps, not event time

    def test_repeated_runs_fold_deltas_not_cumulative_state(self, fixes):
        """Replicas are long-lived, so each run must fold the *increment*
        of their cumulative registries — a cumulative (non-delta) fold
        would make ``shard.<i>.<name>`` overshoot the replica's own
        counter after the second run."""
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        for _ in range(2):
            sharded.run(list(fixes))
            merged = sharded.metrics.counters()
            for i, shard in enumerate(sharded.shards):
                for name, value in shard.layer.metrics.counters().items():
                    assert merged.get(f"shard.{i}.{name}", 0) == value, name
        # Stateless ingest families double exactly with the input; the
        # merged family is fold (= replica sum) + the parent's own count.
        assert merged["stage.raw.records"] == 2 * len(fixes)
        assert merged["op.clean.records_in"] == sum(
            merged[f"shard.{i}.op.clean.records_in"] for i in range(2)
        )

    def test_shard_events_merged_with_origin_tags(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        tagged = [e for e in sharded.events.events() if "shard" in e.tags]
        assert tagged
        assert {e.tags["shard"] for e in tagged} <= {0, 1}

    def test_shard_traces_rehomed_under_sharded_run_root(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        roots = [sp for sp in sharded.tracer.spans() if sp.name == "sharded.run"]
        assert len(roots) == 1
        sharded.run(list(fixes))
        roots = [sp for sp in sharded.tracer.spans() if sp.name == "sharded.run"]
        assert len(roots) == 2  # one synthetic root per run

    def test_export_carries_shard_labels_and_e2e(self, fixes):
        from repro.obs import parse_openmetrics, render_openmetrics

        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        sharded.run(list(fixes))
        families = parse_openmetrics(render_openmetrics(sharded.metrics.snapshot()))
        clean = families["shard_op_clean_records_in"]["samples"]
        merged = families["op_clean_records_in"]["samples"]["op_clean_records_in_total"]
        assert sum(clean.values()) == merged
        assert 'shard_op_clean_records_in_total{shard="0"}' in clean
        assert "e2e_record_latency_s" in families

    def test_critical_path_speedup_positive(self, fixes):
        sharded = ShardedRealtimeLayer(SystemConfig(n_shards=3))
        sharded.run(list(fixes))
        assert sharded.critical_path_speedup() > 1.0


class TestPlainLayerProximityKnob:
    def test_disabled_proximity_reports_no_proximity_links(self, fixes):
        layer = RealtimeLayer(
            SystemConfig(proximity_space_m=500_000.0, proximity_time_s=3600.0),
            enable_proximity=False,
        )
        report = layer.run(list(fixes))
        assert layer.proximity is None
        assert report.proximity_links == 0


class TestWorkerPoolLayer:
    """The pool-backed deployment: shard replicas hosted in long-lived
    worker processes (SystemConfig.worker_pool). The in-process layer
    (worker_pool=False) is the determinism oracle."""

    def chunks(self, fixes, n=3):
        size = (len(fixes) + n - 1) // n
        return [list(fixes[i: i + size]) for i in range(0, len(fixes), size)]

    def test_pooled_matches_in_process_oracle_across_runs(self, fixes):
        """>= 3 consecutive incremental runs: reports, merged topic
        streams and folded counters byte-identical to the oracle."""
        cfg = SystemConfig(n_shards=3)
        oracle = ShardedRealtimeLayer(cfg, worker_pool=False)
        with ShardedRealtimeLayer(cfg, worker_pool=True) as pooled:
            for chunk in self.chunks(fixes, 3):
                assert pooled.run(chunk) == oracle.run(chunk)
            assert topic_streams(pooled) == topic_streams(oracle)
            assert pooled.metrics.counters() == oracle.metrics.counters()
            assert pooled.balance() == oracle.balance()
            assert (
                pooled.system_metrics()["shards"]
                == oracle.system_metrics()["shards"]
            )

    def test_config_knob_selects_the_pool(self, fixes):
        with ShardedRealtimeLayer(SystemConfig(n_shards=2, worker_pool=True)) as layer:
            assert layer.use_worker_pool
            assert layer._hosts is not None and len(layer._hosts) == 2
            report = layer.run(list(fixes))
            assert report.raw_fixes == len(fixes)
        assert all(not host.alive() for host in layer._hosts)

    def test_default_stays_in_process(self):
        layer = ShardedRealtimeLayer(SystemConfig(n_shards=2))
        assert not layer.use_worker_pool
        assert layer._hosts is None
        layer.close()  # no-op in-process

    def test_setup_reported_apart_from_walls_on_both_paths(self, fixes):
        cfg = SystemConfig(n_shards=2)
        oracle = ShardedRealtimeLayer(cfg, worker_pool=False)
        with ShardedRealtimeLayer(cfg, worker_pool=True) as pooled:
            chunk = list(fixes)[:200]
            oracle.run(chunk)
            pooled.run(chunk)
            for layer in (oracle, pooled):
                setups = layer.shard_setups()
                assert len(setups) == 2 and all(s > 0.0 for s in setups)
                # Replica construction (regions, ports, masks) dwarfs a
                # 200-fix run: folding it into walls would be visible.
                assert layer.metrics.gauge("shard.0.setup_s").value() > 0.0
                assert layer.critical_path_speedup() > 0.0


class TestCumulativeReport:
    """The layer report counts every run, global stages included, like the
    plain layer's: over chunked runs it must agree with the merged topics."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.cep import symbol_sequence, turn_event_stream
        from repro.datasources import fishing_vessel_stream
        from repro.synopses import SynopsesConfig, SynopsesGenerator

        cfg = dict(
            synopses=SynopsesConfig(min_reemit_s=30.0),
            proximity_space_m=500_000.0,
            proximity_time_s=3600.0,
        )
        train = fishing_vessel_stream(seed=9, duration_s=8 * 3600.0, report_period_s=20.0)
        gen = SynopsesGenerator(cfg["synopses"])
        points = list(gen.process_stream(train)) + gen.flush()
        symbols = symbol_sequence(turn_event_stream(points))
        fleet = list(AISSimulator(n_vessels=6, seed=5).fixes(0.0, 4 * 3600.0))
        fishing = fishing_vessel_stream(seed=21, duration_s=4 * 3600.0, report_period_s=20.0)
        stream = sorted(fleet + fishing, key=lambda f: (f.t, f.entity_id))
        return cfg, symbols, stream

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_report_matches_merged_topics_over_chunked_runs(self, setup, n_shards):
        cfg, symbols, stream = setup
        layer = ShardedRealtimeLayer(
            SystemConfig(n_shards=n_shards, **cfg), cep_training_symbols=symbols
        )
        bounds = [0, len(stream) // 3, 2 * len(stream) // 3, len(stream)]
        for lo, hi in zip(bounds, bounds[1:]):
            report = layer.run(stream[lo:hi])
        assert report is layer.report
        assert report.raw_fixes == len(stream)
        assert report.proximity_links > 0 and report.cep_detections > 0
        assert report.links == layer.broker.topic(TOPIC_LINKS).size()
        assert report.cep_detections == layer.broker.topic(TOPIC_EVENTS).size()


class TestPooledWorkerFault:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_killed_worker_surfaces_on_next_run_and_close_reaps(self, fixes, victim):
        """A worker killed between runs fails the next run with its shard
        id; close() then reaps the surviving worker — even one left with
        an unanswered request by the failed scatter — without hanging."""
        import time

        from repro.streams import ShardWorkerDied

        layer = ShardedRealtimeLayer(SystemConfig(n_shards=2, worker_pool=True))
        try:
            half = len(fixes) // 2
            layer.run(list(fixes[:half]))
            proc = layer._hosts[victim]._proc
            proc.kill()
            proc.join(timeout=5.0)
            with pytest.raises(ShardWorkerDied) as err:
                layer.run(list(fixes[half:]))
            assert err.value.shard == victim
        finally:
            start = time.perf_counter()
            layer.close()
            closed_s = time.perf_counter() - start
        assert all(not host.alive() for host in layer._hosts)
        assert closed_s < 10.0


def _bits(value):
    """A float as its IEEE-754 bytes (NaN payloads and -0.0 compare exactly)."""
    return None if value is None else struct.pack("<d", value)


def _record_content(rec):
    value = rec.value
    if isinstance(value, PositionFix):
        value = (
            value.entity_id, value.source, tuple(sorted(value.annotations.items())),
            *(_bits(getattr(value, name)) for name in ("t", "lon", "lat", "alt", "speed", "heading", "vrate")),
        )
    else:
        value = repr(value)
    return (_bits(rec.t), rec.key, value)


def topic_contents(layer, topic):
    """A topic's records as a multiset of bit-exact contents."""
    return Counter(map(_record_content, drain(layer, topic)))


def drain(layer, topic):
    consumer = layer.broker.consumer(topic, "test-contents")
    records = []
    while batch := consumer.poll():
        records.extend(batch)
    return records


def hostile_stream(n_vessels=8, seed=5):
    """A seeded AIS stream laced with fixes that cleaning must drop under
    every ISSUE_* label: non-finite fields, out-of-range coordinates, an
    implausible reported speed, time reversals, duplicate timestamps (as a
    distinct object and as the very same object routed twice) and
    teleports."""
    base = list(AISSimulator(n_vessels=n_vessels, seed=seed).fixes(0.0, 1800.0))
    rng = random.Random(seed)
    out = []
    for i, fix in enumerate(base):
        out.append(fix)
        kind = i % 9
        if rng.random() > 0.3:
            continue
        if kind == 0:
            field = rng.choice(["t", "lon", "lat", "alt", "speed", "heading", "vrate"])
            out.append(replace(fix, **{field: rng.choice([math.nan, math.inf, -math.inf])}))
        elif kind == 1:
            out.append(replace(fix, t=fix.t - 120.0))
        elif kind == 2:
            out.append(replace(fix, lon=fix.lon + 0.2))
        elif kind == 3:
            out.append(fix)
        elif kind == 4:
            out.append(replace(fix, lon=fix.lon + 5.0, t=fix.t + 1.0))
        elif kind == 5:
            out.append(replace(fix, lat=95.0, t=fix.t + 2.0))
        elif kind == 6:
            out.append(replace(fix, speed=100.0, t=fix.t + 3.0))
        elif kind == 7:
            out.append(replace(fix, t=fix.t + 4.0, speed=-0.0, heading=None))
    return out


class TestHostileStreamOracle:
    """Pooled, in-process and plain (no codec) layers agree on a stream
    built to be dropped by every quality check, over chunked runs."""

    @pytest.fixture(scope="class")
    def runs(self):
        stream = hostile_stream()
        bounds = [0, len(stream) // 4, len(stream) // 2, 3 * len(stream) // 4, len(stream)]
        chunks = [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        cfg = SystemConfig(n_shards=3)
        plain = RealtimeLayer(cfg, enable_proximity=False)
        in_process = ShardedRealtimeLayer(cfg, worker_pool=False)
        with ShardedRealtimeLayer(cfg, worker_pool=True) as pooled:
            for chunk in chunks:
                plain.run(chunk)
                in_process.run(chunk)
                pooled.run(chunk)
        return stream, plain, in_process, pooled

    def test_stream_trips_every_quality_check(self, runs):
        _, plain, _, _ = runs
        assert set(plain.report.quality.flagged) == set(ALL_ISSUES)

    @pytest.mark.parametrize("topic", [TOPIC_RAW, TOPIC_CLEAN, TOPIC_SYNOPSES])
    def test_topic_contents_equal_across_paths(self, runs, topic):
        _, plain, in_process, pooled = runs
        expected = topic_contents(plain, topic)
        assert topic_contents(in_process, topic) == expected
        assert topic_contents(pooled, topic) == expected

    def test_pooled_topics_equal_in_process_in_order(self, runs):
        _, _, in_process, pooled = runs
        assert topic_streams(pooled) == topic_streams(in_process)

    def test_quality_counters_equal_across_paths(self, runs):
        stream, plain, in_process, pooled = runs
        for layer in (in_process, pooled):
            report = layer.report
            assert report.raw_fixes == plain.report.raw_fixes == len(stream)
            assert report.clean_fixes == plain.report.clean_fixes
            assert report.critical_points == plain.report.critical_points
            assert report.quality == plain.report.quality

    @pytest.mark.parametrize("path", ["in_process", "pooled"])
    def test_raw_and_clean_records_carry_one_ingest_stamp(self, runs, path):
        _, _, in_process, pooled = runs
        layer = in_process if path == "in_process" else pooled
        raw_stamps = {}
        for rec in drain(layer, TOPIC_RAW):
            assert rec.ingest_wall_s is not None
            raw_stamps.setdefault(id(rec.value), []).append(rec.ingest_wall_s)
        for rec in drain(layer, TOPIC_CLEAN):
            assert rec.ingest_wall_s is not None
            assert rec.ingest_wall_s in raw_stamps[id(rec.value)]


class TestReplyFrameSize:
    """Bytes, not timing: the pooled reply carries no raw or clean topic,
    and its pickled size per routed fix stays under a fixed bound."""

    #: Reply bytes per routed fix. The reply carries synopses, links and
    #: events records, one float64 stamp per fix and the dropped positions;
    #: shipping back the raw and clean records took ~170 B per fix.
    MAX_REPLY_BYTES_PER_FIX = 40

    def test_pooled_reply_is_slim(self, fixes):
        replies, sizes = [], []
        with ShardedRealtimeLayer(SystemConfig(n_shards=2, worker_pool=True)) as layer:
            for host in layer._hosts:
                conn, receive = host._conn, host.receive
                recv_bytes = conn._recv_bytes

                def counted(*args, recv_bytes=recv_bytes):
                    buf = recv_bytes(*args)
                    sizes.append(buf.getbuffer().nbytes)
                    return buf

                def captured(receive=receive):
                    replies.append(receive())
                    return replies[-1]

                conn._recv_bytes, host.receive = counted, captured
            layer.run(list(fixes))
        assert len(replies) == 2
        for reply in replies:
            assert set(reply["topics"]) == {TOPIC_SYNOPSES, TOPIC_LINKS, TOPIC_EVENTS}
        assert sum(sizes) / len(fixes) < self.MAX_REPLY_BYTES_PER_FIX
