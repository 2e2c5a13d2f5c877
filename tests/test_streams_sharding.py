"""Tests for the shard routing and merge primitives (repro.streams.sharding).

The correctness story is the single-shard oracle: a key-sharded pipeline
composed from ``shard_index`` and ``merge_shard_outputs`` must match
``n_shards=1`` (the unsharded pipeline by construction), whether its
replicas run in-process or in ``WorkerHost`` processes. The same
contract for the sharded real-time layer lives in
``tests/test_core_sharded.py``.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams import (
    Map,
    Pipeline,
    Record,
    TumblingWindow,
    WatermarkAssigner,
    WorkerHost,
    count_aggregate,
    critical_path_speedup,
    merge_shard_outputs,
    shard_index,
)


def keyed_records(n, n_keys=7, dt=1.0):
    return [Record(i * dt, i, key=f"vessel-{i % n_keys}") for i in range(n)]


def window_pipeline() -> Pipeline:
    return Pipeline([Map(lambda v: v + 1), TumblingWindow(10.0, count_aggregate)], name="win")


def map_pipeline() -> Pipeline:
    return Pipeline([Map(lambda v: v * 10)], name="map")


def assigner() -> WatermarkAssigner:
    return WatermarkAssigner(out_of_orderness_s=5.0)


def canonical(records):
    """Output lists compared order-sensitively on the canonical fields."""
    return [(r.t, r.key, r.value) for r in records]


def route(records, n_shards):
    """Split a keyed stream into per-shard sub-streams by ``shard_index``."""
    routed = [[] for _ in range(n_shards)]
    for record in records:
        routed[shard_index(record.key, n_shards)].append(record)
    return routed


class KeyShardedPipeline:
    """One pipeline replica (and watermark assigner) per shard, fed by
    ``route`` and merged by ``merge_shard_outputs``."""

    def __init__(self, factory, n_shards, watermark_factory=None):
        self.replicas = [factory() for _ in range(n_shards)]
        self.assigners = [watermark_factory() if watermark_factory else None for _ in range(n_shards)]

    def run(self, records, flush=False):
        routed = route(records, len(self.replicas))
        return merge_shard_outputs([
            replica.run(sub_stream, watermarks=wm, flush=flush)
            for replica, wm, sub_stream in zip(self.replicas, self.assigners, routed)
        ])

    def run_to_end(self, records):
        return self.run(records, flush=True)

    def min_watermark(self):
        """The merged stream's event time: the slowest shard's watermark."""
        return min(wm.current_watermark() for wm in self.assigners)


@dataclass(frozen=True)
class OneShotSpec:
    """WorkerSpec running each request's sub-stream through a fresh replica."""

    factory: object
    watermark_factory: object = None

    def setup(self, shard):
        return None

    def handle(self, shard, state, records):
        wm = self.watermark_factory() if self.watermark_factory else None
        return self.factory().run(records, watermarks=wm, flush=True)


def run_sharded(factory, records, n_shards, watermark_factory=None, parallel=False):
    """One-shot sharded run; ``parallel`` hosts each shard in its own process."""
    if not parallel:
        return KeyShardedPipeline(factory, n_shards, watermark_factory).run_to_end(records)
    spec = OneShotSpec(factory, watermark_factory)
    hosts = [WorkerHost(spec, i) for i in range(n_shards)]
    try:
        for host, sub_stream in zip(hosts, route(records, n_shards)):
            host.send(sub_stream)
        return merge_shard_outputs([host.receive() for host in hosts])
    finally:
        for host in hosts:
            host.close()


class TestShardIndex:
    def test_deterministic_and_in_range(self):
        for n_shards in (1, 2, 5):
            for i in range(50):
                key = f"vessel-{i}"
                shard = shard_index(key, n_shards)
                assert 0 <= shard < n_shards
                assert shard == shard_index(key, n_shards)

    def test_single_shard_takes_everything(self):
        assert {shard_index(f"k{i}", 1) for i in range(20)} == {0}


class TestShardRouter:
    def test_keyed_records_are_sticky(self):
        records = [Record(float(i), i, key="vessel-3") for i in range(10)]
        routed = route(records, 4)
        assert routed[shard_index("vessel-3", 4)] == records
        assert sum(len(shard) for shard in routed) == len(records)

    def test_route_preserves_per_key_order(self):
        routed = route(keyed_records(50), 4)
        assert sum(len(shard) for shard in routed) == 50
        for shard in routed:
            for key in {r.key for r in shard}:
                sub = [r.value for r in shard if r.key == key]
                assert sub == sorted(sub)


class TestMergeShardOutputs:
    def test_orders_by_time_then_key(self):
        merged = merge_shard_outputs([
            [Record(2.0, "b", key="x")],
            [Record(1.0, "a", key="z"), Record(2.0, "c", key="a")],
        ])
        assert canonical(merged) == [(1.0, "z", "a"), (2.0, "a", "c"), (2.0, "x", "b")]

    def test_stable_within_equal_t_key(self):
        first = Record(1.0, "first", key="k")
        second = Record(1.0, "second", key="k")
        merged = merge_shard_outputs([[first, second]])
        assert [r.value for r in merged] == ["first", "second"]


class TestShardedPipeline:
    def test_matches_single_shard_oracle(self):
        records = keyed_records(200)
        oracle = KeyShardedPipeline(window_pipeline, 1, watermark_factory=assigner)
        sharded = KeyShardedPipeline(window_pipeline, 4, watermark_factory=assigner)
        expected = oracle.run_to_end(records)
        assert expected
        assert canonical(sharded.run_to_end(records)) == canonical(expected)

    def test_matches_plain_pipeline(self):
        records = keyed_records(200)
        plain = window_pipeline().run(records, watermarks=assigner(), flush=True)
        sharded = KeyShardedPipeline(window_pipeline, 3, watermark_factory=assigner)
        assert canonical(sharded.run_to_end(records)) == canonical(merge_shard_outputs([plain]))

    def test_incremental_runs_then_finish(self):
        records = keyed_records(100)
        sharded = KeyShardedPipeline(window_pipeline, 3, watermark_factory=assigner)
        out = list(sharded.run(records[:50]))
        out.extend(sharded.run(records[50:]))
        out.extend(sharded.run([], flush=True))
        one_shot = KeyShardedPipeline(window_pipeline, 3, watermark_factory=assigner)
        assert canonical(sorted(out, key=lambda r: (r.t, r.key or ""))) == canonical(
            one_shot.run_to_end(records)
        )

    def test_min_watermark_lags_slowest_shard(self):
        sharded = KeyShardedPipeline(map_pipeline, 2, watermark_factory=assigner)
        assert sharded.min_watermark() == float("-inf")
        # Feed one key per shard, unevenly.
        keys = [f"k{i}" for i in range(10)]
        lo = next(k for k in keys if shard_index(k, 2) == 0)
        hi = next(k for k in keys if shard_index(k, 2) == 1)
        sharded.run([Record(100.0, 1, key=lo), Record(20.0, 1, key=hi)])
        assert sharded.min_watermark() == 20.0 - 5.0

    def test_wall_and_balance_accounting(self):
        records = keyed_records(100)
        sharded = KeyShardedPipeline(map_pipeline, 2)
        sharded.run_to_end(records)
        assert sum(r.records_processed for r in sharded.replicas) == len(records)
        assert critical_path_speedup([r.wall_seconds for r in sharded.replicas]) >= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=200,
        ),
        st.integers(min_value=2, max_value=6),
    )
    def test_property_sharded_equals_oracle(self, pairs, n_shards):
        """For any keyed stream, N shards == the n_shards=1 oracle."""
        records = [Record(t, k, key=f"entity-{k}") for t, k in sorted(pairs)]
        oracle = KeyShardedPipeline(window_pipeline, 1, watermark_factory=assigner)
        sharded = KeyShardedPipeline(window_pipeline, n_shards, watermark_factory=assigner)
        assert canonical(sharded.run_to_end(records)) == canonical(oracle.run_to_end(records))


class TestRunSharded:
    def test_sequential_matches_oracle(self):
        records = keyed_records(150)
        merged = run_sharded(window_pipeline, records, 4, watermark_factory=assigner)
        oracle = run_sharded(window_pipeline, records, 1, watermark_factory=assigner)
        assert canonical(merged) == canonical(oracle)

    def test_parallel_matches_sequential(self):
        records = keyed_records(60, n_keys=4)
        sequential = run_sharded(map_pipeline, records, 2)
        hosted = run_sharded(map_pipeline, records, 2, parallel=True)
        assert len(hosted) == len(records)
        assert canonical(hosted) == canonical(sequential)

    def test_n_shards_one_is_plain_pipeline(self):
        records = keyed_records(80)
        merged = run_sharded(window_pipeline, records, n_shards=1, watermark_factory=assigner)
        plain = window_pipeline().run(records, watermarks=assigner(), flush=True)
        assert canonical(merged) == canonical(merge_shard_outputs([plain]))


class TestCriticalPathSpeedup:
    def test_sum_over_slowest(self):
        assert critical_path_speedup([1.0, 1.0, 2.0]) == 2.0

    def test_no_positive_wall_is_zero(self):
        assert critical_path_speedup([]) == 0.0
        assert critical_path_speedup([0.0, 0.0]) == 0.0
