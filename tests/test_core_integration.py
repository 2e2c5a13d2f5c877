"""Integration tests: the full Figure-2 pipeline, end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import DatacronSystem, SystemConfig, TOPIC_LINKS, TOPIC_SYNOPSES
from repro.kgstore import STConstraint, star
from repro.rdf import A, VOC, var
from repro.datasources import AISConfig, AISSimulator, fishing_vessel_stream
from repro.cep import symbol_sequence, turn_event_stream
from repro.synopses import SynopsesGenerator


@pytest.fixture(scope="module")
def system_run():
    """One shared end-to-end run over a simulated fleet."""
    config = SystemConfig(n_regions=80, n_ports=30, seed=11)
    # CEP training stream from a fishing vessel's synopses.
    train_fixes = fishing_vessel_stream(seed=9, duration_s=6 * 3600.0, report_period_s=20.0)
    gen = SynopsesGenerator(config.synopses)
    train_points = list(gen.process_stream(train_fixes)) + gen.flush()
    training_symbols = symbol_sequence(turn_event_stream(train_points))

    system = DatacronSystem(config, t_origin=0.0, t_extent_s=4 * 3600.0, cep_training_symbols=training_symbols)
    sim = AISSimulator(
        n_vessels=12,
        bbox=config.bbox,
        seed=5,
        config=AISConfig(report_period_s=30.0, outlier_probability=0.01),
    )
    run = system.run(sim.fixes(0.0, 2 * 3600.0))
    return system, run


class TestEndToEnd:
    def test_stream_flows_through(self, system_run):
        _, run = system_run
        assert run.realtime.raw_fixes > 500
        assert 0 < run.realtime.clean_fixes <= run.realtime.raw_fixes

    def test_cleaning_drops_outliers(self, system_run):
        _, run = system_run
        assert run.realtime.quality.dropped > 0

    def test_synopses_compress(self, system_run):
        _, run = system_run
        assert 0 < run.realtime.critical_points < run.realtime.clean_fixes
        assert run.realtime.compression_ratio > 0.5

    def test_topics_populated(self, system_run):
        system, run = system_run
        assert system.realtime.broker.topic(TOPIC_SYNOPSES).size() == run.realtime.critical_points

    def test_batch_loaded_store(self, system_run):
        _, run = system_run
        assert run.batch.synopsis_points == run.realtime.critical_points
        assert run.batch.triples > run.batch.synopsis_points  # several triples per node
        assert run.batch.anchored_subjects > 0

    def test_batch_star_query(self, system_run):
        system, _ = system_run
        nodes = system.batch.nodes_in_range(system.config.bbox, 0.0, 2 * 3600.0)
        assert len(nodes) > 0
        assert {"node", "t", "kind"} <= set(nodes[0])

    def test_event_type_counts(self, system_run):
        system, run = system_run
        counts = system.batch.event_type_counts()
        assert sum(counts.values()) > 0
        assert "start" in counts

    def test_offline_quality_report(self, system_run):
        system, run = system_run
        report = system.batch.data_quality()
        assert report.movers.n_movers == 12
        # Cleaned stream should carry no residual teleports.
        assert report.collection.quality.drop_rate() < 0.05

    def test_dashboard_frame(self, system_run):
        system, _ = system_run
        frame = system.dashboard_frame(t=7200.0)
        assert "positions=" in frame
        assert system.realtime.dashboard.entity_count() == 12

    def test_weather_enrichment_attached(self, system_run):
        """Critical points published downstream carry weather covariates."""
        system, run = system_run
        consumer = system.realtime.broker.consumer(TOPIC_SYNOPSES, group="weather-check")
        points = [r.value for r in consumer.poll()]
        assert points
        enriched = [p for p in points if "weather" in p.detail]
        assert enriched, "no critical point carries weather enrichment"
        sample = enriched[0].detail["weather"]
        assert {"wind_u_ms", "wind_v_ms", "wave_m"} <= set(sample)

    def test_mobility_patterns_minable(self, system_run):
        """The batch layer mines sequential motifs from the ingested corpus."""
        system, run = system_run
        report = system.batch.mobility_patterns(min_support_fraction=0.5, max_length=3)
        assert report.n_trajectories == 12
        assert report.support_of("start") == 12

    def test_links_discovered(self, system_run):
        system, run = system_run
        assert run.realtime.links >= 0
        assert system.realtime.broker.topic(TOPIC_LINKS).size() == run.realtime.links


class TestCEPIntegration:
    def test_fishing_stream_produces_detections(self):
        """A trawling vessel's reversals must be detected end to end."""
        from repro.synopses import SynopsesConfig

        config = SystemConfig(n_regions=20, n_ports=10, seed=3, synopses=SynopsesConfig(min_reemit_s=30.0))
        train = fishing_vessel_stream(seed=9, duration_s=8 * 3600.0, report_period_s=20.0)
        gen = SynopsesGenerator(config.synopses)
        points = list(gen.process_stream(train)) + gen.flush()
        symbols = symbol_sequence(turn_event_stream(points))
        system = DatacronSystem(config, cep_training_symbols=symbols)
        test_fixes = fishing_vessel_stream(seed=21, duration_s=6 * 3600.0, report_period_s=20.0)
        run = system.run(iter(test_fixes))
        assert run.realtime.cep_detections > 0
        assert run.realtime.cep_forecasts > 0


def polled_system(n_vessels: int = 30, polls: int = 4) -> DatacronSystem:
    """A system fed one simulated hour per poll (one batch ingest each)."""
    config = SystemConfig(n_regions=20, n_ports=8, seed=11)
    system = DatacronSystem(config, t_origin=0.0, t_extent_s=polls * 3600.0)
    sim = AISSimulator(n_vessels=n_vessels, bbox=config.bbox, seed=5, config=AISConfig(report_period_s=30.0))
    fixes = list(sim.fixes(0.0, polls * 3600.0))
    for k in range(polls):
        system.run([f for f in fixes if k * 3600.0 <= f.t < (k + 1) * 3600.0])
    return system


#: Prints a polled system's whole-range node rows, in query order, as JSON.
_NODE_ROWS_SCRIPT = """
import json
from tests.test_core_integration import polled_system
system = polled_system(n_vessels=12, polls=3)
rows = system.batch.nodes_in_range(system.config.bbox, 0.0, 3 * 3600.0)
print(json.dumps([[str(r["node"]), str(r["t"]), str(r["kind"])] for r in rows]))
"""


class TestIncrementalBatchIngest:
    @pytest.fixture(scope="class")
    def system(self):
        return polled_system()

    def test_store_holds_each_graph_triple_once(self, system):
        batch = system.batch
        assert system.metrics.counters("batch.ingests")["batch.ingests"] == 4
        assert len(batch.store) == len(batch.graph)
        assert batch.report.triples == len(batch.graph)
        assert system.metrics.counters("kg.triples_loaded")["kg.triples_loaded"] == len(batch.graph)

    def test_anchored_subjects_is_the_store_total(self, system):
        nodes = {t.s for t in system.batch.graph.match(None, A, VOC.SemanticNode)}
        assert system.batch.report.anchored_subjects == len(nodes)

    def test_every_node_found_and_pushdown_equals_postfilter(self, system):
        batch = system.batch
        nodes = {t.s for t in batch.graph.match(None, A, VOC.SemanticNode)}
        whole = STConstraint(system.config.bbox, 0.0, 4 * 3600.0)
        query = star("node", (A, VOC.SemanticNode), (VOC.timestamp, var("t")), (VOC.eventType, var("kind")), st=whole)
        pushed, _ = batch.store.execute(query, pushdown=True)
        post, _ = batch.store.execute(query, pushdown=False)
        assert pushed == post
        assert {b["node"] for b in pushed} == nodes
        assert len(batch.nodes_in_range(system.config.bbox, 0.0, 4 * 3600.0)) == len(nodes)

    def test_query_rows_do_not_depend_on_hash_seed(self):
        root = Path(repro.__file__).resolve().parents[2]
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
            proc = subprocess.run(
                [sys.executable, "-c", _NODE_ROWS_SCRIPT],
                capture_output=True, text=True, cwd=root, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0], "the query found no nodes"
        assert outputs[0] == outputs[1]
