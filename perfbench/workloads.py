"""The three Figure-2 workloads: seeded streams and the systems they drive.

A workload turns the benchmark seed into a time-ordered surveillance
stream, cuts it into polls by *simulated* time, and builds a fresh
deployment to replay the polls into. The seed reaches only the stream
generator; the system itself is configured identically for every seed
(``SystemConfig(seed=7)``: region/port catalogues, weather field), so two
seeds differ in their input and nothing else. NOTES.md records why each
workload was chosen.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.cep import symbol_sequence, turn_event_stream
from repro.core import BatchLayer, DatacronSystem, ShardedRealtimeLayer, SystemConfig
from repro.datasources import AISConfig, AISSimulator, fishing_vessel_stream
from repro.datasources.aviation import AIRPORTS, FlightDatasetConfig, generate_flight_dataset
from repro.geo import BBox, PositionFix
from repro.insitu.quality import QualityConfig
from repro.synopses import AVIATION_CONFIG, SynopsesConfig, SynopsesGenerator

#: Polls per replay; each is one ``realtime.run`` plus one batch ingest.
POLLS = 8
#: The spatial query tiling laid over the stream's bounding box per poll.
QUERY_GRID = 4
#: System seed: catalogues, masks and weather — the same for every input.
SYSTEM_SEED = 7

#: Stream sizes per scale. ``tiny`` exists for the self-tests.
SIZES = {
    "full": {"vessels": 200, "ais_duration_s": 7200.0, "flights": 240, "departure_spread_s": 4 * 3600.0},
    "tiny": {"vessels": 12, "ais_duration_s": 1800.0, "flights": 12, "departure_spread_s": 1800.0},
}


@dataclass
class Deployment:
    """One freshly built system: the two layers a poll drives, and cleanup."""

    realtime: Any
    batch: BatchLayer
    close: Callable[[], None]


@dataclass
class Workload:
    """A generated stream, its poll split, and how to build its system."""

    name: str
    seed: int
    scale: str
    fixes: list[PositionFix]
    #: Simulated-time window [t0, t1) of each poll.
    windows: list[tuple[float, float]]
    t_extent_s: float
    config: SystemConfig
    pooled: bool

    def polls(self) -> list[list[PositionFix]]:
        """The stream cut into :data:`POLLS` slices by simulated time."""
        out: list[list[PositionFix]] = []
        i = 0
        for _, t1 in self.windows:
            j = i
            while j < len(self.fixes) and self.fixes[j].t < t1:
                j += 1
            out.append(self.fixes[i:j])
            i = j
        if i != len(self.fixes):
            raise ValueError("poll windows do not cover the stream")
        return out

    def query_tiles(self) -> list[BBox]:
        """A fixed QUERY_GRID x QUERY_GRID tiling of the stream's bbox."""
        lons = [f.lon for f in self.fixes]
        lats = [f.lat for f in self.fixes]
        lo_lon, hi_lon, lo_lat, hi_lat = min(lons), max(lons), min(lats), max(lats)
        dx = (hi_lon - lo_lon) / QUERY_GRID
        dy = (hi_lat - lo_lat) / QUERY_GRID
        return [
            BBox(lo_lon + a * dx, lo_lat + b * dy, lo_lon + (a + 1) * dx, lo_lat + (b + 1) * dy)
            for a in range(QUERY_GRID)
            for b in range(QUERY_GRID)
        ]

    def build(self, training_symbols: list[str], worker_pool: bool | None = None) -> Deployment:
        """Construct the system the polls run through (this is ``setup_s``)."""
        if self.pooled:
            cfg = self.config
            if worker_pool is not None:
                cfg = dataclasses.replace(cfg, worker_pool=worker_pool)
            layer = ShardedRealtimeLayer(cfg, cep_training_symbols=training_symbols)
            batch = BatchLayer(cfg, layer.broker, 0.0, self.t_extent_s, registry=layer.metrics)
            return Deployment(layer, batch, layer.close)
        system = DatacronSystem(
            self.config, t_extent_s=self.t_extent_s, cep_training_symbols=training_symbols
        )
        return Deployment(system.realtime, system.batch, lambda: None)

    def provenance(self) -> dict[str, Any]:
        return {
            "workload": self.name,
            "seed": self.seed,
            "system_seed": SYSTEM_SEED,
            "scale": self.scale,
            "fixes": len(self.fixes),
            "entities": len({f.entity_id for f in self.fixes}),
            "polls": len(self.windows),
            "t_extent_s": self.t_extent_s,
        }


def training_symbols() -> list[str]:
    """CEP training corpus, as in examples/quickstart.py: turn symbols of
    one fishing vessel's synopses. Fixed; it is system configuration."""
    history = fishing_vessel_stream(seed=9, duration_s=12 * 3600.0, report_period_s=20.0)
    generator = SynopsesGenerator(SynopsesConfig(min_reemit_s=30.0))
    points = list(generator.process_stream(history)) + generator.flush()
    return symbol_sequence(turn_event_stream(points))


def _even_windows(t_end: float) -> list[tuple[float, float]]:
    """POLLS windows of equal simulated length."""
    step = t_end / POLLS
    return [(k * step, t_end if k == POLLS - 1 else (k + 1) * step) for k in range(POLLS)]


def _count_windows(fixes: list[PositionFix], t_end: float) -> list[tuple[float, float]]:
    """POLLS windows cut at the fix times that split the stream into equal
    counts (fixes sharing a cut time all go to the later poll)."""
    cuts = [0.0] + [fixes[k * len(fixes) // POLLS].t for k in range(1, POLLS)] + [t_end]
    return list(zip(cuts[:-1], cuts[1:]))


def _ais(name: str, seed: int, scale: str, pooled: bool) -> Workload:
    size = SIZES[scale]
    duration = size["ais_duration_s"]
    sim = AISSimulator(n_vessels=size["vessels"], seed=seed, config=AISConfig(report_period_s=10.0))
    config = SystemConfig(seed=SYSTEM_SEED)
    if pooled:
        config = SystemConfig(seed=SYSTEM_SEED, n_shards=2, worker_pool=True)
    return Workload(
        name=name,
        seed=seed,
        scale=scale,
        fixes=list(sim.fixes(0.0, duration)),
        windows=_even_windows(duration),
        t_extent_s=duration,
        config=config,
        pooled=pooled,
    )


def _adsb(seed: int, scale: str) -> Workload:
    size = SIZES[scale]
    dataset = FlightDatasetConfig(
        n_flights=size["flights"],
        city_pairs=tuple(itertools.permutations(sorted(AIRPORTS), 2)),
        sample_period_s=8.0,
        departure_spread_s=size["departure_spread_s"],
    )
    flights = generate_flight_dataset(dataset, seed=seed)
    fixes = sorted(
        (fix for flight in flights for fix in flight.trajectory.fixes),
        key=lambda f: (f.t, f.entity_id),
    )
    # One second past the last fix, so every fix falls in a closed window.
    t_end = fixes[-1].t + 1.0
    return Workload(
        name="adsb-kg",
        seed=seed,
        scale=scale,
        fixes=fixes,
        # Departures are random, so equal-time polls would differ in size
        # from seed to seed, and the largest poll sets fix_latency_p99_ms.
        windows=_count_windows(fixes, t_end),
        t_extent_s=t_end,
        config=SystemConfig(
            seed=SYSTEM_SEED, quality=QualityConfig().for_aviation(), synopses=AVIATION_CONFIG
        ),
        pooled=False,
    )


def make_workload(name: str, seed: int, scale: str = "full") -> Workload:
    """Generate the named workload's stream from ``seed``."""
    if name == "ais-plain":
        return _ais(name, seed, scale, pooled=False)
    if name == "ais-pooled":
        return _ais(name, seed, scale, pooled=True)
    if name == "adsb-kg":
        return _adsb(seed, scale)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ais-plain", "ais-pooled", "adsb-kg")
