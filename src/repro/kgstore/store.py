"""The knowledge-graph store: loading, planning and star-join execution.

Reproduces the E5 experiment (Section 4.2.5): the same star query with a
spatio-temporal constraint is executed through two physical plans —

* **post-filter** (the baseline a generic distributed RDF engine would
  use): evaluate the full star join, then enforce the spatio-temporal
  constraint on the materialized results, at the cost of computing a
  much larger candidate set; and
* **pushdown** (the paper's technique): prune candidate subjects by the
  spatio-temporal cell embedded in their *encoded integer ids* before
  any join work, refining exactly only the survivors.

The paper reports ~5x improvement for star joins with spatio-temporal
constraints; the bench measures the same ratio on this engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..geo import BBox, EquiGrid, SpatioTemporalGrid, parse_point
from ..rdf import Literal, Term, Triple, Variable, VOC

from .encoding import Dictionary, STPosition
from .layouts import LAYOUTS, PropertyTable, TripleColumns
from .sparql import STConstraint, StarQuery


@dataclass
class QueryMetrics:
    """What one query execution cost."""

    join_rows: int = 0          # rows entering the join pipeline
    candidates: int = 0         # candidate subjects after (any) pruning
    refined: int = 0            # subjects checked against the exact constraint
    results: int = 0
    wall_seconds: float = 0.0


@dataclass
class LoadReport:
    """What one :meth:`KGStore.load` call produced (batch-scoped counts).

    Store-wide totals live on the store itself (``len(store)`` and the
    ``kg.triples_stored`` / ``kg.anchored_subjects`` gauges), not here.
    """

    triples: int = 0            # triples in the batch just loaded
    subjects: int = 0           # distinct subjects in the batch just loaded
    anchored_subjects: int = 0  # subjects this batch gave their first spatio-temporal position


class KGStore:
    """A partitioned, dictionary-encoded spatio-temporal triple store.

    With a ``registry`` attached (an ``repro.obs.MetricsRegistry``),
    loads and queries report under the ``kg.*`` namespace: load/query
    latency histograms plus counters for triples loaded, join rows
    scanned, candidate subjects, exact refinements and results — the
    numbers behind the paper's ~5x pushdown claim, observable live.
    """

    def __init__(
        self,
        bbox: BBox,
        t_origin: float,
        t_extent_s: float,
        layout: str = "property_table",
        grid_cols: int = 64,
        grid_rows: int = 64,
        t_slots: int = 64,
        n_partitions: int = 4,
        registry=None,
    ):
        if layout not in LAYOUTS:
            raise ValueError(f"unknown layout {layout!r}; pick one of {sorted(LAYOUTS)}")
        if t_extent_s <= 0:
            raise ValueError("t_extent_s must be positive")
        grid = EquiGrid(bbox, grid_cols, grid_rows)
        st_grid = SpatioTemporalGrid(grid, t_origin, t_extent_s / t_slots, t_slots)
        self.dictionary = Dictionary(st_grid)
        self.layout_name = layout
        self.n_partitions = n_partitions
        self.registry = registry
        self._layout = None
        self._positions: dict[int, STPosition] = {}   # subject id -> exact anchor
        # Each subject's latest asWKT and timestamp values: its anchor halves,
        # which may arrive in different loads.
        self._wkt_of: dict[Term, str] = {}
        self._t_of: dict[Term, float] = {}
        # Anchored ids whose embedded slot is not their anchor's cell (the id
        # was minted before the anchor was complete, or the anchor moved).
        # Slot pruning cannot vouch for them, so pushdown always keeps them.
        self._misfiled: set[int] = set()
        #: The store's triples as growing numpy columns (the columnar truth).
        self._cols = TripleColumns.empty()
        # Anchors as parallel (id, lon, lat, t) arrays sorted by id, built
        # lazily for the vectorized refine step; invalidated on load.
        self._anchor_arrays_cache: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- loading ---------------------------------------------------------------

    def load(self, triples: Iterable[Triple]) -> LoadReport:
        """Encode a triple batch and append it to the store.

        Loads are append-only: the batch is encoded once, appended to the
        columns and the layout (the property table grows in place). A batch
        should hold triples not loaded before; a repeat is stored again.
        """
        start = time.perf_counter()
        batch = list(triples)
        # Pass 1: fold the batch's asWKT / timestamp values into each
        # subject's anchor halves (the last value seen wins).
        touched: dict[Term, None] = {}
        for tr in batch:
            if tr.p == VOC.asWKT and isinstance(tr.o, Literal) and tr.o.value.lstrip().upper().startswith("POINT"):
                self._wkt_of[tr.s] = tr.o.value
                touched[tr.s] = None
            elif tr.p == VOC.timestamp and isinstance(tr.o, Literal):
                try:
                    self._t_of[tr.s] = float(tr.o.value)
                except ValueError:
                    # reprolint: disable=hygiene — a non-numeric timestamp
                    # literal simply fails to anchor this subject; the triple
                    # itself is still stored below.
                    continue
                touched[tr.s] = None

        # Pass 2: mint every anchored subject's id before any other term, so
        # a node first met as an object (a trajectory's hasSemanticNode) still
        # carries its cell, whatever order the triples arrive in.
        report = LoadReport()
        dictionary = self.dictionary
        for subject in touched:
            wkt = self._wkt_of.get(subject)
            t = self._t_of.get(subject)
            if wkt is None or t is None:
                continue
            point = parse_point(wkt)
            anchor = STPosition(point.lon, point.lat, t)
            known = dictionary.lookup(subject) is not None
            s_id = dictionary.encode(subject, anchor)
            if s_id not in self._positions:
                report.anchored_subjects += 1
            self._positions[s_id] = anchor
            if known and Dictionary.st_slot_of(s_id) != dictionary.slot_for(anchor):
                self._misfiled.add(s_id)
            else:
                self._misfiled.discard(s_id)

        # Pass 3: encode the batch into columnar buffers.
        encode = dictionary.encode
        s_ids = [encode(tr.s) for tr in batch]
        p_ids = [encode(tr.p) for tr in batch]
        o_ids = [encode(tr.o) for tr in batch]
        report.triples = len(batch)
        report.subjects = len(set(s_ids))
        batch_cols = TripleColumns(
            np.asarray(s_ids, dtype=np.int64),
            np.asarray(p_ids, dtype=np.int64),
            np.asarray(o_ids, dtype=np.int64),
        )
        self._cols = self._cols.concat(batch_cols)
        self._anchor_arrays_cache = None
        if isinstance(self._layout, PropertyTable):
            self._layout.extend(batch_cols)
        else:
            self._layout = LAYOUTS[self.layout_name](self._cols, n_partitions=self.n_partitions)
        if self.registry is not None:
            self.registry.counter("kg.triples_loaded").inc(len(batch))
            self.registry.counter("kg.loads").inc()
            self.registry.histogram("kg.load_latency_s").observe(time.perf_counter() - start)
            self.registry.gauge("kg.triples_stored").set(len(self._cols))
            self.registry.gauge("kg.anchored_subjects").set(len(self._positions))
        return report

    def __len__(self) -> int:
        return len(self._cols)

    # -- query execution ---------------------------------------------------------

    def execute(
        self, query: StarQuery, pushdown: bool = True, vectorized: bool = True
    ) -> tuple[list[dict[str, Term]], QueryMetrics]:
        """Run a star query; returns (bindings, metrics).

        ``pushdown=False`` forces the baseline post-filter plan.
        ``vectorized=False`` forces the per-row scalar execution path; the
        default columnar path returns identical bindings (same order) and
        identical :class:`QueryMetrics` counters, enforced by the
        equivalence property tests.
        """
        if self._layout is None:
            raise RuntimeError("store is empty; call load() first")
        metrics = QueryMetrics()
        start = time.perf_counter()
        if vectorized:
            subjects, objects = self._star_rows_vectorized(query, metrics, pushdown)
            bindings = self._refine_and_project_vectorized(query, subjects, objects, metrics)
        else:
            rows = self._star_rows(query, metrics, pushdown)
            bindings = self._refine_and_project(query, rows, metrics, pushdown)
        metrics.wall_seconds = time.perf_counter() - start
        metrics.results = len(bindings)
        if self.registry is not None:
            plan = "pushdown" if pushdown else "postfilter"
            self.registry.counter("kg.queries").inc()
            self.registry.counter(f"kg.queries.{plan}").inc()
            self.registry.counter("kg.join_rows_scanned").inc(metrics.join_rows)
            self.registry.counter("kg.candidates").inc(metrics.candidates)
            self.registry.counter("kg.subjects_refined").inc(metrics.refined)
            self.registry.counter("kg.results").inc(metrics.results)
            self.registry.histogram(f"kg.query_latency_s.{plan}").observe(metrics.wall_seconds)
            self.registry.histogram("kg.query_latency_s").observe(metrics.wall_seconds)
        return bindings, metrics

    def _resolve_arms(self, query: StarQuery) -> list[tuple[int, int | None]] | None:
        """Encode the query's arms: (predicate id, fixed object id or None)."""
        arms: list[tuple[int, int | None]] = []
        for predicate, obj in query.arms:
            p_id = self.dictionary.lookup(predicate)
            if p_id is None:
                return None
            if isinstance(obj, Variable):
                arms.append((p_id, None))
            else:
                o_id = self.dictionary.lookup(obj)
                if o_id is None:
                    return None
                arms.append((p_id, o_id))
        return arms

    def _slots_for(self, st: STConstraint) -> set[int]:
        return self.dictionary.ids_for_range(st.bbox, st.t_min, st.t_max)

    def _passes_pruning(self, s_id: int, slots: set[int]) -> bool:
        """Whether the id-level slot filter keeps a candidate subject."""
        return Dictionary.id_matches_slots(s_id, slots) or s_id in self._misfiled

    def _pruning_mask(self, s_ids: np.ndarray, slot_array: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_passes_pruning`: one keep-flag per subject id."""
        keep = Dictionary.ids_match_slots(s_ids, slot_array)
        if self._misfiled:
            keep |= np.isin(s_ids, np.fromiter(self._misfiled, dtype=np.int64, count=len(self._misfiled)))
        return keep

    def _star_rows(self, query: StarQuery, metrics: QueryMetrics, pushdown: bool) -> dict[int, list[int]]:
        """Candidate star rows: subject id -> object id per arm."""
        arms = self._resolve_arms(query)
        if arms is None:
            return {}
        slots = self._slots_for(query.st) if (pushdown and query.st is not None) else None

        if isinstance(self._layout, PropertyTable):
            rows: dict[int, list[int]] = {}
            predicate_ids = [p for p, _ in arms]
            for s_id, objs in self._layout.star_scan(predicate_ids):
                metrics.join_rows += 1
                if slots is not None and not self._passes_pruning(s_id, slots):
                    continue
                if any(fixed is not None and objs[i] != fixed for i, (_, fixed) in enumerate(arms)):
                    continue
                rows[s_id] = objs
            metrics.candidates = len(rows)
            return rows

        # TriplesTable / VerticalPartitioning: cascade of hash semi-joins.
        rows = {}
        first = True
        for p_id, fixed in arms:
            arm_hits: dict[int, int] = {}
            for part in self._layout.scan_predicate(p_id):
                metrics.join_rows += len(part)
                for s_id, o_id in zip(part.s.tolist(), part.o.tolist()):
                    if slots is not None and not self._passes_pruning(s_id, slots):
                        continue
                    if fixed is not None and o_id != fixed:
                        continue
                    if not first and s_id not in rows:
                        continue
                    arm_hits[s_id] = o_id
            if first:
                rows = {s: [o] for s, o in arm_hits.items()}
                first = False
            else:
                rows = {s: objs + [arm_hits[s]] for s, objs in rows.items() if s in arm_hits}
            if not rows:
                break
        metrics.candidates = len(rows)
        return rows

    def _star_rows_vectorized(
        self, query: StarQuery, metrics: QueryMetrics, pushdown: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar :meth:`_star_rows`: (subjects, objects-matrix) arrays.

        Slot pruning is one shift + ``np.isin`` over the whole subject
        column; fixed-object arms are equality masks. Candidate order and
        every :class:`QueryMetrics` counter match the scalar path exactly.
        """
        no_rows = (np.empty(0, dtype=np.int64), np.empty((0, len(query.arms)), dtype=np.int64))
        arms = self._resolve_arms(query)
        if arms is None:
            return no_rows
        slot_array = None
        if pushdown and query.st is not None:
            slot_array = Dictionary.slots_to_array(self._slots_for(query.st))

        if isinstance(self._layout, PropertyTable):
            subjects, objects = self._layout.star_scan_arrays([p for p, _ in arms])
            metrics.join_rows += len(subjects)
            keep = np.ones(len(subjects), dtype=bool)
            if slot_array is not None:
                keep &= self._pruning_mask(subjects, slot_array)
            for i, (_, fixed) in enumerate(arms):
                if fixed is not None:
                    keep &= objects[:, i] == fixed
            subjects, objects = subjects[keep], objects[keep]
            metrics.candidates = len(subjects)
            return subjects, objects

        # TriplesTable / VerticalPartitioning: cascade of hash semi-joins,
        # with the per-partition slot/fixed filters vectorized so only the
        # survivors enter the Python-dict join.
        rows: dict[int, list[int]] = {}
        first = True
        for p_id, fixed in arms:
            arm_hits: dict[int, int] = {}
            for part in self._layout.scan_predicate(p_id):
                metrics.join_rows += len(part)
                s_col, o_col = part.s, part.o
                if slot_array is not None:
                    mask = self._pruning_mask(s_col, slot_array)
                    s_col, o_col = s_col[mask], o_col[mask]
                if fixed is not None:
                    mask = o_col == fixed
                    s_col, o_col = s_col[mask], o_col[mask]
                arm_hits.update(zip(s_col.tolist(), o_col.tolist()))
            if first:
                rows = {s: [o] for s, o in arm_hits.items()}
                first = False
            else:
                rows = {s: objs + [arm_hits[s]] for s, objs in rows.items() if s in arm_hits}
            if not rows:
                break
        metrics.candidates = len(rows)
        if not rows:
            return no_rows
        subjects = np.fromiter(rows.keys(), dtype=np.int64, count=len(rows))
        objects = np.asarray(list(rows.values()), dtype=np.int64)
        return subjects, objects

    def _anchor_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Subject anchors as parallel (id, lon, lat, t) arrays sorted by id."""
        cached = self._anchor_arrays_cache
        if cached is None:
            n = len(self._positions)
            ids = np.fromiter(self._positions.keys(), dtype=np.int64, count=n)
            lons = np.fromiter((a.lon for a in self._positions.values()), dtype=np.float64, count=n)
            lats = np.fromiter((a.lat for a in self._positions.values()), dtype=np.float64, count=n)
            ts = np.fromiter((a.t for a in self._positions.values()), dtype=np.float64, count=n)
            order = np.argsort(ids)
            cached = (ids[order], lons[order], lats[order], ts[order])
            self._anchor_arrays_cache = cached
        return cached

    def _refine_and_project_vectorized(
        self,
        query: StarQuery,
        subjects: np.ndarray,
        objects: np.ndarray,
        metrics: QueryMetrics,
    ) -> list[dict[str, Term]]:
        """Columnar :meth:`_refine_and_project`: one bbox/time mask over the
        survivors' anchor arrays instead of a dict probe per row."""
        st = query.st
        if st is not None and len(subjects):
            metrics.refined += len(subjects)
            ids, lons, lats, ts = self._anchor_arrays()
            if len(ids):
                pos = np.searchsorted(ids, subjects).clip(max=len(ids) - 1)
                keep = ids[pos] == subjects
                lon, lat, t = lons[pos], lats[pos], ts[pos]
                bbox = st.bbox
                keep &= (t >= st.t_min) & (t <= st.t_max)
                keep &= (lon >= bbox.min_lon) & (lon <= bbox.max_lon)
                keep &= (lat >= bbox.min_lat) & (lat <= bbox.max_lat)
            else:
                keep = np.zeros(len(subjects), dtype=bool)
            subjects, objects = subjects[keep], objects[keep]
        elif st is not None:
            metrics.refined += len(subjects)
        bindings: list[dict[str, Term]] = []
        decode = self.dictionary.decode
        subject_name = query.subject.name
        arm_objs = query.arms
        for s_id, objs in zip(subjects.tolist(), objects.tolist()):
            binding: dict[str, Term] = {subject_name: decode(s_id)}
            ok = True
            for (_, obj), o_id in zip(arm_objs, objs):
                if isinstance(obj, Variable):
                    existing = binding.get(obj.name)
                    decoded = decode(o_id)
                    if existing is not None and existing != decoded:
                        ok = False
                        break
                    binding[obj.name] = decoded
            if ok:
                bindings.append(binding)
        return bindings

    def _refine_and_project(
        self,
        query: StarQuery,
        rows: dict[int, list[int]],
        metrics: QueryMetrics,
        pushdown: bool,
    ) -> list[dict[str, Term]]:
        bindings: list[dict[str, Term]] = []
        st = query.st
        for s_id, objs in rows.items():
            if st is not None:
                metrics.refined += 1
                anchor = self._positions.get(s_id)
                if anchor is None or not st.contains(anchor.lon, anchor.lat, anchor.t):
                    continue
            binding: dict[str, Term] = {query.subject.name: self.dictionary.decode(s_id)}
            ok = True
            for (predicate, obj), o_id in zip(query.arms, objs):
                if isinstance(obj, Variable):
                    existing = binding.get(obj.name)
                    decoded = self.dictionary.decode(o_id)
                    if existing is not None and existing != decoded:
                        ok = False
                        break
                    binding[obj.name] = decoded
            if ok:
                bindings.append(binding)
        return bindings

    # -- convenience --------------------------------------------------------------

    def compare_plans(self, query: StarQuery, repeat: int = 3) -> dict[str, float]:
        """Median wall time of both plans plus the speedup ratio."""
        def median_time(pushdown: bool) -> float:
            times = []
            for _ in range(repeat):
                _, metrics = self.execute(query, pushdown=pushdown)
                times.append(metrics.wall_seconds)
            times.sort()
            mid = len(times) // 2
            if len(times) % 2:
                return times[mid]
            # True median: even repeat counts average the two middle runs.
            return (times[mid - 1] + times[mid]) / 2.0

        baseline = median_time(False)
        pushed = median_time(True)
        return {
            "baseline_s": baseline,
            "pushdown_s": pushed,
            "speedup": baseline / pushed if pushed > 0 else float("inf"),
        }
