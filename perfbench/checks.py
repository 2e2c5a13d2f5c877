"""Output checks: topic digests, conservation invariants, query containment.

A replay passes when its five Figure-2 topics hash to the expected digest
(the recorded one for a workload's default seed, the in-process oracle's
on ais-pooled, and otherwise the run's first replay), its counters
conserve fixes from input to KG store, and every query row lies inside
the space-time range it was asked for.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import marshal
from operator import attrgetter
from pathlib import Path
from typing import Any

from repro.core import TOPIC_CLEAN, TOPIC_EVENTS, TOPIC_LINKS, TOPIC_RAW, TOPIC_SYNOPSES
from repro.geo import PositionFix
from repro.geo.wkt import parse_point
from repro.kgstore import STConstraint
from repro.rdf import VOC

TOPICS = (TOPIC_RAW, TOPIC_CLEAN, TOPIC_SYNOPSES, TOPIC_LINKS, TOPIC_EVENTS)

DIGESTS_FILE = Path(__file__).with_name("digests.json")

#: A fix's fields as a plain tuple: the raw and clean topics hold one fix per
#: input report, so fixes take this fast path.
_fix_fields = attrgetter(*(f.name for f in dataclasses.fields(PositionFix)))

_PLAIN = (str, int, float, bool, type(None))


def _content(value: Any) -> Any:
    """A value's full content as nested plain tuples. Field by field, not
    ``repr``: ``CriticalPoint.__repr__`` leaves out the fix and the
    enrichment ``detail``."""
    if type(value) is PositionFix:
        return _fix_fields(value)
    if isinstance(value, _PLAIN):
        return value
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _content(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple(sorted((str(k), _content(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_content(v) for v in value)
    return repr(value)


def topic_digest(broker: Any) -> str:
    """Digest of every record (time, key, value) of the five topics, in
    partition-log order, weather enrichment included. Marshal format 2
    writes floats in binary and shares no references, so equal content
    gives equal bytes."""
    h = hashlib.sha256()
    gc.disable()  # hundreds of thousands of short-lived tuples, no cycles
    try:
        for name in TOPICS:
            topic = broker.topic(name)
            for partition in range(topic.partitions):
                _, records = topic.read_records(partition, 0)
                h.update(f"{name}/{partition}/{len(records)}\n".encode())
                h.update(marshal.dumps([(r.t, r.key, _content(r.value)) for r in records], 2))
    finally:
        gc.enable()
    return h.hexdigest()


def invariants(report: Any, batch_report: Any, generated: int) -> list[str]:
    """Conservation from input to store; each violation as a message."""
    failures = []
    if report.raw_fixes != generated:
        failures.append(f"raw fixes {report.raw_fixes} != generated {generated}")
    if report.clean_fixes + report.quality.dropped != report.raw_fixes:
        failures.append(
            f"clean {report.clean_fixes} + dropped {report.quality.dropped} "
            f"!= raw {report.raw_fixes}"
        )
    if batch_report.synopsis_points != report.critical_points:
        failures.append(
            f"batch synopsis points {batch_report.synopsis_points} "
            f"!= critical points {report.critical_points}"
        )
    return failures


def row_in_range(graph: Any, row: dict, st: STConstraint) -> bool:
    """Whether a ``nodes_in_range`` row's node lies inside ``st``."""
    t = float(row["t"].value)
    for triple in graph.match(row["node"], VOC.asWKT, None):
        point = parse_point(triple.o.value)
        if st.contains(point.lon, point.lat, t):
            return True
    return False


def recorded_digest(workload: str, seed: int, scale: str) -> str | None:
    """The digest recorded for this workload at this seed and scale, if any."""
    entry = json.loads(DIGESTS_FILE.read_text()).get(workload)
    if entry and entry["seed"] == seed and entry["scale"] == scale:
        return entry["digest"]
    return None
