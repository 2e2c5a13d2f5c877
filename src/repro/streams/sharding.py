"""Shard routing and merge primitives for entity-partitioned execution.

The sharded Figure-2 deployment (:mod:`repro.core.sharded`) partitions a
stream *by key* across ``n_shards`` replicas with partition-local state
and merges their outputs back into one deterministic stream. This module
holds the three primitives it is built from:

* **routing** — :func:`shard_index` assigns a key to
  ``fnv1a(key) % n_shards``, the same deterministic hash topics use for
  partitions. All records of one key land on one shard, so every keyed
  operator sees exactly the per-key subsequence it would see unsharded.
* **merge** — :func:`merge_shard_outputs` orders per-shard outputs by
  ``(t, key)`` with each shard's per-key order preserved (stable sort),
  which reproduces the single-shard emission order; ``n_shards=1`` is
  therefore the equivalence oracle for every ``n_shards=N`` run.
* **balance** — :func:`critical_path_speedup` rates how evenly the
  routing spread the work.
"""

from __future__ import annotations

from typing import Sequence

from .broker import _stable_hash
from .record import Record


def critical_path_speedup(walls: Sequence[float]) -> float:
    """Aggregate shard compute over the slowest shard.

    The speedup an N-core schedule of these shard walls achieves —
    runner-independent: it measures routing balance, not machine
    parallelism. ``0.0`` when no shard reported a positive wall.
    """
    slowest = max(walls, default=0.0)
    if slowest <= 0.0:
        return 0.0
    return sum(walls) / slowest


def shard_index(key: str, n_shards: int) -> int:
    """Deterministic shard assignment of a key (FNV-1a, like partitions)."""
    return _stable_hash(key) % n_shards


def merge_shard_outputs(per_shard: Sequence[list[Record]]) -> list[Record]:
    """Merge per-shard output lists into one ``(t, key)``-ordered stream.

    The sort is stable, and all records of one key come from one shard in
    that shard's emission order — so per-key subsequences are preserved
    exactly, and same-``(t, key)`` runs keep their shard-local order. For
    keyed streams this reproduces the single-shard window emission order
    (windows fire sorted by ``(start, key)``).
    """
    merged = [record for outputs in per_shard for record in outputs]
    merged.sort(key=lambda r: (r.t, r.key or ""))
    return merged
