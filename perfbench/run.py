"""End-to-end Figure-2 benchmark: fixes/s, fix latency, batch and query cost.

Run from the repository root::

    python3 perfbench/run.py --workload ais-pooled --seed 5 --seconds 30 --trace 0

The workload (ais-pooled, adsb-kg, or ais-plain; see NOTES.md) is generated
from ``--seed`` and replayed, as a closed loop with one caller, through a
freshly built system again and again until ``--seconds`` have passed.
Every replay's outputs are checked. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (medians over the
replays); with ``--trace 1`` one untraced and one traced replay give the
per-layer breakdown, a row per poll, and the spans are written to
``perfbench/out/``. The lines before it carry provenance and detail.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Extra set-up samples per run, so ``setup_s`` is a median of several.
SETUP_SAMPLES = 10
#: Replays per untraced run at least, so every median has three samples.
MIN_REPLAYS = 3


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_sha() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload, traced: bool, **extra) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "traced": traced,
        **workload.provenance(),
        **extra,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _quantile(samples, q: float) -> float:
    return float(np.quantile(np.asarray(samples, dtype=float), q))


def check_replays(workload, polls, training, results) -> None:
    """Every replay's topics must hash to each reference digest: the one
    recorded for the default seed, the in-process oracle's on ais-pooled,
    and the first replay's (same input, same output)."""
    from checks import recorded_digest
    from replay import oracle

    first = next((r.digest for r in results if r.digest), "")
    references = [("first replay", first)]
    recorded = recorded_digest(workload.name, workload.seed, workload.scale)
    if recorded is not None:
        references.append(("recorded", recorded))
    oracle_report = None
    if workload.pooled:
        oracle_report, digest = oracle(workload, polls, training)
        references.append(("in-process oracle", digest))
    ops = 2 * len(polls)
    for i, res in enumerate(results):
        if not res.digest:
            continue  # the replay raised; already counted as failed
        for source, digest in references:
            if res.digest != digest:
                res.fail(ops, f"replay {i}: topic digest {res.digest[:12]} != {source} {digest[:12]}")
        if oracle_report is not None and res.report != oracle_report:
            res.fail(ops, f"replay {i}: report differs from the in-process oracle")


def run_untraced(workload, polls, tiles, training, seconds: float):
    from replay import replay, setup_only

    start = perf_counter()
    setups = [setup_only(workload, training) for _ in range(SETUP_SAMPLES)]
    results = []
    while True:
        results.append(replay(workload, polls, tiles, training))
        # Whole replays only: stop unless one more is expected to end in time.
        elapsed = perf_counter() - start
        if len(results) >= MIN_REPLAYS and elapsed * (1 + 1 / len(results)) > seconds:
            break
    parent_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_peak_kb = max(r.children_peak_kb for r in results)
    check_replays(workload, polls, training, results)

    # Timings come from the replays that ran every poll. Every replay does
    # the same work, so each poll, fix and query is timed as its median
    # over the replays: that sheds short bursts of noise from other tenants.
    timed = [r for r in results if len(r.unstolen) == len(polls)] or results[:1]
    n_polls = min(len(r.unstolen) for r in timed)
    wall = sum(statistics.median(r.realtime_s[k] + r.batch_s[k] for r in timed) for k in range(n_polls))
    batch = sum(statistics.median(r.batch_s[k] for r in timed) for k in range(n_polls))
    latency = np.concatenate(
        [np.median([r.latency_s[k] for r in timed], axis=0) for k in range(n_polls)] or [np.zeros(1)]
    )
    n_queries = n_polls * len(tiles)
    queries = np.median([r.query_s[:n_queries] for r in timed], axis=0) if n_queries else np.zeros(1)
    setups += [r.setup_s for r in results]
    metrics = {
        "fixes_per_s": _metric(sum(len(p) for p in polls[:n_polls]) / wall if wall else 0.0, "1/s"),
        "fix_latency_p50_ms": _metric(_quantile(latency, 0.50) * 1e3, "ms"),
        "fix_latency_p99_ms": _metric(_quantile(latency, 0.99) * 1e3, "ms"),
        "batch_ingest_s": _metric(batch, "s"),
        "query_p50_ms": _metric(_quantile(queries, 0.50) * 1e3, "ms"),
        "query_p90_ms": _metric(_quantile(queries, 0.90) * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric((parent_peak_kb + children_peak_kb) / 1024.0, "MB"),
    }
    detail = {
        "replays": len(results),
        "latency_samples": int(latency.size),
        "query_samples": int(queries.size),
        "setup_samples": len(setups),
        "replay_walls_s": [r.wall_s for r in results],
        "raw_replay_walls_s": [r.raw_wall_s for r in results],
        "measured_s": perf_counter() - start,
        "digest": results[0].digest,
    }
    return results, metrics, detail


def run_traced(workload, polls, tiles, training):
    from replay import replay
    from spans import SpanRecorder

    base = replay(workload, polls, tiles, training)
    rec = SpanRecorder()
    traced = replay(workload, polls, tiles, training, rec=rec)
    results = [base, traced]
    check_replays(workload, polls, training, results)

    a = rec.arrays()
    times = rec.layer_times(a)
    tot = rec.totals()

    def busy(name: str) -> float:
        return times.get(name, {}).get("busy_s", 0.0)

    def calls(name: str) -> int:
        return times.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0)

    run_dur = busy("core.realtime") + busy("core.sharded")
    run_self = self_s("core.realtime") + self_s("core.sharded")
    fixes_out = tot["insitu.clean.fixes_out"]
    points_out = tot["synopses.points_out"]
    recv_wait = busy("streams.workers.receive")
    compute = tot["streams.workers.compute_s"]
    values = {
        "insitu.clean.busy_s": (busy("insitu.clean"), "s"),
        "insitu.clean.fixes_in": (tot["insitu.clean.fixes_in"], "count"),
        "insitu.clean.fixes_out": (fixes_out, "count"),
        "insitu.area_events.busy_s": (busy("insitu.area_events"), "s"),
        "insitu.area_events.calls": (calls("insitu.area_events"), "count"),
        "synopses.process.busy_s": (busy("synopses.process"), "s"),
        "synopses.process.calls": (calls("synopses.process"), "count"),
        "synopses.points_out": (points_out, "count"),
        "synopses.flush_points": (tot["synopses.flush_points"], "count"),
        "synopses.compression": (1.0 - points_out / fixes_out if fixes_out else 0.0, "ratio"),
        "obs.observe.calls": (calls("obs.observe"), "count"),
        "obs.observe.busy_s": (busy("obs.observe"), "s"),
        "obs.health.busy_s": (busy("obs.health"), "s"),
        "core.realtime.self_s": (self_s("core.realtime"), "s"),
        "linkdiscovery.region.busy_s": (busy("linkdiscovery.region"), "s"),
        "linkdiscovery.port.busy_s": (busy("linkdiscovery.port"), "s"),
        "linkdiscovery.proximity.busy_s": (busy("linkdiscovery.proximity"), "s"),
        "linkdiscovery.calls": (tot["linkdiscovery.calls"], "count"),
        "linkdiscovery.links": (tot["linkdiscovery.links"], "count"),
        "weather.sample.busy_s": (busy("weather.sample"), "s"),
        "cep.run.busy_s": (busy("cep.run"), "s"),
        "cep.events_in": (tot["cep.events_in"], "count"),
        "va.dashboard.busy_s": (busy("va.dashboard"), "s"),
        "rdf.rdfize.busy_s": (busy("rdf.rdfize"), "s"),
        "rdf.triples_out": (tot["rdf.triples_out"], "count"),
        "kgstore.load.busy_s": (busy("kgstore.load"), "s"),
        "kgstore.load.triples": (tot["kgstore.load.triples"], "count"),
        "kgstore.load.reload_ratio": (
            tot["kgstore.load.triples"] / traced.graph_triples if traced.graph_triples else 0.0,
            "ratio",
        ),
        "core.batch.self_s": (self_s("core.batch"), "s"),
        "kgstore.query.busy_s": (busy("kgstore.query"), "s"),
        "kgstore.query.rows": (tot["kgstore.query.rows"], "count"),
        "streams.workers.send_s": (busy("streams.workers.send"), "s"),
        "streams.workers.recv_wait_s": (recv_wait, "s"),
        "streams.workers.compute_s": (compute, "s"),
        "streams.workers.ipc_s": (recv_wait - compute, "s"),
        "streams.workers.bytes_out": (tot["streams.workers.bytes_out"], "B"),
        "streams.workers.bytes_in": (tot["streams.workers.bytes_in"], "B"),
        "streams.workers.balance": (traced.balance, "ratio"),
        "streams.merge.busy_s": (busy("streams.merge"), "s"),
        "core.sharded.self_s": (self_s("core.sharded"), "s"),
        "streams.publish.busy_s": (busy("streams.publish"), "s"),
        "streams.publish.records": (tot["streams.publish.records"], "count"),
        "streams.poll.busy_s": (busy("streams.poll"), "s"),
        "core.attributed_share": ((run_dur - run_self) / run_dur if run_dur else 0.0, "ratio"),
        "trace.overhead_share": (traced.wall_s / base.wall_s - 1.0, "ratio"),
    }
    metrics = {name: _metric(v, unit) for name, (v, unit) in values.items()}

    rows = []
    for k, poll in enumerate(polls):
        t = rec.layer_times(a, poll=k)
        row = {
            "poll": k,
            "fixes": len(poll),
            "realtime_s": t["core.realtime" if not workload.pooled else "core.sharded"]["busy_s"],
            "batch_s": t["core.batch"]["busy_s"],
            "rdfize_s": t["rdf.rdfize"]["busy_s"],
            "kg_load_s": t["kgstore.load"]["busy_s"],
            "kg_load_triples": rec.counts.get((k, "kgstore.load.triples"), 0.0),
            "query_s": t["kgstore.query"]["busy_s"],
            "publish_s": t["streams.publish"]["busy_s"],
        }
        if workload.pooled:
            row["recv_wait_s"] = t["streams.workers.receive"]["busy_s"]
            row["compute_s"] = rec.counts.get((k, "streams.workers.compute_s"), 0.0)
            row["merge_s"] = t["streams.merge"]["busy_s"]
        rows.append(row)
    rec.write(HERE / "out" / f"{workload.name}.trace.npz", rows)
    detail = {
        "spans": len(rec.start),
        "untraced_wall_s": base.wall_s,
        "traced_wall_s": traced.wall_s,
        "raw_replay_walls_s": [base.raw_wall_s, traced.raw_wall_s],
        "digest": base.digest,
    }
    return results, metrics, detail, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ais-pooled", "adsb-kg", "ais-plain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="stream size; tiny is for the self-tests")
    args = parser.parse_args(argv)
    _import_program()

    from workloads import make_workload, training_symbols

    workload = make_workload(args.workload, args.seed, args.scale)
    polls = workload.polls()
    tiles = workload.query_tiles()
    training = training_symbols()
    # The inputs live for the whole run; keep them out of every collection
    # the system triggers, so replays pay only for the system's own objects.
    gc.collect()
    gc.freeze()
    if args.trace:
        results, metrics, detail, rows = run_traced(workload, polls, tiles, training)
        for row in rows:
            print(json.dumps({"poll_row": row}))
    else:
        results, metrics, detail = run_untraced(workload, polls, tiles, training, args.seconds)
    for res in results:
        for message in res.failures:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"provenance": provenance(workload, bool(args.trace), seconds=args.seconds,
                                               failed_frac=failed / attempted, **detail)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
