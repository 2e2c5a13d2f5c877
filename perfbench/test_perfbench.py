"""Self-tests of the benchmark at a tiny scale.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import replay as replay_module
import steal
from repro.core import TOPIC_SYNOPSES
from run import check_replays
from workloads import WORKLOADS, make_workload, training_symbols

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _input_digest(workload) -> str:
    return hashlib.sha256(repr(workload.fixes).encode()).hexdigest()


def _run(workload: str, trace: int, seed: int = 5, hash_seed: str = "0") -> list[str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_prints_with_its_unit(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["traced"] is bool(trace)
    assert provenance["workload"] == workload and provenance["fixes"] > 0
    if trace:
        rows = [json.loads(line)["poll_row"] for line in lines if line.startswith('{"poll_row"')]
        assert [row["poll"] for row in rows] == list(range(provenance["polls"]))


def test_mutating_one_synopsis_record_fails_the_check(monkeypatch):
    workload = make_workload("ais-plain", 5, "tiny")
    polls, tiles, training = workload.polls(), workload.query_tiles(), training_symbols()
    clean = replay_module.replay(workload, polls, tiles, training)
    real_digest = replay_module.topic_digest

    def digest_after_mutation(broker):
        _, records = broker.topic(TOPIC_SYNOPSES).read_records(0, 0)
        records[len(records) // 2].value.detail["weather"]["wave_m"] += 0.5
        return real_digest(broker)

    monkeypatch.setattr(replay_module, "topic_digest", digest_after_mutation)
    mutated = replay_module.replay(workload, polls, tiles, training)
    check_replays(workload, polls, training, [clean, mutated])
    assert clean.failed == 0
    assert mutated.failed > 0 and "topic digest" in mutated.failures[0]


def test_same_seed_reproduces_the_digest_and_another_seed_changes_the_input():
    first = [json.loads(line) for line in _run("ais-plain", 0, hash_seed="1")[-2:]]
    second = [json.loads(line) for line in _run("ais-plain", 0, hash_seed="2")[-2:]]
    assert first[0]["provenance"]["digest"] == second[0]["provenance"]["digest"]
    assert first[1]["correct"] and second[1]["correct"]
    same = make_workload("adsb-kg", 23, "tiny")
    again = make_workload("adsb-kg", 23, "tiny")
    other = make_workload("adsb-kg", 24, "tiny")
    assert _input_digest(same) == _input_digest(again)
    assert _input_digest(same) != _input_digest(other)


def test_stolen_time_comes_out_of_the_walls():
    assert steal.unstolen_share((100, 40), (400, 40)) == 1.0
    assert steal.unstolen_share((100, 40), (400, 340)) == 0.5
    assert steal.unstolen_share((100, 40), (100, 60)) == 1.0  # nothing ran
    busy, stolen = steal.sample()
    assert busy > 0 and stolen >= 0
