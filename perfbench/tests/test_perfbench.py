"""Desk-scale self-test of the benchmark: KRvK and KPvK on a 4x4 board.

    python3 -m pytest perfbench/tests -q

It runs the same code paths as the full workloads, traced and untraced,
in a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

DESK = (
    run.Workload("desk-krk4", "loaded-table commands at desk scale",
                 "4x4", "KRvK", True, 20, 3, 200),
    run.Workload("desk-kpk4", "closure solve and hidden subclass solves at desk scale",
                 "4x4", "KPvK", False, 0, 3, 200),
)
SEED = 5


def declared(kind) -> dict:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.fixture(scope="module")
def records():
    return {(w.name, trace): run.run(w, SEED, 0, trace, {}) for w in DESK for trace in (0, 1)}


def test_declared_metrics_are_the_emitted_ones():
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == dict(run.PER_LAYER)


def test_every_metric_is_emitted_with_a_unit(records):
    for (name, trace), record in records.items():
        assert record["correct"], (name, trace, record["problems"])
        line = json.loads(run.result_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        emitted = {metric: value["unit"] for metric, value in line["metrics"].items()}
        assert emitted == declared("per_layer" if trace else "end_to_end")
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
        assert [metric for metric, _ in run.NAMED] == list(record["named"])
        assert record["named"]["failed_ratio"]["median"] == 0


def test_trace_shows_where_each_workload_works(records):
    loaded = records[("desk-krk4", 1)]["metrics"]
    pawn = records[("desk-kpk4", 1)]["metrics"]
    assert loaded["tablebase.solve.calls"]["value"] == 0
    assert loaded["tablebase.ondemand_solves"]["value"] == 0
    assert loaded["playout.plies"]["value"] > 0
    assert pawn["tablebase.ondemand_solves"]["value"] > 0
    assert pawn["board.legal_transitions.calls"]["value"] > 0
    for record in (records[("desk-krk4", 1)], records[("desk-kpk4", 1)]):
        assert all(row["consistent"] for row in record["accounting"])


def test_pinned_digests_gate_the_outputs(records):
    workload = DESK[0]
    digests = records[(workload.name, 0)]["digests"]
    right = {"outputs": {workload.name: {str(SEED): digests}}}
    assert run.run(workload, SEED, 0, 0, right)["correct"]

    wrong = {"outputs": {workload.name: {str(SEED): {**digests, "report.json": "0" * 64}}}}
    record = run.run(workload, SEED, 0, 0, wrong)
    assert not record["correct"]
    assert record["failed"] > 0
    assert record["named"]["failed_ratio"]["median"] > 0


def test_wrong_table_pin_fails():
    wrong = {"tables": {"KPvK-4x4": {"crc32": "00000000", "legal": 0, "invalid": 0,
                                     "max_dtm": 0}}}
    record = run.run(DESK[1], SEED, 0, 0, wrong)
    assert not record["correct"]
    assert record["named"]["failed_ratio"]["median"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-krk8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
