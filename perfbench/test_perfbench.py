"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import harness

harness.import_library()

import run  # noqa: E402
import workloads  # noqa: E402
from phylocircuit import metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and send result files to a temporary directory."""
    monkeypatch.setattr(harness, "RESULTS", tmp_path)
    monkeypatch.setattr(workloads.Roundtrip, "classes", ((6, True), (7, False)))
    monkeypatch.setattr(
        workloads.DistLarge, "classes",
        ((10, False, 1), (10, False, 2), (7, True, 1), (7, True, 2)),
    )
    monkeypatch.setattr(
        workloads.OrderSearch, "classes",
        (("resistance", 6), ("level-2", 7), ("min-path", 10), ("sw", 10)),
    )
    monkeypatch.setattr(workloads.Enumerate, "level1_n", 5)
    monkeypatch.setattr(workloads.Enumerate, "level2_n", 4)
    monkeypatch.setattr(workloads.Enumerate, "level2_total", 6)
    monkeypatch.setattr(workloads.Enumerate, "level2_census", 1)
    monkeypatch.setattr(workloads.Enumerate, "level2_rows", [6])
    monkeypatch.setattr(workloads.Enumerate, "face_n", 5)
    return tmp_path


def _printed(out: str) -> dict[str, str]:
    """name -> unit for every 'name value unit' line of a report."""
    found = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3:
            try:
                float(parts[1])
            except ValueError:
                continue
            found[parts[0]] = parts[2]
    return found


def test_spec_matches_the_metrics_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == harness.per_layer_units()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, tiny, capsys):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_one(name, seed=3, seconds=0, trace=trace)
        printed = _printed(capsys.readouterr().out)
        for metric in SPEC[section]:
            assert printed.get(metric["name"]) == metric["unit"], metric["name"]
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["correct"] is True
        assert result["attempted"] >= 1


def test_same_seed_gives_same_inputs(tiny):
    for cls in workloads.WORKLOADS.values():
        texts = [cls(5).case(i).payload.get("text") for i in range(4)]
        assert texts == [cls(5).case(i).payload.get("text") for i in range(4)]
    one = [workloads.Roundtrip(1).case(i).payload["text"] for i in range(4)]
    assert one != [workloads.Roundtrip(2).case(i).payload["text"] for i in range(4)]


def test_planted_wrong_distance_counts_in_fail_ratio(tiny, monkeypatch):
    original = metrics.resistance_vector

    def perturbed(net):
        d = original(net)
        return metrics.DistanceVector(d.n, (d.values[0] + Fraction(1, 7),) + d.values[1:])

    monkeypatch.setattr(metrics, "resistance_vector", perturbed)
    wl = workloads.Roundtrip(1)
    records = [harness.run_op(wl, wl.case(i), i, harness.OP_LIMIT_S) for i in (0, 2)]
    assert all(r.status in ("wrong", "miss") for r in records), records
    m = harness.Measurement(records=records)
    metrics_, facts = harness.end_to_end(m, setup_s=1.0)
    assert facts["fail_ratio"] == 1.0
    assert metrics_["ok_ratio"] == 0.0


def test_planted_wrong_order_is_a_wrong_answer(tiny, monkeypatch):
    def bad_search(d, mode="exact", tol=None):
        order = metrics.CircularOrder(tuple(range(1, d.n + 1)))
        return metrics.OrderSearchResult(order, order, Fraction(0), 1)

    monkeypatch.setattr(metrics, "find_kalmanson_order", bad_search)
    wl = workloads.OrderSearch(2)
    statuses = {harness.run_op(wl, wl.case(i), i, harness.OP_LIMIT_S).status for i in range(6)}
    assert "wrong" in statuses


def test_timeout_counts_as_failed_op_and_layer_fail(tiny, monkeypatch):
    monkeypatch.setattr(workloads.OrderSearch, "classes", (("level-2", 8),))
    wl = workloads.OrderSearch(4)
    modules = {k: v for k, v in sys.modules.items() if k.startswith("phylocircuit")}
    tracer = harness.Tracer(modules)
    record = harness.run_op(wl, wl.case(0), 0, 0.02, tracer)
    assert record.status == "timeout"
    assert tracer.layer_table()["metrics.find_kalmanson_order"]["fail"] == 1
    # the library is restored after a traced op
    assert metrics.find_kalmanson_order.__module__ == "phylocircuit.metrics"
    assert not hasattr(metrics.find_kalmanson_order, "__wrapped__")


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    assert harness.tail(values) == (89.0, 90.0, 100)
    assert sum(v > 89.0 for v in values) == harness.TAIL_BEYOND
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_layer_self_time_excludes_children():
    tracer = harness.Tracer({k: v for k, v in sys.modules.items() if k.startswith("phylocircuit")})
    tracer.spans = [
        ["op", 0.0, 10.0, None, 0],
        ["reconstruct.invert", 1.0, 5.0, 0, 0],
        ["reconstruct.direct_weights", 2.0, 3.5, 1, 0],
    ]
    table = tracer.layer_table()
    assert table["reconstruct.invert"]["busy_s"] == pytest.approx(2.5)
    assert table["reconstruct.direct_weights"]["busy_s"] == pytest.approx(1.5)
    assert table["reconstruct.invert"]["calls"] == 1


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
