"""Tests of the benchmark itself: outcome checks, span arithmetic, counters
that repeat exactly, and refusal to run without the library sources.

    python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import api, run, tracing, worker, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTERS = ("quadform.points", "codes.messages", "ghw.subspaces", "descent.subspaces")


def _report_from_pin(pin: dict) -> dict:
    """The parts of a ``preset --format json`` report the checker reads."""
    report = {
        "wd": {"brute": pin["wd"]},
        "cwe": {"brute": pin["cwe"]},
        "ghw": {"resolved": pin["hierarchy"]},
    }
    if "descend" in pin:
        want = pin["descend"]
        report["descend"] = (
            {"error": "N = 2 is not coprime"}
            if want is None
            else {
                "descended_params": want["descended_params"],
                "wd_brute": want["wd"],
                "hierarchy": [{"brute": d, "closed": d} for d in want["hierarchy"]],
            }
        )
    return report


def test_every_preset_is_pinned():
    assert sorted(workloads.PINS) == api.preset_names()


@pytest.mark.parametrize("name", sorted(workloads.PINS))
def test_pinned_report_passes_and_each_wrong_number_fails(name):
    pin = workloads.PINS[name]
    report = _report_from_pin(pin)
    assert workloads.check_preset(name, pin["exit"], report) == []
    assert workloads.check_preset(name, pin["exit"] + 1, report) != []

    wrong = copy.deepcopy(report)
    wrong["ghw"]["resolved"][-1] += 1
    assert workloads.check_preset(name, pin["exit"], wrong) != []

    wrong = copy.deepcopy(report)
    wrong["cwe"]["brute"][0][1] += 1
    assert workloads.check_preset(name, pin["exit"], wrong) != []

    if pin.get("descend"):
        wrong = copy.deepcopy(report)
        wrong["descend"]["hierarchy"][0]["brute"] += 1
        assert workloads.check_preset(name, pin["exit"], wrong) != []


def test_verify_check_needs_every_suite_true():
    ok = {"lemma_basic": True, "lemma_gauss": True, "counts": True}
    assert workloads.check_verify(0, {"verify": ok}) == []
    assert workloads.check_verify(2, {"verify": ok}) != []
    assert workloads.check_verify(0, {"verify": {**ok, "counts": False}}) != []
    assert workloads.check_verify(0, {"verify": {"counts": True}}) != []


def test_unexpected_exception_is_a_failure_of_its_job():
    job = workloads.Job("x", lambda: 1 // 0)
    assert worker._run(job) == ["unexpected ZeroDivisionError: integer division or modulo by zero"]


def test_self_times_and_uncovered_add_up_to_wall():
    # job [0, 10] > ghw.brute [1, 6] > fields.build [2, 3]; codes.brute [7, 9]
    spans = [
        ("job", 0.0, 10.0, -1, "j", 0),
        ("ghw.brute", 1.0, 6.0, 0, "j", 0),
        ("fields.build", 2.0, 3.0, 1, "j", 2048),
        ("codes.brute", 7.0, 9.0, 0, "j", 0),
    ]
    assert tracing.self_times(spans) == [3.0, 4.0, 1.0, 2.0]
    m = tracing.layer_metrics(spans, {}, wall_s=10.5)
    assert (m["ghw.brute_s"], m["fields.build_s"], m["codes.brute_s"]) == (4.0, 1.0, 2.0)
    assert m["fields.build_calls"] == 1 and m["fields.rss_growth_mb"] == 2.0
    assert m["trace.uncovered_s"] == pytest.approx(3.5)
    layers = sum(m[key] for key in tracing.LAYER_TIME.values())
    assert layers + m["trace.uncovered_s"] == pytest.approx(m["trace.wall_s"])


@pytest.fixture(scope="module")
def traced_passes():
    """Two cold traced passes per workload: presets twice, the seeded
    workloads on two different seeds."""
    return {
        w["name"]: [run.run_pass(w["name"], seed, 1) for seed in (11, 12)]
        for w in BENCHMARK["workloads"]
    }


def test_traced_passes_are_correct_and_report_every_layer_metric(traced_passes):
    names = {m["name"] for m in BENCHMARK["per_layer"]} - {"trace.overhead_s"}
    for passes in traced_passes.values():
        for p in passes:
            assert p["failures"] == [] and p["failed_jobs"] == 0
            assert set(p["layers"]) == names
            m = p["layers"]
            layers = sum(m[key] for key in tracing.LAYER_TIME.values())
            assert m["trace.uncovered_s"] >= 0
            assert layers + m["trace.uncovered_s"] == pytest.approx(m["trace.wall_s"])


def test_work_counters_repeat_exactly_across_seeds(traced_passes):
    for passes in traced_passes.values():
        first, second = ({k: p["layers"][k] for k in COUNTERS} for p in passes)
        assert first == second
    wd = traced_passes["exhaustive-wd"][0]["layers"]
    assert wd["codes.messages"] == 19683 + 15625 + 16807 + 3125
    towers = traced_passes["towers"][0]["layers"]
    assert towers["quadform.points"] == 3**7 + 5**5 + 7**4 + 3**8
    assert towers["ghw.subspaces"] == 0
    presets = traced_passes["presets"][0]["layers"]
    # [4 choose r]_7 over r = 1..4 for descent-7-2-1-1-3
    assert presets["descent.subspaces"] == 400 + 2850 + 400 + 1


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
