"""Tests of the benchmark itself: span arithmetic, patch hygiene and the output contract.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_union_of_children_and_overhead():
    #   0 root [0, 10]            overhead 0.5
    #   1   A [1, 4]
    #   2     A1 [2, 3]
    #   3   B [5, 9]
    #   4     B1 [5, 7]           B1 and B2 overlap: B loses 3, not 4
    #   5     B2 [6, 8]
    t0 = [0, 1, 2, 5, 5, 6]
    t1 = [10, 4, 3, 9, 7, 8]
    parent = [-1, 0, 1, 0, 3, 3]
    got = spans.self_times(t0, t1, parent, overhead=[0.5, 0, 0, 0, 0, 0])
    np.testing.assert_allclose(got, [2.5, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_self_time_clips_children_to_parent():
    got = spans.self_times([0, -1, 3], [4, 1, 6], [-1, 0, 0])
    np.testing.assert_allclose(got, [2.0, 2.0, 3.0])


def test_split_suites_cuts_holder_at_marks_and_reparents_children():
    names = ["pass", "suites.identity_suites", "a", "b", "c"]
    t0 = [0, 0, 1, 4, 7]
    t1 = [12, 10, 2, 5, 8]
    parent = [-1, 0, 1, 1, 1]
    marks = [(6, "second", 1), (3, "first", 1), (9, "third", 1)]
    n2, a2, b2, p2 = spans.split_suites(names, t0, t1, parent, marks)
    assert n2[5:] == ["suites.first", "suites.second", "suites.third"]
    assert list(zip(a2[5:], b2[5:])) == [(0, 3), (3, 6), (6, 9)]
    assert p2[5:] == [1, 1, 1]
    assert p2[2:5] == [5, 6, 7]
    assert parent == [-1, 0, 1, 1, 1]  # inputs untouched
    st = spans.self_times(a2, b2, p2)
    np.testing.assert_allclose(st[1], 1.0)  # holder keeps only the tail after the last suite
    np.testing.assert_allclose(st[5:], [2.0, 2.0, 2.0])


def _bindings():
    """Every module global of the library, every traced class attribute and numpy.linalg."""
    import numpy.linalg as la

    mods = spans._library_modules()
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    from phwc_lab.geometry import ChartManifold
    from phwc_lab.maps import SmoothMap
    from phwc_lab.stability import VariationField

    for cls in (ChartManifold, SmoothMap, VariationField):
        snap.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    snap.update({("numpy.linalg", k): getattr(la, k)
                 for k in ("svd", "inv", "solve", "det", "eigvalsh", "eigh")})
    return snap


def test_traced_run_restores_every_binding():
    from phwc_lab import autodiff, geometry, report, stability

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # consumer copies are patched, not only the definition
        assert geometry.field_partials is not before[("phwc_lab.autodiff", "field_partials")]
        assert stability.field_partials is geometry.field_partials
        body = report.run_checks(report.RunConfig("flat-holo", checks=("tension", "energy")))
    finally:
        tracer.remove()
    assert body["all_verdicts_match"]
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert tracer.stats["autodiff.tensor_second"][0] > 0
    calls = {k: v[0] for k, v in tracer.stats.items()}
    autodiff.tensor_value(lambda c: [c[0]], np.zeros((3, 1)))
    report.run_checks(report.RunConfig("flat-holo", checks=("tension",)))
    assert {k: v[0] for k, v in tracer.stats.items()} == calls  # a later untraced run is clean


def test_times_are_scaled_by_the_kernel_timed_in_the_same_process():
    def record(wall, kernel):
        return {"wall_s": wall, "setup_s": [wall / 10], "checks": [{"check": "energy", "s": wall / 2}],
                "identities": [{"s": wall / 4, "suites": 1}], "peak_rss_mb": 50.0,
                "failures": [], "kernel_s": [0.5 * kernel, kernel, 1.5 * kernel]}

    ref = speed.REFERENCE_S
    # the same pass on a machine at full speed, then slowed 2x and 3x
    passes = [record(10.0, ref), record(20.0, 2 * ref), record(30.0, 3 * ref)]
    scaled = run.pass_metrics(workloads.SMOKE, passes, [])
    raw = run.pass_metrics(workloads.SMOKE, passes, [], scaled=False)
    assert scaled["wall_s"]["samples"] == pytest.approx([10.0, 10.0, 10.0])
    assert scaled["check.energy_s"]["value"] == pytest.approx(5.0)
    assert scaled["identities_s"]["value"] == pytest.approx(2.5)
    assert raw["wall_s"]["samples"] == [10.0, 20.0, 30.0]
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]


def _bench(tmp_cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _last(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_smoke_untraced_emits_every_end_to_end_metric_with_unit():
    full, last = _last(_bench(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1",
                              "--trace", "0"))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END
    named = {f"check.{c}_s": "s" for c in workloads.SMOKE.named_checks}
    expected = {**run.END_TO_END, **named, "identities_s": "s", "failed_ratio": "ratio"}
    assert {k: v["unit"] for k, v in full["metrics"].items()} == expected
    assert full["metrics"]["failed_ratio"]["value"] == 0.0
    assert {k: v["unit"] for k, v in full["unscaled_metrics"].items()} == expected
    assert full["reference_kernel_s"] == speed.REFERENCE_S and full["kernel_s"]["value"] > 0
    assert all(full["body_sha256"].values())
    env = full["environment"]
    assert env["seed"] == 3 and env["numpy"] and env["thread_pins"]
    assert full["scenarios"][0]["id"] == "flat-holo" and full["scenarios"][0]["nodes"] > 0


def test_smoke_traced_emits_every_layer_metric_and_counts_repeat():
    runs = [_last(_bench(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1",
                         "--trace", "1"))[1] for _ in range(2)]
    units = spans.metric_units()
    for last in runs:
        assert last["correct"]
        assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    counts = [k for k, u in units.items() if u in ("count", "rows", "matrices", "bytes_computed", "ratio")]
    first, second = ({k: r["metrics"][k]["value"] for k in counts} for r in runs)
    assert first == second
    assert first["autodiff.tensor_value.calls"] > 0


def test_benchmark_json_matches_what_the_benchmark_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert len(spec["per_layer"]) <= 128


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(tmp_path, "--workload", "killing-s5", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(workloads.ALL))
def test_workloads_name_catalog_scenarios_and_checks(name):
    from phwc_lab import scenarios

    w = workloads.get(name)
    assert set(w.scenarios) <= set(scenarios.scenario_ids())
    assert set(w.named_checks) <= set(w.checks)
