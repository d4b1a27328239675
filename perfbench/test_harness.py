"""Tests of the benchmark harness, on the small twins of the workloads.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layertrace import LAYERS, METRICS, Tracer  # noqa: E402
from workloads import SMALL_WORKLOADS, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _pass(workload: str, mode: str, seed: int = 7) -> dict:
    env, _ = run.child_env(seed)
    return run.run_pass(workload, seed, mode, env, time.monotonic() + 120)


def _counts(traced: dict) -> dict:
    return {k: m["value"] for k, m in traced["trace"]["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
def test_trace_repeats_counts_and_keeps_verdicts(name):
    workload = SMALL_WORKLOADS[name]
    plain = _pass(name, "sweep")
    first = _pass(name, "trace")
    second = _pass(name, "trace")
    assert run.judge(workload, plain) == (workload.items, 0)
    for traced in (first, second):
        assert traced["items"] == workload.items
        assert traced["digest"] == plain["digest"] == workload.digest
    assert _counts(first) == _counts(second)
    calls = {k: f["calls"] for k, f in first["trace"]["functions"].items()}
    assert calls == {k: f["calls"] for k, f in second["trace"]["functions"].items()}


def test_judge_fails_every_item_on_a_mismatch():
    workload = SMALL_WORKLOADS["kl-B2"]
    good = {"items": workload.items, "digest": workload.digest, "raised": [], "not_ok": 0}
    assert run.judge(workload, good) == (64, 0)
    assert run.judge(workload, {**good, "digest": "0" * 64}) == (64, 64)
    assert run.judge(workload, {**good, "not_ok": 1}) == (64, 64)
    assert run.judge(workload, {**good, "raised": ["thm-8.2 None: IntegrityError"]}) == (64, 64)
    assert run.judge(workload, {**good, "items": 65}) == (65, 65)


def test_wrappers_are_installed_everywhere_and_restored():
    sys.path.insert(0, str(HERE.parent / "src"))
    import coxbraid
    from coxbraid import garside, verify

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "coxbraid" or n.startswith("coxbraid.")]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    targets = tracer.targets()
    with tracer:
        for owner, attr, _key, _layer, raw in targets:
            assert vars(owner)[attr] is not raw, (owner, attr)
        assert verify.braid_equal is garside.braid_equal is coxbraid.braid_equal
        assert verify.braid_equal.__wrapped__ is before[modules.index(garside)]["braid_equal"]
        assert verify.run_check("thm-8.2", "B", 2).passed
        assert verify.run_check("thm-5.13", "A", 3).passed
    for owner, attr, _key, _layer, raw in targets:
        assert vars(owner)[attr] is raw, (owner, attr)
    for mod, names in zip(modules, before):
        assert all(vars(mod)[k] is v for k, v in names.items()), mod.__name__
    summary = tracer.summary()
    assert summary["functions"]["verify:run_check"]["calls"] == 2
    assert summary["metrics"]["hecke.expand.calls"]["value"] == 64
    assert all(v > 0 for v in summary["wrapper_cost_ns"].values())
    assert 0 < summary["tracer_cost_s"] < sum(t.self_s for t in tracer.stats.values())
    assert {t[3] for t in targets} == set(LAYERS)


def _result(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_result_lines_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    plain = _result(["--workload", "pairs-A2", "--seed", "3", "--seconds", "1", "--trace", "0"])
    traced = _result(["--workload", "pairs-A2", "--seed", "3", "--seconds", "1", "--trace", "1"])
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 36
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert set(METRICS) <= set(traced["metrics"])
    assert traced["metrics"]["fail_ratio"]["value"] == 0
    assert traced["metrics"]["trace_overhead"]["value"] > 1


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kl-A3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
