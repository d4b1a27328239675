"""The verification registry: one runnable check per statement."""

import time

import pytest

from coxbraid.coxeter import ResourceError, coxeter_group
from coxbraid.verify import CHECKS, Report, normalize_family, pair_guard, run_check


ALL_IDS = [
    "conj-8.6",
    "cor-3.4",
    "lemma-4.5",
    "prop-3.2",
    "prop-3.5",
    "prop-3.9",
    "prop-4.4",
    "prop-5.14",
    "thm-3.7",
    "thm-5.13",
    "thm-5.9",
    "thm-6.4",
    "thm-6.9",
    "thm-7.1",
    "thm-8.11",
    "thm-8.13",
    "thm-8.17",
    "thm-8.2",
    "thm-8.5",
]


def test_registry_contents():
    assert sorted(CHECKS) == ALL_IDS
    for tid, spec in CHECKS.items():
        assert spec.theorem_id == tid
        assert spec.families
        assert spec.description
        assert callable(spec.fn)


def test_normalize_family():
    assert normalize_family("a") == "A"
    assert normalize_family("I2(5)") == "I2"
    assert normalize_family("i2") == "I2"
    assert normalize_family("H") == "H3"
    assert normalize_family("h3") == "H3"
    assert normalize_family("F") == "F4"
    assert normalize_family("D") == "D"


FAST_RUNS = [
    ("prop-3.2", "A", 3, None),
    ("cor-3.4", "A", 3, None),
    ("prop-3.5", "A", 3, None),
    ("thm-3.7", "A", 2, None),
    ("thm-3.7", "I2", None, 6),
    ("prop-3.9", "I2", None, 5),
    ("prop-3.9", "B", 3, None),
    ("prop-4.4", "A", 2, None),
    ("lemma-4.5", "A", 2, None),
    ("thm-5.9", "A", 2, None),
    ("thm-5.13", "A", 3, None),
    ("prop-5.14", "A", 3, None),
    ("thm-6.4", "B", 2, None),
    ("thm-6.9", "B", 2, None),
    ("thm-7.1", "I2", None, 7),
    ("thm-8.2", "A", 2, None),
    ("thm-8.5", "A", 2, None),
    ("thm-8.11", "A", 2, None),
    ("thm-8.13", "A", 2, None),
    ("thm-8.17", "A", 2, None),
]


@pytest.mark.parametrize("tid,family,rank,m", FAST_RUNS)
def test_fast_check_passes(tid, family, rank, m):
    report = run_check(tid, family, rank=rank, m=m)
    assert isinstance(report, Report)
    assert report.passed, report.summary()
    assert not report.evidence_only
    assert report.items
    assert all(it["ok"] for it in report.items)
    assert report.summary().startswith("PASS " + tid)


def test_report_json_shape():
    report = run_check("thm-5.13", "A", rank=2)
    data = report.to_json()
    for key in (
        "command",
        "artifact_version",
        "group",
        "coxeter_element",
        "passed",
        "evidence_only",
        "counts",
        "items",
        "notes",
        "elapsed_seconds",
    ):
        assert key in data
    assert data["command"] == "thm-5.13"
    assert data["group"] == {"family": "A", "rank": 2}
    assert data["passed"] is True
    assert isinstance(data["elapsed_seconds"], float)


def test_unknown_theorem_id():
    with pytest.raises(KeyError):
        run_check("thm-0.0", "A", rank=2)


def test_family_restriction_is_enforced():
    with pytest.raises(ValueError):
        run_check("thm-5.9", "B", rank=2)
    with pytest.raises(ValueError):
        run_check("thm-6.4", "A", rank=2)
    with pytest.raises(ValueError):
        run_check("conj-8.6", "A", rank=2)
    with pytest.raises(ValueError):
        run_check("thm-8.2", "F4", rank=4)


def test_pair_sweeps_above_order_720_need_budget():
    """F4 is the one group inside the default budgets with more than 720
    elements: its 1152^2-pair sweeps are refused at once unless --budget is given."""
    pair_checks = {tid for tid, spec in CHECKS.items() if spec.pairs}
    assert pair_checks == {"prop-4.4", "lemma-4.5", "thm-5.9", "thm-6.4", "thm-8.2"}
    started = time.perf_counter()
    for tid in ("prop-4.4", "lemma-4.5"):
        with pytest.raises(ResourceError, match="--budget"):
            run_check(tid, "F4")
    assert time.perf_counter() - started < 1
    assert pair_guard(coxeter_group("A", 5), None) == ()
    (note,) = pair_guard(coxeter_group("F4"), 4)
    assert note.startswith("budget override")


def test_budget_guard():
    with pytest.raises(ResourceError):
        run_check("prop-3.9", "A", rank=6)
    with pytest.raises(ResourceError):
        run_check("prop-3.9", "I2", m=13)
    with pytest.raises(ResourceError):
        run_check("prop-3.9", "D", rank=5)
    for report in (
        run_check("prop-3.9", "I2", m=13, budget=13),
        run_check("prop-3.9", "D", rank=5, budget=5),
    ):
        assert report.passed
        assert any("budget override" in note for note in report.notes)
    with pytest.raises(ValueError):
        run_check("prop-3.9", "A")


def test_coxeter_restriction():
    full = run_check("thm-5.13", "A", rank=2)
    single = run_check("thm-5.13", "A", rank=2, coxeter=(2, 1))
    assert single.passed
    assert len(single.items) < len(full.items)
    assert single.coxeter_element == [2, 1]
    with pytest.raises(ValueError):
        run_check("thm-5.13", "A", rank=2, coxeter=(1, 1))
    with pytest.raises(ValueError):
        run_check("thm-5.13", "A", rank=2, coxeter=(1,))


def test_sweeps_run_on_one_thread():
    one = run_check("thm-8.5", "A", rank=2, workers=1)
    assert one.passed
    assert one.items == run_check("thm-8.5", "A", rank=2).items
    for workers in (0, 2, 4):
        with pytest.raises(ValueError):
            run_check("thm-8.5", "A", rank=2, workers=workers)


def test_cli_has_no_workers_flag():
    from coxbraid.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-5.13", "--type", "A", "--rank", "2", "--workers", "2"])
    assert exc.value.code == 2


def test_conjecture_sweep_is_evidence_only():
    report = run_check("conj-8.6", "D", rank=4, coxeter=(1, 2, 3, 4))
    assert report.evidence_only
    assert report.passed
    assert report.summary().startswith("EVIDENCE conj-8.6")
    assert report.counts["positive_sweeps"] == 1
    assert report.items[0]["positive"] is True
    assert any("evidence" in note for note in report.notes)
    data = report.to_json()
    assert data["evidence_only"] is True


def test_hurwitz_check_counts():
    report = run_check("thm-3.7", "A", rank=2)
    assert all(it["orbit"] == it["factorizations"] == 3 for it in report.items)
    report = run_check("thm-3.7", "B", rank=2)
    assert report.passed
    assert all(it["orbit"] == 4 for it in report.items)
