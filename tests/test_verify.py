"""The verification registry: one runnable check per statement."""

import hashlib
import inspect
import json
import time

import pytest

from coxbraid import verify
from coxbraid.coxeter import (
    ResourceError,
    coxeter_group,
    reflections_from_coxeter,
    standard_ordering,
)
from coxbraid.dual import DualAtomTable, dual_monoid
from coxbraid.verify import CHECKS, Report, budget_guard, normalize_family, run_check, type_for


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
        assert callable(spec.verdict)
        assert spec.sweep in ("orderings", "pairs", "group")


def test_run_check_is_the_one_entry_point():
    """A check is its registry row: coxbraid.verify itself defines no
    public function or class but these, so no check_* entry point returns."""
    defined = {
        name for name, obj in vars(verify).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == verify.__name__ and not name.startswith("_")
    }
    assert defined == {"run_check", "budget_guard", "type_for", "normalize_family",
                       "Report", "CheckSpec"}


def test_one_ordering_validator():
    """Every entry point that takes an ordering of c refuses one that lists
    a generator twice or multiplies to another element."""
    c = coxeter_group("A", 3).from_word((1, 2, 3))
    for entry in (standard_ordering, reflections_from_coxeter, DualAtomTable, dual_monoid):
        for ordering in ((1, 1, 2), (2, 1, 3)):
            with pytest.raises(ValueError):
                entry(c, ordering)
    assert standard_ordering(c) == standard_ordering(c, [1, 2, 3]) == (1, 2, 3)
    with pytest.raises(ValueError, match="standard Coxeter element"):
        standard_ordering(c * c)
    with pytest.raises(ValueError):
        run_check("prop-3.2", "A", 3, coxeter=(1, 1, 2))


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


def test_pair_sweeps_above_order_720_need_budget(monkeypatch):
    """F4 is the one group inside the default budgets with more than 720
    elements: its 1152^2-pair sweeps are refused at once unless --budget is
    given.  A sweep that starts anyway raises at once instead of running."""
    pair_checks = {tid for tid, spec in CHECKS.items() if spec.sweep == "pairs"}
    assert pair_checks == {"prop-4.4", "lemma-4.5", "thm-5.9", "thm-6.4", "thm-8.2"}

    def unguarded(group, verdict):
        raise AssertionError(f"the pairs of {group.type.label()} were swept without --budget")

    monkeypatch.setattr(verify, "_pairs", unguarded)
    started = time.perf_counter()
    for tid in ("prop-4.4", "lemma-4.5"):
        with pytest.raises(ResourceError, match="--budget"):
            run_check(tid, "F4")
    assert time.perf_counter() - started < 1
    assert budget_guard(type_for("A", 5), True, None) == ()
    assert budget_guard(type_for("F4"), False, None) == ()
    (note,) = budget_guard(type_for("F4"), True, 1)  # any --budget lifts the pair limit
    assert note.startswith("budget override")
    assert "pair sweep limit" in note
    assert len(budget_guard(type_for("A", 6), True, 6)) == 2


def test_budget_guard():
    started = time.perf_counter()
    for family, rank, m in (("A", 6, None), ("B", 5, None), ("I2", None, 13), ("D", 5, None)):
        with pytest.raises(ResourceError, match="pass --budget"):
            run_check("prop-3.9", family, rank, m)
    assert time.perf_counter() - started < 1
    with pytest.raises(ResourceError, match="--budget 6 to force"):
        run_check("prop-3.9", "A", rank=6, budget=5)
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
    # pair sweeps and whole-group checks sweep no Coxeter element
    for tid, family in (("prop-4.4", "A"), ("lemma-4.5", "A"), ("thm-5.9", "A"),
                        ("thm-6.4", "B"), ("thm-8.2", "A"), ("prop-5.14", "A"),
                        ("thm-8.11", "A")):
        with pytest.raises(ValueError, match="--coxeter"):
            run_check(tid, family, rank=2, coxeter=(1, 2))


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


def test_budget_lifts_the_size_limit_of_kl_tables():
    """D5, of order 1920, is past the default budget; --budget 5 lifts it
    for the conjecture sweep, which builds a KL table."""
    with pytest.raises(ResourceError, match="--budget 5"):
        run_check("conj-8.6", "D", 5, coxeter=(1, 2, 3, 4, 5))
    report = run_check("conj-8.6", "D", 5, coxeter=(1, 2, 3, 4, 5), budget=5)
    assert report.evidence_only and report.passed
    assert report.counts["items"] == 1
    assert any("budget override" in note for note in report.notes)


def test_kl_positivity_on_f4():
    report = run_check("thm-8.5", "F4", coxeter=(1, 2, 3, 4))
    assert report.passed
    assert report.notes == ()
    # the simple dual braids of one Coxeter element: Cat(F4) = 105 divisors
    assert [it["divisors"] for it in report.items] == [105]


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


# sha256 of json.dumps(report.to_json()) with elapsed_seconds and
# artifact_version removed, key order kept: every check on the smallest
# group of each family it accepts (pair sweeps and thm-3.7 only where they
# take well under a second, conj-8.6 on one ordering), and some more
# single-ordering runs.
REPORT_DIGESTS = {
    ("cor-3.4", "A", 1, None, None): "c1bd40760ff50f2b19c289f0b9f8a4c5b87b4d9994c173c3e69e656489ef3e36",
    ("cor-3.4", "B", 2, None, None): "76799f720d149f72a5daeca0a7a8787eab2f8f7002fdbbc9395731cb15843bdd",
    ("cor-3.4", "D", 4, None, None): "78ec144a0d099237bbb33694f9ce2831e328b538d04f605e12d809a14ea71f35",
    ("cor-3.4", "I2", None, 3, None): "8625fff6eea2e1c457df895a8584dc5ffbaec86a17d0a9e406ad0988002f5cef",
    ("cor-3.4", "H3", None, None, None): "dc45e2658a52a2379e6422bef7d1fb25a693d745d00d3a623ab65d71aae9f8f2",
    ("cor-3.4", "F4", None, None, None): "4580828f962791664784b2516b46290c30f080cc299a33d84684527181c01e99",
    ("lemma-4.5", "A", 1, None, None): "ed2f6f054d5b9c5809bf25d9f03e5ca50ef8e5533f57787fe53747fab2b1d566",
    ("lemma-4.5", "B", 2, None, None): "74dc571c7997e85bbe824b1e3391dbca5107c3c5d8cc7a437f6770c3611cf615",
    ("lemma-4.5", "I2", None, 3, None): "1e628b35096d2b7ae51517f26d0e6f091682d322e4e81a3e17b129979f14b8d8",
    ("prop-3.2", "A", 1, None, None): "09c8c0d1300a2af42748d0b23cae19712da936f76d01217e8e98c3af716f6cdf",
    ("prop-3.2", "B", 2, None, None): "ea5e1f7246b0fb97a6f553bcaf33b3080df0e393ff66b2fc86b3e1a2dcbb40c3",
    ("prop-3.2", "D", 4, None, None): "7ae77e62e177f6a8188b1854afa14641f8d6a33e0d28ad959a3ce349cb7159bf",
    ("prop-3.2", "I2", None, 3, None): "95fadb1a9a468402d7e5a3206ca4e7ed6d22f4bd8ebd3cdd41eb65120c38de28",
    ("prop-3.2", "H3", None, None, None): "3b9883f08e36be539e400beb4302c7ef7ac19ace122f33174501966bfde208d8",
    ("prop-3.2", "F4", None, None, None): "3d8196114d9a4c3722d7ad18bbdfb9376d33291eaebe28e6391470f6596ea47a",
    ("prop-3.5", "A", 1, None, None): "ed7d33dc5c73f01dad9ee99fbc8a934ccae3eb88e6900bb665c39dfad769f525",
    ("prop-3.5", "B", 2, None, None): "cefb954cec33340dfa894bb4263a69378a3dcde7fde016c095a90f5358605cfd",
    ("prop-3.5", "D", 4, None, None): "6e2715a2c6e70c71d70b5eeaac39740dc9b4579c6cb0e64aaed93c1624920449",
    ("prop-3.5", "I2", None, 3, None): "a1a1bb06c9075e8673bfb1a1b5c804537718e3b62952693d894fc73b4e30606b",
    ("prop-3.5", "H3", None, None, None): "68f2cc81678b7c1a4622fa726c7c77cd1d9ba7e266956e499f2bcc90d3b77bef",
    ("prop-3.5", "F4", None, None, None): "1a98644b6405360836731fee09a843b1443b428bdbc97d21f65769756be3519e",
    ("prop-3.9", "A", 1, None, None): "fbb56ad280638937cd77233b25d0e51c7d1c7444017af68da6df0cbc1873bb2a",
    ("prop-3.9", "B", 2, None, None): "76da29fc358c53535acac7ee939f39d8f1b4a134f72113bdc95b641de9f6369f",
    ("prop-3.9", "D", 4, None, None): "7a31b34c2fbe61e4b5aac73cbe10e13c450d8147ae819acd0fc08e53ba01ec3e",
    ("prop-3.9", "I2", None, 3, None): "8b5d5803666b1e039483358c6cb98e49eb1a5fa34c68f7ec2e3535854ff67b4d",
    ("prop-3.9", "H3", None, None, None): "4be1acbc13987114dfd5f239dc5eb92a7ea3eaf88fc5c13894ce6dd3cd0169ae",
    ("prop-3.9", "F4", None, None, None): "49180d1221ee46221796fd1a5bda7e9145997e1761c5f70463cf01f80c6258bb",
    ("prop-4.4", "A", 1, None, None): "88b706b9e36cf959f1db19bba04d0d2eed08245abfe8eb51054f86d36f92a8a3",
    ("prop-4.4", "B", 2, None, None): "517edf48e415fd2a0f97f8f91993ccb16296045906067c7ba4315fa584cd566d",
    ("prop-4.4", "I2", None, 3, None): "dd45f2dbb4419086e93f1d0ca2794499fb045c3989cbcb80cda483e5beacf1ea",
    ("prop-5.14", "A", 1, None, None): "6dfb43099a8c5340bf08a73136a5f874863454021e920689f0edd63267f70f32",
    ("thm-3.7", "A", 1, None, None): "2b993fe5e605740b414834da4dcf4cd2d0104b4db0240e125c87cf99134f2a29",
    ("thm-3.7", "B", 2, None, None): "efc8805bba513c1f1f1d003c7339ef5a7762eeeb84112f319de5d2c4b3cd2643",
    ("thm-3.7", "I2", None, 3, None): "672f3f0e04facbbad3a13af657d24b597b1df4b3558d5150a7f4b6007e24cdc9",
    ("thm-5.13", "A", 1, None, None): "9d0a40460d8ec2a1b91d07d33492c7f38940ee2f81043d23769d20579156bb4b",
    ("thm-5.9", "A", 1, None, None): "a74aef2074f6c9195257b21105827986993697c4cd14f37c5b37fed045cff966",
    ("thm-6.4", "B", 2, None, None): "2e91519ca8955135c53c38502b44efb9ae9207575f58ab1e1a4f4d0b873a3fdd",
    ("thm-6.9", "B", 2, None, None): "406a69845d60861b4f7cb22b37071e5c0b62800064795d5f5ab24ac2cfad6e15",
    ("thm-7.1", "I2", None, 3, None): "7f9849c2ea15882e98e512fbf88b68fe92e09333805cbbbc542241c9bcbdff31",
    ("thm-7.1", "H3", None, None, None): "01bda2d4875c25b110695373588b562ca8c0368e2a330d2b900e0ceaf6531826",
    ("thm-7.1", "F4", None, None, None): "12077068028ed4069f1ac3a2c084f936f8d7131d24f08a4e5248db46f86b0a36",
    ("thm-8.11", "A", 1, None, None): "eb12d24c69a4b6a87afa541ff99fb24f0ff82f4572d6d223405daecd397d0588",
    ("thm-8.13", "A", 1, None, None): "eebaa9646b51015b2cd8bb4301e21fdaf3ce90a29ecb22ebd904805201b6691e",
    ("thm-8.17", "A", 1, None, None): "f8ec4ea6ab5d376027a073c70ea3db8ebc80863fa0748607a616e8eecbd0af00",
    ("thm-8.2", "A", 1, None, None): "96fce4c9ae2af66205db1571e5037e0b11e2877eec6cdd9ebec7a8be62897a6a",
    ("thm-8.2", "B", 2, None, None): "96e7d56969a5773ad872ff4687db63353a9e88305f057723c485d82334ef1b89",
    ("thm-8.2", "I2", None, 3, None): "3da6ad9255afab9b558af3b4eb112d9ae044e35fce6609a12329129877ea679d",
    ("thm-8.5", "A", 1, None, None): "3c7105b5af71c4d2ae6913ccb78d05b8684923d41b76e177a4c814129f869d77",
    ("thm-8.5", "B", 2, None, None): "db12a2747b79c1d14f588ed8108aaa8c652e062434a9566b71aaf52a4e9fb2d5",
    ("thm-8.5", "D", 4, None, None): "c2ae23204b61ec39736a4b1d3e3d4bed47af1cc44ec0b5de0a622b542ff849b4",
    ("thm-8.5", "I2", None, 3, None): "227439253df9412e6304b2b33d9905a7163fe797c11822f3186db19dec8fb365",
    ("thm-8.5", "H3", None, None, None): "0b26386515e3071f3191f0fe4c457aa9d593079083b262aa0fc4a7fc1ee16a73",
    ("thm-5.13", "A", 3, None, (2, 1, 3)): "c8ec8e1716ca7426eb8a7a504c7a39623d1dcea85f3e96935cbaae4398d70ae1",
    ("conj-8.6", "D", 4, None, (1, 2, 3, 4)): "b88085aa1d6be7507314967cbd9dfc1ee518bdb43796f2f699b39095b2e5062f",
    ("thm-8.13", "A", 3, None, (3, 2, 1)): "4427195479b1c30bb0c48aef992448b7336b8c718865d2758c96850e232977a8",
    ("prop-3.9", "I2", None, 5, (2, 1)): "b8d619d0c037d6f2b0464613efc6c7a199d4488d96556c2112279b671158e15e",
    ("thm-3.7", "A", 2, None, None): "c60a71592d4e54aaf4c7ff8de55226a2e37518b9285773aa32f171f1f9c0ece3",
}


def test_report_digests_cover_every_check():
    assert {key[0] for key in REPORT_DIGESTS} == set(CHECKS)


@pytest.mark.parametrize("key", REPORT_DIGESTS, ids=str)
def test_report_digest(key):
    tid, family, rank, m, coxeter = key
    data = run_check(tid, family, rank, m, coxeter=coxeter).to_json()
    del data["elapsed_seconds"], data["artifact_version"]
    assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == REPORT_DIGESTS[key]
