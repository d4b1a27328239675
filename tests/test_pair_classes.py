"""Pair sweeps check each distinct braid once.

A pair braid b(x)^-1 b(y) depends only on its coprime pair: for s in
D_L(x) & D_L(y), b(x)^-1 b(y) = b(sx)^-1 b(sy).  verify._pairs calls the
verdict of a pair sweep once per coprime pair and lets every other pair
read that verdict.
These tests check the reduction against fraction_form and the word
problem, count the classes independently of the table, and compare the
class driver item by item with the driver that checks all |W|^2 pairs.
"""

import random
from collections import Counter
from functools import partial

import pytest

import oracles
from coxbraid import verify
from coxbraid.coxeter import (
    CoxeterGroup,
    CoxeterType,
    IntegrityError,
    coprime_pair_count,
    coxeter_group,
    coxeter_group_of,
)
from coxbraid.garside import braid_equal, fraction_form
from coxbraid.hecke import KLTable
from coxbraid.mikado import count_mikado_A, count_mikado_B
from coxbraid.verify import CHECKS, CheckSpec, run_check


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_coprime_pair_is_the_left_fraction(family, rank):
    """For every pair, the id-level reduction is fraction_form of the pair
    braid, and the two braids are equal, each folding its own letters.
    Distinct coprime pairs give distinct braids."""
    group = coxeter_group(family, rank)
    table = group.table
    els = group.elements()
    coprime, braids = set(), set()
    for x, ex in enumerate(els):
        for y, ey in enumerate(els):
            cx, cy = oracles.coprime_pair(table, x, y)
            b = oracles.pair_braid(ex, ey)
            assert fraction_form(b) == (els[cx], els[cy])
            assert braid_equal(oracles.pair_braid(ex, ey), oracles.pair_braid(els[cx], els[cy]))
            coprime.add((cx, cy))
            braids.add(b.nf)
    assert len(braids) == len(coprime)


@pytest.mark.parametrize(
    "family,rank,classes",
    [("A", 3, 211), ("A", 4, 3651), ("B", 3, 819), ("D", 4, 9217), ("H3", 3, 5043)],
)
def test_pair_classes_are_counted_independently(family, rank, classes):
    """The reductions of all pairs are the pairs with no common left
    descent, as many as count_mikado_A and count_mikado_B count."""
    table = coxeter_group(family, rank).table
    ids = range(len(table.length))
    reduced = {oracles.coprime_pair(table, x, y) for x in ids for y in ids}
    assert reduced == {(x, y) for x in ids for y in ids if not table.ldesc[x] & table.ldesc[y]}
    assert len(reduced) == classes
    if family == "A":
        assert classes == count_mikado_A(rank + 1)
    if family == "B":
        assert classes == count_mikado_B(rank)


PINNED_COUNTS = {("A", 5, None): 90_921, ("B", 5, None): 2_505_123,
                 ("D", 5, None): 635_811, ("F4", 4, None): 323_713}


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS + [("B", 5, None), ("D", 5, None)])
def test_coprime_pair_count_is_the_number_of_ldesc_disjoint_pairs(family, rank, m):
    """The count from parabolic orders against the pairs of the table
    with disjoint left descent masks."""
    group = coxeter_group(family, rank, m=m)
    count = oracles.disjoint_pair_count(Counter(group.table.ldesc))
    assert coprime_pair_count(group.type) == count == PINNED_COUNTS.get((family, rank, m), count)


def test_coprime_pair_count_builds_no_group():
    before = coxeter_group_of.cache_info().currsize
    assert coprime_pair_count.__wrapped__(CoxeterType("D", 9)) > 0
    assert coxeter_group_of.cache_info().currsize == before


def test_pair_sweep_checks_its_coprime_pair_count():
    """A left descent mask short of one real bit lets _pairs meet more
    coprime pairs than the count from parabolic orders, and it raises."""
    group = CoxeterGroup(CoxeterType("A", 3))
    ldesc = group.table.ldesc
    w0 = group.table.w0
    ldesc[w0] &= ldesc[w0] - 1
    with pytest.raises(IntegrityError, match="coprime pairs"):
        verify._pairs(group, lambda x, y: True)


def test_pair_sweep_raises_on_an_unfilled_parent():
    """A spurious left descent s on the identity sends the pair (e, e) to
    the parent (s, s), whose x has a larger id and is not yet filled."""
    group = CoxeterGroup(CoxeterType("A", 3))
    table = group.table
    e = group.identity.id
    table.ldesc[e] |= 1
    assert table.lmul[0][e] > e
    with pytest.raises(IntegrityError, match="unfilled"):
        verify._pairs(group, lambda x, y: True)


def _with_verdict(monkeypatch, verdict):
    """Register verdict as the pair sweep prop-4.4."""
    spec = CHECKS["prop-4.4"]
    monkeypatch.setitem(CHECKS, "prop-4.4", CheckSpec(
        spec.theorem_id, spec.families, spec.description, verdict, spec.sweep, spec.reflections,
    ))


def test_pair_sweep_checks_each_coprime_pair_once_in_x_major_order(monkeypatch):
    group = coxeter_group("A", 3)
    table = group.table
    seen = []

    def ok(x, y):
        seen.append((x.id, y.id))
        return True

    _with_verdict(monkeypatch, ok)
    report = run_check("prop-4.4", "A", 3)
    assert report.passed and report.counts == {"items": 576, "failures": 0}
    assert seen == [(x, y) for x in range(24) for y in range(24) if not table.ldesc[x] & table.ldesc[y]]
    assert len(seen) == 211


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_a_failed_class_fails_every_pair_with_its_braid(family, rank, monkeypatch):
    """A verdict of False on one coprime pair fails exactly the pairs whose
    braid equals it, found by the word problem rather than the reduction."""
    group = coxeter_group(family, rank)
    table = group.table
    els = group.elements()
    nfs = [[oracles.pair_braid(ex, ey).nf for ey in els] for ex in els]
    coprime = [(x, y) for x in range(len(els)) for y in range(len(els))
               if not table.ldesc[x] & table.ldesc[y]]
    for bad in random.Random(16).sample(coprime, 5):
        _with_verdict(monkeypatch, lambda x, y: (x.id, y.id) != bad)
        report = run_check("prop-4.4", family, rank)
        failed = [i for i, it in enumerate(report.items) if not it["ok"]]
        want = nfs[bad[0]][bad[1]]
        n = len(els)
        assert failed == [i for i in range(n * n) if nfs[i // n][i % n] == want]
        assert report.counts["failures"] == len(failed) >= 1


@pytest.mark.parametrize("family,rank,m", [("A", 4, None), ("B", 3, None), ("D", 4, None),
                                           ("H3", 3, None), ("I2", 2, 5)])
def test_pair_driver_reads_each_pair_at_its_coprime_pair(family, rank, m):
    """With a verdict that is False on a seeded tenth of the coprime pairs,
    every item of _pairs is the verdict of its pair's coprime pair, found by
    stripping common left descents (oracles.coprime_pair), item by item."""
    group = coxeter_group(family, rank, m=m)
    table = group.table
    ids = range(len(group.elements()))
    coprime = [(x, y) for x in ids for y in ids if not table.ldesc[x] & table.ldesc[y]]
    bad = set(random.Random(len(coprime)).sample(coprime, len(coprime) // 10))
    items = verify._pairs(group, lambda x, y: (x.id, y.id) not in bad)
    want = oracles.pairs_all(group, lambda x, y: oracles.coprime_pair(table, x.id, y.id) not in bad)
    assert items == want
    assert sum(not it["ok"] for it in items) > len(bad) >= 1


# ---------------------------------------------------------------------------
# the class driver against the driver over all |W|^2 pairs

PAIR_CHECKS = sorted(tid for tid, spec in CHECKS.items() if spec.sweep == "pairs")
DIFF_GROUPS = [g for g in oracles.COVERED_GROUPS if g not in (("A", 5, None), ("B", 4, None), ("F4", 4, None))]
# (check, family) -> x rows: cells whose all-pairs run takes more than
# about 5 s (the D4 ones, 6-7 s each on 2 cores) compare a seeded sample of
# x rows, each against every y
SAMPLED_ROWS = {("prop-4.4", "D"): 48, ("lemma-4.5", "D"): 48, ("thm-8.2", "D"): 48}


def _cells():
    for tid in PAIR_CHECKS:
        for family, rank, m in DIFF_GROUPS:
            if family in CHECKS[tid].families:
                yield tid, family, rank, m


@pytest.mark.parametrize("tid,family,rank,m", list(_cells()))
def test_class_driver_matches_all_pairs(tid, family, rank, m, monkeypatch):
    def report():
        out = run_check(tid, family, rank, m).to_json()
        del out["elapsed_seconds"]
        return out

    got = report()
    n = len(coxeter_group(family, rank, m=m).elements())
    rows = None
    if (tid, family) in SAMPLED_ROWS:
        rows = set(random.Random(16).sample(range(n), SAMPLED_ROWS[tid, family]))
        got["items"] = [it for i, it in enumerate(got["items"]) if i // n in rows]
        del got["counts"], got["passed"]
    monkeypatch.setattr(verify, "_pairs", partial(oracles.pairs_all, rows=rows))
    want = report()
    if rows is not None:
        assert len(want["items"]) == n * len(rows)
        del want["counts"], want["passed"]
    assert got == want


# ---------------------------------------------------------------------------
# thm-8.2 reads signs, not expansions


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 3, None), ("I2", 2, 5)])
def test_pair_is_nonneg_agrees_with_the_expansion(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    table = KLTable(group)
    for x in group.elements():
        for y in group.elements():
            want = all(p.is_nonneg() for p in oracles.expand_pair_in_C(table, x, y).values())
            assert table.pair_is_nonneg(x, y) == want


def test_pair_is_nonneg_reads_every_sign(monkeypatch):
    group = coxeter_group("A", 2)
    table = KLTable(group)
    x, y = group.elements()[:2]
    monkeypatch.setattr(table, "_pair_rows", lambda x, y: {0: {0: 1}, 3: {-1: 2, 1: 1}})
    assert table.pair_is_nonneg(x, y)
    monkeypatch.setattr(table, "_pair_rows", lambda x, y: {0: {0: 1}, 3: {-1: 2, 1: -1}})
    assert not table.pair_is_nonneg(x, y)
    with pytest.raises(ValueError):
        table.pair_is_nonneg(x, coxeter_group("A", 3).identity)


def test_kl_pair_sweep_builds_no_expansion(monkeypatch):
    def refuse(self, h):
        raise AssertionError("thm-8.2 expanded a pair")

    monkeypatch.setattr(KLTable, "expand_in_C", refuse)
    assert run_check("thm-8.2", "B", 3).passed
