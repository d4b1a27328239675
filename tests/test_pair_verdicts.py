"""Pair verdicts compose each pair braid's normal form from the ids.

verify's prop-4.4, lemma-4.5, thm-5.9 and thm-6.4 verdicts read the
normal form of b(x)^-1 b(y) off garside._pair_nf_ids and fold only the
signed lift.  These tests compare them with the letter-level verdicts of
oracles.LETTER_VERDICTS, which rebuild and fold letter words, on every pair
(not only the coprime ones the sweeps call), and certify the composed
normal forms and the lifts by Artin's action on a free group, which knows
nothing of normal forms, and the composed forms of D4 and H3 by the dual
normal form, which reads another Garside structure.
"""

import random

import pytest

import oracles
from coxbraid.coxeter import coxeter_group, coxeter_type, standard_coxeter_elements
from coxbraid.garside import (
    BraidWord,
    _image_ids,
    _letters_of_nf_ids,
    _pair_nf_ids,
    _signed_lift_ids,
)
from coxbraid.verify import CHECKS, PAIR_SWEEP_ORDER_CAP

VERDICT_GROUPS = [("A", 3, None), ("A", 4, None), ("B", 2, None), ("B", 3, None),
                  ("I2", 2, 5), ("H3", 3, None), ("D", 4, None)]
# D4's 36 864 pairs through the letter-level references take about 4 s a
# check; a seeded sample of x rows, each against every y, stands in for them
SAMPLED_ROWS = {("D", 4, None): 48}


def _verdict_cells():
    for tid in sorted(oracles.LETTER_VERDICTS):
        for family, rank, m in VERDICT_GROUPS:
            if family in CHECKS[tid].families:
                yield tid, family, rank, m


@pytest.mark.parametrize("tid,family,rank,m", list(_verdict_cells()))
def test_pair_verdicts_match_the_letter_references(tid, family, rank, m):
    group = coxeter_group(family, rank, m=m)
    els = group.elements()
    rows = range(len(els))
    if (family, rank, m) in SAMPLED_ROWS:
        rows = random.Random(30).sample(rows, SAMPLED_ROWS[family, rank, m])
    verdict, reference = CHECKS[tid].verdict, oracles.LETTER_VERDICTS[tid]
    for x in rows:
        for ey in els:
            assert verdict(els[x], ey) == reference(els[x], ey), (tid, x, ey.id)


# A5 and B4 have 518 400 and 147 456 pairs, 13.5 s and 3.9 s of letter
# folds; there the coprime pairs, the only ones a pair sweep checks, stand
# in for all
COPRIME_ONLY = {("A", 5, None), ("B", 4, None)}


@pytest.mark.parametrize("family,rank,m", [
    g for g in oracles.COVERED_GROUPS if coxeter_type(*g).order() <= PAIR_SWEEP_ORDER_CAP
])
def test_composed_pair_normal_form_is_the_pair_braids(family, rank, m):
    """_pair_nf_ids(x, y) equals the fold of the letter word b(x)^-1 b(y),
    on every pair of every group a pair sweep runs on by default."""
    group = coxeter_group(family, rank, m=m)
    table = group.table
    els = group.elements()
    coprime_only = (family, rank, m) in COPRIME_ONLY
    for x, ex in enumerate(els):
        for y, ey in enumerate(els):
            if coprime_only and oracles.coprime_pair(table, x, y) != (x, y):
                continue
            assert _pair_nf_ids(table, x, y) == oracles.pair_braid(ex, ey).nf, (x, y)


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 4), ("B", 2), ("B", 3)])
def test_composed_forms_and_lifts_act_as_the_pair_braid(family, rank):
    """On every pair, the letters of the composed normal form and of the
    signed lift act on the free group as the word b(x)^-1 b(y) does; type
    B acts through embed_braid_b_to_a."""
    group = coxeter_group(family, rank)
    table = group.table
    els = group.elements()
    for x, ex in enumerate(els):
        for y, ey in enumerate(els):
            want = oracles.artin_action_of(oracles.pair_braid(ex, ey))
            nf = _pair_nf_ids(table, x, y)
            lift = _signed_lift_ids(table, nf, table.word(_image_ids(table, nf)))
            assert oracles.artin_action_of(BraidWord(group, _letters_of_nf_ids(table, nf))) == want
            assert oracles.artin_action_of(BraidWord(group, lift)) == want


@pytest.mark.parametrize("family,rank", [("D", 4), ("H3", 3)])
def test_composed_pair_normal_forms_match_the_dual_normal_form(family, rank):
    """On a seeded sample of pairs, the letters of _pair_nf_ids(x, y) have
    the dual normal form (oracles.DualNormalForm) of the word b(x)^-1 b(y).
    Two composed forms are equal exactly when the dual normal forms of the
    two pair braids are, with both outcomes: each sampled pair is compared
    with the sample's previous pair and with (sx, sy), s a left descent of
    neither x nor y, whose braid is the same."""
    group = coxeter_group(family, rank)
    table = group.table
    els = group.elements()
    dnf = oracles.DualNormalForm(standard_coxeter_elements(group)[-1])

    def dual(x, y):
        return dnf.of_letters(oracles.pair_braid(els[x], els[y]).letters)

    rng = random.Random(101 * rank)
    sample = [(rng.randrange(len(els)), rng.randrange(len(els))) for _ in range(200)]
    outcomes = set()
    for i, (x, y) in enumerate(sample):
        nf = _pair_nf_ids(table, x, y)
        assert dnf.of_letters(_letters_of_nf_ids(table, nf)) == dual(x, y), (x, y)
        partners = [sample[i - 1]]
        free = [s for s in range(rank) if not (table.ldesc[x] | table.ldesc[y]) >> s & 1]
        if free:
            s = rng.choice(free)
            partners.append((table.lmul[s][x], table.lmul[s][y]))
        for u, v in partners:
            equal = _pair_nf_ids(table, u, v) == nf
            assert equal == (dual(u, v) == dual(x, y)), (x, y, u, v)
            outcomes.add(equal)
    assert outcomes == {True, False}


def test_artin_action_tells_braids_apart():
    """The action respects the braid relations and separates braids that
    differ, among them a pure braid with trivial image in the group."""
    act = oracles.artin_action
    assert act((1, 2, 1), 3) == act((2, 1, 2), 3)
    assert act((1, 3), 4) == act((3, 1), 4)
    assert act((1, -1, -2, 2), 3) == act((), 3)
    assert act((1, 1), 3) != act((), 3)
    assert act((1, 2), 3) != act((2, 1), 3)
    assert act((1, 2, 1), 3) != act((1, 2, -1), 3)
