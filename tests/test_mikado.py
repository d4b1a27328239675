"""Wiring diagrams, the over strand game, counting, and rendering."""

import os
from math import comb

import pytest

from coxbraid.coxeter import IntegrityError, ResourceError, coxeter_group
from coxbraid.dual import ncp_encode
from coxbraid.garside import (
    BraidWord,
    embed_braid_b_to_a,
    fraction_form,
    positive_lift,
)
from coxbraid.mikado import (
    COUNT_MAX_RANK,
    WiringDiagram,
    count_mikado_A,
    count_mikado_B,
    is_mikado_A,
    is_mikado_B,
    wiring_from_square_free,
)
from coxbraid.render import render_svg
from coxbraid.verify import run_check

import oracles


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_wiring_validation():
    with pytest.raises(ValueError):
        WiringDiagram(3, ((3, 1),))
    with pytest.raises(ValueError):
        WiringDiagram(3, ((0, 1),))
    with pytest.raises(ValueError):
        WiringDiagram(3, ((1, 2),))
    with pytest.raises(IntegrityError):
        WiringDiagram(2, ((1, 1), (1, 1)))
    with pytest.raises(IntegrityError):
        WiringDiagram(3, ((1, 1), (2, 1), (2, 1)))


def test_crossing_details_over_under():
    d = WiringDiagram(2, ((1, 1),))
    assert d.crossing_details() == ((1, 1, 2, 1),)
    d = WiringDiagram(2, ((1, -1),))
    assert d.crossing_details() == ((1, -1, 1, 2),)
    d = WiringDiagram(3, ((1, 1), (2, -1)))
    # after the first crossing strand 1 sits in slot 2 and crosses strand 3
    assert d.crossing_details() == ((1, 1, 2, 1), (2, -1, 1, 3))
    assert oracles.end_positions(d) == {2: 1, 3: 2, 1: 3}
    assert d.letters() == (1, -2)


def test_strand_paths_and_good_strands():
    d = WiringDiagram(3, ((1, 1), (2, 1)))
    paths = oracles.strand_paths(d)
    assert paths[1] == (1, 2, 3)
    assert paths[2] == (2, 1, 1)
    assert paths[3] == (3, 3, 2)
    assert oracles.good_strands(d) == frozenset({2, 3})
    assert oracles.good_strands(WiringDiagram(3, ())) == frozenset({1, 2, 3})


def test_remove_strand():
    d = WiringDiagram(3, ((1, 1), (2, 1)))
    shrunk = d.remove_strand(2)
    assert shrunk.strand_count == 2
    assert shrunk.crossings == ((1, 1),)
    with pytest.raises(ValueError):
        d.remove_strand(4)


def replayed_removal(d, strand):
    """The removal through the checking constructor, replaying every crossing."""
    occ = list(range(1, d.strand_count + 1))
    kept = []
    for pos, sign in d.crossings:
        a, b = occ[pos - 1], occ[pos]
        if strand not in (a, b):
            kept.append((pos if occ.index(strand) > pos else pos - 1, sign))
        occ[pos - 1], occ[pos] = b, a
    return WiringDiagram(d.strand_count - 1, tuple(kept))


@pytest.mark.parametrize("rank,braids", [(3, 211), (4, 3651)])
def test_trusted_strand_removal_matches_the_checking_constructor(rank, braids, monkeypatch):
    """remove_strand skips the constructor's checks.  Every diagram that
    is_mikado_A reaches on the square free braids of A3 and A4, one per
    coprime pair, loses each of its strands to the same diagram as through
    the checking constructor, by the same slots or by a replay of every
    crossing."""
    group = coxeter_group("A", rank)
    ldesc = group.table.ldesc
    reached = set()
    remove = WiringDiagram.remove_strand

    def recorded(d, strand):
        got = remove(d, strand)
        reached.update((d, got))
        return got

    monkeypatch.setattr(WiringDiagram, "remove_strand", recorded)
    lifts = [(positive_lift(x), ldesc[x.id]) for x in group.elements()]
    square_free = [
        bx.inverse() * by for bx, dx in lifts for by, dy in lifts if not dx & dy
    ]
    assert len(square_free) == braids and all(is_mikado_A(b) for b in square_free)
    assert {d.strand_count for d in reached} == set(range(1, rank + 2))
    for d in reached:
        for strand in range(1, d.strand_count + 1):
            got = remove(d, strand)
            assert got == WiringDiagram(got.strand_count, got.crossings)
            assert got == replayed_removal(d, strand)


def test_wiring_from_square_free():
    group = coxeter_group("A", 2)
    b = BraidWord(group, (-1, 2, 1))
    d = wiring_from_square_free(b)
    assert d.strand_count == 3
    assert len(d.crossings) == b.image().length()
    with pytest.raises(ValueError):
        wiring_from_square_free(BraidWord(group, (1, 1)))
    with pytest.raises(ValueError):
        wiring_from_square_free(BraidWord(coxeter_group("B", 2), (1,)))


def test_every_rational_braid_on_three_strands_is_mikado():
    group = coxeter_group("A", 2)
    for x in group.elements():
        for y in group.elements():
            b = positive_lift(x).inverse() * positive_lift(y)
            assert is_mikado_A(b)


def test_non_square_free_braids_are_not_mikado():
    group = coxeter_group("A", 2)
    assert not is_mikado_A(BraidWord(group, (1, 1)))
    assert not is_mikado_A(BraidWord(group, (1, 2, 1, 2)))
    with pytest.raises(ValueError):
        is_mikado_A(BraidWord(coxeter_group("B", 2), (1,)))


def test_embedded_type_b_braids_are_mikado():
    group = coxeter_group("B", 2)
    for x in group.elements():
        for y in group.elements():
            b = positive_lift(x).inverse() * positive_lift(y)
            assert is_mikado_B(embed_braid_b_to_a(b))


def test_square_free_witness_is_computed_once_per_braid(monkeypatch):
    import coxbraid.mikado as mikado

    calls = []
    witness = mikado.square_free_witness

    def counted(b):
        calls.append(b)
        return witness(b)

    monkeypatch.setattr(mikado, "square_free_witness", counted)
    a2, b2 = coxeter_group("A", 2), coxeter_group("B", 2)
    for b in (
        BraidWord(a2, (-1, 2)),
        BraidWord(a2, (1, 1)),
        positive_lift(oracles.longest_element(a2)),
    ):
        calls.clear()
        is_mikado_A(b)
        assert len(calls) == 1
    for x in b2.elements():
        calls.clear()
        assert is_mikado_B(embed_braid_b_to_a(positive_lift(x).inverse()))
        assert len(calls) == 1


def test_mikado_b_input_validation():
    with pytest.raises(ValueError):
        is_mikado_B(BraidWord(coxeter_group("A", 2), (1,)))
    with pytest.raises(ValueError):
        is_mikado_B(BraidWord(coxeter_group("B", 2), (1,)))
    # mirror asymmetric braids are simply not in the image
    assert not is_mikado_B(BraidWord(coxeter_group("A", 3), (1,)))


def test_mikado_counts():
    assert [count_mikado_A(n) for n in range(1, 5)] == [1, 3, 19, 211]
    assert [count_mikado_B(n) for n in range(1, 4)] == [3, 33, 819]
    with pytest.raises(ResourceError):
        count_mikado_A(18)
    with pytest.raises(ResourceError):
        count_mikado_B(17)
    with pytest.raises(ValueError):
        count_mikado_A(0)


def test_counts_match_permutation_enumeration():
    """The counts from parabolic orders against descent disjoint pairs of
    permutations up to 9 strands and of signed permutations up to rank 6."""
    assert [count_mikado_A(n) for n in range(1, 10)] == [
        oracles.count_a_by_enumeration(n) for n in range(1, 10)]
    assert [count_mikado_B(n) for n in range(1, 7)] == [
        oracles.count_b_by_enumeration(n) for n in range(1, 7)]


def test_a_counts_follow_the_a000275_recurrence():
    """Pairs of permutations of n letters with no common descent are OEIS
    A000275: a_n = sum over k >= 1 of (-1)^(k+1) C(n, k)^2 a_(n-k), a_0 = 1
    (Carlitz, Scoville and Vaughan, Enumeration of pairs of permutations,
    1976); checked up to the rank cap of the count."""
    a = [1]
    for n in range(1, COUNT_MAX_RANK + 2):
        a.append(sum((-1) ** (k + 1) * comb(n, k) ** 2 * a[n - k] for k in range(1, n + 1)))
        assert count_mikado_A(n) == a[n]


def test_count_matches_distinct_fraction_enumeration():
    group = coxeter_group("A", 2)
    pairs = set()
    for x in group.elements():
        for y in group.elements():
            b = positive_lift(x).inverse() * positive_lift(y)
            pairs.add(fraction_form(b))
    # three strands, so the count is indexed by n = 3
    assert len(pairs) == count_mikado_A(3)


def test_render_wiring(tmp_path):
    d = WiringDiagram(4, ((1, 1), (2, -1), (3, 1)))
    path = str(tmp_path / "wiring.svg")
    assert render_svg(d, path) == path
    text = open(path, encoding="utf-8").read()
    assert text.startswith("<?xml")
    assert "<svg" in text and text.rstrip().endswith("</svg>")
    again = open(render_svg(d, str(tmp_path / "w2.svg")), encoding="utf-8").read()
    assert again == text


def test_render_ncp_golden(tmp_path):
    group = coxeter_group("B", 5)
    c = group.from_word((2, 1, 3, 5, 4))
    x = group.element((5, 3, -2, 1, 4))
    p = ncp_encode(x, c)
    path = render_svg(p, str(tmp_path / "ncp.svg"))
    got = open(path, encoding="utf-8").read()
    want = open(os.path.join(DATA, "b5_ncp.svg"), encoding="utf-8").read()
    assert got == want


def test_render_rejects_other_objects(tmp_path):
    with pytest.raises(TypeError):
        render_svg("not a diagram", str(tmp_path / "x.svg"))


def test_pair_sweep_peels_by_remove_strand(monkeypatch):
    """thm-5.9 on A3 removes strands only through remove_strand: 572 times
    over the diagrams of its 211 coprime pairs.  Each removal takes the good
    strand with the largest end position, as oracles.good_strands and
    oracles.end_positions read it off the crossings."""
    removed = []
    remove = WiringDiagram.remove_strand

    def recorded(d, strand):
        removed.append((d, strand))
        return remove(d, strand)

    monkeypatch.setattr(WiringDiagram, "remove_strand", recorded)
    assert run_check("thm-5.9", "A", 3).passed
    assert len(removed) == 572
    for d, strand in removed:
        ends = oracles.end_positions(d)
        assert strand == max(oracles.good_strands(d), key=ends.__getitem__)

