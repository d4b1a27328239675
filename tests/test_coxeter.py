"""Coxeter group backends, length functions, and both orders."""

import random

import pytest

from coxbraid.coxeter import (
    CoxeterType,
    IntegrityError,
    bruhat_leq,
    bruhat_lower_interval,
    coxeter_element_orderings,
    coxeter_group,
    reduced_words,
    reflections_from_coxeter,
    standard_coxeter_elements,
    type_b_element_embedding,
    type_b_embedding,
    weak_meet_left,
)
from coxbraid.garside import garside_table

import oracles


GROUP_FACTS = [
    ("A", 1, None, 2, 1, 2),
    ("A", 3, None, 24, 6, 4),
    ("A", 4, None, 120, 10, 5),
    ("B", 2, None, 8, 4, 4),
    ("B", 3, None, 48, 9, 6),
    ("D", 4, None, 192, 12, 6),
    ("I2", 2, 7, 14, 7, 7),
    ("H3", 3, None, 120, 15, 10),
    ("F4", 4, None, 1152, 24, 12),
]


@pytest.mark.parametrize("family,rank,m,order,nrefl,h", GROUP_FACTS)
def test_group_sizes(family, rank, m, order, nrefl, h):
    group = coxeter_group(family, rank, m=m)
    assert len(group.elements()) == order
    assert len(group.reflections) == nrefl
    assert group.type.coxeter_number() == h
    assert all(t.order() == 2 for t in group.reflections)
    assert all(t.length() % 2 == 1 for t in group.reflections)


def test_type_validation():
    with pytest.raises(ValueError):
        coxeter_group("A", 0)
    with pytest.raises(ValueError):
        coxeter_group("Z", 3)
    with pytest.raises(ValueError):
        coxeter_group("I2", 2)
    with pytest.raises(ValueError):
        coxeter_group("I2", 2, m=2)
    with pytest.raises(ValueError):
        coxeter_group("H3", 4)
    with pytest.raises(ValueError):
        coxeter_group("A", 3, m=5)
    assert CoxeterType.from_json({"family": "I2", "rank": 2, "m": 5}).label() == "I2(5)"


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 3, None), ("D", 4, None), ("I2", 2, 8), ("H3", 3, None)])
def test_word_round_trips(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    for w in group.elements():
        word = w.reduced_word()
        assert len(word) == w.length()
        assert group.from_word(word) == w
        assert (w * w.inverse()).is_identity()
        assert w.inverse().length() == w.length()


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_descents_and_search_lengths(family, rank, m):
    """Lengths, inverses, descents, shortlex words and reflections, which
    every family reads off its walk and table, against searched lengths,
    payload products and the closed forms of A, B, D and I2."""
    group = coxeter_group(family, rank, m=m)
    closed = family in oracles.CLOSED_FORM_FAMILIES
    for w in group.elements():
        assert w.length() == oracles.length_by_search(w)
        if closed:
            assert w.length() == oracles.closed_form_length(w)
        assert oracles.reflection_length_by_search(w) == w.reflection_length()
        assert (w * w.inverse()).is_identity()
        assert w.left_descents() == oracles.descents_by_search(w)
        assert w.right_descents() == oracles.descents_by_search(w, left=False)
        assert w.reduced_word() == oracles.shortlex_word_by_search(w)
    if closed:
        assert frozenset(group.reflections) == oracles.closed_form_reflections(group)
    else:
        want = {w for w in group.elements() if oracles.fixed_space_corank(w) == 1}
        assert frozenset(group.reflections) == want


def test_longest_element():
    for group in (coxeter_group("A", 3), coxeter_group("B", 3), coxeter_group("I2", 2, 6)):
        w0 = group.longest_element
        assert w0.length() == group.type.reflection_count()
        assert set(w0.left_descents()) == set(range(1, group.rank + 1))
        assert (w0 * w0).is_identity()


def test_bruhat_against_recursion_oracle():
    for group in (coxeter_group("A", 3), coxeter_group("B", 2)):
        for u in group.elements():
            for v in group.elements():
                assert bruhat_leq(u, v) == oracles.deodhar_leq(u, v)
    group = coxeter_group("A", 4)
    rng = random.Random(11)
    els = group.elements()
    for _ in range(300):
        u = els[rng.randrange(len(els))]
        v = els[rng.randrange(len(els))]
        assert bruhat_leq(u, v) == oracles.deodhar_leq(u, v)


@pytest.mark.parametrize(
    "family,rank,m",
    [g for g in oracles.COVERED_GROUPS if CoxeterType(g[0], g[1], g[2]).order() <= 384],
)
def test_bruhat_bitsets_match_payload_oracles(family, rank, m):
    """The table's lifting-property bitsets give the intervals of the
    subword dynamic program and the order of the one step recursion."""
    group = coxeter_group(family, rank, m=m)
    table = garside_table(group)
    els = group.elements()
    for x, v in enumerate(els):
        assert bruhat_lower_interval(v) == oracles.bruhat_lower_interval_payload(v)
        below = table.below(x)
        assert below == sum(1 << i for i, u in enumerate(els) if oracles.deodhar_leq(u, v))
        assert all(bruhat_leq(u, v) == bool(below >> i & 1) for i, u in enumerate(els))


def test_bruhat_lower_interval():
    group = coxeter_group("B", 2)
    for y in group.elements():
        interval = bruhat_lower_interval(y)
        assert interval == frozenset(
            x for x in group.elements() if bruhat_leq(x, y)
        )


def test_weak_meet_against_sweep_oracle():
    group = coxeter_group("B", 2)
    for x in group.elements():
        for y in group.elements():
            assert weak_meet_left(x, y) == oracles.brute_weak_meet(x, y)
    group = coxeter_group("A", 3)
    rng = random.Random(5)
    els = group.elements()
    for _ in range(60):
        x = els[rng.randrange(len(els))]
        y = els[rng.randrange(len(els))]
        assert weak_meet_left(x, y) == oracles.brute_weak_meet(x, y)


def test_weak_meet_properties():
    group = coxeter_group("A", 3)
    w0 = group.longest_element
    for x in group.elements():
        assert weak_meet_left(x, x) == x
        assert weak_meet_left(x, w0) == x
        assert weak_meet_left(x, group.identity).is_identity()


STANDARD_COUNTS = [
    ("A", 3, None, 4),
    ("A", 5, None, 16),
    ("B", 3, None, 4),
    ("B", 4, None, 8),
    ("D", 4, None, 8),
    ("H3", 3, None, 4),
    ("F4", 4, None, 8),
    ("I2", 2, 9, 2),
]


@pytest.mark.parametrize("family,rank,m,count", STANDARD_COUNTS)
def test_standard_coxeter_elements(family, rank, m, count):
    group = coxeter_group(family, rank, m=m)
    cs = standard_coxeter_elements(group)
    assert len(cs) == count
    assert len(set(cs)) == count
    h = group.type.coxeter_number()
    orderings = coxeter_element_orderings(group)
    for c in cs:
        assert c.order() == h
        assert c.reflection_length() == group.rank
        ordering = orderings[c]
        assert sorted(ordering) == list(range(1, group.rank + 1))
        assert group.from_word(ordering) == c


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 3, None), ("I2", 2, 7)])
def test_reflections_from_coxeter(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    orderings = coxeter_element_orderings(group)
    for c, ordering in orderings.items():
        assert reflections_from_coxeter(c, ordering) == frozenset(group.reflections)


def test_reduced_words_of_longest_element():
    group = coxeter_group("A", 3)
    words = reduced_words(group.longest_element)
    assert len(words) == 16
    assert len(set(words)) == 16
    for word in words:
        assert group.from_word(word) == group.longest_element
    s = group.generator(1)
    assert reduced_words(s) == ((1,),)
    assert reduced_words(group.identity) == ((),)


def test_fixed_space_corank_is_reflection_length():
    """The Fraction elimination of the oracle against the library's
    reflection lengths, and on H3 and F4 also against search."""
    for group in (coxeter_group("B", 3), coxeter_group("A", 3), coxeter_group("D", 4)):
        for w in group.elements():
            assert oracles.fixed_space_corank(w) == w.reflection_length()
    for group in (coxeter_group("H3"), coxeter_group("F4")):
        table = garside_table(group)
        for x, w in enumerate(group.elements()):
            want = oracles.fixed_space_corank(w)
            assert table.rlen(x) == want == oracles.reflection_length_by_search(w)


def test_type_b_embedding_is_a_homomorphism():
    n = 2
    b_group = coxeter_group("B", n)
    images = type_b_embedding(n)
    a_group = next(iter(images.values())).group
    assert a_group.type.label() == "A3"
    matrix = b_group.coxeter_matrix
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            prod = images[i] * images[j]
            assert prod.order() == matrix[i - 1][j - 1]
    seen = {}
    for w in b_group.elements():
        img = type_b_element_embedding(w)
        assert img not in seen.values()
        seen[w] = img
    for x in b_group.elements():
        for y in b_group.elements():
            assert seen[x] * seen[y] == seen[x * y]


def test_element_errors():
    group = coxeter_group("A", 2)
    other = coxeter_group("A", 3)
    with pytest.raises(ValueError):
        group.generator(3)
    with pytest.raises(ValueError):
        group.from_word((0,))
    with pytest.raises(ValueError):
        group.element((1, 2))  # wrong payload size
    with pytest.raises((ValueError, IntegrityError)):
        group.generator(1) * other.generator(1)


def test_sort_key_orders_group_deterministically():
    group = coxeter_group("B", 2)
    els = sorted(group.elements(), key=lambda w: w.sort_key())
    assert len(set(w.sort_key() for w in els)) == len(els)
    assert els == sorted(group.elements(), key=lambda w: w.sort_key())
