"""Coxeter group backends, length functions, and both orders."""

import hashlib
import json
import random
from functools import partial

import pytest

from coxbraid.coxeter import (
    CoxeterGroup,
    CoxeterType,
    GroupTable,
    IntegrityError,
    _parabolic,
    _root_permutations,
    bruhat_leq,
    bruhat_lower_interval,
    coxeter_element_orderings,
    coxeter_group,
    reduced_words,
    reflections_from_coxeter,
    standard_coxeter_elements,
)

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
        assert oracles.right_descents(w) == oracles.descents_by_search(w, left=False)
        assert w.reduced_word() == oracles.shortlex_word_by_search(w)
    if closed:
        assert frozenset(group.reflections) == oracles.closed_form_reflections(group)
    else:
        want = {w for w in group.elements() if oracles.fixed_space_corank(w) == 1}
        assert frozenset(group.reflections) == want


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_coxeter_matrix_and_parabolic_subgroups(family, rank, m):
    """The type's Coxeter graph is the one its generators multiply out to,
    special letters of B and D included.  The parabolic subgroup on a set
    of letters has as many elements, and reflections, as there are of the
    group's whose reduced words use only those letters."""
    group = coxeter_group(family, rank, m=m)
    labels = group.type.coxeter_matrix()
    matrix = tuple(tuple(1 if s == t else labels.get((min(s, t), max(s, t)), 2) for t in range(rank))
                   for s in range(rank))
    assert matrix == oracles.coxeter_matrix(group)

    def supports(elements):
        return [sum(1 << s - 1 for s in set(w.reduced_word())) for w in elements]

    elements, reflections = supports(group.elements()), supports(group.reflections)
    for mask in range(1 << rank):
        want = tuple(sum(k & ~mask == 0 for k in ks) for ks in (elements, reflections))
        assert _parabolic(labels, mask) == want


@pytest.mark.parametrize(
    "family,rank,m", [*oracles.COVERED_GROUPS, ("D", 5, None), ("B", 5, None), ("A", 6, None)]
)
def test_right_descent_masks_match_one_expression_per_element(family, rank, m):
    """rdesc, built a generator column at a time, equals the masks built
    with one generator expression per element, on every covered group and
    on D5, B5 and A6, which the table digests do not pin."""
    table = coxeter_group(family, rank, m=m).table
    assert table.rdesc == oracles.rdesc_by_elements(table)


def test_word_stops_when_descents_miss_the_identity():
    """Right descent masks in place of left ones send the word astray:
    word raises after length[x] steps instead of walking on."""
    table = CoxeterGroup(CoxeterType("A", 3)).table
    table.__dict__["ldesc"] = list(table.rdesc)
    with pytest.raises(IntegrityError, match="no reduced word"):
        table.word(table.w0)


def test_longest_element():
    for group in (coxeter_group("A", 3), coxeter_group("B", 3), coxeter_group("I2", 2, 6)):
        w0 = oracles.longest_element(group)
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
    table = group.table
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
            assert oracles.weak_meet_left(x, y) == oracles.brute_weak_meet(x, y)
    group = coxeter_group("A", 3)
    rng = random.Random(5)
    els = group.elements()
    for _ in range(60):
        x = els[rng.randrange(len(els))]
        y = els[rng.randrange(len(els))]
        assert oracles.weak_meet_left(x, y) == oracles.brute_weak_meet(x, y)


def test_weak_meet_properties():
    group = coxeter_group("A", 3)
    w0 = oracles.longest_element(group)
    for x in group.elements():
        assert oracles.weak_meet_left(x, x) == x
        assert oracles.weak_meet_left(x, w0) == x
        assert oracles.weak_meet_left(x, group.identity).is_identity()


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
    words = reduced_words(oracles.longest_element(group))
    assert len(words) == 16
    assert len(set(words)) == 16
    for word in words:
        assert group.from_word(word) == oracles.longest_element(group)
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
        table = group.table
        for x, w in enumerate(group.elements()):
            want = oracles.fixed_space_corank(w)
            assert table.rlens[x] == want == oracles.reflection_length_by_search(w)


def check_against_matrix_model(table: GroupTable) -> None:
    """The root permutation table of H3 or F4, against the matrix model of
    tests/oracles.py: x maps to the matrix of table.word(x), and that map
    must be a bijection onto the matrix group that carries over lengths,
    inverses, right products, reflections and reflection lengths."""
    group = table.group
    fam = group.type.family
    ident, gens, mul = oracles.MATRIX_MODELS[fam]
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = mul(p, g)
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    image = [oracles.matrix_of_word(fam, table.word(x)) for x in range(len(table.length))]
    assert len(set(image)) == len(image) == len(dist) == group.type.order()
    assert set(image) == set(dist)
    for x, p in enumerate(image):
        assert table.length[x] == dist[p]
        assert mul(p, image[table.inv[x]]) == ident
        for s, g in enumerate(gens):
            assert image[table.rmul[s][x]] == mul(p, g)
    conjugates = set(gens)
    frontier = list(gens)
    while frontier:
        frontier = [c for t in frontier for g in gens if (c := mul(mul(g, t), g)) not in conjugates]
        conjugates.update(frontier)
    assert {image[t.id] for t in group.reflections} == conjugates
    assert list(table.rlens) == [oracles.matrix_corank(fam, p) for p in image]


@pytest.mark.parametrize("family", ["H3", "F4"])
def test_root_model_matches_matrix_model(family):
    check_against_matrix_model(coxeter_group(family).table)


def test_matrix_differential_catches_swapped_generators():
    """Swapping two generator permutations still gives a Coxeter system of
    the right order, which only the matrix model tells apart."""
    group = CoxeterGroup(CoxeterType("H3", 3))
    gens = list(group._gen_payloads)
    gens[0], gens[1] = gens[1], gens[0]
    group._gen_payloads = tuple(gens)
    with pytest.raises(AssertionError):
        check_against_matrix_model(group.table)


# Cartan matrices over Z[phi], entries (a, b) meaning a + b*phi, for two
# groups the package does not register, and their Coxeter matrices.
_P, _Z, _M, _F = (2, 0), (0, 0), (-1, 0), (0, -1)
H4_CARTAN = ((_P, _F, _Z, _Z), (_F, _P, _M, _Z), (_Z, _M, _P, _M), (_Z, _Z, _M, _P))
H4_COXETER = ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1))
# E6 in Bourbaki numbering: the chain 1-3-4-5-6, with 2 joined to 4
E6_EDGES = {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)}
E6_COXETER = tuple(
    tuple(1 if i == j else 3 if (i, j) in E6_EDGES or (j, i) in E6_EDGES else 2 for j in range(1, 7))
    for i in range(1, 7)
)
E6_CARTAN = tuple(tuple({1: _P, 3: _M, 2: _Z}[m] for m in row) for row in E6_COXETER)


@pytest.mark.parametrize(
    "cartan,coxeter_matrix,roots",
    [(H4_CARTAN, H4_COXETER, 120), (E6_CARTAN, E6_COXETER, 72)],
    ids=["H4", "E6"],
)
def test_root_builder_on_unregistered_groups(cartan, coxeter_matrix, roots):
    gens = _root_permutations(cartan)
    ident = tuple(range(1, roots + 1))
    assert all(sorted(g) == list(ident) for g in gens)
    mul = partial(oracles.payload_mul, coxeter_group("H3"))  # root permutations, as H3's
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            g = mul(gi, gj)
            p, order = g, 1
            while p != ident:
                p, order = mul(p, g), order + 1
            assert order == coxeter_matrix[i][j]


def test_type_b_embedding_is_a_homomorphism():
    n = 2
    b_group = coxeter_group("B", n)
    images = oracles.type_b_embedding(n)
    a_group = next(iter(images.values())).group
    assert a_group.type.label() == "A3"
    matrix = oracles.coxeter_matrix(b_group)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            prod = images[i] * images[j]
            assert prod.order() == matrix[i - 1][j - 1]
    seen = {}
    for w in b_group.elements():
        img = oracles.type_b_element_embedding(w)
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


def test_equality_is_group_identity():
    """Elements of two group objects never compare equal, even of one type:
    a group built directly numbers its ids by its own walk, which patched
    generators change (test_matrix_differential_catches_swapped_generators)."""
    singleton = coxeter_group("A", 3)
    direct = CoxeterGroup(CoxeterType("A", 3))
    for x in (0, 5, 23):
        assert direct.elements()[x] != singleton.elements()[x]
        assert direct.elements()[x] == direct.elements()[x]
    with pytest.raises(ValueError, match="used with"):
        singleton.member(oracles.longest_element(direct))
    w0 = oracles.longest_element(singleton)
    assert singleton.member(w0) is w0


def test_sort_key_orders_group_deterministically():
    """Ids are the one sort key: they order the group by length, then payload."""
    group = coxeter_group("B", 2)
    els = sorted(group.elements(), key=lambda w: (w.length(), w.payload))
    assert [w.id for w in els] == list(range(len(els)))
    assert els == list(group.elements())


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_id_kernel_matches_payload_arithmetic(family, rank, m):
    """Elements are walk ids: their products, words, reflections and payload
    lookups equal payload arithmetic on every pair of a group of order at
    most 120, and on a seeded sample of 3000 pairs above that."""
    group = coxeter_group(family, rank, m=m)
    els = group.elements()
    rng = random.Random(rank * 37 + (m or 0))
    if len(els) <= 120:
        pairs = [(x, y) for x in els for y in els]
    else:
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(3000)]
    for x, y in pairs:
        assert (x * y).payload == oracles.payload_mul(group, x.payload, y.payload)
    for _ in range(300):
        word = [rng.randint(1, rank) for _ in range(rng.randint(0, 2 * len(group.reflections)))]
        assert group.from_word(word).payload == oracles.payload_of_word(group, word)
    assert {t.payload for t in group.reflections} == oracles.reflections_by_conjugation(group)
    assert [t.id for t in group.reflections] == sorted(t.id for t in group.reflections)
    assert [group.element(w.payload).id for w in els] == list(range(len(els)))


@pytest.mark.parametrize(
    "family,rank,m,bad",
    [
        ("A", 3, None, (1, 1, 2, 3)),  # not a permutation
        ("B", 3, None, (1, -1, 2)),  # a repeated |value|
        ("D", 4, None, (-1, 2, 3, 4)),  # an odd number of negatives
        ("I2", 2, 5, (5, 0)),  # k >= m
        ("H3", 3, None, "permuted"),
        ("F4", 4, None, "permuted"),
    ],
)
def test_element_rejects_payloads_outside_the_walk(family, rank, m, bad):
    """element(p) is walk membership: one non-member per family, the
    identity with two roots swapped for H3 and F4, and any list, raise."""
    group = coxeter_group(family, rank, m=m)
    ident = group.identity.payload
    if bad == "permuted":
        bad = (ident[1], ident[0]) + ident[2:]
    with pytest.raises(ValueError, match="invalid payload"):
        group.element(bad)
    with pytest.raises(ValueError, match="invalid payload"):
        group.element(list(ident))
    assert group.element(ident).is_identity()


# sha256 of each covered group's id table (see table_digest), recorded from
# the code before the table moved into coxeter.py
TABLE_DIGESTS = {
    "A1": "6aa2fe48afa534cc3597402f06d27b91bcf16f2ea76f73b0bd20a4be3169c165",
    "A2": "ff99d3edf1e9cad5048c401ca0ef64423dca45d0fecb73209b33f83bf7a7674b",
    "A3": "71092f1e0b23dfaf9fa72ec8178d4f76abdd35a673b54c11e2e978616f226876",
    "A4": "50bf7a88cee23a4112da11daa954a0cb6ae93e0ee09f081c962500e16ac7539a",
    "A5": "536fc9bc237b741fd0e55518c7f596574dc1f8c238cf0b7368c73d1618e45a5c",
    "B2": "bd16293c63515318159776fbf0b9be8d06605fe3704a60ee8af2cf4723379a55",
    "B3": "90afb9d99fa6b2409ab5b92ca5653b705722d880a747bf69b728ccbc409a1cc4",
    "B4": "16781a6b1cedfaf66f5bfcd8372cb8102c0c3b9ff85b6966f38e0cefa33885a2",
    "D4": "c8564bcbe8b711dfc1d0548e46eac128bbd369be88dc9a4185f6aadff44f8331",
    "I2(5)": "3feb082a48610e950fbf75c9ae9fadc3e908db7b3684b06e659c18188c38e256",
    "I2(6)": "cc49c71157ca3335b171b64f7af7d6f9e25c144ffb01e717ad3c97ab9a457758",
    "I2(7)": "772dde5f392c0b5c7a3c397a3dd96a70cfdfa3b0a64e140337fe84ae5f509fce",
    "I2(8)": "871175d53b44f48e7d97b13baecd8d2a20482406f84739f8abd8caca1e29d7d9",
    "I2(9)": "0df30b7d9b1a60a0c4d11d41540018a699cba0d8f24396b1b8c8df4ac6c50766",
    "H3": "773d67d6013e0b98b145105e307b2c23f862e3f8a16508576cac1ed45416e43c",
    "F4": "d2d0a2b43f9895b299a7f35ff81f3e95c1a0253af9224bc0982a53ffddc57edc",
}


def table_digest(group: CoxeterGroup) -> str:
    t = group.table
    fields = [t.payloads, t.rmul, t.length, t.inv, t.lmul, t.ldesc, t.rdesc, t.tau,
              t.reflections, t.rlens, [t.word(x) for x in range(len(t.length))]]
    return hashlib.sha256(json.dumps(fields, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_table_digests_are_pinned(family, rank, m):
    """The id layout and everything derived from it, pinned per group: the
    JSON of payloads, rmul, length, inv, lmul, ldesc, rdesc, tau,
    reflections, rlens and the shortlex word of every id.  A deliberate
    relabelling of the ids, such as an id order that does not depend on
    the payload backend (ROADMAP), changes these digests and must re-pin
    them."""
    group = coxeter_group(family, rank, m=m)
    assert table_digest(group) == TABLE_DIGESTS[group.type.label()]


def test_walk_queries_leave_the_derived_table_unbuilt():
    """elements, element(payload), from_word, generators, length and inverse
    read only the walk's fields, so the benchmark's set-up, which times
    coxeter_group(...).elements(), builds nothing the walk does not."""
    group = CoxeterGroup(CoxeterType("F4", 4))
    w = group.elements()[600]
    assert group.element(w.payload) == w
    assert group.from_word((1, 2, 3, 4)) != w
    assert len(group.generators) == 4
    assert w.length() == w.inverse().length()
    table = group.table
    derived = {"lmul", "rdesc", "ldesc", "tau", "_classes", "reflections", "rlens"}
    assert derived.isdisjoint(vars(table))
    assert table._words.count(None) == len(table.length)
    assert table._below.count(0) == len(table.length) - 1
