"""Dual monoid: divisors, circle model, Hurwitz action, embeddings."""

import inspect
import itertools
import textwrap
from math import comb, factorial

import pytest

from coxbraid import dual, garside, verify
from coxbraid.coxeter import (
    GroupTable,
    IntegrityError,
    coxeter_element_orderings,
    coxeter_group,
    standard_coxeter_elements,
)
from coxbraid.dual import (
    DualAtomTable,
    NoncrossingPartition,
    circle_sequence,
    divisors_of,
    dual_atoms,
    dual_monoid,
    embed_simple,
    hurwitz_orbit,
    hurwitz_orbit_braids,
    linear_coxeter_bruhat_check,
    ncp_decode,
    ncp_encode,
    verify_dual_relations,
)
from coxbraid.garside import BraidWord, braid_equal, fraction_form, is_rational_permutation

import oracles


def catalan(family, rank, m):
    """Cat(W), the number of divisors of a Coxeter element, by family."""
    if family == "A":
        return comb(2 * rank + 2, rank + 1) // (rank + 2)
    if family == "B":
        return comb(2 * rank, rank)
    if family == "D":
        return (3 * rank - 2) * comb(2 * rank - 2, rank - 1) // rank
    return {"I2": (m or 0) + 2, "H3": 32, "F4": 105}[family]


# Every group of oracles.COVERED_GROUPS, D5, and I2(7)
DIVISOR_COUNTS = [
    ("A", 2, None, 5),
    ("A", 3, None, 14),
    ("A", 4, None, 42),
    ("B", 2, None, 6),
    ("B", 3, None, 20),
    ("D", 4, None, 50),
    ("I2", 2, 7, 9),
    ("H3", 3, None, 32),
    ("F4", 4, None, 105),
    ("A", 1, None, 2),
    ("A", 5, None, 132),
    ("B", 4, None, 70),
    ("D", 5, None, 182),
    ("I2", 2, 5, 7),
    ("I2", 2, 6, 8),
    ("I2", 2, 8, 10),
    ("I2", 2, 9, 11),
]


@pytest.mark.parametrize("family,rank,m,count", DIVISOR_COUNTS)
def test_divisor_counts(family, rank, m, count):
    """Every standard Coxeter element, and its dual monoid under its first
    ordering, has Cat(W) divisors: the family's closed form and the pinned
    number agree."""
    assert count == catalan(family, rank, m)
    group = coxeter_group(family, rank, m=m)
    for c, ordering in coxeter_element_orderings(group).items():
        div = divisors_of(c)
        assert len(div) == len(dual_monoid(c, ordering).divisors()) == count
        assert len(set(div)) == count
        assert group.identity in div and c in div
        for x in div:
            rest = x.inverse() * c
            assert x.reflection_length() + rest.reflection_length() == group.rank


def test_divisors_need_a_standard_coxeter_element():
    group = coxeter_group("A", 3)
    with pytest.raises(ValueError):
        divisors_of(group.generator(1))
    with pytest.raises(ValueError):
        divisors_of(group.identity)


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 3, None)])
def test_ncp_round_trip(family, rank, m):
    """Divisors round trip through their partitions; every element that
    does not divide c in absolute order (oracles.abs_divides) is refused."""
    group = coxeter_group(family, rank, m=m)
    for c in standard_coxeter_elements(group):
        seen = set()
        for x in divisors_of(c):
            p = ncp_encode(x, c)
            assert p.is_noncrossing()
            assert ncp_decode(p, c) == x
            seen.add(p.blocks)
            back = NoncrossingPartition.from_json(p.to_json())
            assert back == p
        assert len(seen) == len(divisors_of(c))
        outside = [x for x in group.elements() if not oracles.abs_divides(x, c)]
        assert len(outside) == len(group.elements()) - len(seen)
        for x in outside:
            with pytest.raises(ValueError, match="not a divisor"):
                ncp_encode(x, c)


def test_ncp_decode_rejects_bad_partitions():
    group = coxeter_group("A", 3)
    c = standard_coxeter_elements(group)[0]
    seq = circle_sequence(c)
    assert sorted(seq) == [1, 2, 3, 4]
    crossing = NoncrossingPartition(seq, ((seq[0], seq[2]), (seq[1], seq[3])))
    with pytest.raises(ValueError):
        ncp_decode(crossing, c)
    with pytest.raises(ValueError):
        ncp_decode(NoncrossingPartition(seq, ((seq[0],),)), c)
    with pytest.raises(ValueError):
        ncp_decode(NoncrossingPartition((9, 8, 7, 6), ((9, 8, 7, 6),)), c)


def test_ncp_blocks_match_brute_enumeration():
    group = coxeter_group("A", 3)
    c = standard_coxeter_elements(group)[0]
    seq = circle_sequence(c)
    encoded = {frozenset(map(frozenset, ncp_encode(x, c).blocks)) for x in divisors_of(c)}
    brute = {
        frozenset(map(frozenset, part))
        for part in oracles.set_partitions(seq)
        if oracles.is_noncrossing_on_circle(part, seq)
    }
    assert encoded == brute


def test_type_b_figure_pin():
    group = coxeter_group("B", 5)
    c = group.from_word((2, 1, 3, 5, 4))
    assert circle_sequence(c) == (1, -2, -3, -5, -4, -1, 2, 3, 5, 4)
    x = group.element((5, 3, -2, 1, 4))
    p = ncp_encode(x, c)
    assert p.blocks == ((1, 5, 4), (-2, -3, 2, 3), (-5, -4, -1))
    assert ncp_decode(p, c) == x


def test_circle_sequence_shape():
    a = coxeter_group("A", 4)
    for c in standard_coxeter_elements(a):
        seq = circle_sequence(c)
        assert len(seq) == 5 and seq[0] == 1 and sorted(seq) == [1, 2, 3, 4, 5]
    b = coxeter_group("B", 3)
    for c in standard_coxeter_elements(b):
        seq = circle_sequence(c)
        assert len(seq) == 6 and seq[0] == 1
        half = len(seq) // 2
        assert tuple(-l for l in seq[:half]) == seq[half:]
    with pytest.raises(ValueError):
        circle_sequence(standard_coxeter_elements(coxeter_group("D", 4))[0])


def cap_hurwitz_moves(monkeypatch, group):
    """Stop the Hurwitz closure past |T|^2 moves, so that a broken move,
    which makes a braid orbit infinite, fails instead of running on.  The
    closure moves each distinct adjacent pair once, and the entries of an
    orbit of reflection lifts are the |T| atom braids."""
    closure = dual._hurwitz_closure

    def capped(start, move):
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            assert calls <= len(group.reflections) ** 2, "the Hurwitz orbit does not close"
            return move(a, b)

        return closure(start, counted)

    monkeypatch.setattr(dual, "_hurwitz_closure", capped)


# Deligne's count n! h^n / |W| of the reduced reflection factorisations of
# c, for every standard Coxeter element of each group.
HURWITZ_COUNTS = [
    ("A", 2, None, 3),
    ("A", 3, None, 16),
    ("B", 2, None, 4),
    ("B", 3, None, 27),
    ("I2", 2, 7, 7),
    ("A", 4, None, 125),
    ("B", 4, None, 256),
    ("D", 4, None, 162),
    ("I2", 2, 5, 5),
    ("H3", 3, None, 50),
    ("F4", 4, None, 432),
]


@pytest.mark.parametrize("family,rank,m,count", HURWITZ_COUNTS)
def test_hurwitz_orbit_is_all_factorizations(monkeypatch, family, rank, m, count):
    """The orbit of the first c's reduced factorisation is every one of
    them (brute force), and on every standard ordering the orbits of the
    generators and of their braids have Deligne's count of elements."""
    group = coxeter_group(family, rank, m=m)
    assert count * group.type.order() == factorial(rank) * group.type.coxeter_number() ** rank
    c = standard_coxeter_elements(group)[0]
    start = oracles.t_reduced_factorization(c)
    orbit = hurwitz_orbit(start)
    assert len(orbit) == count
    assert orbit == oracles.reduced_factorizations_brute(c)
    cap_hurwitz_moves(monkeypatch, group)
    for ordering in coxeter_element_orderings(group).values():
        assert len(hurwitz_orbit(tuple(group.generator(i) for i in ordering))) == count
        assert len(hurwitz_orbit_braids(tuple(BraidWord(group, (i,)) for i in ordering))) == count


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 3, None), ("A", 4, None), ("B", 3, None), ("B", 4, None), ("D", 4, None),
     ("D", 5, None), ("I2", 2, 5), ("I2", 2, 8), ("H3", 3, None), ("F4", 4, None)],
)
def test_hurwitz_braid_orbit_matches_letter_moves(monkeypatch, family, rank, m):
    """Moves composed from normal forms give the orbit that folding each
    move from its letters gives, tuple for tuple, on every standard ordering."""
    group = coxeter_group(family, rank, m=m)
    cap_hurwitz_moves(monkeypatch, group)
    for ordering in coxeter_element_orderings(group).values():
        start = tuple(BraidWord(group, (i,)) for i in ordering)
        assert hurwitz_orbit_braids(start) == oracles.hurwitz_orbit_braids_by_letters(start)


# Mutants of the braid move, made from the source of hurwitz_orbit_braids
# and of garside._nf_inv_ids, with the families whose thm-3.7 each must
# fail.  tau is the identity in type B, so dropping it fails A3 only.  A
# broken move leaves the braid orbit infinite, so every variant, the
# unbroken control included, runs through a copy of _hurwitz_closure that
# stops growing the orbit past 200 tuples.
HURWITZ_CAP = ("frontier = nxt", "frontier = nxt if len(seen) < 200 else []")
HURWITZ_MUTANTS = {
    "control": ((), ()),
    "b a b^-1 for a b a^-1": (
        (("_nf_mul_ids(table, ab, _nf_inv_ids(table, na))",
          "_nf_mul_ids(table, _nf_mul_ids(table, nb, na), _nf_inv_ids(table, nb))"),),
        ("A", "B"),
    ),
    "inverse without tau": ((("table.tau[g] if (k + i) % 2 else g", "g"),), ("A",)),
}


@pytest.mark.parametrize("mutant", HURWITZ_MUTANTS)
def test_broken_hurwitz_moves_fail_thm_3_7(monkeypatch, mutant):
    edits, failing = HURWITZ_MUTANTS[mutant]
    namespace = {**vars(garside), **vars(dual)}
    sources = [textwrap.dedent(inspect.getsource(fn))
               for fn in (garside._nf_inv_ids, dual._hurwitz_closure, dual.hurwitz_orbit_braids)]
    for old, new in (HURWITZ_CAP, *edits):
        assert sum(source.count(old) for source in sources) == 1
        sources = [source.replace(old, new) for source in sources]
    for source in sources:
        exec(source, namespace)
    monkeypatch.setattr(verify, "hurwitz_orbit_braids", namespace["hurwitz_orbit_braids"])
    for family in ("A", "B"):
        report = verify.run_check("thm-3.7", family, 3)
        assert report.passed is (family not in failing)
        assert all(it["factorizations"] == (16 if family == "A" else 27) for it in report.items)


def test_hurwitz_braid_orbit_projects_bijectively():
    group = coxeter_group("A", 3)
    c = standard_coxeter_elements(group)[0]
    dm = dual_monoid(c)
    start = tuple(dm.embed(t) for t in oracles.t_reduced_factorization(c))
    braids = hurwitz_orbit_braids(start)
    refl = hurwitz_orbit(oracles.t_reduced_factorization(c))
    assert len(braids) == len(refl)
    projected = {tuple(b.image() for b in tup) for tup in braids}
    assert projected == refl


def test_f4_atom_table_renorm_count(monkeypatch):
    """Building the F4 atom table from c's simple prefixes and one
    conjugation by b(c) per index makes at most 250 renorm calls (180 on
    ordering (1, 2, 3, 4); conjugating whole rows of rotated orderings by
    a_1 made 716, folding the 48 rotation words 4426, and a bubble over
    the whole factor list after every word 77 780).  Embedding its 105
    divisors, one product each from the lattice parent, makes at most 300
    (259; a product of l_T(x) atoms per divisor made 340)."""
    group = coxeter_group("F4")
    group.table
    calls = 0
    renorm = GroupTable.renorm

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return renorm(self, x, y)

    monkeypatch.setattr(GroupTable, "renorm", counted)
    c = group.from_word((1, 2, 3, 4))
    monoid = dual.DualMonoid(c, (1, 2, 3, 4))
    assert 0 < calls <= 250
    calls = 0
    for x in monoid.divisors():
        monoid.embed_nf_ids(x)
    assert 0 < calls <= 300


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 3, None), ("I2", 2, 8), ("H3", 3, None)])
def test_dual_atoms(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    for c in standard_coxeter_elements(group):
        table = dual_atoms(c)
        assert frozenset(table.reflections) == frozenset(group.reflections)
        assert table.all_rational()
        keys = {table.normal_form_ids(t) for t in table.reflections}
        assert len(keys) == len(group.reflections)
        for t in table.reflections:
            assert table.braid(t).image() == t
        for w in set(group.elements()) - set(group.reflections):
            for lookup in (table.braid, table.normal_form_ids):
                with pytest.raises(ValueError, match="not a reflection"):
                    lookup(w)


def test_dual_atoms_is_the_monoid_table():
    """dual_atoms returns the table its dual monoid holds: one build per
    (c, ordering), with the monoid's checks on the ordering."""
    group = coxeter_group("B", 3)
    for c, ordering in coxeter_element_orderings(group).items():
        assert dual_atoms(c, ordering) is dual_monoid(c, ordering).atoms
        assert dual_atoms(c) is dual_monoid(c, None).atoms
        assert dual_atoms(c).ordering == ordering
    with pytest.raises(ValueError):
        dual_atoms(group.from_word((1, 2)))
    with pytest.raises(ValueError):
        dual_atoms(group.from_word((1, 2, 3)), (3, 2, 1))


def test_dihedral_atoms_closed_form():
    m = 9
    group = coxeter_group("I2", 2, m)
    c = group.from_word((1, 2))
    table = dual_atoms(c, (1, 2))
    words = set()
    for t in table.reflections:
        words.add(table.braid(t).letters)
    expected = set()
    for k in range(1, m + 1):
        alt = tuple(1 if i % 2 == 0 else 2 for i in range(k))
        prev = tuple(1 if i % 2 == 0 else 2 for i in range(k - 1))
        expected.add(alt + tuple(-l for l in reversed(prev)))
    assert words == expected


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 3, None), ("I2", 2, 6)])
def test_embed_simple(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    for c in standard_coxeter_elements(group):
        ordering = coxeter_element_orderings(group)[c]
        dm = dual_monoid(c, ordering)
        for x in dm.divisors():
            b = dm.embed(x)
            assert is_rational_permutation(b)
            assert b.image() == x
            assert braid_equal(embed_simple(x, c, ordering), b)
        assert dm.embed(c).letters == ordering
        assert dm.embed(group.identity).letters == ()


def test_embed_is_multiplicative_on_complements():
    group = coxeter_group("B", 3)
    c = standard_coxeter_elements(group)[0]
    dm = dual_monoid(c)
    for x in dm.divisors():
        rest = x.inverse() * c
        assert dm.contains(rest)
        assert braid_equal(dm.embed(x) * dm.embed(rest), dm.embed(c))


def test_embed_rejects_non_divisors():
    group = coxeter_group("A", 3)
    c = standard_coxeter_elements(group)[0]
    dm = dual_monoid(c)
    outside = [w for w in group.elements() if not dm.contains(w)]
    assert outside
    with pytest.raises(ValueError):
        dm.embed(outside[0])


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 2, None), ("I2", 2, 5)])
def test_t_reduced_factorization(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    T = set(group.reflections)
    for x in group.elements():
        fact = oracles.t_reduced_factorization(x)
        assert len(fact) == x.reflection_length()
        acc = group.identity
        for t in fact:
            assert t in T
            acc = acc * t
        assert acc == x


@pytest.mark.parametrize("family,rank,m", [*oracles.COVERED_GROUPS, ("D", 5, None)])
def test_dual_relations_hold(family, rank, m):
    """One row per ordered pair of distinct reflections whose product
    divides c in absolute order (oracles.abs_divides), in the order of T."""
    group = coxeter_group(family, rank, m=m)
    T = group.reflections
    for c, ordering in coxeter_element_orderings(group).items():
        rows = verify_dual_relations(c, ordering)
        expected = [(t1, t2, t2 * t1 * t2, True) for t1 in T for t2 in T
                    if t1 != t2 and oracles.abs_divides(t1 * t2, c)]
        assert (rows or rank == 1) and list(rows) == expected


@pytest.mark.parametrize("family,rank,m", [*oracles.COVERED_GROUPS, ("D", 5, None)])
def test_simple_dual_braids_have_their_dual_normal_form(family, rank, m):
    """Every simple dual braid of every ordering, certified by the dual
    normal form of its Coxeter element (oracles.DualNormalForm): the letters
    of embed(x), and of b(u)^-1 b(v) for (u, v) its fraction form, both
    have the normal form of the simple x."""
    group = coxeter_group(family, rank, m=m)
    for c, ordering in coxeter_element_orderings(group).items():
        dnf = oracles.DualNormalForm(c)
        dm = dual_monoid(c, ordering)
        for x in dm.divisors():
            b = dm.embed(x)
            u, v = fraction_form(b)
            fraction = (*(-l for l in reversed(u.reduced_word())), *v.reduced_word())
            assert dnf.of_letters(b.letters) == dnf.of_letters(fraction) == dnf.of_simple(x)


def test_linear_coxeter_bruhat():
    rows = linear_coxeter_bruhat_check(3)
    assert rows
    assert all(ok for _, _, _, ok in rows)


@pytest.mark.parametrize("rank", [2, 3])
def test_type_b_absolute_order_embedding(rank):
    group = coxeter_group("B", rank)
    for c in standard_coxeter_elements(group):
        assert oracles.type_b_absolute_order_embedding_check(c)



@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_id_divisibility_matches_definition(family, rank, m):
    """Absolute order on table ids against reflection lengths by search:
    all pairs in groups of at most 120 elements, all (x, c) otherwise."""
    group = coxeter_group(family, rank, m=m)
    table = group.table
    els = group.elements()
    if len(els) <= 120:
        tops = els
    else:
        tops = standard_coxeter_elements(group)
    for y in tops:
        yid = y.id
        for xid, x in enumerate(els):
            expected = oracles.abs_divides_by_search(x, y)
            assert oracles.abs_divides_ids(table, xid, yid) == expected
    for c in standard_coxeter_elements(group):
        dm = dual_monoid(c)
        for x in els:
            assert dm.contains(x) == oracles.abs_divides_by_search(x, c)


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_divisors_and_factorizations_match_payload_versions(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    for c in standard_coxeter_elements(group):
        assert divisors_of(c) == oracles.divisors_of_payload(c)
    for x in group.elements():
        assert oracles.t_reduced_factorization(x) == oracles.t_reduced_factorization_payload(x)


@pytest.mark.parametrize("family,rank,m", [*oracles.COVERED_GROUPS, ("D", 5, None)])
def test_lattice_and_atoms_match_the_search_and_fold(family, rank, m):
    """On every ordering: the divisors against the search, order included;
    the atom normal forms and letters against folding the rotation words;
    the simple dual braids against products along a greedy T-factorisation,
    id for id; and each divisor's path of lattice parents is a
    T-factorisation of it, of l_T(x) letters."""
    group = coxeter_group(family, rank, m=m)
    table = group.table
    els = group.elements()
    for c in standard_coxeter_elements(group):
        assert divisors_of(c) == oracles.divisors_by_search(c)
        interval = dual._interval(c)
        for x in interval:
            path, y = [], x
            while interval[y] is not None:
                y, t = interval[y]
                path.append(els[t])
            product = group.identity
            for t in reversed(path):
                product = product * t
            assert product == els[x]
            assert len(path) == els[x].reflection_length()
            assert set(path) <= set(group.reflections)
    for ordering in itertools.permutations(range(1, rank + 1)):
        c = group.from_word(ordering)
        monoid = dual.DualMonoid(c, ordering)
        nfs, letters = oracles.atoms_by_rotation_words(c, ordering)
        for t in group.reflections:
            assert monoid.atoms.normal_form_ids(t) == nfs[t.id]
            assert monoid.atoms.braid(t).letters == letters[t.id]
        for x in monoid.divisors():
            assert monoid.embed_nf_ids(x) == oracles.embed_nf_ids_by_t_factors(table, nfs, x.id)
