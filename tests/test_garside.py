"""Classical Garside structure: normal forms, fractions, signed lifts."""

import random
from functools import partial

import pytest

from coxbraid import coxeter, garside
from coxbraid.coxeter import (
    CoxeterElement,
    CoxeterGroup,
    CoxeterType,
    IntegrityError,
    coxeter_element_orderings,
    coxeter_group,
    reduced_words,
)
from coxbraid.garside import (
    BraidWord,
    GarsideNormalForm,
    _nf_ids,
    _nf_inv_ids,
    _nf_mul_ids,
    braid_equal,
    delta_normal_form,
    embed_braid_b_to_a,
    fraction_form,
    is_rational_permutation,
    is_square_free,
    is_tau_fixed,
    mirror_letters,
    positive_lift,
    signed_lift,
    square_free_witness,
)
from coxbraid.verify import run_check

import oracles


def random_words(group, count, max_len, seed):
    rng = random.Random(seed)
    letters = [l for i in range(1, group.rank + 1) for l in (i, -i)]
    out = []
    for _ in range(count):
        k = rng.randrange(0, max_len + 1)
        out.append(tuple(rng.choice(letters) for _ in range(k)))
    return out


def fraction_words(group, count, max_len, seed):
    """Words x^-1 y and x y^-1 for random positive words x and y, the shape
    of a fraction: runs of one sign, so that the fold's twist frame flips at
    every letter of a negative run and holds through a positive one."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        x, y = (tuple(rng.randint(1, group.rank) for _ in range(rng.randrange(max_len + 1)))
                for _ in range(2))
        inv = tuple(-l for l in reversed(x if i % 2 == 0 else y))
        out.append(inv + y if i % 2 == 0 else x + inv)
    return out


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 2, None), ("I2", 2, 5)])
def test_normal_form_round_trip(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    for word in random_words(group, 80, 9, seed=rank * 17 + (m or 0)):
        b = BraidWord(group, word)
        nf = delta_normal_form(b)
        assert braid_equal(oracles.braid_from_normal_form(nf), b)
        back = GarsideNormalForm.from_json(group, nf.to_json())
        assert back.inf == nf.inf and back.factors == nf.factors


def test_normal_form_shape():
    group = coxeter_group("A", 3)
    w0 = oracles.longest_element(group)
    for word in random_words(group, 120, 10, seed=3):
        nf = delta_normal_form(BraidWord(group, word))
        for f in nf.factors:
            assert not f.is_identity()
            assert f != w0
        for left, right in zip(nf.factors, nf.factors[1:]):
            assert right.left_descents() <= oracles.right_descents(left)


def test_word_problem_against_rewriting_oracle():
    group = coxeter_group("A", 2)
    rng = random.Random(23)
    words = random_words(group, 40, 6, seed=9)
    for u in words[:20]:
        for v in words[20:]:
            lib = braid_equal(BraidWord(group, u), BraidWord(group, v))
            if lib:
                assert oracles.rewriting_equal(group, u, v)
        sc = oracles.scrambled(u, group, rng, moves=4)
        assert braid_equal(BraidWord(group, u), BraidWord(group, sc))
        assert oracles.rewriting_equal(group, u, sc)


def test_positive_word_problem_is_tits_closure():
    group = coxeter_group("A", 3)
    rng = random.Random(41)
    for _ in range(60):
        k = rng.randrange(1, 8)
        u = tuple(rng.randrange(1, 4) for _ in range(k))
        v = tuple(rng.randrange(1, 4) for _ in range(k))
        lib = braid_equal(BraidWord(group, u), BraidWord(group, v))
        assert lib == (v in oracles.positive_class(group, u))


def test_delta_squared_is_central():
    for group in (coxeter_group("A", 3), coxeter_group("B", 2)):
        delta = positive_lift(oracles.longest_element(group))
        d2 = delta * delta
        for word in random_words(group, 15, 6, seed=2):
            b = BraidWord(group, word)
            assert braid_equal(d2 * b, b * d2)


def test_delta_twist_matches_conjugation():
    for group in (coxeter_group("A", 3), coxeter_group("B", 2), coxeter_group("I2", 2, 5)):
        delta = positive_lift(oracles.longest_element(group))
        for word in random_words(group, 15, 6, seed=4):
            b = BraidWord(group, word)
            assert braid_equal(oracles.delta_twist(b), delta.inverse() * b * delta)


def test_rational_membership():
    group = coxeter_group("A", 2)
    for x in group.elements():
        for y in group.elements():
            b = positive_lift(x).inverse() * positive_lift(y)
            assert is_rational_permutation(b)
    s1 = BraidWord(group, (1,))
    assert not is_rational_permutation(s1 * s1)
    assert not is_rational_permutation((s1 * s1).inverse())
    assert is_rational_permutation(BraidWord(group, ()))


def test_fraction_forms_every_rational_braid():
    group = coxeter_group("A", 2)
    e = group.identity
    for x in group.elements():
        for y in group.elements():
            b = positive_lift(x).inverse() * positive_lift(y)
            fx, fy = fraction_form(b)
            assert oracles.brute_weak_meet(fx, fy) == e
            assert braid_equal(positive_lift(fx).inverse() * positive_lift(fy), b)
            rx, ry = oracles.right_fraction_form(b)
            assert braid_equal(positive_lift(rx) * positive_lift(ry).inverse(), b)


def test_fraction_form_rejects_non_rational():
    group = coxeter_group("A", 2)
    big = BraidWord(group, (1, 1))
    with pytest.raises(ValueError):
        fraction_form(big)
    with pytest.raises(ValueError):
        oracles.right_fraction_form(big)


def test_signed_lift_round_trip():
    group = coxeter_group("A", 3)
    rng = random.Random(6)
    els = group.elements()
    for _ in range(40):
        x = els[rng.randrange(len(els))]
        y = els[rng.randrange(len(els))]
        b = positive_lift(x).inverse() * positive_lift(y)
        lift = signed_lift(b)
        assert braid_equal(lift, b)
        assert tuple(abs(l) for l in lift.letters) == b.image().reduced_word()


def test_signed_lift_rejects_wrong_word():
    group = coxeter_group("A", 2)
    b = positive_lift(group.generator(1))
    with pytest.raises(ValueError):
        signed_lift(b, (2,))
    with pytest.raises(ValueError):
        signed_lift(b, (1, 1, 1))
    for letter in (0, -1, 3):
        with pytest.raises(ValueError):
            signed_lift(b, (letter,))


@pytest.mark.parametrize(
    "family,rank,m", [("A", 1, None), ("A", 2, None), ("A", 3, None), ("B", 2, None), ("I2", 2, 5)]
)
def test_signed_lift_matches_payload_walk(family, rank, m):
    """The sign walk on table ids equals the walk on payloads, for the
    shortlex word and for the last reduced word of every pair braid."""
    group = coxeter_group(family, rank, m=m)
    for x in group.elements():
        for y in group.elements():
            b = positive_lift(x).inverse() * positive_lift(y)
            assert signed_lift(b).letters == oracles.signed_lift_payload(b).letters
            last = reduced_words(b.image())[-1]
            assert signed_lift(b, last).letters == oracles.signed_lift_payload(b, last).letters


def test_square_free():
    group = coxeter_group("A", 2)
    for w in group.elements():
        assert is_square_free(positive_lift(w))
        assert is_square_free(positive_lift(w).inverse())
    s1 = BraidWord(group, (1,))
    assert not is_square_free(s1 * s1)
    witness = square_free_witness(BraidWord(group, (-1, 2, 1)))
    assert witness is not None
    word, signs = witness
    cand = BraidWord(group, tuple(i * s for i, s in zip(word, signs)))
    assert braid_equal(cand, BraidWord(group, (-1, 2, 1)))


def test_square_free_beyond_rational():
    group = coxeter_group("A", 2)
    # Delta * s1 has normal form of supremum 2, yet admits a square free word.
    b = BraidWord(group, (2, 1, 2, 2))
    assert not is_rational_permutation(b)
    assert not is_square_free(b)
    c = BraidWord(group, (1, 2, -1, -2))
    got = square_free_witness(c)
    if got is not None:
        word, signs = got
        assert braid_equal(
            BraidWord(group, tuple(i * s for i, s in zip(word, signs))), c
        )


def test_mirror_and_tau():
    group = coxeter_group("A", 3)
    b = BraidWord(group, (1, -2, 3))
    assert mirror_letters(b).letters == (3, -2, 1)
    assert mirror_letters(mirror_letters(b)).letters == b.letters
    assert is_tau_fixed(BraidWord(group, (2,)))
    assert is_tau_fixed(BraidWord(group, (1, 3)))
    assert not is_tau_fixed(BraidWord(group, (1,)))
    with pytest.raises(ValueError):
        mirror_letters(BraidWord(coxeter_group("B", 2), (1,)))


def test_type_b_fold_is_a_homomorphism():
    b_group = coxeter_group("B", 2)
    for u in random_words(b_group, 25, 6, seed=8):
        for v in random_words(b_group, 5, 4, seed=9):
            bu, bv = BraidWord(b_group, u), BraidWord(b_group, v)
            lhs = embed_braid_b_to_a(bu * bv)
            rhs = embed_braid_b_to_a(bu) * embed_braid_b_to_a(bv)
            assert braid_equal(lhs, rhs)
        img = embed_braid_b_to_a(BraidWord(b_group, u))
        assert is_tau_fixed(img)
    with pytest.raises(ValueError):
        embed_braid_b_to_a(BraidWord(coxeter_group("A", 2), (1,)))


def test_braid_word_validation():
    group = coxeter_group("A", 2)
    with pytest.raises(ValueError):
        BraidWord(group, (0,))
    with pytest.raises(ValueError):
        BraidWord(group, (3,))
    with pytest.raises(ValueError):
        BraidWord(group, (1,)) * BraidWord(coxeter_group("A", 3), (1,))
    assert BraidWord.from_json(BraidWord(group, (1, -2)).to_json()).letters == (1, -2)



@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_table_matches_payload_arithmetic(family, rank, m):
    """The derived left products, twists, inverses and shortlex words equal
    payload arithmetic."""
    group = coxeter_group(family, rank, m=m)
    table = group.table
    P = table.payloads
    mul = partial(oracles.payload_mul, group)
    ident = group.identity.payload
    w0 = oracles.longest_element(group).payload
    for x, p in enumerate(P):
        for s, g in enumerate(group._gen_payloads):
            assert P[table.lmul[s][x]] == mul(g, p)
            assert P[table.rmul[s][x]] == mul(p, g)
        assert P[table.tau[x]] == mul(mul(w0, p), w0)
        assert mul(p, P[table.inv[x]]) == ident
        assert table.word(x) == oracles.shortlex_word_by_search(CoxeterElement(group, x))
    assert {table.tau[g] for g in table.gen_ids} == set(table.gen_ids)
    rng = random.Random(rank * 31 + (m or 0))
    size = len(P)
    if size <= 120:
        pairs = [(x, y) for x in range(size) for y in range(size)]
    else:
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(3000)]
    for x, y in pairs:
        assert P[table.mul(x, y)] == mul(P[x], P[y])


def degrees(family, rank, m):
    """Degrees of the basic invariants of the group."""
    if family == "A":
        return list(range(2, rank + 2))
    if family == "B":
        return list(range(2, 2 * rank + 1, 2))
    if family == "D":
        return list(range(2, 2 * rank - 1, 2)) + [rank]
    if family == "I2":
        return [2, m]
    return {"H3": [2, 6, 10], "F4": [2, 6, 8, 12]}[family]


def poincare_coefficients(degs):
    """Coefficients of the product of (1 + q + ... + q^(d-1)) over degs."""
    coeffs = [1]
    for d in degs:
        nxt = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                nxt[i + j] += c
        coeffs = nxt
    return coeffs


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_walk_matches_checks_outside_the_walk(family, rank, m):
    """Ids, lengths and inverses of the Cayley graph walk, against the
    Poincare polynomial, payload products and a separate breadth first
    search: every family's element lengths come from the walk itself."""
    group = coxeter_group(family, rank, m=m)
    table = group.table
    P = table.payloads
    counts = [0] * (max(table.length) + 1)
    for l in table.length:
        counts[l] += 1
    assert counts == poincare_coefficients(degrees(family, rank, m))
    ident = group.identity.payload
    for x, p in enumerate(P):
        assert oracles.payload_mul(group, p, P[table.inv[x]]) == ident
    by_search = {w.payload: oracles.length_by_search(w) for w in group.elements()}
    assert table.length == [by_search[p] for p in P]
    assert P == sorted(by_search, key=lambda p: (by_search[p], p))
    assert [w.payload for w in group.elements()] == P


def test_f4_walk_takes_one_product_per_edge(monkeypatch):
    """A fresh F4 group, its elements and its table take exactly one
    generator action per edge of the 4608-edge Cayley graph, and no
    other payload product (three separate walks made about 15 000)."""
    calls = 0
    right_action = coxeter._right_action

    def counted(ctype, g):
        act = right_action(ctype, g)

        def step(p):
            nonlocal calls
            calls += 1
            return act(p)

        return step

    monkeypatch.setattr(coxeter, "_right_action", counted)
    group = CoxeterGroup(CoxeterType("F4", 4))
    group.elements()
    table = group.table
    table.ldesc, table.tau, table.rlens  # the whole derived table
    assert calls == 4608


def test_bruhat_intervals_are_built_on_first_use():
    """A new table holds only [e, e]; asking for [e, w0] builds the
    intervals along one chain of left descents, and w0 is above everything."""
    table = CoxeterGroup(CoxeterType("F4", 4)).table
    size = len(table.length)
    assert table._below.count(0) == size - 1
    assert table.below(table.w0) == (1 << size) - 1
    assert table._below.count(0) == size - 1 - table.length[table.w0]


@pytest.mark.parametrize("count", ["order", "reflection_count"])
@pytest.mark.parametrize("family,rank", [("A", 3), ("H3", 3), ("F4", 4)])
def test_walk_checks_group_order(monkeypatch, family, rank, count):
    """The walk fails loudly when it does not reach |W| elements, or when
    its deepest level is not at the length of w0, the number of reflections."""
    ctype = CoxeterType(family, rank)
    wrong = getattr(ctype, count)() + 1
    monkeypatch.setattr(CoxeterType, count, lambda self: wrong)
    group = CoxeterGroup(ctype)
    with pytest.raises(IntegrityError):
        group.elements()
    with pytest.raises(IntegrityError):
        group.table


def test_reflection_search_checks_reflection_set():
    """The reflection length search fails loudly when its reflections miss
    conjugacy classes: the six reflections of B3 that are not sign changes
    are closed under conjugation but generate only D3."""
    group = CoxeterGroup(CoxeterType("B", 3))
    kept = tuple(t for t in group.reflections if sum(x < 0 for x in t.payload) != 1)
    assert len(kept) == 6
    assert {s * t * s for s in group.generators for t in kept} == set(kept)
    table = group.table
    table.reflections = tuple(t.id for t in kept)
    with pytest.raises(IntegrityError):
        table.rlens


@pytest.mark.parametrize("family,rank,m", [*oracles.COVERED_GROUPS, ("D", 5, None)])
def test_table_reflection_length_matches_search(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    table = group.table
    for x, w in enumerate(group.elements()):
        assert table.rlens[x] == oracles.reflection_length_by_search(w)
        assert w.reflection_length() == table.rlens[x]


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_incremental_normal_form_matches_bubble(family, rank, m):
    """Appending one simple at a time gives the normal form that bubbling
    the whole factor list gives, for words and for products of normal forms.
    The words are mixed-sign letter by letter, or fractions whose negative
    runs leave the fold in either twist frame."""
    group = coxeter_group(family, rank, m=m)
    table = group.table
    nfs = []
    seed = rank * 13 + (m or 0)
    for word in random_words(group, 60, 30, seed) + fraction_words(group, 40, 15, seed):
        nf = _nf_ids(table, word)
        assert nf == oracles.nf_ids_bubble(table, word)
        assert BraidWord(group, word).image() == group.from_word(abs(l) for l in word)
        nfs.append(nf)
    for a, b in zip(nfs, nfs[1:]):
        assert _nf_mul_ids(table, a, b) == oracles.nf_mul_ids_bubble(table, a, b)


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS + [("D", 5, None)])
def test_inverse_normal_form_matches_the_inverse_word(family, rank, m):
    """_nf_inv_ids, read off a normal form with no letters, is the form
    that the inverse word folds to, and times the form it is the identity.
    The words are mixed-sign letter by letter."""
    group = coxeter_group(family, rank, m=m)
    table = group.table
    for word in random_words(group, 300, 20, seed=rank * 31 + (m or 0)):
        b = BraidWord(group, word)
        inverse = _nf_inv_ids(table, b.nf)
        assert inverse == b.inverse().nf
        assert _nf_mul_ids(table, b.nf, inverse) == (0, ())


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_braid_equal_matches_the_dual_normal_form(family, rank, m):
    """braid_equal decides as the dual normal form (oracles.DualNormalForm)
    does, with both outcomes: on independent words, on sound rewrites of one
    word, and on rewrites with s^2 t^-2 let in, which keep the image and
    the exponent sum and change the braid unless s = t."""
    group = coxeter_group(family, rank, m=m)
    dnf = oracles.DualNormalForm(coxeter.standard_coxeter_elements(group)[-1])
    rng = random.Random(rank * 37 + (m or 0))
    outcomes = set()
    for i, u in enumerate(random_words(group, 240, 10, seed=rank * 41 + (m or 0))):
        v = random_words(group, 1, 10, seed=i)[0] if i % 3 == 0 else oracles.scrambled(u, group, rng)
        if i % 3 == 2:
            s, t, k = rng.randint(1, rank), rng.randint(1, rank), rng.randint(0, len(v))
            v = (*v[:k], s, s, -t, -t, *v[k:])
        equal = braid_equal(BraidWord(group, u), BraidWord(group, v))
        assert equal == (dnf.of_letters(u) == dnf.of_letters(v))
        if i % 3:
            assert equal == (i % 3 == 1 or s == t)
        outcomes.add(equal)
    assert outcomes == {True, False}


@pytest.mark.parametrize("family,rank,m", oracles.COVERED_GROUPS)
def test_cached_fold_matches_a_fresh_fold(family, rank, m):
    """BraidWord.nf, folded once and kept, is the normal form a fresh fold
    and the bubble give; a second word with the same letters folds its own
    and compares equal, and one more letter makes a braid unequal to it."""
    group = coxeter_group(family, rank, m=m)
    table = group.table
    for word in random_words(group, 40, 20, seed=rank * 29 + (m or 0)):
        b = BraidWord(group, word)
        assert b.nf == _nf_ids(table, word) == oracles.nf_ids_bubble(table, word)
        assert b.nf is b.nf
        twin = BraidWord(group, tuple(word))
        assert "nf" not in vars(twin)
        assert braid_equal(twin, b) and braid_equal(b, twin)
        assert not braid_equal(b * BraidWord(group, (1,)), twin)


def _folds(monkeypatch, tid, family, rank):
    """The number of letter folds (_nf_ids calls) of one passing run_check."""
    calls = 0
    fold = garside._nf_ids

    def counted(table, letters):
        nonlocal calls
        calls += 1
        return fold(table, letters)

    monkeypatch.setattr(garside, "_nf_ids", counted)
    assert run_check(tid, family, rank).passed
    return calls


def test_pair_sweep_folds_each_braid_once(monkeypatch):
    """thm-5.9 on A3 composes each pair braid's normal form from its ids
    and folds letters only for the signed lift, once for each of its 211
    coprime pairs.  The other pairs read their coprime pair's verdict and
    fold nothing.  Rebuilding the pair braid, its fraction and the lift as
    letter words made 4 folds a coprime pair (844), and refolding at every
    entry point 11 a pair over all 576 pairs (6336)."""
    assert _folds(monkeypatch, "thm-5.9", "A", 3) == 211


@pytest.mark.parametrize("tid,family,rank,folds", [
    ("prop-4.4", "A", 3, 0), ("lemma-4.5", "A", 3, 211), ("conj-8.6", "D", 4, 0),
])
def test_composed_sweeps_fold_only_lifts(tid, family, rank, folds, monkeypatch):
    """lemma-4.5 folds one signed lift for each of A3's 211 coprime pairs,
    and prop-4.4 and conj-8.6 read composed normal forms alone (conj-8.6
    folded 808 braids on D4 when it checked b(x) b(x^-1 c) = b(c) on
    letter words)."""
    assert _folds(monkeypatch, tid, family, rank) == folds


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("H3", 3), ("F4", 4)])
def test_atom_words_match_bubble(family, rank):
    """Every rotation word of every standard ordering: normal form against
    the bubble, image against payload products, and the products of
    consecutive atoms against the bubble."""
    group = coxeter_group(family, rank)
    table = group.table
    for ordering in coxeter_element_orderings(group).values():
        nfs = []
        for i in range(2 * len(group.reflections)):
            seq = [ordering[j % rank] for j in range(i + 1)]
            word = tuple(seq) + tuple(-l for l in reversed(seq[:-1]))
            nf = _nf_ids(table, word)
            assert nf == oracles.nf_ids_bubble(table, word)
            assert BraidWord(group, word).image() == group.from_word(abs(l) for l in word)
            nfs.append(nf)
        for a, b in zip(nfs, nfs[1:]):
            assert _nf_mul_ids(table, a, b) == oracles.nf_mul_ids_bubble(table, a, b)
