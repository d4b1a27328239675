"""Diagram algebra, the two quotient maps, and the change of basis matrix."""

import math
import random

import pytest

from coxbraid import tl
from coxbraid.coxeter import (
    CoxeterGroup,
    CoxeterType,
    IntegrityError,
    bruhat_leq,
    coxeter_element_orderings,
    coxeter_group,
    reduced_words,
    standard_coxeter_elements,
)
from coxbraid.dual import divisors_of, dual_monoid
from coxbraid.garside import BraidWord, positive_lift
from coxbraid.hecke import braid_image_a, j_h, kl_table
from coxbraid.laurent import LaurentPolynomial as L
from coxbraid.laurent import poly
from coxbraid.tl import (
    TLDiagram,
    TLElement,
    _diagram_table,
    _greedy_pairing,
    _zinno_rows,
    b_w,
    expand_in_b,
    fg_projection_failures,
    fully_commutative,
    identity_diagram,
    omega,
    sign_alternating,
    theta,
    theta_prime,
    tl_mul,
    zinno_matrix,
)
from coxbraid.verify import run_check

import oracles
from oracles import cup_cap_diagram, j_tl


DELTA = L.of({1: 1, -1: 1})


def u(m: int, i: int) -> TLElement:
    return TLElement(2 * m, {cup_cap_diagram(m, i): L.one()})


def test_diagram_validation():
    with pytest.raises(ValueError):
        TLDiagram(4, (1, 0, 3, 3))  # not an involution
    with pytest.raises(ValueError):
        TLDiagram(4, (0, 2, 1, 3))  # fixed points
    with pytest.raises(IntegrityError):
        TLDiagram(4, (2, 3, 0, 1))  # chords 0-2 and 1-3 cross
    with pytest.raises(ValueError):
        TLDiagram(3, (1, 0, 2))  # odd number of points


def test_identity_and_cup_cap_shapes():
    m = 4
    ident = identity_diagram(m)
    assert set(ident.chords()) == {(i, 2 * m - 1 - i) for i in range(m)}
    d = cup_cap_diagram(m, 2)
    assert (1, 2) in d.chords()
    assert (2 * m - 3, 2 * m - 2) in d.chords()
    with pytest.raises(ValueError):
        cup_cap_diagram(m, 0)
    with pytest.raises(ValueError):
        cup_cap_diagram(m, m)


def test_tl_relations():
    m = 4
    one = TLElement.unit(m)
    for i in range(1, m):
        ui = u(m, i)
        assert ui * ui == ui.scale(DELTA)
        assert ui * one == ui and one * ui == ui
        for j in range(1, m):
            if abs(i - j) >= 2:
                assert u(m, i) * u(m, j) == u(m, j) * u(m, i)
            elif abs(i - j) == 1:
                assert ui * u(m, j) * ui == ui


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_diagram_table_holds_every_matching_once(n):
    m = n + 1
    table = _diagram_table(m)
    catalan = math.comb(2 * m, m) // (m + 1)
    assert len(table.diagrams) == catalan == len(fully_commutative(n))
    assert len(set(table.diagrams)) == catalan
    assert table.diagrams[table.identity] == identity_diagram(m)
    for d, diagram in enumerate(table.diagrams):
        assert table.id_of(diagram) == d
        assert table.fold(table.identity, table.words[d]) == (d, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generator_action_matches_stacking(n):
    m = n + 1
    table = _diagram_table(m)
    for s in range(1, m):
        gen = cup_cap_diagram(m, s)
        for d, diagram in enumerate(table.diagrams):
            e, loops = table.right[s - 1][d]
            assert oracles.compose_diagrams(diagram, gen) == (table.diagrams[e], loops)


def _random_letters(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(length))


def _random_element(rng: random.Random, m: int) -> TLElement:
    """A sum of a few products of generator diagrams with random coefficients."""
    out = TLElement(2 * m)
    for _ in range(3):
        term = TLElement.unit(m).scale(oracles.v_power(rng.randint(-2, 2), rng.choice((1, -2, 3))))
        for _ in range(rng.randint(0, 4)):
            term = oracles.tl_mul_by_stacking(term, u(m, rng.randint(1, m - 1)))
        out = out + term
    return out


FIXED_WORDS = ((), (1,), (-1,), (1, 1), (1, 2, 1), (2, -1, 2), (-1, -2, -1, 1, 2, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_maps_match_the_stacking_fold(n):
    group = coxeter_group("A", n)
    m = n + 1
    rng = random.Random(8000 + n)
    words = list(FIXED_WORDS) + [_random_letters(rng, n, rng.randint(1, 8)) for _ in range(6)]
    for word in words:
        b = BraidWord(group, word)
        assert omega(b) == oracles.omega_by_stacking(b)
        h = braid_image_a(b)
        assert theta(h) == oracles.theta_by_stacking(h)
        assert theta_prime(h) == oracles.theta_by_stacking(h, prime=True)
    for _ in range(4):
        a, b = _random_element(rng, m), _random_element(rng, m)
        assert tl_mul(a, b) == oracles.tl_mul_by_stacking(a, b)


def test_element_arithmetic():
    m = 3
    a = u(m, 1)
    b = u(m, 2)
    assert a + b == b + a
    assert (a - a).is_zero()
    assert a.scale(2) == a + a
    assert a.scale(oracles.v_power(3)).coeff(cup_cap_diagram(m, 1)) == oracles.v_power(3)
    with pytest.raises(ValueError):
        a + TLElement.unit(4)
    with pytest.raises(ValueError):
        a * TLElement.unit(4)


def test_fully_commutative_matches_oracle():
    for n in (1, 2, 3):
        group = coxeter_group("A", n)
        fast = set(fully_commutative(n))
        slow = {w for w in group.elements() if oracles.is_fully_commutative_oracle(w)}
        assert fast == slow
    assert [len(fully_commutative(n)) for n in (1, 2, 3, 4)] == [2, 5, 14, 42]
    assert fully_commutative(7) == oracles.fully_commutative_by_321(7)


def test_b_basis_is_a_bijection_onto_diagrams():
    for n in (2, 3):
        fc = fully_commutative(n)
        diagrams = set()
        for w in fc:
            x = b_w(w)
            support = list(x.coeffs)
            assert len(support) == 1
            assert x.coeff(support[0]) == L.one()
            diagrams.add(support[0])
        assert len(diagrams) == len(fc)


def test_b_w_refuses_an_element_of_a_group_built_directly():
    """A type A group built directly is not the package's A3: its element
    is refused as foreign, not as not fully commutative."""
    s1 = CoxeterGroup(CoxeterType("A", 3)).generator(1)
    with pytest.raises(ValueError, match=r"of CoxeterGroup\(A3\) used with CoxeterGroup\(A3\)"):
        b_w(s1)


def test_expand_in_b_inverts_the_basis():
    group = coxeter_group("A", 3)
    for w in fully_commutative(3):
        assert expand_in_b(b_w(w)) == {w: L.one()}
    s1, s2 = group.generator(1), group.generator(2)
    mixed = b_w(s1).scale(oracles.v_power(2)) + b_w(s2).scale(-3)
    exp = expand_in_b(mixed)
    assert exp == {s1: oracles.v_power(2), s2: L.constant(-3)}
    assert expand_in_b(TLElement(8, {})) == {}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_b_w_basis_matches_the_321_construction(n):
    """fully_commutative, b_w and expand_in_b read the diagram walk's
    numbering of the basis; they equal the 321 test and the reduced word
    folds of oracles.b_w_table."""
    want = oracles.b_w_table(n)
    assert fully_commutative(n) == oracles.fully_commutative_by_321(n) == tuple(want)
    for w, d in want.items():
        assert b_w(w).rows == {d: {0: 1}}
    m, fc = n + 1, oracles.fc_of_diagram(n)
    rng = random.Random(3100 + n)
    diagrams = _diagram_table(m).diagrams
    x = TLElement(2 * m, {
        diagrams[d]: oracles.v_power(rng.randint(-3, 3), rng.choice((-2, 1, 3)))
        for d in rng.sample(range(len(diagrams)), min(len(diagrams), 12))
    })
    assert list(expand_in_b(x).items()) == [(fc[d], poly(p)) for d, p in x.rows.items()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_reduced_word_folds_to_b_w(n):
    """b_w is the product over any reduced word of w: each one folds to the
    diagram of b_w(w) with no loop."""
    table = _diagram_table(n + 1)
    for w in fully_commutative(n):
        (d,) = b_w(w).rows
        for word in reduced_words(w):
            assert table.fold(table.identity, word) == (d, 0)


def _not_reduced(words, a, b):
    words[a] += (1, 1)


def _swapped(words, a, b):
    words[a], words[b] = words[b], words[a]


def _shared(words, a, b):
    words[b] = words[a]


@pytest.mark.parametrize("corrupt,message", [
    (_shared, "share an element"),
    (_not_reduced, "not reduced"),
    (_swapped, "depends on the chosen reduced word"),
])
def test_b_w_checks_fire_on_a_corrupted_table(corrupt, message):
    """Each check of the diagram walk's b_w numbering fires on a fresh table
    whose shortest words were corrupted, and none fires on the cached one."""
    fresh = tl._DiagramTable(4)
    words = list(fresh.words)
    a, b = [d for d, word in enumerate(words) if word][:2]
    corrupt(words, a, b)
    fresh.words = tuple(words)
    with pytest.raises(IntegrityError, match=message):
        tl._fc_ids.__wrapped__(fresh)
    assert tl._fc_ids(_diagram_table(4)) == tl._fc_ids.__wrapped__(tl._DiagramTable(4))


def test_theta_on_generators():
    group = coxeter_group("A", 2)
    for i in (1, 2):
        s = group.generator(i)
        got = theta(oracles.t_basis(s))
        want = b_w(s).scale(oracles.v_power(-1)) - TLElement.unit(3)
        assert got == want
        got_p = theta_prime(oracles.t_basis(s))
        want_p = TLElement.unit(3).scale(oracles.v_power(-2)) - b_w(s).scale(oracles.v_power(-1))
        assert got_p == want_p


def test_theta_is_an_algebra_map():
    group = coxeter_group("A", 3)
    words = [(1,), (2, 1), (1, 2, 3), (3, 2), (2,)]
    for wa in words:
        for wb in words:
            a = oracles.t_basis(group.from_word(wa))
            b = oracles.t_basis(group.from_word(wb))
            assert theta(a * b) == theta(a) * theta(b)
            assert theta_prime(a * b) == theta_prime(a) * theta_prime(b)


def test_theta_kernels():
    group = coxeter_group("A", 2)
    parabolic = group.elements()
    plain = None
    signed = None
    for w in parabolic:
        term = oracles.t_basis(w)
        plain = term if plain is None else plain + term
        tw = term.scale(oracles.v_power(2 * w.length(), (-1) ** w.length()))
        signed = tw if signed is None else signed + tw
    assert theta(plain).is_zero()
    assert theta_prime(signed).is_zero()
    assert not theta(signed).is_zero()


def test_theta_and_theta_prime_are_j_conjugate():
    group = coxeter_group("A", 2)
    for word in ((1,), (1, 2), (2, 1, 1), (1, -2, 1)):
        h = braid_image_a(BraidWord(group, word))
        assert theta(h) == j_tl(theta_prime(j_h(h)))


def test_omega_on_generators_and_words():
    group = coxeter_group("A", 2)
    one = TLElement.unit(3)
    for i in (1, 2):
        s = group.generator(i)
        assert omega(BraidWord(group, (i,))) == one.scale(oracles.v_power(-1)) - b_w(s)
        assert omega(BraidWord(group, (-i,))) == one.scale(oracles.v_power(1)) - b_w(s)
    for word in ((1, 2), (1, -2, 1), (-1, -1)):
        b = BraidWord(group, word)
        exponent_sum = sum(1 if l > 0 else -1 for l in b.letters)
        assert omega(b) == theta_prime(braid_image_a(b).scale(oracles.v_power(exponent_sum)))
    assert omega(BraidWord(group, ())) == one


def test_images_close_a_loop_in_one_term():
    for scalar, coeff, closed in (
        tl._GENERATOR, tl._THETA_T, tl._THETA_PRIME_T, tl._OMEGA_POS, tl._OMEGA_NEG
    ):
        assert L(closed) == L(scalar) + L(coeff) * DELTA


def test_omega_is_multiplicative():
    group = coxeter_group("A", 2)
    words = ((1,), (-2,), (1, 2), (2, -1))
    for wa in words:
        for wb in words:
            a, b = BraidWord(group, wa), BraidWord(group, wb)
            assert omega(a * b) == omega(a) * omega(b)


def test_j_tl_is_a_bar_involution():
    group = coxeter_group("A", 2)
    x = b_w(group.generator(1)).scale(oracles.v_power(2)) + b_w(group.generator(2)).scale(3)
    assert j_tl(j_tl(x)) == x
    y = b_w(group.from_word((1, 2)))
    assert j_tl(x * y) == j_tl(x) * j_tl(y)
    assert j_tl(b_w(group.generator(1))) == b_w(group.generator(1))
    shifted = b_w(group.generator(1)).scale(oracles.v_power(4))
    assert j_tl(shifted) == b_w(group.generator(1)).scale(oracles.v_power(-4))


def test_zinno_matrix_rank_two():
    group = coxeter_group("A", 2)
    c = group.from_word((1, 2))
    zm = zinno_matrix(c, (1, 2))
    assert zm.is_square()
    assert len(zm.rows) == 5 and len(zm.cols) == 5
    assert zm.pairing == ((0, 0), (1, 1), (2, 2), (4, 3), (3, 4))
    assert [str(p) for p in zm.diagonal()] == ["1", "-1", "-1", "1", "v^-1"]
    assert zm.invertible_over_laurent()
    e = group.identity
    row = [zm.entry(e, w) for w in zm.cols]
    assert [str(p) for p in row] == ["1", "0", "0", "0", "0"]
    data = zm.to_json()
    assert data["coxeter_element"] == [1, 2]
    assert len(data["rows"]) == 5


def test_zinno_matrix_depends_on_the_coxeter_element():
    group = coxeter_group("A", 2)
    za = zinno_matrix(group.from_word((1, 2)), (1, 2))
    zb = zinno_matrix(group.from_word((2, 1)), (2, 1))
    ea = {(str(x), str(w)): str(za.entry(x, w)) for x in za.rows for w in za.cols}
    eb = {(str(x), str(w)): str(zb.entry(x, w)) for x in zb.rows for w in zb.cols}
    assert ea != eb


@pytest.mark.parametrize("n", [2, 3])
def test_triangularity_all_standard_elements(n):
    group = coxeter_group("A", n)
    linear = group.from_word(range(1, n + 1))
    for c in standard_coxeter_elements(group):
        zm = zinno_matrix(c)
        assert zm.is_square() and zm.pairing is not None and zm.invertible_over_laurent()
        assert zm.bruhat_refined() is (True if c == linear else None)


def test_triangularity_bruhat_refinement_for_the_linear_element():
    group = coxeter_group("A", 3)
    c = group.from_word((1, 2, 3))
    zm = zinno_matrix(c, (1, 2, 3))
    assert zm.bruhat_refined() is True
    owner = {cj: ri for ri, cj in zm.pairing}
    for x in zm.rows:
        for j, w in enumerate(zm.cols):
            if not zm.entry(x, w).is_zero():
                assert bruhat_leq(zm.rows[owner[j]], x)


def test_divisors_and_basis_have_matching_sizes():
    for n in (2, 3, 4):
        group = coxeter_group("A", n)
        for c in standard_coxeter_elements(group):
            assert len(divisors_of(c)) == len(fully_commutative(n))


@pytest.mark.parametrize("n", [2, 3])
def test_sign_alternating_positivity(n):
    group = coxeter_group("A", n)
    for c in standard_coxeter_elements(group):
        verdicts = sign_alternating(c)
        dm = dual_monoid(c)
        assert verdicts == (True,) * len(dm.divisors())
        for x in dm.divisors():
            exp = expand_in_b(omega(dm.embed(x)))
            for w, p in exp.items():
                assert (p * ((-1) ** w.length())).is_nonneg()


def test_fg_projection():
    assert fg_projection_failures(2) == []
    group = coxeter_group("A", 2)
    table = kl_table(group)
    w0 = oracles.longest_element(group)
    assert theta(table.c_prime(w0)).is_zero()
    for w in fully_commutative(2):
        assert theta(table.c_prime(w)) == b_w(w)
    assert fg_projection_failures(3) == []


def test_theta_rejects_other_families():
    group = coxeter_group("B", 2)
    with pytest.raises(ValueError):
        theta(oracles.t_basis(group.generator(1)))


# Every standard Coxeter element of A1-A4 with its ordering, and the
# linear and the last ordering of A5: the Zinno matrices the lattice walk
# and the pairing are compared on.  Every A5 ordering would take about 4.5 s.
ZINNO_CASES = [
    (n, ordering)
    for n in (1, 2, 3, 4)
    for ordering in coxeter_element_orderings(coxeter_group("A", n)).values()
] + [(5, (1, 2, 3, 4, 5)), (5, [*coxeter_element_orderings(coxeter_group("A", 5)).values()][-1])]


@pytest.mark.parametrize("n, ordering", ZINNO_CASES)
def test_zinno_rows_match_omega_word_by_word(n, ordering):
    group = coxeter_group("A", n)
    c = group.from_word(ordering)
    dm = dual_monoid(c, ordering)
    rows = _zinno_rows(c, ordering)
    assert {x for x, _ in rows} == set(dm.divisors())
    for x, coeffs in rows:
        assert coeffs == expand_in_b(omega(dm.embed(x)))


def _count_folds(monkeypatch) -> list[int]:
    """Patch tl._fold to count the letters it folds."""
    count = [0]
    fold = tl._fold

    def counting(table, rows, word):
        word = list(word)
        count[0] += len(word)
        return fold(table, rows, word)

    monkeypatch.setattr(tl, "_fold", counting)
    return count


@pytest.mark.parametrize("n, walked, per_word", [(3, 39, 93), (4, 169, 604), (5, 699, 3330)])
def test_zinno_walk_folds_one_atom_lift_per_divisor(monkeypatch, n, walked, per_word):
    """The lattice walk folds l(t) letters for each divisor x = y t but the
    identity; omega of each divisor's normal-form word, the reference,
    folds every letter of it."""
    ordering = tuple(range(1, n + 1))
    c = coxeter_group("A", n).from_word(ordering)
    dm = dual_monoid(c, ordering)
    length = c.group.table.length
    assert sum(length[step[1]] for step in dm._interval.values() if step) == walked
    count = _count_folds(monkeypatch)
    _zinno_rows.__wrapped__(c, ordering)
    assert count[0] == walked
    count[0] = 0
    for x in dm.divisors():
        omega(dm.embed(x))
    assert count[0] == per_word == sum(len(dm.embed(x).letters) for x in dm.divisors())


@pytest.mark.parametrize("n, ordering", ZINNO_CASES)
def test_greedy_pairing_matches_the_rescan_on_zinno_matrices(n, ordering):
    c = coxeter_group("A", n).from_word(ordering)
    zm = zinno_matrix(c, ordering)
    assert zm.pairing is not None
    assert zm.pairing == oracles.greedy_pairing_rescan(zm.entries)


def test_greedy_pairing_matches_the_rescan_on_random_matrices():
    rng = random.Random(1701)
    one, zero = L.one(), L.zero()
    outcomes = []
    for trial in range(600):
        n = rng.randrange(9)
        if trial % 3:
            # a row and column permutation of a triangular matrix with
            # nonzero diagonal, with one more entry set on every other trial
            rp, cp = rng.sample(range(n), n), rng.sample(range(n), n)
            cells = [[zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    if j == i or rng.random() < 0.5:
                        cells[rp[i]][cp[j]] = one
            if trial % 2 and n:
                cells[rng.randrange(n)][rng.randrange(n)] = one
        else:
            cols, density = max(0, n + rng.choice((-1, 0, 1))), rng.random()
            cells = [[one if rng.random() < density else zero for _ in range(cols)]
                     for _ in range(n)]
        entries = tuple(map(tuple, cells))
        got = _greedy_pairing(entries)
        assert got == oracles.greedy_pairing_rescan(entries)
        outcomes.append(got is None)
    assert 100 < sum(outcomes) < 500


def test_a_wrong_sign_fails_exactly_its_ordering(monkeypatch):
    """thm-8.17 reads every coefficient's sign: one Zinno row with one
    coefficient negated fails the item of its ordering and no other."""
    group = coxeter_group("A", 3)
    assert run_check("thm-8.17", "A", 3).passed
    bad = list(coxeter_element_orderings(group).values())[2]
    rows = tl._zinno_rows

    def patched(c, ordering):
        got = rows(c, ordering)
        if ordering != bad:
            return got
        x, coeffs = got[3]
        w = next(iter(coeffs))
        return got[:3] + ((x, {**coeffs, w: -coeffs[w]}),) + got[4:]

    monkeypatch.setattr(tl, "_zinno_rows", patched)
    report = run_check("thm-8.17", "A", 3)
    assert [it["item"] for it in report.items if not it["ok"]] == [",".join(map(str, bad))]
    assert report.counts["failures"] == 1


def test_the_default_ordering_shares_the_caches(monkeypatch):
    """dual_monoid and the Zinno rows resolve a missing ordering before
    their caches: with or without it, c has one monoid and one set of rows."""
    seen = []
    rows = tl._zinno_rows

    def recorded(c, ordering):
        seen.append(rows(c, ordering))
        return seen[-1]

    monkeypatch.setattr(tl, "_zinno_rows", recorded)
    for c, ordering in coxeter_element_orderings(coxeter_group("A", 3)).items():
        assert dual_monoid(c) is dual_monoid(c, None) is dual_monoid(c, ordering)
        del seen[:]
        for reader in (zinno_matrix, sign_alternating):
            reader(c)
            reader(c, ordering)
        assert len(seen) == 4 and all(got is seen[0] for got in seen)
