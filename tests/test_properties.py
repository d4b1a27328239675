"""Property tests, with words drawn by hypothesis."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from coxbraid.coxeter import coxeter_group  # noqa: E402
from coxbraid.garside import (  # noqa: E402
    BraidWord,
    braid_equal,
    delta_normal_form,
    positive_lift,
)
from coxbraid.hecke import HeckeElement, braid_image_a, kl_table  # noqa: E402
from coxbraid.tl import TLElement, omega  # noqa: E402


def braid_words(rank: int, max_size: int = 6):
    letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letter, max_size=max_size).map(tuple)


@pytest.mark.parametrize("n", [3, 4])
def test_omega_is_multiplicative(n):
    group = coxeter_group("A", n)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(n), braid_words(n))
    def check(wa, wb):
        a, b = BraidWord(group, wa), BraidWord(group, wb)
        assert omega(a * b) == omega(a) * omega(b)

    check()


@pytest.mark.parametrize("n", [3, 4])
def test_omega_of_a_braid_times_its_inverse_is_one(n):
    group = coxeter_group("A", n)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(n, max_size=8))
    def check(word):
        b = BraidWord(group, word)
        assert omega(b * b.inverse()) == TLElement.unit(n + 1)

    check()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_braid_image_a_is_multiplicative(family, rank):
    group = coxeter_group(family, rank)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(rank), braid_words(rank))
    def check(wa, wb):
        a, b = BraidWord(group, wa), BraidWord(group, wb)
        assert braid_image_a(a * b) == braid_image_a(a) * braid_image_a(b)

    check()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_braid_image_a_of_a_braid_times_its_inverse_is_one(family, rank):
    group = coxeter_group(family, rank)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(rank, max_size=8))
    def check(word):
        b = BraidWord(group, word)
        assert braid_image_a(b * b.inverse()) == HeckeElement.unit(group)

    check()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_c_basis_expansion_rebuilds_the_element(family, rank):
    group = coxeter_group(family, rank)
    table = kl_table(group)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(rank, max_size=10))
    def check(word):
        h = braid_image_a(BraidWord(group, word))
        rebuilt = HeckeElement(group)
        for w, gamma in table.expand_in_C(h).items():
            rebuilt = rebuilt + table.c_basis(w).scale(gamma)
        assert rebuilt == h

    check()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("H3", 3)])
def test_w_graph_steps_by_t_s_and_its_inverse_cancel(family, rank):
    """T_s T_s^-1 = T_s^-1 T_s = 1 on C-coordinates: a W-graph step and its
    inverse undo each other on any rows."""
    group = coxeter_group(family, rank)
    table = kl_table(group)
    table._fill(group.table.w0)
    poly_rows = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool), min_size=1)
    ids = st.integers(0, len(group.table.length) - 1)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(ids, poly_rows, max_size=6), st.integers(0, rank - 1))
    def check(rows, s):
        assert table._step(table._step(rows, s), s, inverse=True) == rows
        assert table._step(table._step(rows, s, inverse=True), s) == rows

    check()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_normal_form_is_idempotent(family, rank):
    group = coxeter_group(family, rank)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(rank, max_size=10))
    def check(word):
        nf = delta_normal_form(BraidWord(group, word))
        assert delta_normal_form(oracles.braid_from_normal_form(nf)) == nf

    check()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_normal_form_of_a_product(family, rank):
    """NF(uv) = NF(NF(u) NF(v))."""
    group = coxeter_group(family, rank)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(rank), braid_words(rank))
    def check(wu, wv):
        u, v = BraidWord(group, wu), BraidWord(group, wv)
        nu = oracles.braid_from_normal_form(delta_normal_form(u))
        nv = oracles.braid_from_normal_form(delta_normal_form(v))
        assert delta_normal_form(u * v) == delta_normal_form(nu * nv)

    check()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_a_braid_times_its_inverse_is_the_identity(family, rank):
    group = coxeter_group(family, rank)

    @settings(max_examples=60, deadline=None)
    @given(braid_words(rank, max_size=10))
    def check(word):
        b = BraidWord(group, word)
        assert delta_normal_form(b * b.inverse()).is_identity()
        assert delta_normal_form(b.inverse() * b).is_identity()

    check()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_delta_squared_is_central(family, rank):
    group = coxeter_group(family, rank)
    delta = positive_lift(oracles.longest_element(group))
    d2 = delta * delta

    @settings(max_examples=60, deadline=None)
    @given(braid_words(rank))
    def check(word):
        b = BraidWord(group, word)
        assert braid_equal(d2 * b, b * d2)

    check()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_braid_equal_against_rewriting(family, rank):
    """braid_equal agrees with the rewriting oracle on words of length <= 6.

    A rewrite chain proves equality, so an equal pair must be reconnected
    and an unequal pair must never be; equal pairs come from sound
    scrambling of a drawn word as well as from two drawn words.
    """
    group = coxeter_group(family, rank)

    @settings(max_examples=40, deadline=None)
    @given(braid_words(rank), braid_words(rank), st.randoms(use_true_random=False))
    def check(wu, wv, rng):
        u = BraidWord(group, wu)
        scrambled = oracles.scrambled(wu, group, rng)
        assert braid_equal(u, BraidWord(group, scrambled))
        assert oracles.rewriting_equal(group, wu, scrambled)
        if braid_equal(u, BraidWord(group, wv)):
            assert oracles.rewriting_equal(group, wu, wv)
        else:
            assert not oracles.rewriting_equal(group, wu, wv, max_states=2000)

    check()
