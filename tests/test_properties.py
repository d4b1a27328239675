"""Property tests, with words drawn by hypothesis."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coxbraid.coxeter import coxeter_group  # noqa: E402
from coxbraid.garside import BraidWord  # noqa: E402
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
