"""Integer Laurent polynomials in one variable, and the row kernel."""

import random

import pytest

from coxbraid.laurent import LaurentPolynomial as L
from coxbraid.laurent import addmul, combine, poly
from oracles import max_exp, min_exp, substituted_power, v_power


def rand_poly(rng):
    return L.of({rng.randrange(-5, 6): rng.randrange(-4, 5) for _ in range(rng.randrange(0, 5))})


def test_construction_and_coeffs():
    p = L.of({2: 3, 0: 1, -1: 0})
    assert p.coeff(2) == 3
    assert p.coeff(0) == 1
    assert p.coeff(-1) == 0
    assert p.coeff(99) == 0
    assert L.zero().is_zero()
    assert not L.zero()
    assert L.one().coeff(0) == 1
    assert L.constant(-2).coeff(0) == -2
    assert L.constant(0).is_zero()
    assert v_power(3).coeff(3) == 1
    assert v_power(-2, 5).coeff(-2) == 5


def test_ring_laws():
    rng = random.Random(13)
    for _ in range(50):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == L.zero()
        assert a * L.one() == a
        assert a + L.zero() == a
        assert -(-a) == a
        assert 2 * a == a + a
        assert a * 0 == L.zero()


def test_positivity_and_units():
    assert L.of({0: 1, 2: 3}).is_nonneg()
    assert L.zero().is_nonneg()
    assert not L.of({0: 1, 2: -3}).is_nonneg()
    assert v_power(4).is_unit_monomial()
    assert v_power(-4, -1).is_unit_monomial()
    assert not v_power(0, 2).is_unit_monomial()
    assert not L.of({0: 1, 1: 1}).is_unit_monomial()
    assert not L.zero().is_unit_monomial()


def test_exponent_range():
    p = L.of({-3: 2, 5: -1})
    assert min_exp(p) == -3
    assert max_exp(p) == 5
    with pytest.raises(ValueError):
        min_exp(L.zero())
    with pytest.raises(ValueError):
        max_exp(L.zero())


def test_shift_bar_substitute():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng)
        assert p.shifted(3).shifted(-3) == p
        assert p.bar().bar() == p
        assert substituted_power(p, 1) == p
    assert v_power(2).bar() == v_power(-2)
    assert v_power(1).shifted(2) == v_power(3)
    assert substituted_power(L.of({1: 1, -2: 4}), -2) == L.of({-2: 1, 4: 4})
    q = L.of({0: 1, 1: 1})
    assert (q * q.bar()).coeff(0) == 2


def test_text_and_str():
    assert L.of({-2: 3, 0: 1, 4: 1}).text() == "3v^-2 + 1 + v^4"
    assert L.of({-2: 3, 0: 1, 4: 1}).text("q") == "3q^-2 + 1 + q^4"
    assert str(L.zero()) == "0"
    assert str(L.one()) == "1"
    assert str(v_power(1)) == "v"
    assert str(v_power(-1)) == "v^-1"
    assert str(L.of({1: -1})) == "-v"
    assert str(L.of({0: 1, 1: -2})) == "1 - 2v"


@pytest.mark.parametrize(
    "terms",
    [((1, 2), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 0))],
    ids=["unsorted", "repeated", "zero"],
)
def test_public_construction_validates(terms):
    with pytest.raises(ValueError):
        L(terms)


def test_trusted_results_are_normalised():
    rng = random.Random(21)
    for _ in range(50):
        p = rand_poly(rng)
        for q in (p.bar(), p.shifted(-2), -p, p * rand_poly(rng), p + rand_poly(rng)):
            assert L(q.terms) == q
    assert L.of({3: 1, -1: 2}).bar().terms == ((-3, 1), (1, 2))


def test_addmul_agrees_with_polynomial_arithmetic():
    rng = random.Random(34)
    for _ in range(300):
        a, b, c, other = (rand_poly(rng) for _ in range(4))
        rows = {x: dict(p.terms) for x, p in ((7, a), (3, other)) if p}
        addmul(rows, 7, b.terms, c.terms)
        want = a + b * c
        assert poly(rows.get(7, {})) == want
        assert (7 in rows) == bool(want)
        assert poly(rows.get(3, {})) == other
        for row in rows.values():
            assert row and all(row.values())
            assert L(poly(row).terms) == poly(row)


def test_addmul_deletes_a_row_that_cancels():
    p, q = L.of({-1: 2, 1: -3}), L.of({0: 1, 2: 1})
    rows = {0: dict((p * q).terms), 1: {0: 5}}
    addmul(rows, 0, (-p).terms, q.terms)
    assert rows == {1: {0: 5}}
    addmul(rows, 2, p.terms, ())
    assert rows == {1: {0: 5}}
    rows = {0: {0: 1, 2: 1}}
    addmul(rows, 0, ((0, -1),), ((0, 1),))
    assert rows == {0: {2: 1}}


def test_combine_sums_rows_times_terms():
    rng = random.Random(55)
    for _ in range(100):
        polys = [[rand_poly(rng) for _ in range(3)] for _ in range(3)]
        factors = [rand_poly(rng) for _ in range(3)]
        sets = [{x: dict(p.terms) for x, p in enumerate(ps) if p} for ps in polys]
        got = combine(zip(sets, (f.terms for f in factors)))
        for x in range(3):
            want = L.zero()
            for ps, f in zip(polys, factors):
                want = want + ps[x] * f
            assert poly(got.get(x, {})) == want
            assert (x in got) == bool(want)
