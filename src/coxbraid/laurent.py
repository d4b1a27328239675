"""Integer Laurent polynomials in one variable, and the one row kernel
of the Hecke and Temperley Lieb layers.

Both layers compute over Z[v, v^-1] on rows: basis id -> (exponent ->
nonzero coefficient), with no empty row.  ``addmul`` adds a product of
two term lists into a row in place, ``combine`` sums sets of rows times
term lists, and ``poly`` builds the LaurentPolynomial of a row when a
value is handed out.  A LaurentPolynomial is a sorted tuple of
(exponent, coefficient) pairs with no zero entries; its product runs
through ``addmul`` too.  The constructor, LaurentPolynomial(terms),
checks that form; results of the arithmetic below have it by
construction, and LaurentPolynomial._trusted, the one wrap that skips
the constructor, stores their terms unchecked.  Positivity means every
stored coefficient is nonnegative, and the bar map inverts the variable.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union


class LaurentPolynomial:
    """A frozen record like coxeter.Record, which this bottom layer cannot import."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...]) -> None:
        exps = [e for e, _ in terms]
        if exps != sorted(exps) or len(set(exps)) != len(exps):
            raise ValueError("terms must be sorted by exponent without repeats")
        if any(c == 0 for _, c in terms):
            raise ValueError("zero coefficients must not be stored")
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.terms,))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @staticmethod
    def _trusted(terms: tuple[tuple[int, int], ...]) -> "LaurentPolynomial":
        """Wrap terms already sorted by exponent, without repeats or zeros."""
        p = object.__new__(LaurentPolynomial)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def of(mapping: Mapping[int, int]) -> "LaurentPolynomial":
        return LaurentPolynomial._trusted(
            tuple(sorted((e, c) for e, c in mapping.items() if c != 0))
        )

    @staticmethod
    def zero() -> "LaurentPolynomial":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPolynomial":
        return _ONE

    @staticmethod
    def constant(c: int) -> "LaurentPolynomial":
        return LaurentPolynomial.of({0: c})

    def coeff(self, exponent: int) -> int:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_nonneg(self) -> bool:
        return all(c > 0 for _, c in self.terms)

    def is_unit_monomial(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][1] in (1, -1)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPolynomial.of(acc)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._trusted(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: Union["LaurentPolynomial", int]) -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial.constant(other)
        rows: Rows = {}
        addmul(rows, 0, self.terms, other.terms)
        return poly(rows.get(0, {}))

    def __rmul__(self, other: int) -> "LaurentPolynomial":
        return self * other

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by v^k."""
        return LaurentPolynomial._trusted(tuple((e + k, c) for e, c in self.terms))

    def bar(self) -> "LaurentPolynomial":
        """Invert the variable."""
        return LaurentPolynomial._trusted(tuple((-e, c) for e, c in reversed(self.terms)))

    def text(self, var: str = "v") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                body = str(abs(c))
            else:
                head = "" if abs(c) == 1 else str(abs(c))
                body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.text()})"


_ZERO = LaurentPolynomial(())
_ONE = LaurentPolynomial(((0, 1),))


# id -> (exponent -> nonzero coefficient), without empty rows
Rows = dict[int, dict[int, int]]


def addmul(rows: Rows, x: int, p: Iterable, q: Iterable) -> None:
    """rows[x] += p * q in place, for p and q iterables of (exponent,
    nonzero coefficient) pairs, dropping zero terms and empty rows."""
    got = rows.get(x)
    if got is None:
        got = rows[x] = {}
    for e1, c1 in p:
        for e2, c2 in q:
            e = e1 + e2
            c = got.get(e, 0) + c1 * c2
            if c:
                got[e] = c
            else:
                del got[e]
    if not got:
        del rows[x]


def combine(terms: Iterable[tuple[Rows, Iterable]]) -> Rows:
    """The sum of rows * q over the (rows, q) pairs, q a list of terms."""
    out: Rows = {}
    for rows, q in terms:
        for x, p in rows.items():
            addmul(out, x, p.items(), q)
    return out


def poly(p: Mapping[int, int]) -> LaurentPolynomial:
    """The polynomial of one row, whose coefficients are all nonzero."""
    return LaurentPolynomial._trusted(tuple(sorted(p.items())))
