"""Integer Laurent polynomials in one variable.

The Hecke and Temperley Lieb layers work over Z[v, v^-1] throughout, so
this is a small exact implementation: a sorted tuple of (exponent,
coefficient) pairs with no zero entries.  The public constructor checks
that form; results of the arithmetic below have it by construction and
skip the check.  Positivity means every stored coefficient is
nonnegative.  The bar map inverts the variable and the
power substitution v -> v^k implements the passage between the q and v
normalisations of the Kazhdan Lusztig polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union


@dataclass(frozen=True)
class LaurentPolynomial:
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        exps = [e for e, _ in self.terms]
        if exps != sorted(exps) or len(set(exps)) != len(exps):
            raise ValueError("terms must be sorted by exponent without repeats")
        if any(c == 0 for _, c in self.terms):
            raise ValueError("zero coefficients must not be stored")

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

    @staticmethod
    def v_power(k: int, coeff: int = 1) -> "LaurentPolynomial":
        return LaurentPolynomial.of({k: coeff})

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

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return self.terms[0][0]

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return self.terms[-1][0]

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
            return LaurentPolynomial.of({e: c * other for e, c in self.terms})
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPolynomial.of(acc)

    def __rmul__(self, other: int) -> "LaurentPolynomial":
        return self * other

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by v^k."""
        return LaurentPolynomial._trusted(tuple((e + k, c) for e, c in self.terms))

    def bar(self) -> "LaurentPolynomial":
        """Invert the variable."""
        return LaurentPolynomial._trusted(tuple((-e, c) for e, c in reversed(self.terms)))

    def substituted_power(self, k: int) -> "LaurentPolynomial":
        """Substitute v -> v^k (for k = 0 this evaluates at 1)."""
        acc: dict[int, int] = {}
        for e, c in self.terms:
            acc[e * k] = acc.get(e * k, 0) + c
        return LaurentPolynomial.of(acc)

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
