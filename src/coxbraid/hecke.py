"""The Iwahori Hecke algebra over Z[v, v^-1] and its canonical bases.

Elements are stored on the standard basis {T_w} with exact Laurent
coefficients keyed by GarsideTable id, normalised by T_s^2 = (v^-2 - 1)
T_s + v^-2.  Products fold through the table's rmul and length arrays on
exponent -> coefficient int dicts updated in place.  The braid group maps
in through a (generators to T_s) and its twist a', and the Kazhdan
Lusztig machinery lives in KLTable: polynomials P_{y,w} in q = v^-2
computed by the classical recursion with mu corrections, the bases
C'_w = v^{l(w)} sum P_{y,w}(v^-2) T_y and C_w = (-1)^{l(w)} j_H(C'_w),
and triangular expansion of arbitrary elements in {C_w} by id.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .coxeter import (
    CoxeterElement,
    CoxeterGroup,
    IntegrityError,
    ResourceError,
    bruhat_leq,
    bruhat_lower_interval,
)
from .garside import BraidWord, garside_table, shortlex_word
from .laurent import LaurentPolynomial

KL_GROUP_ORDER_CAP = 1200

_ZERO = LaurentPolynomial.zero()
_ONE = LaurentPolynomial.one()
_Q = LaurentPolynomial.v_power(1)

# id -> (exponent -> nonzero coefficient), without empty rows
Rows = dict[int, dict[int, int]]

# Coefficients of (T_ws, T_w) in T_w T_s^-1 for ws > w, and in T_w T_s
# for ws < w: v^2 T_ws + (v^2 - 1) T_w and v^-2 T_ws + (v^-2 - 1) T_w.
_UP_INVERSE = (((2, 1),), ((0, -1), (2, 1)))
_DOWN = (((-2, 1),), ((-2, 1), (0, -1)))
_UNIT = ((0, 1),)


def _addmul(rows: Rows, x: int, p: Iterable, q: Iterable) -> None:
    """rows[x] += p * q in place, dropping zero terms and empty rows."""
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


def _mul_gen(table, rows: Rows, s: int, inverse: bool) -> Rows:
    """Right multiplication by T_s, or its inverse, for the 0-based generator s."""
    step = table.rmul[s]
    length = table.length
    out: Rows = {}
    for w, p in rows.items():
        ws = step[w]
        if (length[ws] > length[w]) == inverse:
            to_ws, to_w = _UP_INVERSE if inverse else _DOWN
            _addmul(out, ws, p.items(), to_ws)
            _addmul(out, w, p.items(), to_w)
        else:
            _addmul(out, ws, p.items(), _UNIT)
    return out


def _fold(table, rows: Rows, letters: Iterable[int]) -> Rows:
    """Right multiply by T_s for each letter s and by T_s^-1 for each -s."""
    for l in letters:
        rows = _mul_gen(table, rows, abs(l) - 1, l < 0)
    return rows


def _poly(p: dict[int, int]) -> LaurentPolynomial:
    return LaurentPolynomial._trusted(tuple(sorted(p.items())))

class HeckeElement:
    """A finitely supported Z[v, v^-1] combination of standard basis terms,
    stored by GarsideTable id in rows and keyed by element in coeffs."""

    __slots__ = ("group", "table", "rows")

    def __init__(
        self,
        group: CoxeterGroup,
        coeffs: Mapping[CoxeterElement, LaurentPolynomial] | None = None,
    ) -> None:
        self.group = group
        self.table = garside_table(group)
        self.rows: dict[int, LaurentPolynomial] = {
            self.table.id_of(w): c for w, c in (coeffs or {}).items() if c
        }

    @staticmethod
    def _wrap(group: CoxeterGroup, rows: Mapping[int, LaurentPolynomial]) -> "HeckeElement":
        h = HeckeElement(group)
        h.rows = {x: c for x, c in rows.items() if c}
        return h

    def _int_rows(self) -> Rows:
        return {x: dict(c.terms) for x, c in self.rows.items()}

    @staticmethod
    def unit(group: CoxeterGroup) -> "HeckeElement":
        return HeckeElement(group, {group.identity: _ONE})

    @staticmethod
    def t_basis(w: CoxeterElement) -> "HeckeElement":
        return HeckeElement(w.group, {w: _ONE})

    @property
    def coeffs(self) -> Mapping[CoxeterElement, LaurentPolynomial]:
        """The coefficients keyed by group element, read only."""
        element = self.table.element
        return MappingProxyType({element(x): c for x, c in self.rows.items()})

    def coeff(self, w: CoxeterElement) -> LaurentPolynomial:
        return self.rows.get(self.table.id_of(w), _ZERO)

    def support(self) -> frozenset[CoxeterElement]:
        return frozenset(map(self.table.element, self.rows))

    def is_zero(self) -> bool:
        return not self.rows

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.group is not other.group:
            raise ValueError("elements of different algebras")
        acc = dict(self.rows)
        for x, c in other.rows.items():
            acc[x] = acc.get(x, _ZERO) + c
        return HeckeElement._wrap(self.group, acc)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(-1)

    def __neg__(self) -> "HeckeElement":
        return self.scale(-1)

    def scale(self, factor: Union[LaurentPolynomial, int]) -> "HeckeElement":
        if isinstance(factor, int):
            factor = LaurentPolynomial.constant(factor)
        return HeckeElement._wrap(self.group, {x: c * factor for x, c in self.rows.items()})

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return hecke_mul(self, other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.group is other.group
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        if not self.rows:
            return "HeckeElement(0)"
        bits = []
        for x in sorted(self.rows):
            word = ",".join(map(str, self.table.word(x))) or "e"
            bits.append(f"({self.rows[x]})T[{word}]")
        return "HeckeElement(" + " + ".join(bits) + ")"


def hecke_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    if a.group is not b.group:
        raise ValueError("elements of different algebras")
    table, start = a.table, a._int_rows()
    total: Rows = {}
    for y, c in b.rows.items():
        for x, p in _fold(table, start, table.word(y)).items():
            _addmul(total, x, p.items(), c.terms)
    return HeckeElement._wrap(a.group, {x: _poly(p) for x, p in total.items()})


def braid_image_a(b: BraidWord) -> HeckeElement:
    """The group morphism into units sending each generator to T_s."""
    table = garside_table(b.group)
    rows = _fold(table, {table.e: {0: 1}}, b.letters)
    return HeckeElement._wrap(b.group, {x: _poly(p) for x, p in rows.items()})


def braid_image_a_prime(b: BraidWord) -> HeckeElement:
    """The twist of a by v to the exponent sum, sending generators to vT_s."""
    return braid_image_a(b).scale(LaurentPolynomial.v_power(b.exponent_sum()))


def j_h(h: HeckeElement) -> HeckeElement:
    """The semilinear involution with T_s mapped to -v^2 T_s."""
    length = h.table.length
    return HeckeElement._wrap(
        h.group,
        {
            x: c.bar().shifted(2 * length[x]) * ((-1) ** length[x])
            for x, c in h.rows.items()
        },
    )


@cache
def _bar_t(group: CoxeterGroup, x: int) -> HeckeElement:
    """bar(T_w) for the element with id x: the inverse generators along a reduced word."""
    return braid_image_a(BraidWord(group, tuple(-s for s in garside_table(group).word(x))))


def bar_involution(h: HeckeElement) -> HeckeElement:
    total: Rows = {}
    for x, c in h.rows.items():
        for y, d in _bar_t(h.group, x).rows.items():
            _addmul(total, y, d.terms, c.bar().terms)
    return HeckeElement._wrap(h.group, {x: _poly(p) for x, p in total.items()})


def _word_key(w: CoxeterElement) -> str:
    word = shortlex_word(w)
    return ",".join(map(str, word)) if word else "e"


class KLTable:
    """Kazhdan Lusztig polynomials and bases for one finite group.

    P_{y,w} lives in the variable q; the basis elements come back as
    HeckeElements over v with q = v^-2 substituted.  Everything is
    computed on first use and memoised in memory.
    """

    def __init__(self, group: CoxeterGroup, cap: int = KL_GROUP_ORDER_CAP) -> None:
        if group.type.order() > cap:
            raise ResourceError(
                f"group of order {group.type.order()} exceeds the table cap {cap}"
            )
        self.group = group
        self.table = garside_table(group)
        self._p: dict[tuple, LaurentPolynomial] = {}
        self._cprime: dict[CoxeterElement, HeckeElement] = {}
        self._c: list[HeckeElement | None] = [None] * len(self.table.payloads)  # by id

    # -- the polynomials ---------------------------------------------------

    def p(self, y: CoxeterElement, w: CoxeterElement) -> LaurentPolynomial:
        """P_{y,w} as a polynomial in q."""
        key = (y.payload, w.payload)
        got = self._p.get(key)
        if got is not None:
            return got
        if y == w:
            val = _ONE
        elif not bruhat_leq(y, w):
            val = _ZERO
        else:
            s = min(w.left_descents())
            gen = self.group.generator(s)
            sw = gen * w
            sy = gen * y
            if sy.length() < y.length():
                val = self.p(sy, sw) + _Q * self.p(y, sw)
                for z in bruhat_lower_interval(sw):
                    if (gen * z).length() < z.length() and bruhat_leq(y, z):
                        m = self.mu(z, sw)
                        if m:
                            gap = w.length() - z.length()
                            if gap % 2:
                                raise IntegrityError("odd exponent in the mu correction")
                            val = val - self.p(y, z) * LaurentPolynomial.v_power(
                                gap // 2, m
                            )
            else:
                val = self.p(sy, w)
        if y != w and val and 2 * val.max_exp() > w.length() - y.length() - 1:
            raise IntegrityError("degree bound violated in the recursion")
        self._p[key] = val
        return val

    def mu(self, y: CoxeterElement, w: CoxeterElement) -> int:
        """The coefficient of the top allowed q power in P_{y,w}."""
        gap = w.length() - y.length() - 1
        if gap < 0 or gap % 2:
            return 0
        return self.p(y, w).coeff(gap // 2)

    # -- bases -------------------------------------------------------------

    def c_prime(self, w: CoxeterElement) -> HeckeElement:
        got = self._cprime.get(w)
        if got is None:
            shift = w.length()
            got = HeckeElement(
                self.group,
                {
                    y: self.p(y, w).substituted_power(-2).shifted(shift)
                    for y in bruhat_lower_interval(w)
                },
            )
            self._cprime[w] = got
        return got

    def c_basis(self, w: CoxeterElement) -> HeckeElement:
        x = self.table.id_of(w)
        got = self._c[x]
        if got is None:
            got = self._c[x] = j_h(self.c_prime(w)).scale((-1) ** w.length())
        return got

    # -- expansion ---------------------------------------------------------

    def expand_in_C(self, h: HeckeElement) -> dict[CoxeterElement, LaurentPolynomial]:
        """Coordinates of h on the basis {C_w}, in increasing id order, by
        triangular elimination of the largest id, i.e. (length, sort_key)."""
        if h.group is not self.group:
            raise ValueError("element of a different algebra")
        length, element = self.table.length, self.table.element
        work = h._int_rows()
        out: Rows = {}
        while work:
            x = max(work)
            gamma = out[x] = {e - length[x]: c for e, c in work[x].items()}
            minus_gamma = [(e, -c) for e, c in gamma.items()]
            c_x = self._c[x] or self.c_basis(element(x))
            for y, c in c_x.rows.items():
                _addmul(work, y, minus_gamma, c.terms)
            if x in work:
                raise IntegrityError("triangular elimination failed to clear a term")
        return {element(x): _poly(out[x]) for x in sorted(out)}

    def expansion_is_positive(self, h: HeckeElement) -> bool:
        return all(c.is_nonneg() for c in self.expand_in_C(h).values())


@cache
def kl_table(group: CoxeterGroup) -> KLTable:
    return KLTable(group)


def positivity_report(
    c: CoxeterElement, ordering: tuple[int, ...] | None = None
) -> dict:
    """Expand every simple dual braid of c in {C_w} and record positivity."""
    from .dual import dual_monoid

    dm = dual_monoid(c, ordering)
    table = kl_table(c.group)
    items = []
    all_ok = True
    worst = None
    for u in dm.divisors():
        expansion = table.expand_in_C(braid_image_a(dm.embed(u)))
        ok = all(p.is_nonneg() for p in expansion.values())
        item = {
            "divisor": list(shortlex_word(u)),
            "coefficients": {_word_key(w): str(p) for w, p in expansion.items()},
            "positive": ok,
        }
        items.append(item)
        if not ok:
            all_ok = False
            if worst is None:
                worst = item
    report = {
        "group": c.group.type.to_json(),
        "coxeter_element": list(dm.ordering),
        "items": items,
        "positive": all_ok,
    }
    if worst is not None:
        report["worst"] = worst
    return report
