"""The Temperley Lieb quotient of the type A Hecke algebra.

Basis elements are planar diagrams: noncrossing perfect matchings of
m = n+1 top and m bottom points.  Multiplication stacks diagrams and each
closed loop contributes a factor v + v^-1.

All products run on a diagram table per m, built on first use and never
at import by one breadth-first walk from the identity: each diagram met
is stacked over every generator diagram b_s, which fills the right
action as (diagram id, closed loops), and a matching met for the first
time gets the next id and its parent's word plus s, a shortest word in
the generators whose product is that diagram with no loop.  Stacking d
on any diagram folds d along that word.  The walk must meet exactly the
Catalan(m) noncrossing matchings, each validated once.  The images
of T_s and of the braid generators are scalar plus scalar times b_s, so
tl_mul, theta, theta_prime and omega fold along words through that one
action, on rows keyed by diagram id through the row kernel of laurent;
LaurentPolynomial values are built only when coefficients are handed
out.  The same walk numbers the {b_w} basis: the fully commutative
element of a diagram is the group image of its shortest word, and b_w,
the product over any reduced word of w, is that diagram with no loop.

Two quotient maps from the Hecke algebra are provided, theta and
theta_prime, together with the braid group map omega = theta_prime
after a'.  The images of the simple dual braids of a standard Coxeter
element assemble into the Zinno matrix, which answers for its triangular
pairing, unit diagonal and Bruhat refinement; sign_alternating reads the
signs of its rows.  Its rows are kept for the last Coxeter element and
ordering asked for, which thm-8.13 and thm-8.17 then share, and are
computed along c's divisor lattice: each simple dual braid is its
lattice parent's times one atom, so its rows are the parent's folded
along the atom's signed lift.  The public omega folds a braid word on its
own and is the reference for it.
"""

from __future__ import annotations

from bisect import insort
from functools import cache, lru_cache
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .coxeter import (
    CoxeterElement,
    CoxeterGroup,
    IntegrityError,
    Record,
    bruhat_leq,
    coxeter_group,
    standard_ordering,
)
from .dual import dual_monoid
from .garside import BraidWord, _checked_lift, word_key
from .hecke import HeckeElement, kl_table
from .laurent import LaurentPolynomial, Rows, addmul, combine, poly

_ZERO = LaurentPolynomial.zero()
_ONE = LaurentPolynomial.one()


class TLDiagram(Record):
    """A noncrossing perfect matching on 2m boundary points.

    Points 0..m-1 run along the top from left to right and points
    m..2m-1 continue around the circle, so the bottom row read left to
    right is 2m-1 down to m.
    """

    __slots__ = ("points", "pairing")

    def __init__(self, points: int, pairing: tuple[int, ...]) -> None:
        p = pairing
        if points % 2 or len(p) != points:
            raise ValueError("need an even number of points, all matched")
        for i, j in enumerate(p):
            if not 0 <= j < points or j == i or p[j] != i:
                raise ValueError("pairing is not a fixed point free involution")
        chords = [(i, j) for i, j in enumerate(p) if i < j]
        for a, b in chords:
            for c, d in chords:
                if a < c < b < d:
                    raise IntegrityError("crossing chords in a planar diagram")
        self._set(points, pairing)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.points, self.pairing) == (other.points, other.pairing)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.points, self.pairing))

    def chords(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j in enumerate(self.pairing) if i < j)


def identity_diagram(m: int) -> TLDiagram:
    pairing = tuple(2 * m - 1 - i for i in range(2 * m))
    return TLDiagram(2 * m, pairing)


# ---------------------------------------------------------------------------
# the diagram table


class _DiagramTable:
    """The diagrams on 2m points, numbered, with the generator actions.

    ``right[i - 1][d]`` is ``(d', loops)``: diagram d stacked over the
    generator diagram at i gives d' and ``loops`` closed loops.
    ``words[d]`` is a shortest word whose generator diagrams multiply to
    d with no loop.

    One breadth-first walk from the identity (id 0) fills all three and
    validates each diagram as it meets it.  A closed loop leaves the
    diagram as it was, so each new diagram is met on a loop free edge from
    its parent, and breadth-first order keeps the words shortest.  The
    walk must meet all Catalan(m) matchings.
    """

    def __init__(self, m: int) -> None:
        points = 2 * m
        self.m = m
        self.identity = 0
        diagrams = [identity_diagram(m)]
        words: list[tuple[int, ...]] = [()]
        self._ids = {diagrams[0].pairing: 0}
        right: list[list[tuple[int, int]]] = [[] for _ in range(1, m)]
        for d, diagram in enumerate(diagrams):  # the walk appends to diagrams as it goes
            for i, act in enumerate(right, 1):
                q, loops = self._stack_generator(diagram.pairing, i)
                e = self._ids.setdefault(q, len(diagrams))
                if e == len(diagrams):
                    diagrams.append(TLDiagram(points, q))
                    words.append(words[d] + (i,))
                act.append((e, loops))
        if len(diagrams) != comb(points, m) // (m + 1):
            raise IntegrityError("the diagram walk did not meet Catalan(m) diagrams")
        self.diagrams = tuple(diagrams)
        self.right = tuple(map(tuple, right))
        self.words = tuple(words)

    def _stack_generator(self, p: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int]:
        # the generator's top cup joins the bottom points of p at positions
        # i-1 and i, and its bottom cap becomes the new chord between them
        a, b = 2 * self.m - i, 2 * self.m - 1 - i
        x, y = p[a], p[b]
        if x == b:
            return p, 1
        q = list(p)
        q[x], q[y], q[a], q[b] = y, x, b, a
        return tuple(q), 0

    def id_of(self, d: TLDiagram) -> int:
        if d.points != 2 * self.m:
            raise ValueError("diagrams of different sizes")
        return self._ids[d.pairing]

    def fold(self, d: int, word: Iterable[int]) -> tuple[int, int]:
        """Stack d over the generator diagrams of word: (diagram, loops)."""
        loops = 0
        for i in word:
            d, k = self.right[i - 1][d]
            loops += k
        return d, loops


@cache
def _diagram_table(m: int) -> _DiagramTable:
    return _DiagramTable(m)


class TLElement:
    """A Z[v, v^-1] combination of diagrams on a common point count, stored
    by diagram id in rows and keyed by diagram in coeffs."""

    __slots__ = ("points", "table", "rows")

    def __init__(
        self, points: int, coeffs: Mapping[TLDiagram, LaurentPolynomial] | None = None
    ) -> None:
        self.points = points
        self.table = _diagram_table(points // 2)
        self.rows: Rows = {
            self.table.id_of(d): dict(c.terms) for d, c in (coeffs or {}).items() if c
        }

    @staticmethod
    def _wrap(points: int, rows: Rows) -> "TLElement":
        x = TLElement(points)
        x.rows = rows
        return x

    @staticmethod
    def unit(m: int) -> "TLElement":
        return TLElement(2 * m, {identity_diagram(m): _ONE})

    @property
    def coeffs(self) -> Mapping[TLDiagram, LaurentPolynomial]:
        """The coefficients keyed by diagram, read only."""
        diagrams = self.table.diagrams
        return MappingProxyType({diagrams[d]: poly(p) for d, p in self.rows.items()})

    def coeff(self, d: TLDiagram) -> LaurentPolynomial:
        return poly(self.rows.get(self.table.id_of(d), {}))

    def is_zero(self) -> bool:
        return not self.rows

    def __add__(self, other: "TLElement") -> "TLElement":
        if self.points != other.points:
            raise ValueError("elements of different algebras")
        return TLElement._wrap(self.points, combine((x.rows, _ONE.terms) for x in (self, other)))

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + other.scale(-1)

    def scale(self, factor: Union[LaurentPolynomial, int]) -> "TLElement":
        if isinstance(factor, int):
            factor = LaurentPolynomial.constant(factor)
        return TLElement._wrap(self.points, combine(((self.rows, factor.terms),)))

    def __mul__(self, other: "TLElement") -> "TLElement":
        return tl_mul(self, other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TLElement)
            and self.points == other.points
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        if not self.rows:
            return "TLElement(0)"
        diagrams = self.table.diagrams
        bits = [f"({poly(p)})*{diagrams[d].chords()}" for d, p in self.rows.items()]
        return "TLElement(" + " + ".join(bits) + ")"


def tl_mul(a: TLElement, b: TLElement) -> TLElement:
    """Fold a along a loop free word of each diagram of b."""
    if a.points != b.points:
        raise ValueError("elements of different algebras")
    return TLElement._wrap(a.points, combine(
        (_fold(a.table, a.rows, ((i, _GENERATOR) for i in a.table.words[d])), q.items())
        for d, q in b.rows.items()
    ))


# ---------------------------------------------------------------------------
# fully commutative elements and the b_w basis


@cache
def _fc_ids(table: _DiagramTable) -> tuple[tuple[int, ...], dict[int, int]]:
    """The fully commutative element of each diagram, as the table id of
    W(A_{m-1}) by diagram id, and the diagram id by table id.

    The element of diagram d is the image of words[d], a shortest loop free
    word for d, with three checks: distinct diagrams give distinct
    elements, the word is reduced, and the shortlex word of the element
    folds back to d with no loop, so a second reduced word gives the same
    bare diagram.  Fully commutative elements and diagrams are in bijection
    (Fan-Green 1997), so these are all of them.
    """
    group_table = coxeter_group("A", table.m - 1).table
    fc = tuple(map(group_table.image_id, table.words))
    diagram_of = {x: d for d, x in enumerate(fc)}
    if len(diagram_of) != len(fc):
        raise IntegrityError("distinct diagrams share an element")
    for d, (x, word) in enumerate(zip(fc, table.words)):
        if group_table.length[x] != len(word):
            raise IntegrityError("a diagram's shortest word is not reduced")
        if table.fold(table.identity, group_table.word(x)) != (d, 0):
            raise IntegrityError("b_w depends on the chosen reduced word")
    return fc, diagram_of


def fully_commutative(n: int) -> tuple[CoxeterElement, ...]:
    """The fully commutative (321 avoiding) elements of the symmetric group
    on n+1 points, one per diagram, in id order."""
    elements = coxeter_group("A", n).elements()
    return tuple(elements[x] for x in sorted(_fc_ids(_diagram_table(n + 1))[1]))


def b_w(w: CoxeterElement) -> TLElement:
    """The basis element of a fully commutative w."""
    if w.group.type.family != "A":
        raise ValueError("expected a type A element")
    m = w.group.rank + 1
    x = coxeter_group("A", w.group.rank).member(w).id
    d = _fc_ids(_diagram_table(m))[1].get(x)
    if d is None:
        raise ValueError("element is not fully commutative")
    return TLElement._wrap(2 * m, {d: {0: 1}})


def expand_in_b(x: TLElement) -> dict[CoxeterElement, LaurentPolynomial]:
    """Coordinates of a TL element on the {b_w} basis."""
    fc = _fc_ids(x.table)[0]
    elements = coxeter_group("A", x.table.m - 1).elements()
    return {elements[fc[d]]: poly(p) for d, p in x.rows.items()}


# ---------------------------------------------------------------------------
# the quotient maps

# The images of b_s, of T_s under theta and theta_prime, and of the braid
# generator and its inverse under omega, as term tuples (scalar, coefficient
# of b_s, closed).  Where b_s closes a loop the diagram stays and gains
# v + v^-1, so there the whole image is closed = scalar + coefficient *
# (v + v^-1), stored without zero terms and added to a row in one step.
_GENERATOR = ((), _ONE.terms, ((-1, 1), (1, 1)))
_THETA_T = (((0, -1),), ((-1, 1),), ((-2, 1),))
_THETA_PRIME_T = (((-2, 1),), ((-1, -1),), ((0, -1),))
_OMEGA_POS = (((-1, 1),), ((0, -1),), ((1, -1),))
_OMEGA_NEG = (((1, 1),), ((0, -1),), ((-1, -1),))


def _omega_letter(letter: int) -> tuple[int, tuple]:
    return abs(letter), _OMEGA_POS if letter > 0 else _OMEGA_NEG


def _fold(table: _DiagramTable, rows: Rows, word: Iterable[tuple[int, tuple]]) -> Rows:
    """Right multiply rows by scalar + coeff * b_s for each (s, image) in
    word, into new rows: the rows passed in are never changed."""
    for i, (scalar, coeff, closed) in word:
        act = table.right[i - 1]
        out: Rows = {}
        for d, p in rows.items():
            items = p.items()
            e, loops = act[d]
            if loops:
                addmul(out, d, items, closed)
                continue
            if scalar:
                addmul(out, d, items, scalar)
            addmul(out, e, items, coeff)
        rows = out
    return rows


@cache
def _quotient_t(group: CoxeterGroup, x: int, image: tuple) -> Rows:
    """The image of T_w, w the element with table id x, folded along its
    reduced word, under the quotient map sending T_s to image."""
    table = _diagram_table(group.rank + 1)
    return _fold(table, {table.identity: {0: 1}}, ((i, image) for i in group.table.word(x)))


def _quotient(h: HeckeElement, image: tuple) -> TLElement:
    if h.group.type.family != "A":
        raise ValueError("expected a type A element")
    images = ((_quotient_t(h.group, x, image), p.items()) for x, p in h.rows.items())
    return TLElement._wrap(2 * (h.group.rank + 1), combine(images))


def theta(h: HeckeElement) -> TLElement:
    """The quotient map with T_s mapped to v^-1 b_s - 1."""
    return _quotient(h, _THETA_T)


def theta_prime(h: HeckeElement) -> TLElement:
    """The quotient map with T_s mapped to v^-2 - v^-1 b_s."""
    return _quotient(h, _THETA_PRIME_T)


def omega(b: BraidWord) -> TLElement:
    """The braid group map sending a generator to v^-1 - b_s."""
    if b.group.type.family != "A":
        raise ValueError("expected a type A braid")
    m = b.group.rank + 1
    table = _diagram_table(m)
    letters = map(_omega_letter, b.letters)
    return TLElement._wrap(2 * m, _fold(table, {table.identity: {0: 1}}, letters))


# ---------------------------------------------------------------------------
# the Zinno basis


class ZinnoMatrix(Record):
    """Images of the simple dual braids of c on the {b_w} basis.

    Rows are divisors of c ordered by reflection length; columns are
    fully commutative elements ordered by length.  The triangular data
    records the greedy elimination: pairs in elimination order with the
    diagonal entries, when the elimination succeeds.
    """

    __slots__ = ("c", "rows", "cols", "entries", "pairing")

    def __init__(
        self, c: CoxeterElement, rows: tuple[CoxeterElement, ...],
        cols: tuple[CoxeterElement, ...], entries: tuple[tuple[LaurentPolynomial, ...], ...],
        pairing: tuple[tuple[int, int], ...] | None,
    ) -> None:
        self._set(c, rows, cols, entries, pairing)

    def entry(self, x: CoxeterElement, w: CoxeterElement) -> LaurentPolynomial:
        group = self.c.group
        return self.entries[self.rows.index(group.member(x))][self.cols.index(group.member(w))]

    def is_square(self) -> bool:
        return len(self.rows) == len(self.cols)

    def diagonal(self) -> tuple[LaurentPolynomial, ...] | None:
        if self.pairing is None:
            return None
        return tuple(self.entries[r][c] for r, c in self.pairing)

    def invertible_over_laurent(self) -> bool:
        diag = self.diagonal()
        return diag is not None and all(p.is_unit_monomial() for p in diag)

    def bruhat_refined(self) -> bool | None:
        """Whether the pairing refines Bruhat order: a nonzero entry in the
        row of x and the column paired with x' forces x' <= x, so every
        linear extension of Bruhat order triangularises the matrix.  None
        unless c is the one line element s_1 s_2 ... s_n and the pairing
        exists."""
        group = self.c.group
        if self.pairing is None or self.c != group.from_word(range(1, group.rank + 1)):
            return None
        owner = {j: r for r, j in self.pairing}
        return all(
            bruhat_leq(self.rows[owner[j]], x)
            for x, row in zip(self.rows, self.entries)
            for j, p in enumerate(row) if p
        )

    def to_json(self) -> dict:
        return {
            "group": self.c.group.type.to_json(),
            "coxeter_element": list(self.c.reduced_word()),
            "rows": [
                {
                    "divisor": list(x.reduced_word()),
                    "coeffs": {
                        word_key(w): str(p)
                        for w, p in zip(self.cols, self.entries[i])
                        if p
                    },
                }
                for i, x in enumerate(self.rows)
            ],
        }


def _greedy_pairing(
    entries: tuple[tuple[LaurentPolynomial, ...], ...]
) -> tuple[tuple[int, int], ...] | None:
    """Peel rows whose support has shrunk to one live column.

    The smallest such row goes first.  Succeeds exactly when some row and
    column permutation makes the matrix triangular with nowhere vanishing
    diagonal.  Each row keeps its live columns and each column the rows
    holding it, so peeling a row only visits the rows of its column.
    """
    live = [{j for j, p in enumerate(row) if p} for row in entries]
    holders: dict[int, list[int]] = {}
    for r, cols in enumerate(live):
        for j in cols:
            holders.setdefault(j, []).append(r)
    ready = [r for r, cols in enumerate(live) if len(cols) == 1]
    order = []
    while ready:
        r = ready.pop(0)
        if len(live[r]) != 1:
            continue
        (j,) = live[r]
        order.append((r, j))
        for q in holders[j]:
            live[q].discard(j)
            if len(live[q]) == 1:
                insort(ready, q)
    return tuple(order) if len(order) == len(entries) else None


@lru_cache(maxsize=1)
def _zinno_rows(
    c: CoxeterElement, ordering: tuple[int, ...]
) -> tuple[tuple[CoxeterElement, dict[CoxeterElement, LaurentPolynomial]], ...]:
    """Each divisor x of c with the {b_w} coordinates of omega of its dual
    braid, ordered by reflection length; shared by every Zinno check on
    the ordering being checked, the one entry kept.  Callers resolve the
    ordering (standard_ordering), so that each c has one key per ordering.

    The walk follows c's lattice as DualMonoid does: the dual braid of
    x = y t, y its parent there, is y's times the atom of t, so x's rows
    are y's folded along the atom's signed lift, l(t) letters checked to
    spell the atom (_checked_lift).  That is 169 letter steps for the 42
    divisors of A4 under the ordering (1, 2, 3, 4), against 604 letters in
    their normal-form words.
    """
    if c.group.type.family != "A":
        raise ValueError("expected a type A element")
    dm = dual_monoid(c, ordering)
    table = _diagram_table(c.group.rank + 1)
    lift = {t: [*map(_omega_letter, _checked_lift(c.group, nf).letters)]
            for t, nf in dm.atoms._nfs.items()}
    rows: dict[int, Rows] = {}
    for x, step in dm._interval.items():
        rows[x] = _fold(table, rows[step[0]], lift[step[1]]) if step else {table.identity: {0: 1}}
    return tuple((x, expand_in_b(TLElement._wrap(2 * table.m, rows[x.id]))) for x in dm.divisors())


def zinno_matrix(c: CoxeterElement, ordering: tuple[int, ...] | None = None) -> ZinnoMatrix:
    rows = _zinno_rows(c, standard_ordering(c, ordering))
    cols = fully_commutative(c.group.rank)
    entries = tuple(tuple(coeffs.get(w, _ZERO) for w in cols) for _, coeffs in rows)
    return ZinnoMatrix(
        c, tuple(x for x, _ in rows), cols, entries, _greedy_pairing(entries)
    )


def sign_alternating(
    c: CoxeterElement, ordering: tuple[int, ...] | None = None
) -> tuple[bool, ...]:
    """Per Zinno row of c, whether the coefficient of each b_w in the image
    of its simple dual braid lies in (-1)^{l(w)} N[v, v^-1]."""
    odd = {w for w in fully_commutative(c.group.rank) if w.length() % 2}
    return tuple(
        all((k < 0) == (w in odd) for w, p in coeffs.items() for _, k in p.terms)
        for _, coeffs in _zinno_rows(c, standard_ordering(c, ordering))
    )


def fg_projection_failures(n: int) -> list[list[int]]:
    """The reduced words of the w in W(A_n) where theta(C'_w) is not b_w,
    for w fully commutative, or not zero otherwise."""
    W = coxeter_group("A", n)
    table = kl_table(W)
    fc = set(fully_commutative(n))
    zero = TLElement(2 * (n + 1))
    return [
        list(w.reduced_word()) for w in W.elements()
        if theta(table.c_prime(w)) != (b_w(w) if w in fc else zero)
    ]
