"""The Iwahori Hecke algebra over Z[v, v^-1] and its canonical bases.

Elements are stored on the standard basis {T_w}, normalised by T_s^2 =
(v^-2 - 1) T_s + v^-2, as rows: exponent -> coefficient int dicts keyed
by the ids of the group's table (coxeter.GroupTable), computed by the
row kernel of laurent that the Temperley Lieb layer shares.  Products
fold through the table's rmul and length arrays, and LaurentPolynomial
values are built only when coefficients are handed out.  The braid group
maps in through a (generators to T_s); its twist a', sending generators
to v T_s, is a times v to the exponent sum.  The Kazhdan Lusztig
machinery lives in KLTable, on table ids: polynomials P_{y,w} in q =
v^-2 computed by the classical recursion with mu corrections over lower
Bruhat intervals held as bitsets, the bases C'_w = v^{l(w)} sum
P_{y,w}(v^-2) T_y and C_w = (-1)^{l(w)} j_H(C'_w), and right
multiplication of C-coordinates by T_s or T_s^-1 along the W-graph, the
one way into {C_w}: elements expand one letter of each support word at a
time, T_x^-1 T_y one letter of x and then of y.  A table has no size
limit of its own: the command line refuses large groups in
verify.budget_guard, before any table is built.  P_{y,w} storage grows
roughly with |W|^2: D5, of order 1920, has 745 377 polynomials, filled
in 1.2 s at a 68 MB peak (one run, 2 cores, Python 3.11).
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .coxeter import CoxeterElement, CoxeterGroup, IntegrityError, bit_ids
from .garside import BraidWord, _left_fraction_ids, _letters_of_nf_ids, _rational_ids
from .laurent import LaurentPolynomial, Rows, addmul, combine, poly

_ONE = LaurentPolynomial.one()

# Coefficients of (T_ws, T_w) in T_w T_s^-1 for ws > w, and in T_w T_s
# for ws < w: v^2 T_ws + (v^2 - 1) T_w and v^-2 T_ws + (v^-2 - 1) T_w.
_UP_INVERSE = (((2, 1),), ((0, -1), (2, 1)))
_DOWN = (((-2, 1),), ((-2, 1), (0, -1)))
_UNIT = ((0, 1),)
_P_ONE = (1,)  # the polynomial 1 in q


def _mul_gen(table, rows: Rows, s: int, inverse: bool) -> Rows:
    """Right multiplication by T_s, or its inverse, for the 0-based generator s."""
    step = table.rmul[s]
    length = table.length
    out: Rows = {}
    for w, p in rows.items():
        ws = step[w]
        if (length[ws] > length[w]) == inverse:
            to_ws, to_w = _UP_INVERSE if inverse else _DOWN
            addmul(out, ws, p.items(), to_ws)
            addmul(out, w, p.items(), to_w)
        else:
            addmul(out, ws, p.items(), _UNIT)
    return out


def _fold(table, rows: Rows, letters: Iterable[int]) -> Rows:
    """Right multiply by T_s for each letter s and by T_s^-1 for each -s."""
    for l in letters:
        rows = _mul_gen(table, rows, abs(l) - 1, l < 0)
    return rows


def _axpy(acc: list[int], p: tuple[int, ...], shift: int, m: int) -> None:
    """acc += m q^shift p on coefficient lists in q, growing acc as needed."""
    grow = shift + len(p) - len(acc)
    if grow > 0:
        acc.extend([0] * grow)
    for i, c in enumerate(p, shift):
        acc[i] += m * c


def _nonneg(rows: Rows) -> bool:
    """Whether every coefficient of every row is positive (rows hold no zeros)."""
    return all(c > 0 for p in rows.values() for c in p.values())


class HeckeElement:
    """A finitely supported Z[v, v^-1] combination of standard basis terms,
    stored by GroupTable id in int rows and keyed by element in coeffs.  Its
    methods take arguments of its group only (CoxeterGroup.member)."""

    __slots__ = ("group", "rows")

    def __init__(
        self,
        group: CoxeterGroup,
        coeffs: Mapping[CoxeterElement, LaurentPolynomial] | None = None,
    ) -> None:
        self.group = group
        self.rows: Rows = {
            group.member(w).id: dict(c.terms) for w, c in (coeffs or {}).items() if c
        }

    @staticmethod
    def _wrap(group: CoxeterGroup, rows: Rows) -> "HeckeElement":
        h = HeckeElement(group)
        h.rows = rows
        return h

    @staticmethod
    def unit(group: CoxeterGroup) -> "HeckeElement":
        return HeckeElement(group, {group.identity: _ONE})

    @property
    def coeffs(self) -> Mapping[CoxeterElement, LaurentPolynomial]:
        """The coefficients keyed by group element, read only."""
        group = self.group
        return MappingProxyType({CoxeterElement(group, x): poly(p) for x, p in self.rows.items()})

    def coeff(self, w: CoxeterElement) -> LaurentPolynomial:
        return poly(self.rows.get(self.group.member(w).id, {}))

    def support(self) -> frozenset[CoxeterElement]:
        return frozenset(CoxeterElement(self.group, x) for x in self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        pair = (self.rows, self.group.member(other).rows)
        return HeckeElement._wrap(self.group, combine((rows, _UNIT) for rows in pair))

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(-1)

    def __neg__(self) -> "HeckeElement":
        return self.scale(-1)

    def scale(self, factor: Union[LaurentPolynomial, int]) -> "HeckeElement":
        if isinstance(factor, int):
            factor = LaurentPolynomial.constant(factor)
        return HeckeElement._wrap(self.group, combine(((self.rows, factor.terms),)))

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
            word = ",".join(map(str, self.group.table.word(x))) or "e"
            bits.append(f"({poly(self.rows[x])})T[{word}]")
        return "HeckeElement(" + " + ".join(bits) + ")"


def hecke_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    table, rows = a.group.table, a.group.member(b).rows
    return HeckeElement._wrap(
        a.group, combine((_fold(table, a.rows, table.word(y)), p.items()) for y, p in rows.items())
    )


def braid_image_a(b: BraidWord) -> HeckeElement:
    """The group morphism into units sending each generator to T_s."""
    table = b.group.table
    return HeckeElement._wrap(b.group, _fold(table, {table.e: {0: 1}}, b.letters))


def j_h(h: HeckeElement) -> HeckeElement:
    """The semilinear involution with T_s mapped to -v^2 T_s."""
    length = h.group.table.length
    return HeckeElement._wrap(h.group, {
        x: {2 * length[x] - e: c * (-1) ** length[x] for e, c in p.items()}
        for x, p in h.rows.items()
    })


class KLTable:
    """Kazhdan Lusztig polynomials, W-graph and bases for one finite group,
    on the ids of its GroupTable.

    The table is filled one w at a time in id order (ids run in length
    order), up to the largest id asked for.  For each w it holds P_{y,w}
    for every y in the lower Bruhat interval of w, as a tuple of int
    coefficients in q, and the mu-list of w: the pairs (z, mu(z, w)) with
    z < w and mu(z, w) nonzero.  With s the first left descent of w and
    v = sw, P_{y,w} = P_{sy,w} when sy > y, and otherwise

        P_{y,w} = P_{sy,v} + q P_{y,v} - sum mu(z,v) q^{(l(w)-l(z))/2} P_{y,z}

    over the z of the mu-list of v with sz < z.  Basis elements come back
    as HeckeElements over v with q = v^-2 substituted; coordinates on
    {C_w} come only from W-graph steps by T_s or T_s^-1 from C_e (_step).
    Methods take arguments of the table's group only (CoxeterGroup.member).
    """

    def __init__(self, group: CoxeterGroup) -> None:
        self.group = group
        self.table = group.table
        # by id w: y -> P_{y,w} and the mu-list, both filled in id order from e
        self._p: list[dict[int, tuple[int, ...]]] = [{self.table.e: _P_ONE}]
        self._mu: list[list[tuple[int, int]]] = [[]]
        self._pairs: tuple[int, dict[int, Rows]] = (-1, {})  # x, y -> T_x^-1 T_y

    # -- the polynomials ---------------------------------------------------

    def _fill(self, upto: int) -> None:
        """Compute P_{y,w} and the mu-list of every id w <= upto not yet done."""
        P, mus, t = self._p, self._mu, self.table
        length, lmul, ldesc = t.length, t.lmul, t.ldesc
        for w in range(len(P), upto + 1):
            lw = length[w]
            s = (ldesc[w] & -ldesc[w]).bit_length() - 1
            bit, step, Pv = 1 << s, lmul[s], P[lmul[s][w]]
            terms = []
            for z, m in mus[step[w]]:
                if ldesc[z] & bit:
                    if (lw - length[z]) % 2:
                        raise IntegrityError("odd exponent in the mu correction")
                    terms.append((P[z], (lw - length[z]) // 2, m))
            row: dict[int, tuple[int, ...]] = {}
            ids = bit_ids(t.below(w))
            for y in ids:
                if not ldesc[y] & bit:
                    continue
                acc = list(Pv.get(step[y], ()))
                _axpy(acc, Pv.get(y, ()), 1, 1)
                for Pz, h, m in terms:
                    if y in Pz:
                        _axpy(acc, Pz[y], h, -m)
                while acc and not acc[-1]:
                    acc.pop()
                if not acc or acc[0] != 1:
                    raise IntegrityError("P_{y,w} has constant term other than 1")
                if y != w and 2 * len(acc) > lw - length[y] + 1:
                    raise IntegrityError("degree bound violated in the recursion")
                row[y] = _P_ONE if acc == [1] else tuple(acc)
            for y in ids:
                if not ldesc[y] & bit:
                    row[y] = row[step[y]]
            top = {z: (lw - length[z] - 1) // 2 for z in ids if (lw - length[z]) % 2}
            mus.append([(z, row[z][k]) for z, k in top.items() if len(row[z]) > k and row[z][k]])
            P.append(row)

    def _row(self, w: int) -> dict[int, tuple[int, ...]]:
        """y -> P_{y,w} for the y below the element with id w."""
        self._fill(w)
        return self._p[w]

    def p(self, y: CoxeterElement, w: CoxeterElement) -> LaurentPolynomial:
        """P_{y,w} as a polynomial in q."""
        got = self._row(self.group.member(w).id).get(self.group.member(y).id, ())
        return poly({k: c for k, c in enumerate(got) if c})

    def mu(self, y: CoxeterElement, w: CoxeterElement) -> int:
        """The coefficient of the top allowed q power in P_{y,w}."""
        terms = dict(self.p(y, w).terms)
        k, odd = divmod(w.length() - y.length() - 1, 2)
        return 0 if odd else terms.get(k, 0)

    # -- bases -------------------------------------------------------------

    def c_prime(self, w: CoxeterElement) -> HeckeElement:
        """C'_w = v^{l(w)} sum_y P_{y,w}(v^-2) T_y."""
        x = self.group.member(w).id
        lw = self.table.length[x]
        return HeckeElement._wrap(self.group, {
            y: {lw - 2 * k: c for k, c in enumerate(p) if c} for y, p in self._row(x).items()
        })

    def c_basis(self, w: CoxeterElement) -> HeckeElement:
        """C_w = (-1)^{l(w)} j_H(C'_w): the coefficient of T_y is
        (-1)^{l(w)-l(y)} v^{2l(y)-l(w)} P_{y,w}(v^2)."""
        x = self.group.member(w).id
        length, lw = self.table.length, self.table.length[x]
        return HeckeElement._wrap(self.group, {
            y: {2 * (k + length[y]) - lw: (-1) ** (lw - length[y]) * c
                for k, c in enumerate(p) if c}
            for y, p in self._row(x).items()
        })

    # -- expansion along the W-graph ---------------------------------------

    def _step(self, rows: Rows, s: int, inverse: bool = False) -> Rows:
        """Right multiplication of C-coordinates by T_s, or T_s^-1, for the
        0-based s along the W-graph (Kazhdan-Lusztig 1979, (2.3.a)): C_w T_s
        = -C_w when ws < w, and otherwise C_w T_s = v^-1 C_ws + v^-2 C_w +
        v^-1 sum mu(z, w) C_z over the z of the mu-list of w with zs < z.
        As T_s^-1 = v^2 T_s + v^2 - 1, C_w T_s^-1 is -C_w, or that sum with
        exponents (1, 2, 1).  The mu-list of each w read must be filled."""
        rdesc, ws_of, bit = self.table.rdesc, self.table.rmul[s], 1 << s
        k = 1 if inverse else -1
        out: Rows = {}
        for w, p in rows.items():
            items = p.items()
            if rdesc[w] & bit:
                addmul(out, w, items, ((0, -1),))
                continue
            addmul(out, ws_of[w], items, ((k, 1),))
            addmul(out, w, items, ((2 * k, 1),))
            for z, m in self._mu[w]:
                if rdesc[z] & bit:
                    addmul(out, z, items, ((k, m),))
        return out

    def _fold_steps(self, letters: Iterable[int]) -> Rows:
        """C-coordinates from C_e = T_e by T_s for each letter s, T_s^-1 for each -s."""
        rows = {self.table.e: {0: 1}}
        for l in letters:
            rows = self._step(rows, abs(l) - 1, l < 0)
        return rows

    def _walk(self, done: dict[int, Rows], y: int) -> Rows:
        """done[y] = done[e] T_y, stepping from the nearest kept prefix to
        each y from its parent ys, s its first right descent, kept on the way."""
        t = self.table
        chain = []
        while y not in done:
            s = (t.rdesc[y] & -t.rdesc[y]).bit_length() - 1
            chain.append((y, s))
            y = t.rmul[s][y]
        rows = done[y]
        for y, s in reversed(chain):
            rows = done[y] = self._step(rows, s)
        return rows

    def expand_in_C(self, h: HeckeElement) -> dict[CoxeterElement, LaurentPolynomial]:
        """Coordinates of h on the basis {C_w}, in increasing id order: the
        sum of c_y T_y, each T_y walked from C_e by W-graph steps.  T_y has
        only C_w with w <= y, so the table is filled up to h's largest id."""
        rows, e = self.group.member(h).rows, self.table.e
        self._fill(max(rows, default=e))
        done = {e: {e: {0: 1}}}
        total = combine((self._walk(done, y), p.items()) for y, p in rows.items())
        elements = self.group.elements()  # in id order
        return {elements[x]: poly(total[x]) for x in sorted(total)}

    def pair_is_nonneg(self, x: CoxeterElement, y: CoxeterElement) -> bool:
        """Whether every C-coordinate of T_x^-1 T_y has nonnegative
        coefficients, read off the signs of the id rows of _pair_rows."""
        return _nonneg(self._pair_rows(self.group.member(x).id, self.group.member(y).id))

    def braid_is_nonneg(self, b: BraidWord) -> bool:
        """Whether every C-coordinate of the image of b under a has
        nonnegative coefficients (_nf_is_nonneg on its normal form)."""
        return self._nf_is_nonneg(self.group.member(b).nf)

    def _nf_is_nonneg(self, nf: tuple[int, tuple[int, ...]]) -> bool:
        """braid_is_nonneg for the braid with normal form nf: the signs of
        _pair_rows on the fraction x^-1 y of a rational braid, and otherwise
        of its letters folded from C_e by W-graph steps, T_s^-1 for each
        negative letter."""
        t = self.table
        if _rational_ids(nf):
            return _nonneg(self._pair_rows(*_left_fraction_ids(t, nf)))
        self._fill(t.w0)  # the letters may reach every mu-list
        return _nonneg(self._fold_steps(_letters_of_nf_ids(t, nf)))

    def _pair_rows(self, x: int, y: int) -> Rows:
        """C-coordinates of T_x^-1 T_y: T_x^-1 by l(x) inverse W-graph steps
        from C_e, then y walked by steps.  The rows of the last x are kept,
        so a sweep over y in increasing id order, all y or only some, takes
        at most one step per y and l(x) inverse steps per x."""
        t = self.table
        last, done = self._pairs
        if last != x:
            self._fill(t.w0)  # steps may reach every mu-list
            done = {t.e: self._fold_steps([-s for s in reversed(t.word(x))])}
            self._pairs = (x, done)
        return self._walk(done, y)


@cache
def kl_table(group: CoxeterGroup) -> KLTable:
    return KLTable(group)
