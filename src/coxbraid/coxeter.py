"""Finite Coxeter groups of spherical type with exact element arithmetic.

Families A_n (n >= 1), B_n (n >= 2), D_n (n >= 4), I2(m) (m >= 3), H3 and
F4.  Element payloads are flat tuples of integers:

  A_n    one line permutations of {1, ..., n+1}
  B_n    signed permutations, stored as (w(1), ..., w(n)) with w(-i) = -w(i)
  D_n    signed permutations with an even number of negative entries
  I2(m)  pairs (k, f) meaning rho^k s^f where s, t are the generators and
         rho = s*t is the basic rotation
  H3, F4 permutations of the 30 and 48 roots, labelled 1, 2, ... by their
         coordinates in the simple roots; H3 computes in Z[phi] with
         phi^2 = phi + 1, F4 in the integers (_root_permutations)

Products compose right to left, (u * v)(i) = u(v(i)), so that words read
the way they are written: from_word([1, 2]) applies s2 first.

Each group has one id table, CoxeterGroup.table, built on first need by
one breadth-first walk of its Cayley graph (GroupTable): one generator
action per edge numbers the elements in (length, payload) order and
gives their lengths, right products and inverses.  That walk takes the
only payload products there are, each by a generator on the right.  An
element is its id in the table: from_word, length and inverse read the
walk, and products, descents, reduced words and reflection length what
the table derives from it on first read; dual.py decides absolute order.
element(payload) looks a payload up in the table, and the payload is
read back only for the point action.  The reflections are the conjugacy
classes of the generators.  An id means nothing outside its group:
CoxeterGroup.member checks, for every entry point, that an object
belongs to a group.  Every other module reads group.table.

Generator numbering is 1-based.  For B_n the letter 1 is the sign change
at the first coordinate and the letter i+1 swaps coordinates i and i+1,
so m(1, 2) = 4.  For D_n the letter 1 maps (1, 2) to (-2, -1), the letter
2 swaps coordinates 1 and 2, and letters k >= 3 swap coordinates k-1, k.
"""

from __future__ import annotations

import itertools
import operator
from functools import cache, cached_property
from math import factorial
from typing import Callable, Iterable, TypeVar


class IntegrityError(RuntimeError):
    """Two computation paths that must agree produced different results.

    This always signals an implementation bug, never bad input."""


class ResourceError(RuntimeError):
    """A computation was refused because it would exceed the configured
    budget."""


_FAMILIES = ("A", "B", "D", "I2", "H3", "F4")
_MIN_RANK = {"A": 1, "B": 2, "D": 4}
_FIXED_RANK = {"I2": 2, "H3": 3, "F4": 4}
_T = TypeVar("_T")


class Record:
    """A frozen value record.  Its fields are its __slots__, which __init__
    sets once, through _set in slot order or object.__setattr__.  Records
    are equal when they have the same type and equal fields, hash and repr
    read the fields in slot order, and assigning or deleting an attribute
    raises AttributeError.  A record with a cache slot, as BraidWord's
    __dict__, writes its own __eq__, __hash__ and __repr__."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CoxeterType(Record):
    """Descriptor of a finite Coxeter group.

    JSON form is {"family": ..., "rank": ...} with an extra "m" entry for
    the dihedral family only.

    >>> CoxeterType("B", 3).order()
    48
    >>> CoxeterType("I2", 2, 7).reflection_count()
    7
    """

    __slots__ = ("family", "rank", "m")

    def __init__(self, family: str, rank: int, m: int | None = None) -> None:
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family in _FIXED_RANK:
            want = _FIXED_RANK[family]
            if rank != want:
                raise ValueError(f"family {family} has rank {want}, got {rank}")
        elif rank < _MIN_RANK[family]:
            raise ValueError(f"family {family} needs rank >= {_MIN_RANK[family]}, got {rank}")
        if family == "I2":
            if m is None or m < 3:
                raise ValueError("family I2 needs a parameter m >= 3")
        elif m is not None:
            raise ValueError(f"family {family} takes no parameter m")
        self._set(family, rank, m)

    def order(self) -> int:
        """|W|, the product of the orders of the Coxeter graph's components."""
        return _parabolic(self.coxeter_matrix(), (1 << self.rank) - 1)[0]

    def reflection_count(self) -> int:
        return _parabolic(self.coxeter_matrix(), (1 << self.rank) - 1)[1]

    def coxeter_matrix(self) -> dict[tuple[int, int], int]:
        """The labels m(s, t) >= 3 of the Coxeter graph, keyed by 0-based
        letters s < t (module docstring); other letters commute."""
        labels = {(s, s + 1): 3 for s in range(self.rank - 1)}
        if self.family == "D":  # letters 1 and 2 both join 3
            labels[0, 2] = labels.pop((0, 1))
        elif self.family != "A":  # one label above 3, on letters 1, 2 (2, 3 in F4)
            edge = (1, 2) if self.family == "F4" else (0, 1)
            labels[edge] = {"B": 4, "I2": self.m, "H3": 5, "F4": 4}[self.family]
        return labels

    def coxeter_number(self) -> int:
        return 2 * self.reflection_count() // self.rank

    def label(self) -> str:
        if self.family == "I2":
            return f"I2({self.m})"
        if self.family in _FIXED_RANK:
            return self.family
        return f"{self.family}{self.rank}"

    def to_json(self) -> dict:
        data: dict = {"family": self.family, "rank": self.rank}
        if self.m is not None:
            data["m"] = self.m
        return data

    @staticmethod
    def from_json(data: dict) -> "CoxeterType":
        return CoxeterType(data["family"], data["rank"], data.get("m"))


def _component(labels: dict[tuple[int, int], int], mask: int) -> int:
    """The letters of mask joined to its lowest one in the Coxeter graph on mask."""
    comp, grown = 0, mask & -mask
    while comp != grown:
        comp = grown
        for s, t in labels:
            if (comp >> s | comp >> t) & 1:
                grown |= (1 << s | 1 << t) & mask
    return comp


def _parabolic(labels: dict[tuple[int, int], int], mask: int) -> tuple[int, int]:
    """|W_K| and the number of its reflections, K the letters of mask: the
    product of the orders and the sum of the reflection counts of the
    connected components of the Coxeter graph (labels) on K."""
    order, reflections = 1, 0
    while mask:
        comp = _component(labels, mask)
        mask &= ~comp
        inner = {(s, t): m for (s, t), m in labels.items() if comp >> s & comp >> t & 1}
        ends = [v for edge in inner for v in edge]
        k, top = comp.bit_count(), max(inner.values(), default=3)
        if k == 2:  # I2(m), A2 = I2(3) and B2 = I2(4) included
            got = 2 * top, top
        elif top == 5:  # H3
            got = 120, 15
        elif top == 4:  # F4 has its 4 between two letters of degree 2, B_k at an end
            s, t = next(edge for edge, m in inner.items() if m == 4)
            got = (1152, 24) if ends.count(s) + ends.count(t) == 4 else (2**k * factorial(k), k * k)
        elif 3 in map(ends.count, ends):  # D_k, the one family that branches
            got = 2 ** (k - 1) * factorial(k), k * (k - 1)
        else:  # A_k
            got = factorial(k + 1), k * (k + 1) // 2
        order, reflections = order * got[0], reflections + got[1]
    return order, reflections


@cache
def coprime_pair_count(ctype: CoxeterType) -> int:
    """The pairs (x, y) with no common left descent, one per rational
    permutation braid b(x)^-1 b(y): with alpha(J) = #{x : D_L(x) in J} =
    |W| / |W_(S - J)|, S all letters (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, section 2.4), and beta(I) = #{x : D_L(x) = I} its Moebius
    inverse, the sum of beta(I) alpha(S - I).  O(n 2^n) steps at rank n:
    |W_K| is |W_C| |W_(K - C)|, C the component of K's lowest letter, so
    each connected letter set is recognised once."""
    labels, full = ctype.coxeter_matrix(), (1 << ctype.rank) - 1
    orders = [1] * (full + 1)
    for mask in range(1, full + 1):
        comp = _component(labels, mask)
        rest = mask - comp
        orders[mask] = orders[comp] * orders[rest] if rest else _parabolic(labels, mask)[0]
    alpha = [orders[full] // orders[full - mask] for mask in range(full + 1)]
    beta = alpha[:]
    for s in range(ctype.rank):
        for mask in range(full + 1):
            if mask >> s & 1:
                beta[mask] -= beta[mask ^ 1 << s]
    return sum(b * alpha[full - mask] for mask, b in enumerate(beta))


# ---------------------------------------------------------------------------
# payload actions


def _sp_apply(u: tuple, x: int) -> int:
    return u[x - 1] if x > 0 else -u[-x - 1]


def _right_action(ctype: CoxeterType, g: tuple) -> Callable[[tuple], tuple]:
    """p -> p g for the payload g of a generator of ctype.

    (p g)(j) = p(g(j)), so a permutation generator is one itemgetter over
    the positions |g(j)| - 1, times the sign of g(j) for a signed one.  A
    dihedral generator is (b, 1), and rho^a s^f rho^b s is rho^(a + b)
    s for f = 0 and rho^(a - b) for f = 1.
    """
    if ctype.family == "I2":
        m, b = ctype.m, g[0]
        return lambda p: ((p[0] - b if p[1] else p[0] + b) % m, 1 - p[1])
    get = operator.itemgetter(*(abs(x) - 1 for x in g))
    signs = tuple(1 if x > 0 else -1 for x in g)
    if -1 not in signs:
        return get
    return lambda p: tuple(map(operator.mul, get(p), signs))


# ---------------------------------------------------------------------------
# root permutation payloads


# Cartan matrices with entries a + b*phi stored as (a, b), phi^2 = phi + 1:
# -2cos(pi/m) is 0, -1 and -phi for m = 2, 3 and 5.  F4 is integral.
_CARTAN = {
    "H3": (((2, 0), (0, -1), (0, 0)), ((0, -1), (2, 0), (-1, 0)), ((0, 0), (-1, 0), (2, 0))),
    "F4": tuple(
        tuple((a, 0) for a in row)
        for row in ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    ),
}


def _root_permutations(cartan: tuple) -> tuple[tuple[int, ...], ...]:
    """The simple reflections of a Cartan matrix over Z[phi], as permutations
    of its roots.

    A root is a tuple of coordinates in the simple roots, each a pair (a, b)
    for a + b*phi, and s_i changes coordinate i of v by -sum_j A_ij v_j.
    The roots are the closure of the simple roots under the s_i, labelled
    1, 2, ... in sorted order; s_i is the tuple of the labels of s_i(r), r
    running over the roots in that order, and acts as a permutation of the
    labels (_right_action).
    """
    n = len(cartan)

    def reflect(i: int, v: tuple) -> tuple:
        a = b = 0
        for (c, d), (x, y) in zip(cartan[i], v):
            a += c * x + d * y
            b += c * y + d * x + d * y
        return v[:i] + ((v[i][0] - a, v[i][1] - b),) + v[i + 1:]

    frontier = {tuple((1, 0) if j == i else (0, 0) for j in range(n)) for i in range(n)}
    roots = set(frontier)
    while frontier:
        frontier = {reflect(i, v) for v in frontier for i in range(n)} - roots
        roots |= frontier
    order = sorted(roots)
    label = {r: k for k, r in enumerate(order, 1)}
    return tuple(tuple(label[reflect(i, r)] for r in order) for i in range(n))


# ---------------------------------------------------------------------------
# elements and groups


class CoxeterElement:
    """An element of a finite Coxeter group: its id in the group's one
    id table (CoxeterGroup.table), ids running in (length, payload) order.

    Instances are immutable by convention and hashable.  Equality compares
    the group object, by identity, and the id; the hash is the id alone.
    """

    __slots__ = ("group", "id")

    def __init__(self, group: "CoxeterGroup", id: int) -> None:
        self.group = group
        self.id = id

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoxeterElement):
            return NotImplemented
        return self.id == other.id and self.group is other.group

    def __hash__(self) -> int:
        return self.id

    @property
    def payload(self) -> tuple:
        """The payload tuple of the module docstring, read off the walk."""
        return self.group.table.payloads[self.id]

    def __mul__(self, other: "CoxeterElement") -> "CoxeterElement":
        g = self.group
        return CoxeterElement(g, g.table.mul(self.id, g.member(other).id))

    def inverse(self) -> "CoxeterElement":
        """The inverse, read off the group's Cayley graph walk."""
        return CoxeterElement(self.group, self.group.table.inv[self.id])

    def is_identity(self) -> bool:
        return self.id == 0

    def length(self) -> int:
        """Coxeter length, the number of letters in any reduced word: the
        depth of this element in the group's Cayley graph walk."""
        return self.group.table.length[self.id]

    def reflection_length(self) -> int:
        """Minimal number of reflections whose product is this element,
        read off the group's table (GroupTable.rlens)."""
        return self.group.table.rlens[self.id]

    def left_descents(self) -> frozenset[int]:
        """The letters s with l(s w) < l(w), read off the group's table
        (GroupTable.ldesc)."""
        return frozenset(s + 1 for s in bit_ids(self.group.table.ldesc[self.id]))

    def reduced_word(self) -> tuple[int, ...]:
        """The shortlex minimal reduced word, as a tuple of 1-based letters,
        read off the group's table (GroupTable.word)."""
        return self.group.table.word(self.id)

    def act(self, x: int) -> int:
        """Apply to a point, for families A, B and D only."""
        fam = self.group.type.family
        if fam == "A":
            return self.payload[x - 1]
        if fam in ("B", "D"):
            return _sp_apply(self.payload, x)
        raise ValueError(f"family {fam} has no point action")

    def order(self) -> int:
        k = 1
        x = self
        while not x.is_identity():
            x = x * self
            k += 1
        return k

    def __repr__(self) -> str:
        word = ".".join(str(i) for i in self.reduced_word()) or "e"
        return f"<{self.group.type.label()} {word}>"


class CoxeterGroup:
    """A finite Coxeter group, walked once from its payload backend.

    Do not construct directly, use :func:`coxeter_group` so that groups are
    singletons per descriptor.  Its one id table is walked on first need.
    Membership (member) and element equality go by the group object.
    """

    def __init__(self, ctype: CoxeterType) -> None:
        self.type = ctype
        self.rank = ctype.rank
        fam = ctype.family
        n = ctype.rank

        if fam == "A":
            ident = tuple(range(1, n + 2))
            gens = []
            for i in range(1, n + 1):
                p = list(ident)
                p[i - 1], p[i] = p[i], p[i - 1]
                gens.append(tuple(p))
        elif fam in ("B", "D"):
            ident = tuple(range(1, n + 1))
            first = list(ident)
            if fam == "B":
                first[0] = -1
            else:
                first[0], first[1] = -2, -1
            gens = [tuple(first)]
            for i in range(1, n):
                p = list(ident)
                p[i - 1], p[i] = p[i], p[i - 1]
                gens.append(tuple(p))
        elif fam == "I2":
            ident = (0, 0)
            gens = [(0, 1), (ctype.m - 1, 1)]
        else:
            gens = _root_permutations(_CARTAN[fam])
            ident = tuple(range(1, len(gens[0]) + 1))

        self._ident_payload = ident
        self._gen_payloads = tuple(gens)
        self.identity = CoxeterElement(self, 0)  # the walk starts at the identity

    def member(self, obj: _T) -> _T:
        """obj (an element, braid or Hecke element) if its .group is this
        group; ValueError naming both groups otherwise."""
        if obj.group is not self:
            raise ValueError(f"{type(obj).__name__} of {obj.group!r} used with {self!r}")
        return obj

    # -- element factories ---------------------------------------------

    def element(self, payload) -> CoxeterElement:
        """The element with this payload; ValueError unless the walk reached it."""
        x = self.table.index.get(payload) if isinstance(payload, tuple) else None
        if x is None:
            raise ValueError(f"invalid payload for {self.type.label()}: {payload!r}")
        return CoxeterElement(self, x)

    @cached_property
    def generators(self) -> tuple[CoxeterElement, ...]:
        """The simple reflections, in letter order: e s for each letter s."""
        return tuple(CoxeterElement(self, x) for x in self.table.gen_ids)

    def generator(self, i: int) -> CoxeterElement:
        if not 1 <= i <= self.rank:
            raise ValueError(f"generator index {i} out of range for {self.type.label()}")
        return self.generators[i - 1]

    def from_word(self, word: Iterable[int]) -> CoxeterElement:
        """The product of the generators of word, folded through the walk."""
        rmul = self.table.rmul
        x = 0
        for i in word:
            if not 1 <= i <= self.rank:
                raise ValueError(f"letter {i} out of range for {self.type.label()}")
            x = rmul[i - 1][x]
        return CoxeterElement(self, x)

    # -- global structure ------------------------------------------------

    @cached_property
    def table(self) -> GroupTable:
        """The group's id table (GroupTable), built by its Cayley graph walk."""
        return GroupTable(self)

    @cached_property
    def _elements(self) -> tuple[CoxeterElement, ...]:
        return tuple(CoxeterElement(self, x) for x in range(len(self.table.length)))

    def elements(self) -> tuple[CoxeterElement, ...]:
        """All elements, in id order: by length, then by payload."""
        return self._elements

    @cached_property
    def reflections(self) -> tuple[CoxeterElement, ...]:
        """All reflections, the conjugates of the generators, in id order
        (GroupTable.reflections)."""
        return tuple(CoxeterElement(self, t) for t in self.table.reflections)

    def __repr__(self) -> str:
        return f"CoxeterGroup({self.type.label()})"


def coxeter_type(family: str, rank: int | None = None, m: int | None = None) -> CoxeterType:
    """The validated type, without building the group.  Rank may be
    omitted for the fixed rank families."""
    if rank is None and family in _MIN_RANK:
        raise ValueError(f"family {family} needs an explicit rank")
    return CoxeterType(family, _FIXED_RANK.get(family) if rank is None else rank, m)


def coxeter_group(family: str, rank: int | None = None, m: int | None = None) -> CoxeterGroup:
    """Singleton factory.  Rank may be omitted for the fixed rank families.

    >>> coxeter_group("A", 2) is coxeter_group("A", 2)
    True
    """
    return coxeter_group_of(coxeter_type(family, rank, m))


@cache
def coxeter_group_of(ctype: CoxeterType) -> CoxeterGroup:
    """The one group of a type."""
    return CoxeterGroup(ctype)


class GroupTable:
    """The integer indexed tables of one finite Coxeter group, its one
    CoxeterGroup.table; ids are CoxeterElement.id.

    The Cayley graph walk gives the fields payloads, index (id by payload),
    rmul (rmul[s][x] is the id of x times generator s + 1), length and inv.
    The rest is derived from those on ids, without payloads, on first read:
    left products, descent masks, the twist tau, the reflections (the
    conjugacy classes of the generators) and their lengths, and one id at a
    time shortlex words and lower Bruhat intervals.  Callers share these
    lists and must not change them.  The walk's fields are slots, read about
    3x faster on CPython 3.11 than the derived ones cached in __dict__.
    """

    __slots__ = ("group", "payloads", "index", "rmul", "length", "inv", "e", "w0", "gen_ids",
                 "_words", "_below", "__dict__")

    def __init__(self, group: CoxeterGroup) -> None:
        """One breadth-first walk of the Cayley graph of the generators.

        Depth is the Coxeter length.  Ids number the elements level by
        level, each level sorted by payload.  Each edge p s is one
        generator action (_right_action, built here from the group's
        generator payloads), made an id once the next level is numbered.
        Inverses take one step of ids per element, without payloads:
        x = y s with l(y) < l(x) passes a left descent of y on to x.
        """
        ctype = group.type
        acts = [_right_action(ctype, g) for g in group._gen_payloads]
        payloads = [group._ident_payload]
        index = {payloads[0]: 0}
        length = [0]
        last = [-1]  # a generator s with l(x s) < l(x)
        rmul: list[list[int]] = [[] for _ in acts]
        level = payloads[:]
        while level:
            cols = [list(map(act, level)) for act in acts]
            found: dict[tuple, int] = {}
            for s, col in enumerate(cols):
                found.update(zip(col, itertools.repeat(s)))
            # each product p s not yet numbered lies one level deeper
            level = sorted(set(found).difference(index))
            index.update(zip(level, itertools.count(len(payloads))))
            payloads += level
            length += [length[-1] + 1] * len(level)
            last += map(found.__getitem__, level)
            for out, col in zip(rmul, cols):
                out.extend(map(index.__getitem__, col))
        if len(payloads) != ctype.order() or length[-1] != ctype.reflection_count():
            raise IntegrityError(
                f"{ctype.label()}: {len(payloads)} elements up to length {length[-1]}, "
                f"expected {ctype.order()} up to length {ctype.reflection_count()}"
            )
        # x = y s: a left descent t of y is one of x, with t x = (t y) s,
        # and x = s has t = s, t x = e.  Then x^-1 = (t x)^-1 t, and t x
        # comes before x since ids run by length.
        first, lpar, inv = [-1], [0], [0]
        for x in range(1, len(payloads)):
            s = last[x]
            y = rmul[s][x]
            t, z = (first[y], rmul[s][lpar[y]]) if y else (s, 0)
            first.append(t)
            lpar.append(z)
            inv.append(rmul[t][inv[z]])
        self.group = group
        self.payloads, self.index, self.rmul, self.length, self.inv = (
            payloads, index, rmul, length, inv)
        self.e = 0  # the walk starts at the identity
        self.w0 = len(length) - 1
        self.gen_ids = [row[self.e] for row in rmul]
        self._words: list[tuple[int, ...] | None] = [None] * len(length)
        self._below = [1] + [0] * (len(length) - 1)  # [e, e] = {e}; 0 is not yet built

    @cached_property
    def lmul(self) -> list[list[int]]:
        """lmul[s][x], the id of generator s + 1 times x: s x = (x^-1 s)^-1."""
        inv = self.inv
        return [[inv[row[y]] for y in inv] for row in self.rmul]

    @cached_property
    def rdesc(self) -> list[int]:
        """Right descent masks: bit s is set when l(x s) < l(x), one
        generator column at a time."""
        length = self.length
        rdesc = [0] * len(length)
        for s, row in enumerate(self.rmul):
            bit = 1 << s
            rdesc = [d | bit if length[r] < l else d for d, r, l in zip(rdesc, row, length)]
        return rdesc

    @cached_property
    def ldesc(self) -> list[int]:
        """Left descent masks, D_L(x) = D_R(x^-1) (Bjorner-Brenti,
        Combinatorics of Coxeter Groups, 2005, section 1.4)."""
        rdesc, length = self.rdesc, self.length
        ldesc = [rdesc[y] for y in self.inv]
        if length.count(length[-1]) != 1 or 0 in ldesc[1:]:
            raise IntegrityError(f"{self.group!r}: walk lengths are not Coxeter lengths")
        return ldesc

    @cached_property
    def tau(self) -> list[int]:
        """tau(x) = w0 x w0.  tau(s) is the generator t with s w0 = w0 t;
        then tau(x) = tau(x s) tau(s) for a right descent s of x, and ids
        run in length order, so tau(x s) is already known."""
        rmul, rdesc = self.rmul, self.rdesc
        below_w0 = {row[self.w0]: t for t, row in enumerate(rmul)}
        tau_gen = [below_w0[row[self.w0]] for row in self.lmul]
        tau = [self.e] * len(rdesc)
        for x in range(1, len(tau)):
            mask = rdesc[x]
            s = (mask & -mask).bit_length() - 1
            tau[x] = rmul[tau_gen[s]][tau[rmul[s][x]]]
        return tau

    def word(self, x: int) -> tuple[int, ...]:
        """Shortlex reduced word of the element with id x."""
        cached = self._words[x]
        if cached is None:
            ldesc, lmul = self.ldesc, self.lmul
            out = []
            c = x
            for _ in range(self.length[x]):
                mask = ldesc[c]
                s = (mask & -mask).bit_length() - 1
                out.append(s + 1)
                c = lmul[s][c]
            if c != self.e:
                raise IntegrityError(f"{self.group!r}: the left descents of id {x} reach no reduced word")
            cached = tuple(out)
            self._words[x] = cached
        return cached

    @cached_property
    def _classes(self) -> list[int]:
        """The least id of the conjugacy class of every id: the orbits of
        x -> s x s, walked from the least id not yet reached."""
        rep = [-1] * len(self.length)
        for x in range(len(rep)):
            if rep[x] < 0:
                rep[x] = x
                orbit = [x]
                for y in orbit:
                    for lrow, rrow in zip(self.lmul, self.rmul):
                        z = lrow[rrow[y]]
                        if rep[z] < 0:
                            rep[z] = x
                            orbit.append(z)
        return rep

    @cached_property
    def reflections(self) -> tuple[int, ...]:
        """The ids of T, the union of the conjugacy classes of the generators."""
        rep = self._classes
        gen_classes = {rep[s] for s in self.gen_ids}
        return tuple(x for x, r in enumerate(rep) if r in gen_classes)

    @cached_property
    def rlens(self) -> list[int]:
        """l_T of every id: the breadth-first distance from e over reflections.

        l_T is a class function and T is closed under conjugation: if
        l_T(x t) = l_T(x) + 1 and x = g r g^-1, then x t is conjugate to
        r (g^-1 t g).  So the search steps from one representative per
        conjugacy class (_classes) times each reflection.
        """
        rep = self._classes
        depth = {self.e: 0}
        level = [self.e]
        while level:
            nxt = []
            for r in level:
                for t in self.reflections:
                    c = rep[self.mul(r, t)]
                    if c not in depth:
                        depth[c] = depth[r] + 1
                        nxt.append(c)
            level = nxt
        rlens = [depth.get(r, -1) for r in rep]
        want = self.group.type.reflection_count()
        if -1 in rlens or max(rlens) != self.group.rank or rlens.count(1) != want:
            raise IntegrityError(
                f"{self.group.type.label()}: the reflections reach {len(depth)} classes, "
                f"up to l_T = {max(rlens)}, with {rlens.count(1)} reflections; "
                f"expected every class, up to the rank {self.group.rank}, with {want} reflections"
            )
        return rlens

    def below(self, w: int) -> int:
        """The lower Bruhat interval [e, w] as a bitset of ids, built on
        first use: with s a left descent of w the lifting property gives
        [e, w] = [e, sw] u s[e, sw]."""
        got = self._below[w]
        if not got:
            row = self.lmul[(self.ldesc[w] & -self.ldesc[w]).bit_length() - 1]
            lower = self.below(row[w])
            got = self._below[w] = lower | sum(1 << row[y] for y in bit_ids(lower))
        return got

    def mul(self, x: int, y: int) -> int:
        """Id of the product x y, folding the word of y into x."""
        for s in self.word(y):
            x = self.rmul[s - 1][x]
        return x

    def image_id(self, letters: Iterable[int]) -> int:
        """Id of the group image of a word of nonzero letters, signs forgotten."""
        x = self.e
        for l in letters:
            x = self.rmul[abs(l) - 1][x]
        return x

    def renorm(self, x: int, y: int) -> tuple[int, int]:
        """Slide left descents of y that are not right descents of x."""
        ldesc, rdesc, lmul, rmul = self.ldesc, self.rdesc, self.lmul, self.rmul
        mask = ldesc[y] & ~rdesc[x]
        while mask:
            s = (mask & -mask).bit_length() - 1
            x = rmul[s][x]
            y = lmul[s][y]
            mask = ldesc[y] & ~rdesc[x]
        return x, y


def bit_ids(bits: int) -> list[int]:
    """The positions of the set bits, in increasing order."""
    return [i for i, b in enumerate(bin(bits)[:1:-1]) if b == "1"]


# ---------------------------------------------------------------------------
# relations and orders


def bruhat_lower_interval(y: CoxeterElement) -> frozenset[CoxeterElement]:
    """The set of all x with x <= y in Bruhat order, read off the id bitset
    of the group's table (GroupTable.below)."""
    below = y.group.table.below(y.id)
    return frozenset(CoxeterElement(y.group, x) for x in bit_ids(below))


def bruhat_leq(x: CoxeterElement, y: CoxeterElement) -> bool:
    return bool(y.group.table.below(y.id) >> y.group.member(x).id & 1)


@cache
def coxeter_element_orderings(group: CoxeterGroup) -> dict[CoxeterElement, tuple[int, ...]]:
    """Map each standard Coxeter element to the first ordering realising it.

    Orderings are permutations of (1, ..., rank) tried in lexicographic
    order; the product of the corresponding generators is the element.
    """
    found: dict[CoxeterElement, tuple[int, ...]] = {}
    for perm in itertools.permutations(range(1, group.rank + 1)):
        found.setdefault(group.from_word(perm), perm)
    return found


def standard_coxeter_elements(group: CoxeterGroup) -> tuple[CoxeterElement, ...]:
    """All products of the full generator set, one generator each, in any order.

    Ordered by the first ordering realising each element, so sweeps are
    deterministic.
    """
    return tuple(coxeter_element_orderings(group))


def standard_ordering(c: CoxeterElement, ordering: Iterable[int] | None = None) -> tuple[int, ...]:
    """The S-ordering of the standard Coxeter element c: ordering itself,
    checked to list each generator once and to multiply to c, or by default
    the first ordering realising c.  Raises ValueError otherwise."""
    g = c.group
    if ordering is None:
        found = coxeter_element_orderings(g).get(c)
        if found is None:
            raise ValueError("expected a standard Coxeter element")
        return found
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(1, g.rank + 1)):
        raise ValueError("ordering must be a permutation of the generator indices")
    if g.from_word(ordering) != c:
        raise ValueError("ordering does not multiply to the given element")
    return ordering


def reflections_from_coxeter(
    c: CoxeterElement, ordering: tuple[int, ...]
) -> frozenset[CoxeterElement]:
    """Generate reflections from a standard Coxeter element.

    For c = s_1 ... s_n (the ordering), returns the set of all
    c^k (s_1 ... s_i ... s_1) c^-k over k >= 0 and 1 <= i <= n.  Powers
    beyond the Coxeter number repeat, so k ranges over one full period.
    """
    g = c.group
    ordering = standard_ordering(c, ordering)
    palindromes = []
    prefix = g.identity
    for i in ordering:
        s = g.generator(i)
        palindromes.append(prefix * s * prefix.inverse())
        prefix = prefix * s
    out = set()
    power = g.identity
    for _ in range(g.type.coxeter_number()):
        inv = power.inverse()
        for t in palindromes:
            out.add(power * t * inv)
        power = power * c
    return frozenset(out)


def reduced_words(w: CoxeterElement) -> tuple[tuple[int, ...], ...]:
    """Every reduced word of w, in lexicographic order.

    Recursion over left descents; intended for short elements only, the
    count grows quickly with length.
    """
    if w.is_identity():
        return ((),)
    out = []
    for i in sorted(w.left_descents()):
        rest = w.group.generator(i) * w
        for tail in reduced_words(rest):
            out.append((i,) + tail)
    return tuple(out)


# ---------------------------------------------------------------------------
# the type B to type A folding


def type_b_embedding_words(n: int) -> dict[int, tuple[int, ...]]:
    """Generator words in A_{2n-1} for the letters of B_n.

    Letter 1 (the sign change) maps to the middle generator; letter k >= 2
    maps to the commuting pair placed symmetrically around the middle.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    words: dict[int, tuple[int, ...]] = {1: (n,)}
    for k in range(2, n + 1):
        words[k] = (n - k + 1, n + k - 1)
    return words
