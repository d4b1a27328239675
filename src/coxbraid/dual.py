"""Dual braid monoids attached to standard Coxeter elements.

Divisors of a Coxeter element c in absolute order form the lattice of
noncrossing partitions; their minimal factorisations into reflections
carry a Hurwitz braid group action; and the atoms of the dual monoid
embed into the classical braid group through an explicit family of
conjugated generators.  This module computes all of these exactly: the
divisor lattice [1, c]_T by one breadth first pass per c, which alone
decides whether an element divides c; Hurwitz orbits of reflections and
of braids by one closure under the elementary moves; atom braids of the
rotation formula from c's simple prefixes and one conjugation by b(c)
each; and each simple dual braid as its lattice parent's times one atom
normal form.

The noncrossing partition model is combinatorial for types A and B: the
circle carries the orbit of the point 1 under c, blocks are the cycles
of the divisor, and crossing freeness is checked on circular positions.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, cached_property
from itertools import compress
from typing import Callable

from .coxeter import (
    CoxeterElement,
    IntegrityError,
    Record,
    bruhat_leq,
    coxeter_group,
    standard_ordering,
)
from .garside import (
    BraidWord,
    _image_ids,
    _left_fraction_ids,
    _letters_of_nf_ids,
    _nf_inv_ids,
    _nf_mul_ids,
    _rational_ids,
    _simple_nf_ids,
)


def divisors_of(c: CoxeterElement) -> tuple[CoxeterElement, ...]:
    """The divisor set DIV(c) in absolute order: the ids of c's interval
    lattice (_interval), by reflection length, then by id."""
    return tuple(CoxeterElement(c.group, x) for x in _interval(c))


@cache
def _interval(c: CoxeterElement) -> dict[int, tuple[int, int] | None]:
    """[1, c]_T by one breadth first pass from e: each divisor id x maps to
    (parent, t) with x = parent t, and e to None, by l_T and then by id.
    The t with l_T(t r) = l_T(r) - 1, r = x^-1 c, divide r; x t then divides
    c with remainder t r, which divides r, so only those t are tried on it.
    Every divisor is reached so; the parent kept is the least id, then t."""
    standard_ordering(c)
    table = c.group.table
    rmul, rlens = table.rmul, table.rlens
    interval: dict[int, tuple[int, int] | None] = {}
    level = [(table.e, (None, c.id, table.reflections))]  # (x, (entry, x^-1 c, t to try))
    while level:
        interval.update((x, step) for x, (step, _, _) in level)
        found: dict[int, tuple[int, int, list[int]]] = {}  # keyed by remainder
        for x, (_, r, tried) in level:
            products = tried  # t r for every t tried, folding the word of r
            for s in table.word(r):
                products = list(map(rmul[s - 1].__getitem__, products))
            divides = list(map((rlens[r] - 1).__eq__, map(rlens.__getitem__, products)))
            ts = list(compress(tried, divides))  # the t dividing r
            for t, tr in compress(zip(tried, products), divides):
                found.setdefault(tr, (x, t, ts))
        level = sorted((table.mul(x, t), ((x, t), tr, ts)) for tr, (x, t, ts) in found.items())
    return interval


# ---------------------------------------------------------------------------
# noncrossing partitions, types A and B


class NoncrossingPartition(Record):
    """A partition of circle labels into blocks, blocks in cycle order."""

    __slots__ = ("sequence", "blocks")

    def __init__(self, sequence: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]) -> None:
        self._set(sequence, blocks)

    def positions(self) -> dict[int, int]:
        return {label: i for i, label in enumerate(self.sequence)}

    def is_noncrossing(self) -> bool:
        pos = self.positions()
        sets = [sorted(pos[l] for l in blk) for blk in self.blocks]
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                pa, pb = sets[a], sets[b]
                if len(pa) < 2 or len(pb) < 2:
                    continue
                gaps = set()
                for q in pb:
                    gaps.add(bisect_left(pa, q) % len(pa))
                    if len(gaps) > 1:
                        return False
        return True

    def to_json(self) -> dict:
        return {
            "sequence": list(self.sequence),
            "blocks": [list(b) for b in self.blocks],
        }

    @staticmethod
    def from_json(data: dict) -> "NoncrossingPartition":
        return NoncrossingPartition(
            tuple(data["sequence"]), tuple(tuple(b) for b in data["blocks"])
        )


def circle_sequence(c: CoxeterElement) -> tuple[int, ...]:
    """The orbit of the point 1 under c, the circular label order.

    A standard Coxeter element acts as a single cycle on the relevant
    points: n+1 of them in type A, all 2n signed points in type B.
    """
    fam = c.group.type.family
    n = c.group.rank
    expected = n + 1 if fam == "A" else 2 * n
    if fam not in ("A", "B"):
        raise ValueError("the circle model exists for types A and B")
    seq = [1]
    x = c.act(1)
    while x != 1:
        seq.append(x)
        x = c.act(x)
    if len(seq) != expected:
        raise ValueError("element does not act as a full cycle")
    return tuple(seq)


def ncp_encode(x: CoxeterElement, c: CoxeterElement) -> NoncrossingPartition:
    """The noncrossing partition of a divisor: blocks are the cycles of x."""
    if c.group.member(x).id not in _interval(c):
        raise ValueError("not a divisor of the Coxeter element")
    seq = circle_sequence(c)
    unseen = set(seq)
    blocks = []
    for label in seq:
        if label not in unseen:
            continue
        blk = [label]
        unseen.discard(label)
        nxt = x.act(label)
        while nxt != label:
            blk.append(nxt)
            unseen.discard(nxt)
            nxt = x.act(nxt)
        blocks.append(tuple(blk))
    p = NoncrossingPartition(seq, tuple(blocks))
    if not p.is_noncrossing():
        raise IntegrityError("divisor encoded to a crossing partition")
    return p


def ncp_decode(p: NoncrossingPartition, c: CoxeterElement) -> CoxeterElement:
    """Rebuild the divisor whose cycles are the blocks of p.

    Each block, read in the stored order, is one cycle.  Raises ValueError
    when the blocks do not partition the circle, are not symmetric (type B),
    or assemble to an element outside DIV(c).
    """
    standard_ordering(c)
    group = c.group
    seq = circle_sequence(c)
    if tuple(p.sequence) != seq:
        raise ValueError("partition drawn on a different circle")
    labels = [l for blk in p.blocks for l in blk]
    if sorted(labels) != sorted(seq):
        raise ValueError("blocks do not partition the circle")
    mapping: dict[int, int] = {}
    for blk in p.blocks:
        for i, l in enumerate(blk):
            mapping[l] = blk[(i + 1) % len(blk)]
    fam = group.type.family
    n = group.rank
    if fam == "A":
        payload = tuple(mapping[i] for i in range(1, n + 2))
    else:
        for i in range(1, n + 1):
            if mapping[-i] != -mapping[i]:
                raise ValueError("blocks are not symmetric under negation")
        payload = tuple(mapping[i] for i in range(1, n + 1))
    x = group.element(payload)
    if x.id not in _interval(c):
        raise ValueError("decoded element is not a divisor")
    return x


# ---------------------------------------------------------------------------
# Hurwitz action


def _hurwitz_closure(start: tuple, move: Callable[[object, object], tuple]) -> frozenset[tuple]:
    """Closure of a tuple under the Hurwitz moves and their inverses, where
    move(a, b) returns (a b a^-1, b^-1 a b).

    Move i sends (..., a, b, ...) to (..., a b a^-1, a, ...) in slots
    i, i+1; the inverse move sends it to (..., b, b^-1 a b, ...).  Each
    distinct pair is moved once: D5's 8192 moves per orbit meet 176 pairs.
    """
    move = cache(move)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for tup in frontier:
            for i in range(len(tup) - 1):
                a, b = tup[i], tup[i + 1]
                fwd_first, bwd_second = move(a, b)
                fwd = tup[:i] + (fwd_first, a) + tup[i + 2 :]
                bwd = tup[:i] + (b, bwd_second) + tup[i + 2 :]
                for cand in (fwd, bwd):
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return frozenset(seen)


def hurwitz_orbit(
    start: tuple[CoxeterElement, ...],
) -> frozenset[tuple[CoxeterElement, ...]]:
    """The Hurwitz orbit of a tuple of elements (_hurwitz_closure)."""
    return _hurwitz_closure(start, lambda a, b: (a * b * a.inverse(), b.inverse() * a * b))


def hurwitz_orbit_braids(
    start: tuple[BraidWord, ...],
) -> frozenset[tuple[BraidWord, ...]]:
    """The Hurwitz orbit of a tuple of braids (_hurwitz_closure), run on
    normal forms so that tuples compare by braid equality, not word
    equality.  Moves compose normal forms (_nf_mul_ids, _nf_inv_ids); each
    distinct entry becomes a braid once, in the canonical letters of its form.
    """
    if not start:
        return frozenset({start})
    group = start[0].group
    table = group.table

    def move(na: tuple, nb: tuple) -> tuple:
        ab = _nf_mul_ids(table, na, nb)
        return (_nf_mul_ids(table, ab, _nf_inv_ids(table, na)),
                _nf_mul_ids(table, _nf_inv_ids(table, nb), ab))

    seen = _hurwitz_closure(tuple(group.member(b).nf for b in start), move)
    braid = {nf: BraidWord(group, _letters_of_nf_ids(table, nf)) for nf in set().union(*seen)}
    return frozenset(tuple(map(braid.__getitem__, tup)) for tup in seen)


# ---------------------------------------------------------------------------
# dual atoms and the embedding of simple dual braids


class DualAtomTable:
    """Atom braid words of the dual monoid for (c, ordering).

    The word at rotation index i is a_1 ... a_i a_{i+1} a_i^-1 ... a_1^-1
    with a_j running cyclically through the ordering.  Indices 0 to
    2|T| - 1 hit every reflection exactly twice; the two words for the
    same reflection must be equal as braids, which is checked here.  For
    i < n the braid is b(p_{i+1}) b(p_i)^-1, p_i = a_1 ... a_i a simple
    prefix of c; as a_{j+n} = a_j, the one at i + n is the one at i
    conjugated by delta = b(c) (Bessis, The dual braid monoid, 2003).
    Lookups take reflections of c's group only (CoxeterGroup.member).
    """

    def __init__(self, c: CoxeterElement, ordering: tuple[int, ...]) -> None:
        self.group = group = c.group
        self.c = c
        self.ordering = order = standard_ordering(c, ordering)
        table, n = group.table, len(order)
        simple = [_simple_nf_ids(table, table.image_id(order[:i])) for i in range(n + 1)]  # b(p_i)
        delta, delta_inv = simple[-1], _nf_inv_ids(table, simple[-1])
        atoms = [_nf_mul_ids(table, q, _nf_inv_ids(table, p)) for p, q in zip(simple, simple[1:])]
        words: dict[int, BraidWord] = {}  # keyed by table id
        nfs: dict[int, tuple] = {}  # keyed by table id
        hits: dict[int, int] = {}
        for i in range(2 * len(group.reflections)):
            if i >= n:  # a_{i+1} = a_{i+1-n}: index i is index i - n conjugated by b(c)
                atoms.append(_nf_mul_ids(table, _nf_mul_ids(table, delta, atoms[i - n]), delta_inv))
            nf = atoms[i]
            tid = _image_ids(table, nf)
            hits[tid] = hits.get(tid, 0) + 1
            if nfs.setdefault(tid, nf) != nf:
                raise IntegrityError("rotation formula produced unequal braids for one reflection")
            if hits[tid] == 1:
                seq = [order[j % len(order)] for j in range(i + 1)]
                letters = (*seq, *(-l for l in reversed(seq[:-1])))
                words[tid] = BraidWord(group, letters)
        if len(words) != len(group.reflections) or any(h != 2 for h in hits.values()):
            raise IntegrityError("rotation formula did not cover T twice over")
        self._nfs = nfs
        self._words = words

    @property
    def reflections(self) -> tuple[CoxeterElement, ...]:
        return self.group.reflections

    def braid(self, t: CoxeterElement) -> BraidWord:
        self.normal_form_ids(t)  # refuses foreign elements and non-reflections
        return self._words[t.id]

    def normal_form_ids(self, t: CoxeterElement) -> tuple:
        nf = self._nfs.get(self.group.member(t).id)
        if nf is None:
            raise ValueError("not a reflection")
        return nf

    def all_rational(self) -> bool:
        return all(_rational_ids(nf) for nf in self._nfs.values())


class DualMonoid:
    """All dual braid data attached to one standard Coxeter element, for
    elements of its group only (CoxeterGroup.member).  The divisors are
    c's lattice (_interval).  The simple dual braid of x = y t, y its
    parent there, is y's times the atom of t, all filled on first use."""

    def __init__(self, c: CoxeterElement, ordering: tuple[int, ...]) -> None:
        self.group = c.group
        self.c = c
        self.atoms = DualAtomTable(c, ordering)
        self.ordering = self.atoms.ordering
        self._interval = _interval(c)
        self._divisors = tuple(CoxeterElement(c.group, x) for x in self._interval)

    @cached_property
    def _embedded(self) -> dict[int, tuple]:
        table, atoms = self.group.table, self.atoms._nfs
        out: dict[int, tuple] = {}
        for x, step in self._interval.items():
            out[x] = (0, ()) if step is None else _nf_mul_ids(table, out[step[0]], atoms[step[1]])
        return out

    def divisors(self) -> tuple[CoxeterElement, ...]:
        return self._divisors

    def contains(self, x: CoxeterElement) -> bool:
        return self.group.member(x).id in self._interval

    def embed_nf_ids(self, x: CoxeterElement) -> tuple:
        nf = self._embedded.get(self.group.member(x).id)
        if nf is None:
            raise ValueError("element is not a divisor of the Coxeter element")
        return nf

    def embed(self, x: CoxeterElement) -> BraidWord:
        return BraidWord(self.group, _letters_of_nf_ids(self.group.table, self.embed_nf_ids(x)))


def dual_monoid(c: CoxeterElement, ordering: tuple[int, ...] | None = None) -> DualMonoid:
    """The one DualMonoid of c under its ordering, by default the first that
    realises c: dual_monoid(c) is dual_monoid(c, that ordering)."""
    return _dual_monoid(c, standard_ordering(c, ordering))


@cache
def _dual_monoid(c: CoxeterElement, ordering: tuple[int, ...]) -> DualMonoid:
    return DualMonoid(c, ordering)


def dual_atoms(c: CoxeterElement, ordering: tuple[int, ...] | None = None) -> DualAtomTable:
    """The atom table of dual_monoid(c, ordering), built once with it."""
    return dual_monoid(c, ordering).atoms


def embed_simple(
    x: CoxeterElement, c: CoxeterElement, ordering: tuple[int, ...] | None = None
) -> BraidWord:
    """The simple dual braid of a divisor x of c, in the classical braid group."""
    return dual_monoid(c, ordering).embed(x)


def verify_dual_relations(
    c: CoxeterElement, ordering: tuple[int, ...] | None = None
) -> tuple[tuple[CoxeterElement, CoxeterElement, CoxeterElement, bool], ...]:
    """Check the dual braid relations inside the classical braid group.

    For every ordered pair of distinct reflections with t1 t2 in c's
    lattice (_interval), the relation is b(t1) b(t2) = b(t2) b(t3) with
    t3 = t2 t1 t2.  Returns one row (t1, t2, t3, ok) per relation.
    """
    dm = dual_monoid(c, ordering)
    table = dm.group.table
    nfs, lattice = dm.atoms._nfs, dm._interval
    T = table.reflections
    rows = []
    for t1 in T:
        for t2 in T:
            if t1 == t2 or table.mul(t1, t2) not in lattice:
                continue
            t3 = table.mul(table.mul(t2, t1), t2)
            lhs = _nf_mul_ids(table, nfs[t1], nfs[t2])
            rhs = _nf_mul_ids(table, nfs[t2], nfs[t3])
            rows.append((*(CoxeterElement(dm.group, t) for t in (t1, t2, t3)), lhs == rhs))
    return tuple(rows)


def linear_coxeter_bruhat_check(
    n: int,
) -> tuple[tuple[CoxeterElement, CoxeterElement, CoxeterElement, bool], ...]:
    """Fraction comparison for the linear Coxeter element of A_n.

    For c = s_1 s_2 ... s_n and every nonidentity divisor u, the left
    fraction b(x)^-1 b(y) of the simple dual braid must satisfy x < y
    strictly in Bruhat order.  Returns rows (u, x, y, ok).
    """
    W = coxeter_group("A", n)
    ordering = tuple(range(1, n + 1))
    c = W.from_word(ordering)
    dm = dual_monoid(c, ordering)
    rows = []
    for u in dm.divisors()[1:]:  # the identity comes first
        x, y = (CoxeterElement(W, i) for i in _left_fraction_ids(W.table, dm.embed_nf_ids(u)))
        rows.append((u, x, y, x != y and bruhat_leq(x, y)))
    return tuple(rows)
