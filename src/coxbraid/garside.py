"""Classical Garside structure for Artin-Tits groups of spherical type.

A braid is a word in the Artin generators, stored as a tuple of nonzero
1-based letters where -i means the inverse of the i-th generator.  The
left greedy normal form writes any braid as Delta^k f_1 ... f_l with
simple factors f_i (copies of Coxeter group elements), f_1 != w0 and all
factors nonidentity, adjacent pairs locally maximal.  Words are folded
into this form left to right: a positive letter appends a simple, a
negative letter rewrites through sigma^-1 = Delta^-1 b(w0 s) and twists
the accumulated factors by the diagram automorphism tau(x) = w0 x w0.
Each appended simple costs one right-to-left renormalisation pass over
the factors, which stops at the first pair whose left factor does not
change; leading copies of w0 are stripped once, at the end.  A braid
folds its own letters once, on first use of BraidWord.nf, and every
entry point below reads that form; a rebuilt braid is a new word and
folds again.

All group level lookups go through a per group table of integer indexed
multiplication, descent masks and inverses, built once and reused; its
ids are the ids of the group's elements, so an element and its id are
exchanged without a lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable

from .coxeter import (
    CoxeterElement,
    CoxeterGroup,
    CoxeterType,
    IntegrityError,
    coxeter_group,
    coxeter_group_of,
    reduced_words,
    type_b_embedding_words,
)


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of a spherical type braid group."""

    group: CoxeterGroup
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        for l in self.letters:
            if l == 0 or abs(l) > self.group.rank:
                raise ValueError(f"letter {l} out of range for {self.group.type.label()}")

    @cached_property
    def nf(self) -> tuple[int, tuple[int, ...]]:
        """Left greedy normal form as (Delta exponent, simple ids), folded
        from the letters on first use; the frozen word cannot make it stale."""
        return _nf_ids(garside_table(self.group), self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.group, self.letters + self.group.member(other).letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.group, tuple(-l for l in reversed(self.letters)))

    def image(self) -> CoxeterElement:
        """The underlying Coxeter group element, forgetting signs."""
        return CoxeterElement(self.group, garside_table(self.group).image_id(self.letters))

    def to_json(self) -> dict:
        return {"group": self.group.type.to_json(), "letters": list(self.letters)}

    @staticmethod
    def from_json(data: dict) -> "BraidWord":
        group = coxeter_group_of(CoxeterType.from_json(data["group"]))
        return BraidWord(group, tuple(data["letters"]))

    def __repr__(self) -> str:
        body = ",".join(str(l) for l in self.letters) or "e"
        return f"Braid({self.group.type.label()}; {body})"


class GarsideTable:
    """Integer indexed multiplication tables for one finite Coxeter group.

    Element ids, lengths, inverses and right products by the generators
    come from the group's one breadth-first walk of its Cayley graph, so
    ids are CoxeterElement.id and no payload product is taken here.  Left
    products, descent masks, the twist tau and the reflections (the
    conjugacy classes of the generators) are derived from those on ids,
    and the reflection length of every id is searched once, at
    construction.  The table is immutable after construction apart from
    the lazily filled shortlex words and lower Bruhat intervals.
    """

    def __init__(self, group: CoxeterGroup) -> None:
        self.group = group
        self.n = group.rank
        _, _, self.rmul, self.length, self.inv = group._walk()
        size = len(self.length)
        # s x = (x^-1 s)^-1
        self.lmul = [[self.inv[row[y]] for y in self.inv] for row in self.rmul]
        self.e = 0  # the walk starts at the identity
        self.w0 = size - 1
        # descent masks: bit s is set when s lowers the length on that side
        length = self.length
        self.ldesc, self.rdesc = [
            [sum(1 << s for s, r in enumerate(rows) if length[r[x]] < lx)
             for x, lx in enumerate(length)]
            for rows in (self.lmul, self.rmul)
        ]
        if length.count(length[-1]) != 1 or 0 in self.ldesc[1:]:
            raise IntegrityError(f"{group.type.label()}: walk lengths are not Coxeter lengths")
        # tau(s) = w0 s w0 is the generator t with s w0 = w0 t; then
        # tau(x) = tau(x s) tau(s) for a right descent s of x, and ids run
        # in length order, so tau(x s) is already known
        below_w0 = {row[self.w0]: t for t, row in enumerate(self.rmul)}
        tau_gen = [below_w0[row[self.w0]] for row in self.lmul]
        tau = [self.e] * size
        for x in range(1, size):
            mask = self.rdesc[x]
            s = (mask & -mask).bit_length() - 1
            tau[x] = self.rmul[tau_gen[s]][tau[self.rmul[s][x]]]
        self.tau = tau
        self.gen_ids = [row[self.e] for row in self.rmul]
        self.w0s = [self.rmul[s][self.w0] for s in range(self.n)]
        self._words: list[tuple[int, ...] | None] = [None] * size
        # T is the union of the conjugacy classes of the generators
        rep = self._conjugacy_classes()
        gen_classes = {rep[s] for s in self.gen_ids}
        self.reflections = tuple(x for x, r in enumerate(rep) if r in gen_classes)
        self.rlens = self._reflection_lengths(rep)
        self._below = [1] + [0] * (size - 1)  # [e, e] = {e}; 0 is not yet built

    def word(self, x: int) -> tuple[int, ...]:
        """Shortlex reduced word of the simple with id x."""
        cached = self._words[x]
        if cached is None:
            out = []
            c = x
            while c != self.e:
                mask = self.ldesc[c]
                s = (mask & -mask).bit_length() - 1
                out.append(s + 1)
                c = self.lmul[s][c]
            cached = tuple(out)
            self._words[x] = cached
        return cached

    def _conjugacy_classes(self) -> list[int]:
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

    def _reflection_lengths(self, rep: list[int]) -> list[int]:
        """l_T of every id: the breadth-first distance from e over reflections.

        l_T is a class function and T is closed under conjugation: if
        l_T(x t) = l_T(x) + 1 and x = g r g^-1, then x t is conjugate to
        r (g^-1 t g).  So the search steps from one representative per
        conjugacy class, rep of _conjugacy_classes, times each reflection.
        """
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
        if -1 in rlens or max(rlens) != self.n or rlens.count(1) != want:
            raise IntegrityError(
                f"{self.group.type.label()}: the reflections reach {len(depth)} classes, "
                f"up to l_T = {max(rlens)}, with {rlens.count(1)} reflections; "
                f"expected every class, up to the rank {self.n}, with {want} reflections"
            )
        return rlens

    def rlen(self, x: int) -> int:
        """Reflection length of the element with id x."""
        return self.rlens[x]

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

    def abs_divides(self, x: int, y: int) -> bool:
        """Whether x divides y in absolute order: l_T(x) + l_T(x^-1 y) = l_T(y)."""
        r = self.rlens
        return r[x] + r[self.mul(self.inv[x], y)] == r[y]

    def renorm(self, x: int, y: int) -> tuple[int, int]:
        """Slide left descents of y that are not right descents of x."""
        mask = self.ldesc[y] & ~self.rdesc[x]
        while mask:
            s = (mask & -mask).bit_length() - 1
            x = self.rmul[s][x]
            y = self.lmul[s][y]
            mask = self.ldesc[y] & ~self.rdesc[x]
        return x, y


@cache
def garside_table(group: CoxeterGroup) -> GarsideTable:
    return GarsideTable(group)


def bit_ids(bits: int) -> list[int]:
    """The positions of the set bits, in increasing order."""
    return [i for i, b in enumerate(bin(bits)[:1:-1]) if b == "1"]


def word_key(w: CoxeterElement) -> str:
    """The shortlex word of w as "1,2,3", or "e" for the identity: how
    reports key elements."""
    return ",".join(map(str, w.reduced_word())) or "e"


def _append(table: GarsideTable, F: list[int], s: int) -> None:
    """Append the simple s to the normal form F in place.

    One right-to-left pass renormalises the pairs ending at the new
    factor.  It stops at the first pair whose left factor does not change:
    the pairs to its left are untouched, and by the domino rule those to
    its right are already normal.  Trailing identities are dropped.
    """
    F.append(s)
    for i in range(len(F) - 2, -1, -1):
        x, y = table.renorm(F[i], F[i + 1])
        if x == F[i]:
            break
        F[i], F[i + 1] = x, y
    while F and F[-1] == table.e:
        F.pop()


def _strip_w0(table: GarsideTable, k: int, F: list[int]) -> tuple[int, tuple[int, ...]]:
    """Move the leading copies of w0 into the Delta exponent."""
    shift = 0
    while shift < len(F) and F[shift] == table.w0:
        shift += 1
    return k + shift, tuple(F[shift:])


def _nf_ids(table: GarsideTable, letters: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    k = 0
    F: list[int] = []
    for letter in letters:
        s = abs(letter) - 1
        if letter > 0:
            _append(table, F, table.gen_ids[s])
        else:
            k -= 1
            F = [table.tau[x] for x in F]
            _append(table, F, table.w0s[s])
    return _strip_w0(table, k, F)


def _nf_mul_ids(
    table: GarsideTable, a: tuple[int, tuple[int, ...]], b: tuple[int, tuple[int, ...]]
) -> tuple[int, tuple[int, ...]]:
    ka, Fa = a
    kb, Fb = b
    F = [table.tau[x] for x in Fa] if kb % 2 else list(Fa)
    for f in Fb:
        _append(table, F, f)
    return _strip_w0(table, ka + kb, F)


def _letters_of_nf_ids(table: GarsideTable, nf: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    k, F = nf
    w0word = table.word(table.w0)
    out: list[int] = []
    if k >= 0:
        out.extend(w0word * k)
    else:
        out.extend(tuple(-l for l in reversed(w0word)) * (-k))
    for f in F:
        out.extend(table.word(f))
    return tuple(out)


@dataclass(frozen=True)
class GarsideNormalForm:
    """Left greedy normal form Delta^inf f_1 ... f_l."""

    group: CoxeterGroup
    inf: int
    factors: tuple[CoxeterElement, ...]

    def __post_init__(self) -> None:
        for f in self.factors:
            self.group.member(f)

    def is_identity(self) -> bool:
        return self.inf == 0 and not self.factors

    def to_json(self) -> dict:
        return {
            "inf": self.inf,
            "factors": [list(f.reduced_word()) for f in self.factors],
        }

    @staticmethod
    def from_json(group: CoxeterGroup, data: dict) -> "GarsideNormalForm":
        return GarsideNormalForm(
            group, data["inf"], tuple(group.from_word(w) for w in data["factors"])
        )

    def __repr__(self) -> str:
        facs = " ".join("." .join(map(str, f.reduced_word())) for f in self.factors)
        return f"NF(D^{self.inf} | {facs})"


def delta_normal_form(b: BraidWord) -> GarsideNormalForm:
    k, F = b.nf
    return GarsideNormalForm(b.group, k, tuple(CoxeterElement(b.group, f) for f in F))


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Word problem: compare left greedy normal forms."""
    return a.nf == a.group.member(b).nf


# ---------------------------------------------------------------------------
# rational permutation braids and fraction forms


def _rational_ids(nf: tuple[int, tuple[int, ...]]) -> bool:
    k, F = nf
    return k >= -1 and k + len(F) <= 1


def is_rational_permutation(b: BraidWord) -> bool:
    """Whether b lies in the interval [Delta^-1, Delta] of prefix order."""
    return _rational_ids(b.nf)


def _left_fraction_ids(table: GarsideTable, nf: tuple[int, tuple[int, ...]]) -> tuple[int, int]:
    if not _rational_ids(nf):
        raise ValueError("not a rational permutation braid")
    k, F = nf
    if k == 1:
        return table.e, table.w0
    if k == 0:
        return table.e, (F[0] if F else table.e)
    if not F:
        return table.w0, table.e
    return table.mul(table.inv[F[0]], table.w0), (F[1] if len(F) > 1 else table.e)


def fraction_form(b: BraidWord) -> tuple[CoxeterElement, CoxeterElement]:
    """Left fraction: the coprime pair (x, y) with b = b(x)^-1 b(y).

    Coprime means the pair has no common left descent, equivalently the
    left weak order meet of x and y is the identity.  Raises ValueError
    for braids that are not rational permutation braids.
    """
    x, y = _left_fraction_ids(garside_table(b.group), b.nf)
    return CoxeterElement(b.group, x), CoxeterElement(b.group, y)


def _right_fraction_ids(table: GarsideTable, nf: tuple[int, tuple[int, ...]]) -> tuple[int, int]:
    if not _rational_ids(nf):
        raise ValueError("not a rational permutation braid")
    k, F = nf
    if k == 1:
        return table.w0, table.e
    if k == 0:
        return (F[0] if F else table.e), table.e
    if not F:
        return table.e, table.w0
    y = table.mul(table.inv[F[1]], table.w0) if len(F) > 1 else table.w0
    return table.tau[F[0]], y


def right_fraction_form(b: BraidWord) -> tuple[CoxeterElement, CoxeterElement]:
    """Right fraction: a pair (x, y) with b = b(x) b(y)^-1.

    This is the decomposition driving the sign rule of signed_lift; the
    denominator y is what the lift consults.
    """
    x, y = _right_fraction_ids(garside_table(b.group), b.nf)
    return CoxeterElement(b.group, x), CoxeterElement(b.group, y)


def signed_lift(b: BraidWord, word: Iterable[int] | None = None) -> BraidWord:
    """Lift a reduced word of p(b) to a braid word equal to b.

    With b = b(x) b(y)^-1 the right fraction of a rational braid, the
    letter s_i of the chosen reduced word s_1 ... s_k of p(b) receives a
    positive sign exactly when multiplying the standing suffix product
    s_i ... s_k y makes the length go up by one.
    """
    table = garside_table(b.group)
    w = table.image_id(b.letters)
    word = table.word(w) if word is None else tuple(word)
    if (
        not all(0 < i <= table.n for i in word)
        or table.image_id(word) != w
        or len(word) != table.length[w]
    ):
        raise ValueError("not a reduced word of the braid's image")
    _, cur = _right_fraction_ids(table, b.nf)
    length = table.length
    letters: list[int] = []
    for i in reversed(word):
        nxt = table.lmul[i - 1][cur]
        letters.append(i if length[nxt] == length[cur] + 1 else -i)
        cur = nxt
    letters.reverse()
    return BraidWord(b.group, tuple(letters))


def square_free_witness(
    b: BraidWord,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A reduced word of p(b) and signs realising b, or None.

    Rational braids get the constructive signed lift on the shortlex word,
    verified against b.  Other braids fall back to an exhaustive search
    over reduced words and sign vectors, which is only meant for small
    images.
    """
    w = b.image()
    k = w.length()
    if _rational_ids(b.nf):
        word = w.reduced_word()
        lift = signed_lift(b, word)
        if not braid_equal(lift, b):
            raise IntegrityError("constructive lift of a rational braid failed")
        signs = tuple(1 if l > 0 else -1 for l in lift.letters)
        return word, signs
    for word in reduced_words(w):
        for signs in itertools.product((1, -1), repeat=k):
            cand = BraidWord(b.group, tuple(i * s for i, s in zip(word, signs)))
            if braid_equal(cand, b):
                return word, signs
    return None


def is_square_free(b: BraidWord) -> bool:
    return square_free_witness(b) is not None


# ---------------------------------------------------------------------------
# the mirror symmetry of type A


def mirror_letters(b: BraidWord) -> BraidWord:
    """Image under the diagram flip i -> rank + 1 - i of a type A braid."""
    if b.group.type.family != "A":
        raise ValueError("mirror is defined for type A")
    r = b.group.rank
    return BraidWord(
        b.group, tuple((1 if l > 0 else -1) * (r + 1 - abs(l)) for l in b.letters)
    )


def is_tau_fixed(b: BraidWord) -> bool:
    """Whether a braid over A_{2n-1} equals its mirror image."""
    t = b.group.type
    if t.family != "A" or t.rank % 2 == 0:
        raise ValueError("tau fixedness concerns type A of odd rank")
    return braid_equal(b, mirror_letters(b))


def positive_lift(w: CoxeterElement) -> BraidWord:
    """The positive simple braid b(w), via the shortlex reduced word."""
    return BraidWord(w.group, w.reduced_word())


def embed_braid_b_to_a(b: BraidWord) -> BraidWord:
    """Fold a type B braid word into A_{2n-1}.

    The sign change letter maps to the middle generator, the letter k >= 2
    to its commuting symmetric pair; inverses map to inverses.
    """
    if b.group.type.family != "B":
        raise ValueError("expected a type B braid")
    n = b.group.rank
    words = type_b_embedding_words(n)
    target = coxeter_group("A", 2 * n - 1)
    letters: list[int] = []
    for l in b.letters:
        img = words[abs(l)]
        if l > 0:
            letters.extend(img)
        else:
            letters.extend(-i for i in reversed(img))
    return BraidWord(target, tuple(letters))
