"""Classical Garside structure for Artin-Tits groups of spherical type.

A braid is a word in the Artin generators, stored as a tuple of nonzero
1-based letters where -i means the inverse of the i-th generator.  The
left greedy normal form writes any braid as Delta^k f_1 ... f_l with
simple factors f_i (copies of Coxeter group elements), f_1 != w0 and all
factors nonidentity, adjacent pairs locally maximal.  Words are folded
into this form left to right: a positive letter appends a simple, a
negative letter rewrites through sigma^-1 = Delta^-1 b(w0 s), twisting
the factors before it by the diagram automorphism tau(x) = w0 x w0.  So
after k negative letters the fold appends tau^k of each simple, and
untwists once at the end (tau commutes with renorm, fixes e and w0).
Each appended simple costs one right-to-left renormalisation pass over
the factors, which stops at the first pair whose left factor does not
change; leading copies of w0 are stripped once, at the end.  A braid
folds its own letters once, on first use of BraidWord.nf, and every
entry point below reads that form; products and inverses of normal forms
are composed from the forms (_nf_mul_ids, _nf_inv_ids), not from letters,
and so is a pair braid b(x)^-1 b(y) from its two ids (_pair_nf_ids).

All group level lookups go through the group's one id table
(coxeter.GroupTable, read as group.table) of integer indexed products,
descent masks and inverses; its ids are the ids of the group's elements,
so an element and its id are exchanged without a lookup.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from typing import Iterable

from .coxeter import (
    CoxeterElement,
    CoxeterGroup,
    CoxeterType,
    GroupTable,
    IntegrityError,
    Record,
    coxeter_group,
    coxeter_group_of,
    reduced_words,
    type_b_embedding_words,
)


class BraidWord(Record):
    """A word in the Artin generators of a spherical type braid group."""

    __slots__ = ("group", "letters", "__dict__")

    def __init__(self, group: CoxeterGroup, letters: tuple[int, ...]) -> None:
        for l in letters:
            if l == 0 or abs(l) > group.rank:
                raise ValueError(f"letter {l} out of range for {group.type.label()}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.group, self.letters) == (other.group, other.letters)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.group, self.letters))

    @cached_property
    def nf(self) -> tuple[int, tuple[int, ...]]:
        """Left greedy normal form as (Delta exponent, simple ids), folded
        from the letters on first use; the frozen word cannot make it stale."""
        return _nf_ids(self.group.table, self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.group, self.letters + self.group.member(other).letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.group, tuple(-l for l in reversed(self.letters)))

    def image(self) -> CoxeterElement:
        """The underlying Coxeter group element, forgetting signs."""
        return CoxeterElement(self.group, self.group.table.image_id(self.letters))

    def to_json(self) -> dict:
        return {"group": self.group.type.to_json(), "letters": list(self.letters)}

    @staticmethod
    def from_json(data: dict) -> "BraidWord":
        group = coxeter_group_of(CoxeterType.from_json(data["group"]))
        return BraidWord(group, tuple(data["letters"]))

    def __repr__(self) -> str:
        body = ",".join(str(l) for l in self.letters) or "e"
        return f"Braid({self.group.type.label()}; {body})"


def word_key(w: CoxeterElement) -> str:
    """The shortlex word of w as "1,2,3", or "e" for the identity: how
    reports key elements."""
    return ",".join(map(str, w.reduced_word())) or "e"


def _append(table: GroupTable, F: list[int], s: int) -> None:
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


def _strip_w0(table: GroupTable, k: int, F: list[int]) -> tuple[int, tuple[int, ...]]:
    """Move the leading copies of w0 into the Delta exponent."""
    shift = 0
    while shift < len(F) and F[shift] == table.w0:
        shift += 1
    return k + shift, tuple(F[shift:])


def _nf_ids(table: GroupTable, letters: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    k = 0
    F: list[int] = []
    for letter in letters:  # F is kept twisted by tau^k: see the module docstring
        if letter > 0:
            s = table.gen_ids[letter - 1]
        else:
            k -= 1
            s = table.rmul[-letter - 1][table.w0]
        _append(table, F, table.tau[s] if k % 2 else s)
    if k % 2:
        F = [table.tau[x] for x in F]
    return _strip_w0(table, k, F)


def _nf_mul_ids(
    table: GroupTable, a: tuple[int, tuple[int, ...]], b: tuple[int, tuple[int, ...]]
) -> tuple[int, tuple[int, ...]]:
    ka, Fa = a
    kb, Fb = b
    F = [table.tau[x] for x in Fa] if kb % 2 else list(Fa)
    for f in Fb:
        _append(table, F, f)
    return _strip_w0(table, ka + kb, F)


def _nf_inv_ids(table: GroupTable, nf: tuple[int, tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
    """Normal form of the inverse, with no letters: b(f)^-1 = Delta^-1 b(w0 f^-1),
    as b(f) b(f^-1 w0) = Delta and w0 f^-1 = tau(f^-1 w0), so (Delta^k f_1 ... f_l)^-1
    is Delta^(-k-l) times the pieces w0 f_i^-1, i = l .. 1, twisted by tau^(k+i-1)."""
    k, F = nf
    G = [table.mul(table.w0, table.inv[f]) for f in F]
    G = [table.tau[g] if (k + i) % 2 else g for i, g in enumerate(G)]
    return _nf_mul_ids(table, (-k - len(F), ()), (0, tuple(reversed(G))))


def _simple_nf_ids(table: GroupTable, x: int) -> tuple[int, tuple[int, ...]]:
    """b(x) as a normal form to compose: (0, (x,)), e as (0, ()); a w0 factor
    moves into the Delta exponent wherever _nf_mul_ids or _nf_inv_ids meets it."""
    return (0, (x,) if x != table.e else ())


def _pair_nf_ids(table: GroupTable, x: int, y: int) -> tuple[int, tuple[int, ...]]:
    """Normal form of the pair braid b(x)^-1 b(y), composed from the two ids."""
    return _nf_mul_ids(table, _nf_inv_ids(table, _simple_nf_ids(table, x)), _simple_nf_ids(table, y))


def _image_ids(table: GroupTable, nf: tuple[int, tuple[int, ...]]) -> int:
    """Id of the group image of the braid with normal form nf; Delta maps to w0."""
    k, F = nf
    return reduce(table.mul, F, table.w0 if k % 2 else table.e)


def _letters_of_nf_ids(table: GroupTable, nf: tuple[int, tuple[int, ...]]) -> tuple[int, ...]:
    k, F = nf
    w0word = table.word(table.w0)
    delta = w0word * k if k >= 0 else tuple(-l for l in reversed(w0word)) * -k
    return delta + tuple(l for f in F for l in table.word(f))


class GarsideNormalForm(Record):
    """Left greedy normal form Delta^inf f_1 ... f_l."""

    __slots__ = ("group", "inf", "factors")

    def __init__(self, group: CoxeterGroup, inf: int, factors: tuple[CoxeterElement, ...]) -> None:
        for f in factors:
            group.member(f)
        self._set(group, inf, factors)

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


def _left_fraction_ids(table: GroupTable, nf: tuple[int, tuple[int, ...]]) -> tuple[int, int]:
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
    x, y = _left_fraction_ids(b.group.table, b.nf)
    return CoxeterElement(b.group, x), CoxeterElement(b.group, y)


def _right_fraction_ids(table: GroupTable, nf: tuple[int, tuple[int, ...]]) -> tuple[int, int]:
    """The ids (x, y) of the right fraction b = b(x) b(y)^-1 of the rational
    braid with normal form nf."""
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


def _signed_lift_ids(
    table: GroupTable, nf: tuple[int, tuple[int, ...]], word: tuple[int, ...]
) -> tuple[int, ...]:
    """The letters of signed_lift for the rational braid with normal form nf
    and the reduced word of its image, from its right fraction's denominator."""
    _, cur = _right_fraction_ids(table, nf)
    length = table.length
    letters: list[int] = []
    for i in reversed(word):
        nxt = table.lmul[i - 1][cur]
        letters.append(i if length[nxt] == length[cur] + 1 else -i)
        cur = nxt
    letters.reverse()
    return tuple(letters)


def signed_lift(b: BraidWord, word: Iterable[int] | None = None) -> BraidWord:
    """Lift a reduced word of p(b) to a braid word equal to b.

    With b = b(x) b(y)^-1 the right fraction of a rational braid, the
    letter s_i of the chosen reduced word s_1 ... s_k of p(b) receives a
    positive sign exactly when multiplying the standing suffix product
    s_i ... s_k y makes the length go up by one.
    """
    table = b.group.table
    w = table.image_id(b.letters)
    word = table.word(w) if word is None else tuple(word)
    if (
        not all(0 < i <= b.group.rank for i in word)
        or table.image_id(word) != w
        or len(word) != table.length[w]
    ):
        raise ValueError("not a reduced word of the braid's image")
    return BraidWord(b.group, _signed_lift_ids(table, b.nf, word))


def _checked_lift(group: CoxeterGroup, nf: tuple[int, tuple[int, ...]]) -> BraidWord:
    """The signed lift, on the shortlex word of its image, of the rational
    braid with normal form nf, folded once: IntegrityError unless it folds
    back to nf."""
    table = group.table
    lift = BraidWord(group, _signed_lift_ids(table, nf, table.word(_image_ids(table, nf))))
    if lift.nf != nf:
        raise IntegrityError("constructive lift of a rational braid failed")
    return lift


def square_free_witness(
    b: BraidWord,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A reduced word of p(b) and signs realising b, or None.

    Rational braids get the constructive signed lift on the shortlex word,
    verified against b.  Other braids fall back to an exhaustive search
    over reduced words and sign vectors, which is only meant for small
    images.
    """
    if _rational_ids(b.nf):
        letters = _checked_lift(b.group, b.nf).letters
        return tuple(abs(l) for l in letters), tuple(1 if l > 0 else -1 for l in letters)
    w = b.image()
    for word in reduced_words(w):
        for signs in itertools.product((1, -1), repeat=w.length()):
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
