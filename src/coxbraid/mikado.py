"""Wiring diagrams and Mikado braid detection.

A square free braid has a diagram in which any two strands cross at
most once.  A strand lying over every strand it meets is good, and a
braid is a Mikado braid when good strands can be removed one at a time
until nothing is left.  Type B works inside a braid group on an even
number of strands: the picture must be fixed by the half turn and the
strands come off in symmetric pairs.

Everything here is combinatorial.  A diagram is the ordered list of its
crossings, each a slot position with a sign; end positions, good
strands and removals are computed by replaying the crossing sequence.  The
counts are coxeter.coprime_pair_count, taken from parabolic orders.
"""

from __future__ import annotations

from .coxeter import CoxeterType, IntegrityError, Record, ResourceError, coprime_pair_count
from .garside import BraidWord, embed_braid_b_to_a, is_tau_fixed, square_free_witness

# Rank 16 takes 0.6 s in a fresh process (2 cores, Python 3.11), rank 15 about 0.35 s.
COUNT_MAX_RANK = 16


class WiringDiagram(Record):
    """Strands 1..strand_count, crossed left to right.

    Each crossing is (position, sign): the strands in slots position and
    position + 1 cross, and the strand arriving from the right slot goes
    over exactly when the sign is positive.  Strands are named by their
    starting slot.
    """

    __slots__ = ("strand_count", "crossings")

    def __init__(self, strand_count: int, crossings: tuple[tuple[int, int], ...]) -> None:
        if strand_count < 0:
            raise ValueError("strand count cannot be negative")
        crossed: set[tuple[int, int]] = set()
        occ = list(range(1, strand_count + 1))
        for pos, sign in crossings:
            if not 1 <= pos < strand_count:
                raise ValueError(f"crossing position {pos} out of range")
            if sign not in (1, -1):
                raise ValueError("crossing sign must be +1 or -1")
            a, b = occ[pos - 1], occ[pos]
            crossed.add((a, b) if a < b else (b, a))
            occ[pos - 1], occ[pos] = b, a
        if len(crossed) < len(crossings):
            raise IntegrityError("two strands cross more than once")
        self._set(strand_count, crossings)

    def letters(self) -> tuple[int, ...]:
        return tuple(pos * sign for pos, sign in self.crossings)

    def crossing_details(self) -> tuple[tuple[int, int, int, int], ...]:
        """One row (position, sign, over strand, under strand) per crossing."""
        occ = list(range(1, self.strand_count + 1))
        out = []
        for pos, sign in self.crossings:
            a, b = occ[pos - 1], occ[pos]
            over, under = (b, a) if sign > 0 else (a, b)
            out.append((pos, sign, over, under))
            occ[pos - 1], occ[pos] = b, a
        return tuple(out)

    def remove_strand(self, strand: int) -> "WiringDiagram":
        """Delete one strand; crossings it carried vanish, others reindex.

        The result skips the constructor's checks: deleting a strand of a
        valid diagram cannot make two strands cross twice."""
        if not 1 <= strand <= self.strand_count:
            raise ValueError("no such strand")
        slot, kept = strand - 1, []
        for pos, sign in self.crossings:
            if pos - 1 <= slot <= pos:  # the strand crosses to the other slot
                slot = 2 * pos - 1 - slot
            else:
                kept.append((pos if slot > pos else pos - 1, sign))
        d = object.__new__(WiringDiagram)
        d._set(self.strand_count - 1, tuple(kept))
        return d


def _diagram(b: BraidWord) -> WiringDiagram | None:
    """The diagram of b from one square free witness, or None."""
    witness = square_free_witness(b)
    if witness is None:
        return None
    word, signs = witness
    return WiringDiagram(b.group.rank + 1, tuple(zip(word, signs)))


def wiring_from_square_free(b: BraidWord) -> WiringDiagram:
    """The diagram of a square free braid, built from a signed lift."""
    if b.group.type.family != "A":
        raise ValueError("wiring diagrams are drawn for type A braids")
    d = _diagram(b)
    if d is None:
        raise ValueError("braid is not square-free")
    return d


def _top_good_strand(d: WiringDiagram) -> int | None:
    """The good strand with the largest end slot, or None if no strand is
    good, from one replay of the crossings."""
    occ = list(range(1, d.strand_count + 1))
    under = set()
    for pos, sign in d.crossings:
        a, b = occ[pos - 1], occ[pos]
        under.add(a if sign > 0 else b)
        occ[pos - 1], occ[pos] = b, a
    return next((s for s in reversed(occ) if s not in under), None)


def _peel_single(d: WiringDiagram) -> bool:
    while d.crossings:
        s = _top_good_strand(d)
        if s is None:
            return False
        d = d.remove_strand(s)
    return True


def _peel_pairs(d: WiringDiagram) -> bool:
    N = d.strand_count
    removed = 0
    while d.crossings:
        s = _top_good_strand(d)
        if s is None:
            return False
        partner = (N - 2 * removed) + 1 - s
        d = d.remove_strand(max(s, partner)).remove_strand(min(s, partner))
        removed += 1
    return True


def _peel_symmetric(d: WiringDiagram) -> bool:
    """Single strand and symmetric pair peeling of a flip symmetric diagram,
    which must agree."""
    single = _peel_single(d)
    if single != _peel_pairs(d):
        raise IntegrityError("single strand and symmetric pair peeling disagree")
    return single


def is_mikado_A(b: BraidWord) -> bool:
    """Whether good strands peel the braid down to nothing.

    A braid that is not square free has no admissible diagram at all.
    Removing any good strand works, so the one with the largest end
    position is taken for determinism.
    """
    if b.group.type.family != "A":
        raise ValueError("expected a type A braid")
    d = _diagram(b)
    return d is not None and _peel_single(d)


def is_mikado_B(b: BraidWord) -> bool:
    """Mikado property for the symmetric picture on 2n strands.

    The braid must be fixed by the diagram flip and peel as in type A;
    the direct reading, removing symmetric strand pairs led by a good
    strand, is run alongside and must agree.
    """
    group = b.group
    if group.type.family != "A" or group.rank % 2 == 0:
        raise ValueError("expected a braid on an even number of strands")
    if not is_tau_fixed(b):
        return False
    d = _diagram(b)
    return d is not None and _peel_symmetric(d)


def is_mikado_lift(lift: BraidWord) -> bool:
    """Whether the diagram of a signed reduced word (a signed lift) peels:
    in family A on rank + 1 strands, as in is_mikado_A; in family B the
    diagram of its image in A_(2n-1) (embed_braid_b_to_a), flip symmetric
    by construction, alone and in symmetric pairs, as in is_mikado_B."""
    b = lift if lift.group.type.family == "A" else embed_braid_b_to_a(lift)
    d = WiringDiagram(b.group.rank + 1, tuple((abs(l), 1 if l > 0 else -1) for l in b.letters))
    return _peel_single(d) if b is lift else _peel_symmetric(d)


# ---------------------------------------------------------------------------
# counts by the descent criterion


def _count(family: str, rank: int) -> int:
    if rank > COUNT_MAX_RANK:
        raise ResourceError(f"{family}{rank}: counts are capped at rank {COUNT_MAX_RANK}")
    return coprime_pair_count(CoxeterType(family, rank))


def count_mikado_A(n: int) -> int:
    """Mikado braids on n strands: coprime_pair_count of A_(n-1), or 1."""
    if n < 1:
        raise ValueError("need at least one strand")
    return 1 if n == 1 else _count("A", n - 1)


def count_mikado_B(n: int) -> int:
    """Mikado braids of B_n: coprime_pair_count of B_n, with B_1 = A_1."""
    if n < 1:
        raise ValueError("need at least one coordinate")
    return _count("B", n) if n > 1 else _count("A", 1)
