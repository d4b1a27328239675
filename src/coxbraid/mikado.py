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
enumeration helpers count Mikado braids through the descent criterion
on pairs of (signed) permutations, working on raw tuples so that even
the one strand cases are covered uniformly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .coxeter import IntegrityError, ResourceError
from .garside import BraidWord, is_tau_fixed, square_free_witness

COUNT_A_MAX = 10
COUNT_B_MAX = 6


@dataclass(frozen=True)
class WiringDiagram:
    """Strands 1..strand_count, crossed left to right.

    Each crossing is (position, sign): the strands in slots position and
    position + 1 cross, and the strand arriving from the right slot goes
    over exactly when the sign is positive.  Strands are named by their
    starting slot.
    """

    strand_count: int
    crossings: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.strand_count < 0:
            raise ValueError("strand count cannot be negative")
        pair_counts: Counter[frozenset[int]] = Counter()
        occ = list(range(1, self.strand_count + 1))
        for pos, sign in self.crossings:
            if not 1 <= pos < self.strand_count:
                raise ValueError(f"crossing position {pos} out of range")
            if sign not in (1, -1):
                raise ValueError("crossing sign must be +1 or -1")
            a, b = occ[pos - 1], occ[pos]
            pair_counts[frozenset((a, b))] += 1
            occ[pos - 1], occ[pos] = b, a
        if any(k > 1 for k in pair_counts.values()):
            raise IntegrityError("two strands cross more than once")

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

    def end_positions(self) -> dict[int, int]:
        occ = list(range(1, self.strand_count + 1))
        for pos, _ in self.crossings:
            occ[pos - 1], occ[pos] = occ[pos], occ[pos - 1]
        return {strand: slot + 1 for slot, strand in enumerate(occ)}

    def good_strands(self) -> frozenset[int]:
        """Strands over in every crossing they take part in."""
        bad = {under for _, _, _, under in self.crossing_details()}
        return frozenset(range(1, self.strand_count + 1)) - bad

    def remove_strand(self, strand: int) -> "WiringDiagram":
        """Delete one strand; crossings it carried vanish, others reindex."""
        if not 1 <= strand <= self.strand_count:
            raise ValueError("no such strand")
        occ = list(range(1, self.strand_count + 1))
        kept = []
        for pos, sign in self.crossings:
            a, b = occ[pos - 1], occ[pos]
            if a != strand and b != strand:
                slot_r = occ.index(strand)
                kept.append((pos if slot_r > pos else pos - 1, sign))
            occ[pos - 1], occ[pos] = b, a
        return WiringDiagram(self.strand_count - 1, tuple(kept))


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


def _peel_single(d: WiringDiagram) -> bool:
    while d.crossings:
        good = d.good_strands()
        if not good:
            return False
        ends = d.end_positions()
        d = d.remove_strand(max(good, key=lambda s: ends[s]))
    return True


def _peel_pairs(d: WiringDiagram) -> bool:
    N = d.strand_count
    removed = 0
    while d.crossings:
        good = d.good_strands()
        if not good:
            return False
        ends = d.end_positions()
        s = max(good, key=lambda g: ends[g])
        partner = (N - 2 * removed) + 1 - s
        d = d.remove_strand(max(s, partner)).remove_strand(min(s, partner))
        removed += 1
    return True


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
    if d is None:
        return False
    single = _peel_single(d)
    paired = _peel_pairs(d)
    if single != paired:
        raise IntegrityError("single strand and symmetric pair peeling disagree")
    return single


# ---------------------------------------------------------------------------
# enumeration by the descent criterion


def _a_descent_mask(x: tuple[int, ...]) -> int:
    """Left descent set of a permutation in one line form, as a bit mask."""
    n = len(x)
    inv = [0] * n
    for i, v in enumerate(x):
        inv[v - 1] = i
    mask = 0
    for i in range(n - 1):
        if inv[i] > inv[i + 1]:
            mask |= 1 << i
    return mask


def _b_descent_mask(w: tuple[int, ...]) -> int:
    """Left descent set of a signed permutation, as a bit mask.

    Letter 1 flips the first coordinate, letter i + 1 swaps coordinates
    i and i + 1; left descents are right descents of the inverse.
    """
    n = len(w)
    inv = [0] * n
    for i, v in enumerate(w, start=1):
        inv[abs(v) - 1] = i if v > 0 else -i
    mask = 0
    if inv[0] < 0:
        mask |= 1
    for i in range(1, n):
        if inv[i - 1] > inv[i]:
            mask |= 1 << i
    return mask


def _disjoint_pair_count(masks: Counter[int]) -> int:
    total = 0
    for ma, ca in masks.items():
        for mb, cb in masks.items():
            if ma & mb == 0:
                total += ca * cb
    return total


def count_mikado_A(n: int) -> int:
    """Mikado braids on n strands: descent disjoint pairs in S_n x S_n."""
    if n < 1:
        raise ValueError("need at least one strand")
    if n > COUNT_A_MAX:
        raise ResourceError(f"count capped at {COUNT_A_MAX} strands")
    masks = Counter(
        _a_descent_mask(p) for p in itertools.permutations(range(1, n + 1))
    )
    return _disjoint_pair_count(masks)


def count_mikado_B(n: int) -> int:
    """Descent disjoint pairs of signed permutations on n coordinates."""
    if n < 1:
        raise ValueError("need at least one coordinate")
    if n > COUNT_B_MAX:
        raise ResourceError(f"count capped at {COUNT_B_MAX} coordinates")
    masks: Counter[int] = Counter()
    for p in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            masks[_b_descent_mask(tuple(s * v for s, v in zip(signs, p)))] += 1
    return _disjoint_pair_count(masks)
