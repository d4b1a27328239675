"""The benchmark's workloads: fixed lists of ``coxbraid verify`` sweeps.

Each workload is a list of ``run_check`` calls together with the verdicts
it must produce: the number of verdict items and a digest of the sorted
``(theorem, item, ok)`` triples, both recorded at the commit that
introduced the benchmark.  The theorem id is taken from the call, not from
the report, so that a report that gains fields keeps its digest.

The seed only permutes the order of a workload's calls.  Order decides
which process-level caches are warm when a call starts; it never changes
a verdict.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# Standard Coxeter element orderings, as ``coxeter_element_orderings``
# lists them for A3, and written out so that the inputs do not depend on
# the program under test.
RANK3_ORDERINGS = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1))

# The Coxeter ordering of the rank 4 workloads.  thm-8.13 checks Bruhat
# refinement only for this ordering.  One ordering keeps a dual-F4 or tl-A4
# pass at 1.5-3 s, so that a 30 s run holds 6-13 passes.
RANK4_ORDERING = ((1, 2, 3, 4),)


@dataclass(frozen=True)
class Call:
    """One ``run_check`` call, with one Coxeter ordering or the whole group."""

    theorem: str
    family: str
    rank: int
    coxeter: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[tuple[str, int], ...]
    calls: tuple[Call, ...]
    items: int
    digest: str

    def ordered_calls(self, seed: int) -> list[Call]:
        calls = list(self.calls)
        random.Random(seed).shuffle(calls)
        return calls


def verdict_digest(verdicts: list[tuple[str, str, bool]]) -> str:
    """SHA-256 of the sorted ``(theorem, item, ok)`` triples."""
    rows = sorted([theorem, item, bool(ok)] for theorem, item, ok in verdicts)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _per_ordering(theorems: tuple[str, ...], family: str, rank: int,
                  orderings: tuple[tuple[int, ...], ...]) -> tuple[Call, ...]:
    return tuple(Call(t, family, rank, o) for t in theorems for o in orderings)


# The workloads named in BENCHMARK.json.  Why each was chosen, and what it
# bypasses, is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dual-F4", (("F4", 4),),
            _per_ordering(("thm-7.1",), "F4", 4, RANK4_ORDERING),
            1, "f9f348a2f9b876c4dd994ccc2d53e3623183b7fd7d1a70762a1a586e361053ee",
        ),
        Workload(
            "kl-A3", (("A", 3),),
            (Call("thm-8.2", "A", 3),),
            576, "a5c67c487dc0cd7b2d1fa8a5b0eb26f171755266ea55be8dc2451e36abdbff74",
        ),
        Workload(
            "tl-A4", (("A", 4),),
            _per_ordering(("thm-8.13", "thm-8.17"), "A", 4, RANK4_ORDERING),
            2, "15b9acc98ac06e483c930a4030099336515e6f0508d144b7f37ba6e14062314b",
        ),
        Workload(
            "pairs-A3", (("A", 3),),
            (Call("thm-5.9", "A", 3),),
            576, "249159f739610520072473903b5f4927fa26e4658e0d33c61f34d3ce8ae56cd2",
        ),
    )
}

# The same sweeps on smaller groups, for the harness tests.  The dual
# sweep runs thm-5.13, the family A twin of thm-7.1 (the same check).
SMALL_WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dual-A3", (("A", 3),),
            _per_ordering(("thm-5.13",), "A", 3, RANK3_ORDERINGS),
            4, "6f87a57d4e90a86f2c0ccd22631a7f54c0d0b430e639830d024a919b138236f5",
        ),
        Workload(
            "kl-B2", (("B", 2),),
            (Call("thm-8.2", "B", 2),),
            64, "d9caea1c602db05a226e5677e125e6f589baef52637f78c0ef155fa6582c64f4",
        ),
        Workload(
            "tl-A3", (("A", 3),),
            _per_ordering(("thm-8.13", "thm-8.17"), "A", 3, RANK3_ORDERINGS),
            8, "261fff4534d3dd932a447e96c97b813b5626189f6c6f45b3fef809be5fda5834",
        ),
        Workload(
            "pairs-A2", (("A", 2),),
            (Call("thm-5.9", "A", 2),),
            36, "69cddb2f3bfb6bc537ec4b7be4f9341fa4617ce172deba1a97ed3bb02876ba78",
        ),
    )
}

ALL_WORKLOADS = {**WORKLOADS, **SMALL_WORKLOADS}
