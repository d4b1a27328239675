"""Verification sweeps behind the command line interface.

Each named check produces a Report with one verdict per item, in one of
three shapes, which its registry entry names in ``CheckSpec.sweep``: an
ordering sweep (``_orderings``) has one item per standard Coxeter element,
or only the one given as ``coxeter``; a pair sweep (``_pairs``) has one
per pair (x, y), |W|^2 in all, whose verdict is that of the braid
b(x)^-1 b(y), checked once per distinct braid, on its coprime pair; a
whole-group check reads its items off one library call.  ``run_check``
enforces the registry's families, ``coxeter`` and the one size guard
``budget_guard`` before any table is built, and stamps the theorem id and
the elapsed time on the report.  The checks hold no mathematics of their
own: a verdict is always the result of calling the corresponding library
operation, so the command line layer stays a thin shell.  The library
hands back verdicts, and this module alone shapes them into report
items.  The conjecture sweep is special in that its report is evidence,
not an assertion: it passes when the computation completes and is
internally consistent, and the per divisor outcomes are data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .coxeter import (
    CoxeterElement,
    CoxeterGroup,
    CoxeterType,
    ResourceError,
    coxeter_element_orderings,
    coxeter_group_of,
    coxeter_type,
    reflections_from_coxeter,
)
from .dual import (
    DualAtomTable,
    divisors_of,
    dual_atoms,
    dual_monoid,
    hurwitz_orbit,
    hurwitz_orbit_braids,
    linear_coxeter_bruhat_check,
    verify_dual_relations,
)
from .garside import (
    BraidWord,
    GarsideTable,
    _rational_ids,
    braid_equal,
    embed_braid_b_to_a,
    fraction_form,
    garside_table,
    is_rational_permutation,
    is_square_free,
    positive_lift,
    right_fraction_form,
    signed_lift,
    word_key,
)
from .hecke import kl_table
from .mikado import is_mikado_A, is_mikado_B

DEFAULT_BUDGETS = {"A": 5, "B": 4, "D": 4, "I2": 12, "H3": 3, "F4": 4}
# Pair sweeps take 0.026 ms (prop-4.4), 0.040 ms (thm-5.9) and 0.11 ms
# (thm-8.2) a pair on A5, 13 s, 21 s and 55 s for its 518 400 pairs, of
# which the 90 921 coprime ones are checked (one run each, 2 cores, Python
# 3.11): A5, of order 720, is the largest group they run on without --budget.
PAIR_SWEEP_ORDER_CAP = 720


def budget_guard(ctype: CoxeterType, pairs: bool, budget: int | None) -> tuple[str, ...]:
    """The size guard of every command: raise ResourceError unless the
    group fits, or return a note for each limit that --budget lifts.

    The size is the rank, or m for I2(m).  Above its family's default
    budget it needs --budget N with N at least the size.  A sweep over all
    |W|^2 pairs (pairs=True) of a group of order above PAIR_SWEEP_ORDER_CAP
    needs any --budget.  A lifted limit is reported as a warning note,
    since runtimes grow quickly past the defaults.
    """
    size = ctype.m if ctype.family == "I2" else ctype.rank
    limit, label, order = DEFAULT_BUDGETS[ctype.family], ctype.label(), ctype.order()
    over = []
    if size > limit:
        over.append(f"{label} exceeds the default limit {limit}")
    if pairs and order > PAIR_SWEEP_ORDER_CAP:
        over.append(f"the {order}^2 pairs of {label} exceed the pair sweep limit "
                    f"(order {PAIR_SWEEP_ORDER_CAP})")
    if over and (budget is None or size > max(limit, budget)):
        raise ResourceError(f"{'; '.join(over)}; pass --budget {size} to force")
    return tuple(f"budget override: {what}; expect long runtimes" for what in over)


def type_for(family: str, rank: int | None = None, m: int | None = None) -> CoxeterType:
    """The type of a family, rank and m; CoxeterType rejects any that do not fit."""
    return coxeter_type(normalize_family(family), rank, m)


def normalize_family(family: str) -> str:
    fam = family.upper()
    if fam.startswith("I"):
        return "I2"
    if fam in ("H", "H3"):
        return "H3"
    if fam in ("F", "F4"):
        return "F4"
    return fam


@dataclass
class Report:
    """Outcome of one verification sweep."""

    command: str
    group: dict
    passed: bool
    items: tuple[dict, ...]
    counts: dict
    elapsed: float
    coxeter_element: list[int] | None = None
    evidence_only: bool = False
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "artifact_version": _artifact_version(),
            "group": self.group,
            "coxeter_element": self.coxeter_element,
            "passed": self.passed,
            "evidence_only": self.evidence_only,
            "counts": self.counts,
            "items": list(self.items),
            "notes": list(self.notes),
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        if self.evidence_only:
            verdict = "EVIDENCE"
        bits = ", ".join(f"{k}={v}" for k, v in self.counts.items())
        label = CoxeterType.from_json(self.group).label()
        return f"{verdict} {self.command} [{label}] {bits} ({self.elapsed:.2f}s)"


def _artifact_version() -> str:
    from . import __version__

    return __version__


def _word(w: CoxeterElement) -> list[int]:
    return list(w.reduced_word())


def _standard_sweep(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None
) -> tuple[tuple[CoxeterElement, tuple[int, ...]], ...]:
    """The standard Coxeter elements to sweep, each with an S-ordering."""
    orderings = coxeter_element_orderings(group)
    if coxeter is None:
        return tuple(orderings.items())
    word = tuple(coxeter)
    if sorted(word) != list(range(1, group.rank + 1)):
        raise ValueError("--coxeter must list every generator exactly once")
    return ((group.from_word(word), word),)


def _pair_braid(x: CoxeterElement, y: CoxeterElement) -> BraidWord:
    return positive_lift(x).inverse() * positive_lift(y)


def _finish(
    group: CoxeterGroup,
    items: list[dict],
    extra_counts: dict | None = None,
    coxeter: tuple[int, ...] | None = None,
) -> Report:
    """The report of a sweep; run_check fills in the command and the time."""
    failures = sum(1 for it in items if not it["ok"])
    counts = {"items": len(items), "failures": failures}
    if extra_counts:
        counts.update(extra_counts)
    return Report(
        command="",
        group=group.type.to_json(),
        passed=failures == 0,
        items=tuple(items),
        counts=counts,
        elapsed=0.0,
        coxeter_element=list(coxeter) if coxeter is not None else None,
    )


def _orderings(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None,
    one: Callable[[CoxeterElement, tuple[int, ...]], dict], extra_counts: dict | None = None,
) -> Report:
    """One item per standard Coxeter element c: one(c, ordering), keyed "1,2,3"."""
    items = [
        {"item": ",".join(map(str, ordering)), **one(c, ordering)}
        for c, ordering in _standard_sweep(group, coxeter)
    ]
    return _finish(group, items, extra_counts, coxeter=coxeter)


def _coprime_pair(table: GarsideTable, x: int, y: int) -> tuple[int, int]:
    """The coprime pair of ids with the braid b(x)^-1 b(y).

    For s in D_L(x) & D_L(y), b(x) = s b(sx) and b(y) = s b(sy), so
    b(x)^-1 b(y) = b(sx)^-1 b(sy); common left descents are stripped until
    none is left.  Left fractions with coprime terms are unique (Dehornoy
    et al., Foundations of Garside Theory, 2015), so this is the pair that
    fraction_form returns.
    """
    ldesc, lmul = table.ldesc, table.lmul
    common = ldesc[x] & ldesc[y]
    while common:
        row = lmul[(common & -common).bit_length() - 1]
        x, y = row[x], row[y]
        common = ldesc[x] & ldesc[y]
    return x, y


def _pairs(
    group: CoxeterGroup, ok: Callable[[CoxeterElement, CoxeterElement], bool]
) -> Report:
    """One item per pair (x, y), keyed "wx|wy" by shortlex words ("e" if
    empty), in x-major id order, with the verdict ok gives its braid.

    A verdict depends only on the braid b(x)^-1 b(y), so ok is called once
    per distinct braid: on the coprime pairs (no common left descent), in
    x-major id order, which keeps KLTable._pair_rows at one elimination
    per x.  Every other pair reads the verdict of its _coprime_pair, whose
    x is shorter and so was checked earlier.
    """
    table = garside_table(group)
    elements = group.elements()  # in id order
    words = [word_key(w) for w in elements]
    verdicts: dict[tuple[int, int], bool] = {}
    items = []
    for x, (ex, wx) in enumerate(zip(elements, words)):
        for y, (ey, wy) in enumerate(zip(elements, words)):
            key = _coprime_pair(table, x, y)
            if key == (x, y):
                verdicts[key] = ok(ex, ey)
            items.append({"item": f"{wx}|{wy}", "ok": verdicts[key]})
    return _finish(group, items)


# ---------------------------------------------------------------------------
# reflection generation and the absolute order


def check_reflection_generation(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Conjugating the partial products of c sweeps out every reflection."""

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        generated = reflections_from_coxeter(c, ordering)
        ok = generated == frozenset(group.reflections)
        return {"ok": ok, "generated": len(generated)}

    return _orderings(group, coxeter, one, {"reflections": len(group.reflections)})


def check_parabolic_divisors(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Every divisor completes to c with additive reflection length."""

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        total = c.reflection_length()
        bad = []
        divisors = divisors_of(c)
        for x in divisors:
            rest = x.inverse() * c
            if x.reflection_length() + rest.reflection_length() != total:
                bad.append(_word(x))
        return {
            "ok": not bad,
            "divisors": len(divisors),
            "violations": bad,
        }

    return _orderings(group, coxeter, one)


def check_dual_relations(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """The dual braid relations hold among the atom lifts."""

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        rows = verify_dual_relations(c, ordering)
        bad = [(_word(t1), _word(t2)) for t1, t2, _, ok in rows if not ok]
        return {
            "ok": not bad,
            "relations": len(rows),
            "violations": bad,
        }

    return _orderings(group, coxeter, one)


# ---------------------------------------------------------------------------
# Hurwitz transitivity


def _reduced_factorizations(c: CoxeterElement) -> frozenset[tuple[CoxeterElement, ...]]:
    """All factorizations of c into reflection_length(c) reflections.

    Independent of the Hurwitz machinery: a depth first enumeration
    pruned by the reflection length of the running prefix.
    """
    group = c.group
    total = c.reflection_length()
    reflections = group.reflections
    out: list[tuple[CoxeterElement, ...]] = []

    def extend(prefix: tuple[CoxeterElement, ...], x: CoxeterElement) -> None:
        depth = len(prefix)
        if depth == total:
            if x == c:
                out.append(prefix)
            return
        for t in reflections:
            y = x * t
            if y.reflection_length() == depth + 1:
                rest = y.inverse() * c
                if depth + 1 + rest.reflection_length() == total:
                    extend(prefix + (t,), y)

    extend((), group.identity)
    return frozenset(out)


def check_hurwitz(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """The Hurwitz orbit of (s_1, ..., s_n) carries all factorizations.

    The orbit is compared against an independent brute force
    enumeration, and the braid level orbit must project bijectively.
    """

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        start = tuple(group.generator(i) for i in ordering)
        orbit = hurwitz_orbit(start)
        brute = _reduced_factorizations(c)
        braid_orbit = hurwitz_orbit_braids(
            tuple(BraidWord(group, (i,)) for i in ordering)
        )
        projected = frozenset(tuple(b.image() for b in tup) for tup in braid_orbit)
        ok = (
            frozenset(orbit) == brute
            and len(braid_orbit) == len(orbit)
            and projected == brute
        )
        return {
            "ok": ok,
            "orbit": len(orbit),
            "factorizations": len(brute),
        }

    return _orderings(group, coxeter, one)


# ---------------------------------------------------------------------------
# dual atoms


def _dihedral_atom_words(m: int) -> tuple[tuple[int, ...], ...]:
    """Closed form dual atom words for I2(m) with ordering (1, 2).

    The k-th atom is the alternating word 1,2,1,... of length k followed
    by the inverse of the alternating word of length k-1.
    """

    def alternating(k: int) -> tuple[int, ...]:
        return tuple(1 if j % 2 == 0 else 2 for j in range(k))

    out = []
    for k in range(1, m + 1):
        head = alternating(k)
        tail = tuple(-l for l in reversed(alternating(k - 1)))
        out.append(head + tail)
    return tuple(out)


def _closed_form(group: CoxeterGroup, ordering: tuple[int, ...], table: DualAtomTable) -> dict:
    """{"closed_form": match} for I2(m) under the ordering (1, 2), where match
    says whether the atom words are those of _dihedral_atom_words; else {}."""
    if group.type.family != "I2" or ordering != (1, 2):
        return {}
    got = {table.braid(t).letters for t in table.reflections}
    return {"closed_form": got == set(_dihedral_atom_words(group.type.m))}


def check_dual_atoms(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """The rotation formula produces one rational atom per reflection."""

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        table = dual_atoms(c, ordering)
        reflections = table.reflections
        ok = len(reflections) == len(group.reflections)
        ok = ok and table.all_rational()
        ok = ok and all(table.braid(t).image() == t for t in reflections)
        nf_keys = {table.normal_form_ids(t) for t in reflections}
        ok = ok and len(nf_keys) == len(reflections)
        extra = _closed_form(group, ordering, table)
        return {
            "ok": ok and extra.get("closed_form", True),
            "atoms": len(reflections),
            **extra,
        }

    return _orderings(group, coxeter, one, {"reflections": len(group.reflections)})


# ---------------------------------------------------------------------------
# rational permutation braids


def check_rational_fraction(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Left and right fractions characterise the rational braids.

    For every pair (x, y) the braid b(x)^-1 b(y) must pass the interval
    test, round trip through both fraction forms, and stay rational
    under inversion.
    """

    def one(x: CoxeterElement, y: CoxeterElement) -> bool:
        b = _pair_braid(x, y)
        ok = is_rational_permutation(b) and is_rational_permutation(b.inverse())
        if ok:
            fx, fy = fraction_form(b)
            ok = braid_equal(_pair_braid(fx, fy), b)
        if ok:
            gx, gy = right_fraction_form(b)
            ok = braid_equal(positive_lift(gx) * positive_lift(gy).inverse(), b)
        return ok

    return _pairs(group, one)


def check_square_free(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Every rational permutation braid has a signed reduced word lift."""

    def one(x: CoxeterElement, y: CoxeterElement) -> bool:
        b = _pair_braid(x, y)
        return is_square_free(b) and braid_equal(signed_lift(b), b)

    return _pairs(group, one)


def _equivalent(mikado: Callable[[BraidWord], bool], x: CoxeterElement, y: CoxeterElement) -> bool:
    """b(x)^-1 b(y) is rational, passes mikado and is square free."""
    b = _pair_braid(x, y)
    ok = is_rational_permutation(b)
    ok = ok and mikado(b)
    if ok:
        fx, fy = fraction_form(b)
        ok = braid_equal(_pair_braid(fx, fy), b)
    ok = ok and braid_equal(signed_lift(b), b)
    return ok


def check_equivalence_a(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Rational, strand removable and square free coincide in family A."""
    return _pairs(group, partial(_equivalent, is_mikado_A))


def check_equivalence_b(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """The family B counterpart, peeling symmetric strand pairs.

    The Mikado test runs on the flip symmetric picture, so each braid is
    folded into the doubled strand family A group first.
    """
    return _pairs(group, partial(_equivalent, lambda b: is_mikado_B(embed_braid_b_to_a(b))))


# ---------------------------------------------------------------------------
# simple dual braids


def check_embed_rational(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Every embedded simple dual braid is a rational permutation braid."""

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        dm = dual_monoid(c, ordering)
        bad = []
        for x in dm.divisors():
            nf = dm.embed_nf_ids(x)
            if not _rational_ids(nf) or dm.embed(x).image() != x:
                bad.append(_word(x))
        extra = _closed_form(group, ordering, dm.atoms)
        return {
            "ok": not bad and extra.get("closed_form", True),
            "divisors": len(dm.divisors()),
            "violations": bad,
            **extra,
        }

    return _orderings(group, coxeter, one)


def check_linear_bruhat(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Fractions of simple dual braids of the one line c go up in Bruhat order."""
    rows = linear_coxeter_bruhat_check(group.rank)
    items = [
        {"item": ",".join(map(str, u.reduced_word())), "ok": ok,
         "numerator": _word(x), "denominator": _word(y)}
        for u, x, y, ok in rows
    ]
    return _finish(group, items)


# ---------------------------------------------------------------------------
# canonical basis positivity


def check_kl_pair_positivity(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """T_x^-1 T_y expands with nonnegative canonical coefficients."""
    return _pairs(group, kl_table(group).pair_is_nonneg)


def check_kl_embed_positivity(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Simple dual braids expand positively in the canonical basis."""
    table = kl_table(group)

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        dm = dual_monoid(c, ordering)
        divisors = dm.divisors()
        return {
            "ok": all(table.braid_is_nonneg(dm.embed(x)) for x in divisors),
            "divisors": len(divisors),
        }

    return _orderings(group, coxeter, one)


def check_conjecture_evidence(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Canonical positivity sweep reported as evidence, not asserted.

    Passing means the sweep completed and was internally consistent:
    every embedding projects back onto its divisor and is multiplicative
    against the complement.  The positivity outcomes are recorded per
    divisor either way.
    """

    table = kl_table(group)

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        dm = dual_monoid(c, ordering)
        consistent = True
        embed_c = dm.embed(c)
        verdicts = []
        for x in dm.divisors():
            bx = dm.embed(x)
            if bx.image() != x:
                consistent = False
            if not braid_equal(bx * dm.embed(x.inverse() * c), embed_c):
                consistent = False
            verdicts.append({"divisor": _word(x), "positive": table.braid_is_nonneg(bx)})
        return {
            "ok": consistent,
            "positive": all(v["positive"] for v in verdicts),
            "divisors": verdicts,
        }

    report = _orderings(group, coxeter, one)
    report.counts["positive_sweeps"] = sum(1 for it in report.items if it["positive"])
    report.evidence_only = True
    report.notes = (
        "evidence report: positivity outcomes are data; pass means the "
        "sweep completed with consistent embeddings",
    )
    return report


# ---------------------------------------------------------------------------
# Temperley Lieb checks


def check_fg_projection(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """The canonical basis projects onto the diagram basis or to zero."""
    from .tl import fg_projection_failures

    failures = fg_projection_failures(group.rank)
    items = [
        {"item": "all-elements", "ok": not failures,
         "checked": group.type.order(), "violations": failures}
    ]
    return _finish(group, items)


def check_zinno(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Dual braid images form a triangular basis of the diagram algebra."""
    from .tl import zinno_matrix

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        zm = zinno_matrix(c, ordering)
        square, triangular = zm.is_square(), zm.pairing is not None
        unit, refined = zm.invertible_over_laurent(), zm.bruhat_refined()
        return {
            "ok": square and triangular and unit and refined is not False,
            "square": square,
            "triangular": triangular,
            "unit_diagonal": unit,
            "bruhat_refined": refined,
            "size": len(zm.rows),
        }

    return _orderings(group, coxeter, one)


def check_tl_positivity(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None = None
) -> Report:
    """Zinno rows alternate in sign against the diagram basis."""
    from .tl import sign_alternating

    def one(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
        verdicts = sign_alternating(c, ordering)
        return {"ok": all(verdicts), "divisors": len(verdicts)}

    return _orderings(group, coxeter, one)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckSpec:
    theorem_id: str
    families: tuple[str, ...]
    description: str
    fn: Callable[..., Report]
    sweep: str = "orderings"  # or "pairs", one item per pair of elements, or "group"


CHECKS: dict[str, CheckSpec] = {
    spec.theorem_id: spec
    for spec in (
        CheckSpec(
            "prop-3.2", ("A", "B", "D", "I2", "H3", "F4"),
            "reflections generated from any standard Coxeter element",
            check_reflection_generation,
        ),
        CheckSpec(
            "cor-3.4", ("A", "B", "D", "I2", "H3", "F4"),
            "divisors complete to c with additive reflection length",
            check_parabolic_divisors,
        ),
        CheckSpec(
            "prop-3.5", ("A", "B", "D", "I2", "H3", "F4"),
            "dual braid relations hold among atom lifts",
            check_dual_relations,
        ),
        CheckSpec(
            "thm-3.7", ("A", "B", "D", "I2", "H3", "F4"),
            "Hurwitz orbit equals all reduced reflection factorizations",
            check_hurwitz,
        ),
        CheckSpec(
            "prop-3.9", ("A", "B", "D", "I2", "H3", "F4"),
            "rotation formula atoms: distinct, rational, consistent",
            check_dual_atoms,
        ),
        CheckSpec(
            "prop-4.4", ("A", "B", "D", "I2", "H3", "F4"),
            "rational braids round trip through coprime fractions",
            check_rational_fraction, sweep="pairs",
        ),
        CheckSpec(
            "lemma-4.5", ("A", "B", "D", "I2", "H3", "F4"),
            "rational braids are square free",
            check_square_free, sweep="pairs",
        ),
        CheckSpec(
            "thm-5.9", ("A",),
            "rational equals strand removable equals square free, family A",
            check_equivalence_a, sweep="pairs",
        ),
        CheckSpec(
            "thm-5.13", ("A",),
            "simple dual braids are rational, family A",
            check_embed_rational,
        ),
        CheckSpec(
            "prop-5.14", ("A",),
            "one line Coxeter fractions rise in Bruhat order",
            check_linear_bruhat, sweep="group",
        ),
        CheckSpec(
            "thm-6.4", ("B",),
            "rational equals symmetric strand removable, family B",
            check_equivalence_b, sweep="pairs",
        ),
        CheckSpec(
            "thm-6.9", ("B",),
            "simple dual braids are rational, family B",
            check_embed_rational,
        ),
        CheckSpec(
            "thm-7.1", ("I2", "H3", "F4"),
            "simple dual braids are rational, exceptional families",
            check_embed_rational,
        ),
        CheckSpec(
            "thm-8.2", ("A", "B", "D", "I2", "H3"),
            "T_x^-1 T_y has nonnegative canonical coefficients",
            check_kl_pair_positivity, sweep="pairs",
        ),
        CheckSpec(
            "thm-8.5", ("A", "B", "D", "I2", "H3", "F4"),
            "simple dual braids expand positively in the canonical basis",
            check_kl_embed_positivity,
        ),
        CheckSpec(
            "conj-8.6", ("D",),
            "canonical positivity sweep in family D, reported as evidence",
            check_conjecture_evidence,
        ),
        CheckSpec(
            "thm-8.11", ("A",),
            "canonical basis projects onto the diagram basis",
            check_fg_projection, sweep="group",
        ),
        CheckSpec(
            "thm-8.13", ("A",),
            "Zinno matrix is a triangular basis with unit diagonal",
            check_zinno,
        ),
        CheckSpec(
            "thm-8.17", ("A",),
            "sign alternating positivity of Zinno rows",
            check_tl_positivity,
        ),
    )
}


def run_check(
    theorem_id: str,
    family: str,
    rank: int | None = None,
    m: int | None = None,
    coxeter: tuple[int, ...] | None = None,
    workers: int = 1,
    budget: int | None = None,
) -> Report:
    """Run one named check on one group, in process and on one thread.

    Only ordering sweeps take coxeter.  workers=1 is accepted for callers
    that pass it; any other value raises ValueError.  The report's time
    leaves out the group set-up and the guard.
    """
    if workers != 1:
        raise ValueError("sweeps run on one thread; workers must be 1")
    spec = CHECKS.get(theorem_id)
    if spec is None:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    ctype = type_for(family, rank, m)
    if ctype.family not in spec.families:
        raise ValueError(
            f"{theorem_id} does not apply to family {family}; "
            f"expected one of {', '.join(spec.families)}"
        )
    if coxeter is not None and spec.sweep != "orderings":
        raise ValueError(f"{theorem_id} sweeps no standard Coxeter elements; drop --coxeter")
    notes = budget_guard(ctype, spec.sweep == "pairs", budget)
    group = coxeter_group_of(ctype)
    started = time.perf_counter()
    report = spec.fn(group, coxeter=coxeter)
    report.command = theorem_id
    report.elapsed = time.perf_counter() - started
    if notes:
        report.notes = tuple(report.notes) + notes
    return report
