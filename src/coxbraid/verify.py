"""Verification sweeps behind the command line interface.

Each named check is one row of the registry ``CHECKS``, and ``run_check``
turns a row into a Report with one verdict per item.  The row's ``sweep``
names the shape of the items and how its ``verdict`` is called (see
CheckSpec): an ordering sweep calls verdict(c, ordering) for each standard
Coxeter element c, or only the one given as ``coxeter``; a pair sweep has
one item per pair (x, y), |W|^2 in all, and calls verdict(x, y) once per
distinct braid b(x)^-1 b(y), on its coprime pair, while every other pair
reads the verdict of its one-step parent (sx, sy), met earlier, from a
bytearray whose unfilled entries raise when read; a whole-group check
takes all its items from verdict(group).  ``run_check`` enforces the
registry's families, ``coxeter`` and the one size guard ``budget_guard``
before any table is built, and builds the report.  The checks hold no
mathematics of their own: a verdict is always the result of calling the
corresponding library operation, so the command line layer stays a thin
shell.  The library hands back verdicts, and this module alone shapes
them into report items.  A conjecture (an id starting "conj-") reports
evidence, not an assertion: it passes when the computation completes and
is internally consistent, and the per divisor outcomes are data.
"""

from __future__ import annotations

import re
import time
from typing import Callable

from .coxeter import (
    CoxeterElement,
    CoxeterGroup,
    CoxeterType,
    GroupTable,
    IntegrityError,
    Record,
    ResourceError,
    coprime_pair_count,
    coxeter_element_orderings,
    coxeter_group_of,
    coxeter_type,
    reflections_from_coxeter,
    standard_ordering,
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
    _checked_lift,
    _image_ids,
    _left_fraction_ids,
    _nf_inv_ids,
    _nf_mul_ids,
    _pair_nf_ids,
    _rational_ids,
    _right_fraction_ids,
    _simple_nf_ids,
    word_key,
)
from .hecke import kl_table
from .mikado import is_mikado_lift
from .tl import fg_projection_failures, sign_alternating, zinno_matrix

DEFAULT_BUDGETS = {"A": 5, "B": 4, "D": 4, "I2": 12, "H3": 3, "F4": 4}
# Pair sweeps take 0.0045 ms (prop-4.4), 0.013 ms (thm-5.9) and 0.11 ms
# (thm-8.2) a pair on A5, 2.3 s, 6.5 s and 55 s for its 518 400 pairs, of
# which the 90 921 coprime ones are checked (fresh processes, 2 cores,
# Python 3.11): A5, of order 720, is the largest group they run on without
# --budget.
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


_I2 = re.compile(r"I2(?:\((\d+)\))?")


def type_for(family: str, rank: int | None = None, m: int | None = None) -> CoxeterType:
    """The type of a family, rank and m; CoxeterType rejects any that do not
    fit.  The spelling I2(m) gives m, which the m argument may only repeat."""
    spelled = _I2.fullmatch(family.upper())
    given = int(spelled[1]) if spelled and spelled[1] else m
    if m not in (None, given):
        raise ValueError(f"family {family} has m = {given}, got m = {m}")
    return coxeter_type(normalize_family(family), rank, given)


def normalize_family(family: str) -> str:
    fam = family.upper()
    if _I2.fullmatch(fam):
        return "I2"
    if fam in ("H", "H3"):
        return "H3"
    if fam in ("F", "F4"):
        return "F4"
    return fam


class Report(Record):
    """Outcome of one verification sweep."""

    __slots__ = ("command", "group", "passed", "items", "counts", "elapsed",
                 "coxeter_element", "evidence_only", "notes")

    def __init__(
        self, command: str, group: dict, passed: bool, items: tuple[dict, ...], counts: dict,
        elapsed: float, coxeter_element: list[int] | None = None, evidence_only: bool = False,
        notes: tuple[str, ...] = (),
    ) -> None:
        self._set(
            command, group, passed, items, counts, elapsed, coxeter_element, evidence_only, notes
        )

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


def _orderings(
    group: CoxeterGroup, coxeter: tuple[int, ...] | None,
    verdict: Callable[[CoxeterElement, tuple[int, ...]], dict],
) -> list[dict]:
    """One item per standard Coxeter element c, or only the one whose
    ordering is coxeter: verdict(c, ordering), keyed "1,2,3"."""
    if coxeter is None:
        sweep = coxeter_element_orderings(group).items()
    else:
        c = group.from_word(coxeter)
        sweep = ((c, standard_ordering(c, coxeter)),)
    return [{"item": ",".join(map(str, ordering)), **verdict(c, ordering)} for c, ordering in sweep]


def _pairs(
    group: CoxeterGroup, verdict: Callable[[CoxeterElement, CoxeterElement], bool]
) -> list[dict]:
    """One item per pair (x, y), keyed "wx|wy" by shortlex words ("e" if
    empty), in x-major id order, with the verdict of its braid.

    A verdict depends only on the braid b(x)^-1 b(y).  For s in
    D_L(x) & D_L(y), b(x) = s b(sx) and b(y) = s b(sy), so b(x)^-1 b(y) =
    b(sx)^-1 b(sy): a pair with a common left descent has the verdict of
    its parent (sx, sy), s the lowest common one.  l(sx) < l(x) and ids run
    by length, so x-major order met the parent first.  Following parents
    ends at the pair with no common left descent, the coprime pair; left
    fractions with coprime terms are unique (Dehornoy et al., Foundations
    of Garside Theory, 2015), so it is the pair that fraction_form returns.
    verdict is therefore called once per distinct braid, on the coprime
    pairs in x-major id order, which keeps KLTable._pair_rows at one
    T_x^-1 per x, and their number must be coprime_pair_count.  The
    verdicts sit in one bytearray that starts unfilled; a parent read
    unfilled, as a corrupted descent mask would give, raises.
    """
    ldesc, lmul = group.table.ldesc, group.table.lmul
    elements = group.elements()  # in id order
    words = [word_key(w) for w in elements]
    n, unfilled = len(elements), 2
    verdicts = bytearray([unfilled]) * (n * n)
    coprime = 0
    items = []
    for x, (ex, wx) in enumerate(zip(elements, words)):
        for y, (ey, wy) in enumerate(zip(elements, words)):
            common = ldesc[x] & ldesc[y]
            if common:
                row = lmul[(common & -common).bit_length() - 1]
                ok = verdicts[row[x] * n + row[y]]
                if ok == unfilled:
                    raise IntegrityError(f"{group!r}: the parent of pair ({x}, {y}) is unfilled")
            else:
                ok = verdict(ex, ey)
                coprime += 1
            verdicts[x * n + y] = ok
            items.append({"item": f"{wx}|{wy}", "ok": bool(ok)})
    if coprime != (want := coprime_pair_count(group.type)):
        raise IntegrityError(f"{group!r}: {coprime} coprime pairs met, expected {want}")
    return items


# ---------------------------------------------------------------------------
# reflection generation and the absolute order


def _reflection_generation(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """Conjugating the partial products of c sweeps out every reflection."""
    generated = reflections_from_coxeter(c, ordering)
    return {"ok": generated == frozenset(c.group.reflections), "generated": len(generated)}


def _parabolic_divisors(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """Every divisor completes to c with additive reflection length."""
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


def _dual_relations(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """The dual braid relations hold among the atom lifts."""
    rows = verify_dual_relations(c, ordering)
    bad = [(_word(t1), _word(t2)) for t1, t2, _, ok in rows if not ok]
    return {
        "ok": not bad,
        "relations": len(rows),
        "violations": bad,
    }


# ---------------------------------------------------------------------------
# Hurwitz transitivity


def _reduced_factorizations(c: CoxeterElement) -> frozenset[tuple[CoxeterElement, ...]]:
    """All factorizations of c into reflection_length(c) reflections.

    Independent of the Hurwitz machinery: a depth first enumeration on
    table ids, pruned by the reflection length of the running prefix and
    of its remainder to c.
    """
    group = c.group
    table = group.table
    mul, inv, rlens, target = table.mul, table.inv, table.rlens, c.id
    total = rlens[target]
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], x: int) -> None:
        depth = len(prefix)
        if depth == total:
            if x == target:
                out.append(prefix)
            return
        for t in table.reflections:
            y = mul(x, t)
            if rlens[y] == depth + 1 and depth + 1 + rlens[mul(inv[y], target)] == total:
                extend(prefix + (t,), y)

    extend((), table.e)
    return frozenset(tuple(CoxeterElement(group, t) for t in f) for f in out)


def _hurwitz(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """The Hurwitz orbit of (s_1, ..., s_n) carries all factorizations.

    The orbit is compared against an independent brute force
    enumeration, and the braid level orbit must project bijectively.
    """
    group = c.group
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


def _closed_form(table: DualAtomTable) -> dict:
    """{"closed_form": match} for I2(m) under the ordering (1, 2), where match
    says whether the atom words are those of _dihedral_atom_words; else {}."""
    group = table.group
    if group.type.family != "I2" or table.ordering != (1, 2):
        return {}
    got = {table.braid(t).letters for t in table.reflections}
    return {"closed_form": got == set(_dihedral_atom_words(group.type.m))}


def _atoms(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """The rotation formula produces one rational atom per reflection."""
    table = dual_atoms(c, ordering)
    reflections = table.reflections
    ok = len(reflections) == len(c.group.reflections)
    ok = ok and table.all_rational()
    ok = ok and all(table.braid(t).image() == t for t in reflections)
    nf_keys = {table.normal_form_ids(t) for t in reflections}
    ok = ok and len(nf_keys) == len(reflections)
    extra = _closed_form(table)
    return {
        "ok": ok and extra.get("closed_form", True),
        "atoms": len(reflections),
        **extra,
    }


# ---------------------------------------------------------------------------
# rational permutation braids


def _rational_fraction(x: CoxeterElement, y: CoxeterElement) -> bool:
    """Left and right fractions characterise the rational braids.

    The normal form of b(x)^-1 b(y), composed from the ids, must pass the
    interval test, stay rational under inversion, and round trip through
    both fraction forms.
    """
    table = x.group.table
    nf = _pair_nf_ids(table, x.id, y.id)
    if not (_rational_ids(nf) and _rational_ids(_nf_inv_ids(table, nf))):
        return False
    gx, gy = _right_fraction_ids(table, nf)
    right = _nf_mul_ids(table, _simple_nf_ids(table, gx), _nf_inv_ids(table, _simple_nf_ids(table, gy)))
    return _left_round_trip(table, nf) and right == nf


def _left_round_trip(table: GroupTable, nf: tuple[int, tuple[int, ...]]) -> bool:
    return _pair_nf_ids(table, *_left_fraction_ids(table, nf)) == nf


def _lift(x: CoxeterElement, y: CoxeterElement) -> BraidWord | None:
    """The signed lift of b(x)^-1 b(y), or None unless it is rational: its
    normal form is composed from the ids, and the lift folded once against
    it (garside._checked_lift), so the lift's nf is the pair braid's."""
    nf = _pair_nf_ids(x.group.table, x.id, y.id)
    return _checked_lift(x.group, nf) if _rational_ids(nf) else None


def _square_free(x: CoxeterElement, y: CoxeterElement) -> bool:
    """Every rational permutation braid has a signed reduced word lift."""
    return _lift(x, y) is not None


def _equivalent(x: CoxeterElement, y: CoxeterElement) -> bool:
    """b(x)^-1 b(y) is rational, strand removable and square free.

    The diagram is that of its signed lift: in family A good strands peel
    it; in family B symmetric strand pairs do, on the flip symmetric
    picture of the lift folded into the doubled strand family A group.
    """
    lift = _lift(x, y)
    return lift is not None and is_mikado_lift(lift) and _left_round_trip(x.group.table, lift.nf)


# ---------------------------------------------------------------------------
# simple dual braids


def _embed_rational(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """Every embedded simple dual braid is a rational permutation braid."""
    dm = dual_monoid(c, ordering)
    table = c.group.table
    bad = []
    for x in dm.divisors():
        nf = dm.embed_nf_ids(x)
        if not _rational_ids(nf) or _image_ids(table, nf) != x.id:
            bad.append(_word(x))
    extra = _closed_form(dm.atoms)
    return {
        "ok": not bad and extra.get("closed_form", True),
        "divisors": len(dm.divisors()),
        "violations": bad,
        **extra,
    }


def _linear_bruhat(group: CoxeterGroup) -> list[dict]:
    """Fractions of simple dual braids of the one line c go up in Bruhat order."""
    return [
        {"item": ",".join(map(str, u.reduced_word())), "ok": ok,
         "numerator": _word(x), "denominator": _word(y)}
        for u, x, y, ok in linear_coxeter_bruhat_check(group.rank)
    ]


# ---------------------------------------------------------------------------
# canonical basis positivity


def _kl_pair_positive(x: CoxeterElement, y: CoxeterElement) -> bool:
    """T_x^-1 T_y expands with nonnegative canonical coefficients."""
    return kl_table(x.group).pair_is_nonneg(x, y)


def _kl_embed_positive(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """Simple dual braids expand positively in the canonical basis."""
    table = kl_table(c.group)
    dm = dual_monoid(c, ordering)
    divisors = dm.divisors()
    return {
        "ok": all(table._nf_is_nonneg(dm.embed_nf_ids(x)) for x in divisors),
        "divisors": len(divisors),
    }


def _kl_evidence(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """Canonical positivity sweep reported as evidence, not asserted.

    ok means the sweep was internally consistent: every embedding projects
    back onto its divisor and is multiplicative against the complement.
    The positivity outcomes are recorded per divisor either way.
    """
    table = kl_table(c.group)
    dm = dual_monoid(c, ordering)
    gt = c.group.table
    embed_c = dm.embed_nf_ids(c)
    consistent = True
    verdicts = []
    for x in dm.divisors():
        nf = dm.embed_nf_ids(x)
        if _image_ids(gt, nf) != x.id or _nf_mul_ids(gt, nf, dm.embed_nf_ids(x.inverse() * c)) != embed_c:
            consistent = False
        verdicts.append({"divisor": _word(x), "positive": table._nf_is_nonneg(nf)})
    return {
        "ok": consistent,
        "positive": all(v["positive"] for v in verdicts),
        "divisors": verdicts,
    }


# ---------------------------------------------------------------------------
# Temperley Lieb checks


def _fg_projection(group: CoxeterGroup) -> list[dict]:
    """The canonical basis projects onto the diagram basis or to zero."""
    failures = fg_projection_failures(group.rank)
    return [
        {"item": "all-elements", "ok": not failures,
         "checked": group.type.order(), "violations": failures}
    ]


def _zinno(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """Dual braid images form a triangular basis of the diagram algebra."""
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


def _tl_positive(c: CoxeterElement, ordering: tuple[int, ...]) -> dict:
    """Zinno rows alternate in sign against the diagram basis."""
    verdicts = sign_alternating(c, ordering)
    return {"ok": all(verdicts), "divisors": len(verdicts)}


# ---------------------------------------------------------------------------
# registry


class CheckSpec(Record):
    """One registered check.  The signature of verdict follows sweep:
    "orderings", verdict(c, ordering) -> the item's fields, "ok" among them;
    "pairs", verdict(x, y) -> bool, the verdict of the braid b(x)^-1 b(y);
    "group", verdict(group) -> all items.  reflections adds the number of
    reflections of the group to the counts.
    """

    __slots__ = ("theorem_id", "families", "description", "verdict", "sweep", "reflections")

    def __init__(
        self, theorem_id: str, families: tuple[str, ...], description: str, verdict: Callable,
        sweep: str = "orderings", reflections: bool = False,
    ) -> None:
        self._set(theorem_id, families, description, verdict, sweep, reflections)


CHECKS: dict[str, CheckSpec] = {
    spec.theorem_id: spec
    for spec in (
        CheckSpec(
            "prop-3.2", ("A", "B", "D", "I2", "H3", "F4"),
            "reflections generated from any standard Coxeter element",
            _reflection_generation, reflections=True,
        ),
        CheckSpec(
            "cor-3.4", ("A", "B", "D", "I2", "H3", "F4"),
            "divisors complete to c with additive reflection length",
            _parabolic_divisors,
        ),
        CheckSpec(
            "prop-3.5", ("A", "B", "D", "I2", "H3", "F4"),
            "dual braid relations hold among atom lifts",
            _dual_relations,
        ),
        CheckSpec(
            "thm-3.7", ("A", "B", "D", "I2", "H3", "F4"),
            "Hurwitz orbit equals all reduced reflection factorizations",
            _hurwitz,
        ),
        CheckSpec(
            "prop-3.9", ("A", "B", "D", "I2", "H3", "F4"),
            "rotation formula atoms: distinct, rational, consistent",
            _atoms, reflections=True,
        ),
        CheckSpec(
            "prop-4.4", ("A", "B", "D", "I2", "H3", "F4"),
            "rational braids round trip through coprime fractions",
            _rational_fraction, sweep="pairs",
        ),
        CheckSpec(
            "lemma-4.5", ("A", "B", "D", "I2", "H3", "F4"),
            "rational braids are square free",
            _square_free, sweep="pairs",
        ),
        CheckSpec(
            "thm-5.9", ("A",),
            "rational equals strand removable equals square free, family A",
            _equivalent, sweep="pairs",
        ),
        CheckSpec(
            "thm-5.13", ("A",),
            "simple dual braids are rational, family A",
            _embed_rational,
        ),
        CheckSpec(
            "prop-5.14", ("A",),
            "one line Coxeter fractions rise in Bruhat order",
            _linear_bruhat, sweep="group",
        ),
        CheckSpec(
            "thm-6.4", ("B",),
            "rational equals symmetric strand removable, family B",
            _equivalent, sweep="pairs",
        ),
        CheckSpec(
            "thm-6.9", ("B",),
            "simple dual braids are rational, family B",
            _embed_rational,
        ),
        CheckSpec(
            "thm-7.1", ("I2", "H3", "F4"),
            "simple dual braids are rational, exceptional families",
            _embed_rational,
        ),
        CheckSpec(
            "thm-8.2", ("A", "B", "D", "I2", "H3"),
            "T_x^-1 T_y has nonnegative canonical coefficients",
            _kl_pair_positive, sweep="pairs",
        ),
        CheckSpec(
            "thm-8.5", ("A", "B", "D", "I2", "H3", "F4"),
            "simple dual braids expand positively in the canonical basis",
            _kl_embed_positive,
        ),
        CheckSpec(
            "conj-8.6", ("D",),
            "canonical positivity sweep in family D, reported as evidence",
            _kl_evidence,
        ),
        CheckSpec(
            "thm-8.11", ("A",),
            "canonical basis projects onto the diagram basis",
            _fg_projection, sweep="group",
        ),
        CheckSpec(
            "thm-8.13", ("A",),
            "Zinno matrix is a triangular basis with unit diagonal",
            _zinno,
        ),
        CheckSpec(
            "thm-8.17", ("A",),
            "sign alternating positivity of Zinno rows",
            _tl_positive,
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

    The registry row's sweep decides how its verdict is called: only
    ordering sweeps take coxeter, and only pair sweeps meet the pair limit
    of budget_guard.  A conjecture's report is evidence: it passes when
    every item is consistent, and counts as positive_sweeps the items whose
    divisors all expand positively.  workers=1 is accepted for callers that
    pass it; any other value raises ValueError.  The report's time leaves
    out the group set-up and the guard.
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
    if spec.sweep == "orderings":
        items = _orderings(group, coxeter, spec.verdict)
    elif spec.sweep == "pairs":
        items = _pairs(group, spec.verdict)
    else:
        items = spec.verdict(group)
    failures = sum(1 for it in items if not it["ok"])
    counts = {"items": len(items), "failures": failures}
    if spec.reflections:
        counts["reflections"] = len(group.reflections)
    evidence = theorem_id.startswith("conj-")
    if evidence:
        counts["positive_sweeps"] = sum(1 for it in items if it["positive"])
        notes = ("evidence report: positivity outcomes are data; pass means the "
                 "sweep completed with consistent embeddings",) + notes
    return Report(
        command=theorem_id,
        group=group.type.to_json(),
        passed=failures == 0,
        items=tuple(items),
        counts=counts,
        elapsed=time.perf_counter() - started,
        coxeter_element=list(coxeter) if coxeter is not None else None,
        evidence_only=evidence,
        notes=notes,
    )
