"""Acceptance suite: one test per release criterion, with wall-clock budgets.

Every criterion prints a single PASS or FAIL line and enforces its time
budget.  All arithmetic is exact, so the assertions are exact equalities;
the budgets are the only tolerances. Run with -s to see the lines as they
appear, or check captured output on failure.
"""

import contextlib
import json
import random
import time

import pytest

from oracles import (
    bar_involution,
    greedy_first_factor_brute,
    longest_element,
    max_exp,
    min_exp,
    reduced_factorizations_brute,
    rewriting_equal,
    scrambled,
    v_power,
)

from coxbraid.cli import main
from coxbraid.coxeter import (
    bruhat_leq,
    bruhat_lower_interval,
    coxeter_element_orderings,
    coxeter_group,
    reflections_from_coxeter,
)
from coxbraid.dual import dual_atoms, hurwitz_orbit, verify_dual_relations
from coxbraid.garside import (
    BraidWord,
    braid_equal,
    delta_normal_form,
    embed_braid_b_to_a,
    fraction_form,
    is_rational_permutation,
    positive_lift,
    signed_lift,
)
from coxbraid.hecke import j_h, kl_table
from coxbraid.mikado import count_mikado_B, is_mikado_A, is_mikado_B
from coxbraid.verify import run_check


@contextlib.contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:02d} FAIL {label} ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {verdict} {label} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert ok, f"criterion {num:02d} over budget: {elapsed:.1f}s >= {budget_s}s"


def cli(capsys, *argv: str) -> dict:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_criterion_01_mikado_counts(capsys):
    with criterion(1, "braid counts match the published table", 10):
        for n, want in ((1, 1), (2, 3), (3, 19), (4, 211)):
            got = cli(capsys, "count", "--type", "A", "--n", str(n))
            assert got == {"type": "A", "n": n, "count": want}


REFLECTION_SWEEP = (
    [("A", r, None) for r in range(1, 6)]
    + [("B", r, None) for r in range(2, 5)]
    + [("D", 4, None)]
    + [("I2", None, m) for m in range(3, 13)]
    + [("H3", None, None), ("F4", None, None)]
)


def test_criterion_02_reflection_generation():
    with criterion(2, "rotating any standard element generates all reflections", 30):
        for family, rank, m in REFLECTION_SWEEP:
            group = coxeter_group(family, rank, m=m)
            want = frozenset(group.reflections)
            for c, ordering in coxeter_element_orderings(group).items():
                assert reflections_from_coxeter(c, ordering) == want


HURWITZ_SWEEP = (
    [("A", r, None) for r in range(1, 5)]
    + [("B", 3, None)]
    + [("I2", None, m) for m in range(3, 9)]
)


def test_criterion_03_hurwitz_transitivity():
    with criterion(3, "Hurwitz orbit covers all reduced reflection factorizations", 60):
        for family, rank, m in HURWITZ_SWEEP:
            group = coxeter_group(family, rank, m=m)
            start = tuple(group.generator(i) for i in range(1, group.rank + 1))
            c = group.from_word(range(1, group.rank + 1))
            assert hurwitz_orbit(start) == reduced_factorizations_brute(c)


ATOM_SWEEP = (
    [("A", r, None) for r in (2, 3, 4)]
    + [("B", r, None) for r in (2, 3)]
    + [("D", 4, None)]
    + [("I2", None, m) for m in range(3, 13)]
    + [("H3", None, None), ("F4", None, None)]
)


def test_criterion_04_dual_atoms():
    with criterion(4, "rotation formula yields distinct rational atoms", 60):
        for family, rank, m in ATOM_SWEEP:
            report = run_check("prop-3.9", family, rank, m)
            assert report.passed, report.summary()
        # the dihedral atoms in closed form: the k-th atom is the
        # alternating word of length k followed by the inverse of the
        # alternating word of length k - 1
        for m in range(3, 13):
            group = coxeter_group("I2", m=m)
            table = dual_atoms(group.from_word((1, 2)), (1, 2))
            want = set()
            for k in range(1, m + 1):
                alt = tuple(1 if i % 2 == 0 else 2 for i in range(k))
                want.add(alt + tuple(-x for x in reversed(alt[:-1])))
            got = {table.braid(t).letters for t in table.reflections}
            assert got == want


RELATION_SWEEP = (
    [("A", r, None) for r in range(1, 5)]
    + [("B", 3, None)]
    + [("D", 4, None)]
    + [("I2", None, m) for m in range(3, 9)]
)


def test_criterion_05_dual_presentation():
    with criterion(5, "dual braid relations hold in the braid group", 120):
        for family, rank, m in RELATION_SWEEP:
            group = coxeter_group(family, rank, m=m)
            for c, ordering in coxeter_element_orderings(group).items():
                rows = verify_dual_relations(c, ordering)
                assert all(ok for _, _, _, ok in rows)


def test_criterion_06_equivalence_theorem():
    with criterion(6, "every two-sided quotient is rational, Mikado, and lifts back", 120):
        for family, rank in (("A", 3), ("B", 2)):
            group = coxeter_group(family, rank)
            elements = group.elements()
            for x in elements:
                left = positive_lift(x).inverse()
                for y in elements:
                    b = left * positive_lift(y)
                    assert is_rational_permutation(b)
                    if family == "A":
                        assert is_mikado_A(b)
                    else:
                        assert is_mikado_B(embed_braid_b_to_a(b))
                    u, w = fraction_form(b)
                    rebuilt = positive_lift(u).inverse() * positive_lift(w)
                    assert braid_equal(rebuilt, b)
                    assert braid_equal(signed_lift(b), b)


EMBED_SWEEP = (
    [("thm-5.13", "A", r, None) for r in range(1, 6)]
    + [("thm-6.9", "B", r, None) for r in (2, 3, 4)]
    + [("thm-7.1", "I2", None, m) for m in range(3, 13)]
    + [("thm-7.1", "H3", None, None), ("thm-7.1", "F4", None, None)]
)


def test_criterion_07_simple_dual_braids_rational():
    with criterion(7, "every simple dual braid passes the interval test", 600):
        for tid, family, rank, m in EMBED_SWEEP:
            report = run_check(tid, family, rank, m)
            assert report.passed, report.summary()


def test_criterion_08_conjecture_evidence_sweep():
    with criterion(8, "type D evidence sweep completes with per-divisor verdicts", 300):
        report = run_check("conj-8.6", "D", 4)
        assert report.evidence_only
        assert report.passed
        assert report.counts["items"] == 8
        assert report.counts["positive_sweeps"] == 8
        for item in report.items:
            assert item["ok"]
            assert len(item["divisors"]) == 50
            assert all(isinstance(row["positive"], bool) for row in item["divisors"])


def test_criterion_09_kl_positivity():
    with criterion(9, "canonical-basis expansions of braid images are positive", 300):
        for tid, family, rank, m in (
            ("thm-8.2", "A", 3, None),
            ("thm-8.2", "B", 3, None),
            ("thm-8.5", "A", 3, None),
            ("thm-8.5", "B", 3, None),
            ("thm-8.5", "I2", None, 5),
            ("thm-8.5", "I2", None, 6),
        ):
            report = run_check(tid, family, rank, m)
            assert report.passed, report.summary()


KL_SWEEP = (
    [("A", r, None) for r in range(1, 5)]
    + [("B", 3, None), ("D", 4, None)]
    + [("H3", None, None)]
)


def test_criterion_10_kl_internal_checks():
    with criterion(10, "canonical bases are bar invariant, related, unitriangular", 300):
        for family, rank, m in KL_SWEEP:
            group = coxeter_group(family, rank, m=m)
            table = kl_table(group)
            for w in group.elements():
                cp = table.c_prime(w)
                assert bar_involution(cp) == cp
                flipped = j_h(cp)
                if w.length() % 2:
                    flipped = flipped.scale(-1)
                assert table.c_basis(w) == flipped
                assert cp.coeff(w) == v_power(w.length())
                below = bruhat_lower_interval(w)
                for y in cp.support():
                    assert y in below
                    if y != w:
                        assert min_exp(cp.coeff(y)) >= y.length() + 1
                        p = table.p(y, w)
                        assert min_exp(p) >= 0
                        assert max_exp(p) <= w.length() - y.length() - 1


def test_criterion_11_temperley_lieb():
    with criterion(11, "diagram projection, change of basis, signed positivity", 300):
        for tid, top_rank in (("thm-8.11", 3), ("thm-8.13", 4), ("thm-8.17", 4)):
            for rank in range(1, top_rank + 1):
                report = run_check(tid, "A", rank)
                assert report.passed, report.summary()


def test_criterion_12_linear_coxeter_bruhat():
    with criterion(12, "fractions of simple dual braids are Bruhat comparable", 60):
        for rank in range(1, 6):
            report = run_check("prop-5.14", "A", rank)
            assert report.passed, report.summary()


def _fuzz_words(group, rng, count: int) -> list[tuple[int, ...]]:
    words = []
    for i in range(count):
        n = rng.randint(0, 10)
        if i % 2:
            words.append(tuple(rng.randint(1, group.rank) for _ in range(n)))
        else:
            words.append(
                tuple(rng.choice((1, -1)) * rng.randint(1, group.rank) for _ in range(n))
            )
    return words


def test_criterion_13_normal_form_oracle_equivalence():
    with criterion(13, "normal forms agree with rewriting search on fuzzed words", 300):
        rng = random.Random(2026)
        for family, rank in (("A", 3), ("B", 2)):
            group = coxeter_group(family, rank)
            words = _fuzz_words(group, rng, 5000)

            # the word problem: sound rewrites never change the braid, and
            # the bounded search must reconnect them
            for w in words[::10]:
                other = scrambled(w, group, rng)
                assert braid_equal(BraidWord(group, w), BraidWord(group, other))
                assert rewriting_equal(group, w, other)

            # independent pairs: the image in W and the exponent sum are
            # braid invariants, so either one differing settles inequality;
            # the bounded search arbitrates the remaining coincidences
            for u, v in zip(words[::2], words[1::2]):
                equal = braid_equal(BraidWord(group, u), BraidWord(group, v))
                image_differs = group.from_word(abs(x) for x in u) != group.from_word(
                    abs(x) for x in v
                )
                exponent_differs = sum(1 if x > 0 else -1 for x in u) != sum(
                    1 if x > 0 else -1 for x in v
                )
                if image_differs or exponent_differs:
                    assert not equal
                else:
                    assert equal == rewriting_equal(group, u, v)

            # greedy factorization against the maximal-simple-prefix brute
            # force, on the positive half of the corpus
            for w in words:
                if not w or any(x < 0 for x in w):
                    continue
                nf = delta_normal_form(BraidWord(group, w))
                brute = greedy_first_factor_brute(group, w)
                if nf.inf >= 1:
                    assert brute == longest_element(group)
                else:
                    assert brute == nf.factors[0]


def test_criterion_14_type_b_count_data(capsys):
    with criterion(14, "folded count matches brute-force braid enumeration", 120):
        group = coxeter_group("B", 2)
        seen = set()
        for x in group.elements():
            left = positive_lift(x).inverse()
            for y in group.elements():
                nf = delta_normal_form(left * positive_lift(y))
                seen.add((nf.inf, tuple(f.reduced_word() for f in nf.factors)))
        assert len(seen) == count_mikado_B(2)
        got = cli(capsys, "count", "--type", "B", "--n", "2")
        assert got["count"] == len(seen)
