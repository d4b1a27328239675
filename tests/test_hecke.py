"""Hecke algebra arithmetic, bar involution, and the KL bases."""

import json
import os
import random
import subprocess
import sys
from functools import cache

import pytest

import coxbraid
import oracles
from coxbraid import coxeter, hecke, verify
from coxbraid.coxeter import (
    CoxeterElement,
    CoxeterType,
    bit_ids,
    bruhat_leq,
    coxeter_element_orderings,
    coxeter_group,
)
from coxbraid.dual import dual_monoid
from coxbraid.garside import (
    BraidWord,
    fraction_form,
    positive_lift,
)
from coxbraid.hecke import (
    HeckeElement,
    KLTable,
    braid_image_a,
    hecke_mul,
    j_h,
    kl_table,
)
from coxbraid.laurent import LaurentPolynomial as L


def expands_positively(table, h):
    return all(c.is_nonneg() for c in table.expand_in_C(h).values())


def random_braids(group, count, max_len, seed):
    rng = random.Random(seed)
    letters = [l for i in range(1, group.rank + 1) for l in (i, -i)]
    return [
        BraidWord(group, tuple(rng.choice(letters) for _ in range(rng.randrange(0, max_len + 1))))
        for _ in range(count)
    ]


def test_quadratic_relation():
    for group in (coxeter_group("A", 2), coxeter_group("B", 2)):
        for i in range(1, group.rank + 1):
            t = oracles.t_basis(group.generator(i))
            # (T_s - v^-2)(T_s + 1) = 0
            prod = (t - HeckeElement.unit(group).scale(oracles.v_power(-2))) * (
                t + HeckeElement.unit(group)
            )
            assert prod.is_zero()


def test_braid_image_is_a_homomorphism():
    group = coxeter_group("A", 3)
    braids = random_braids(group, 12, 5, seed=2)
    for a in braids[:6]:
        for b in braids[6:]:
            assert braid_image_a(a * b) == braid_image_a(a) * braid_image_a(b)
        assert braid_image_a(a) * braid_image_a(a.inverse()) == HeckeElement.unit(group)
    assert braid_image_a(BraidWord(group, (1, 2, 1))) == braid_image_a(
        BraidWord(group, (2, 1, 2))
    )


def test_braid_image_of_positive_lift_is_t_basis():
    group = coxeter_group("B", 2)
    for w in group.elements():
        assert braid_image_a(positive_lift(w)) == oracles.t_basis(w)


def test_delta_squared_is_central_in_the_algebra():
    group = coxeter_group("A", 2)
    d = braid_image_a(positive_lift(oracles.longest_element(group)))
    d2 = d * d
    for b in random_braids(group, 10, 5, seed=7):
        h = braid_image_a(b)
        assert d2 * h == h * d2


def test_bar_involution():
    group = coxeter_group("A", 2)
    for b in random_braids(group, 8, 4, seed=5):
        h = braid_image_a(b)
        assert oracles.bar_involution(oracles.bar_involution(h)) == h
    x = braid_image_a(BraidWord(group, (1, -2)))
    y = braid_image_a(BraidWord(group, (2, 2)))
    assert oracles.bar_involution(x * y) == oracles.bar_involution(x) * oracles.bar_involution(y)
    assert oracles.bar_involution(x + y) == oracles.bar_involution(x) + oracles.bar_involution(y)
    s = oracles.t_basis(group.generator(1))
    inv = braid_image_a(BraidWord(group, (-1,)))
    assert oracles.bar_involution(s) == inv


def test_j_is_an_involution_and_signs_t():
    group = coxeter_group("A", 2)
    for w in group.elements():
        t = oracles.t_basis(w)
        expected = t.scale(oracles.v_power(2 * w.length(), (-1) ** w.length()))
        assert j_h(t) == expected
        assert j_h(j_h(t)) == t
    x = braid_image_a(BraidWord(group, (1, -2)))
    y = braid_image_a(BraidWord(group, (2,)))
    assert j_h(x * y) == j_h(x) * j_h(y)


def test_c_prime_basis_characterization():
    for group in (coxeter_group("A", 3), coxeter_group("B", 2)):
        table = kl_table(group)
        for w in group.elements():
            cp = table.c_prime(w)
            assert oracles.bar_involution(cp) == cp
            assert cp.coeff(w) == oracles.v_power(w.length())
            for y in cp.support():
                if y == w:
                    continue
                assert bruhat_leq(y, w) and y != w
                assert oracles.min_exp(cp.coeff(y)) >= y.length() + 1


def test_c_prime_small_pins():
    group = coxeter_group("A", 2)
    table = kl_table(group)
    s = group.generator(1)
    cp = table.c_prime(s)
    assert cp == HeckeElement(group, {group.identity: oracles.v_power(1), s: oracles.v_power(1)})
    c = table.c_basis(s)
    want = {group.identity: oracles.v_power(-1, -1), s: oracles.v_power(1)}
    assert c == HeckeElement(group, want)
    w0 = oracles.longest_element(group)
    cpw0 = table.c_prime(w0)
    assert all(cpw0.coeff(w) == oracles.v_power(3) for w in group.elements())


def test_kl_polynomials_dihedral_are_trivial():
    group = coxeter_group("I2", 2, 5)
    table = kl_table(group)
    for y in group.elements():
        for w in group.elements():
            p = table.p(y, w)
            if bruhat_leq(y, w):
                assert p == L.one()
            else:
                assert p.is_zero()


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_kl_polynomials_are_nonnegative(family, rank):
    group = coxeter_group(family, rank)
    table = kl_table(group)
    for y in group.elements():
        for w in group.elements():
            p = table.p(y, w)
            assert p.is_nonneg()
            if not p.is_zero():
                assert p.coeff(0) == 1
                assert oracles.min_exp(p) == 0


def test_first_nontrivial_kl_polynomial():
    # the smallest group with a nonconstant P lives in rank three
    group = coxeter_group("B", 3)
    table = kl_table(group)
    found = any(
        not table.p(y, w).is_zero() and table.p(y, w) != L.one()
        for y in group.elements()
        for w in group.elements()
    )
    assert found


def test_mu_values():
    group = coxeter_group("A", 2)
    table = kl_table(group)
    e = group.identity
    s = group.generator(1)
    assert table.mu(e, s) == 1
    assert table.mu(s, oracles.longest_element(group)) == 0
    assert table.mu(e, group.from_word((1, 2))) == 0


def test_expand_in_C_is_an_indicator_on_the_basis():
    group = coxeter_group("A", 2)
    table = kl_table(group)
    for w in group.elements():
        exp = table.expand_in_C(table.c_basis(w))
        assert exp == {w: L.one()}
    combined = table.c_basis(group.generator(1)).scale(oracles.v_power(2)) + table.c_basis(
        oracles.longest_element(group)
    ).scale(3)
    exp = table.expand_in_C(combined)
    assert exp[group.generator(1)] == oracles.v_power(2)
    assert exp[oracles.longest_element(group)] == L.constant(3)


def test_expand_in_C_worked_example():
    group = coxeter_group("A", 2)
    table = kl_table(group)
    h = braid_image_a(BraidWord(group, (-1, 2)))
    exp = {w.reduced_word(): str(p) for w, p in table.expand_in_C(h).items()}
    assert exp == {(): "1", (1,): "v^-1", (2,): "v", (1, 2): "1"}
    assert expands_positively(table, h)


def test_expand_in_C_reads_c_rows_by_id(monkeypatch):
    """Once the table is filled, one expansion builds at most one
    CoxeterElement per returned term and calls no c_basis: the W-graph
    steps run on id rows, and elements are made only for the result."""
    group = coxeter_group("B", 3)
    table = KLTable(group)
    h = braid_image_a(BraidWord(group, (1, -2, 3, 2, -1, 3, -2)))
    first = table.expand_in_C(h)
    calls = {"element": 0, "c_basis": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(CoxeterElement, "__init__", counted("element", CoxeterElement.__init__))
    monkeypatch.setattr(KLTable, "c_basis", counted("c_basis", KLTable.c_basis))
    again = table.expand_in_C(h)
    assert again == first and len(again) > 1
    assert calls["element"] <= len(again) and calls["c_basis"] == 0


def test_pair_expansions_are_positive_in_rank_two():
    group = coxeter_group("A", 2)
    table = kl_table(group)
    for x in group.elements():
        for y in group.elements():
            b = positive_lift(x).inverse() * positive_lift(y)
            assert expands_positively(table, braid_image_a(b))
    c = group.from_word((1, 2))
    dm = dual_monoid(c, (1, 2))
    for x in dm.divisors():
        assert expands_positively(table, braid_image_a(dm.embed(x)))


def test_positivity_report_shape():
    report = verify.run_check("thm-8.5", "A", 2, coxeter=(1, 2))
    assert report.passed
    assert report.coxeter_element == [1, 2]
    assert report.items == ({"item": "1,2", "ok": True, "divisors": 5},)
    assert report.counts == {"items": 1, "failures": 0}


SRC = os.path.dirname(os.path.dirname(os.path.abspath(coxbraid.__file__)))


def write_kl_file(cache, group, tamper):
    """Write every P_{y,w} of ``group``, passed through ``tamper``, in the
    layout of the former COXBRAID_KL_CACHE files; return the directory state."""
    table = KLTable(group)
    key = lambda w: ",".join(map(str, w.reduced_word()))
    entries = {}
    for w in group.elements():
        for y in group.elements():
            k = f"{key(y)}|{key(w)}"
            entries[k] = tamper(k, [list(t) for t in table.p(y, w).terms])
    label = group.type.label()
    path = cache / f"kl-{label}-v1.json"
    path.write_text(json.dumps({"version": 1, "group": label, "p": entries}), encoding="utf-8")
    return entries, cache_state(cache)


def cache_state(cache):
    return {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in cache.iterdir()}


def expand_c(cache, word, rank):
    env = dict(os.environ, COXBRAID_KL_CACHE=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "coxbraid.cli", "expand", "--basis", "C",
            "--word", word, "--type", "A", "--rank", str(rank)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr
    return json.loads(run.stdout)["coefficients"]


def off_diagonal_to_two(key, terms):
    y, w = key.split("|")
    return terms if y == w else [[0, 2]]


def signs_flipped(key, terms):
    return [[e, -c] for e, c in terms]


@pytest.mark.parametrize("tamper", [off_diagonal_to_two, signs_flipped])
def test_kl_cache_rejects_tampered_entries(tmp_path, tamper):
    """A tampered KL file named by COXBRAID_KL_CACHE is neither read nor touched."""
    before = write_kl_file(tmp_path, coxeter_group("A", 2), tamper)[1]
    assert expand_c(tmp_path, "[-1,2]", 2) == {"e": "1", "1": "v^-1", "2": "v", "1,2": "1"}
    assert cache_state(tmp_path) == before


def one_plus_3q(key, terms):
    return [[0, 1], [1, 3]] if terms == [[0, 1], [1, 1]] else terms


def test_no_kl_state_is_read_from_disk(tmp_path):
    """A plausible but wrong KL file named by COXBRAID_KL_CACHE changes nothing.

    Every P_{y,w} = 1 + q of A3 becomes 1 + 3q: each entry still has
    constant term 1, nonnegative coefficients and an allowed degree.
    """
    entries, before = write_kl_file(tmp_path, coxeter_group("A", 3), one_plus_3q)
    assert [[0, 1], [1, 3]] in entries.values()
    assert expand_c(tmp_path, "[-2,1,3,2]", 3)["2"] == "2v^-3"
    assert cache_state(tmp_path) == before


def test_hecke_element_arithmetic_guards():
    a2 = coxeter_group("A", 2)
    a3 = coxeter_group("A", 3)
    with pytest.raises(ValueError):
        HeckeElement.unit(a2) + HeckeElement.unit(a3)
    with pytest.raises(ValueError):
        HeckeElement.unit(a2) * HeckeElement.unit(a3)
    with pytest.raises(ValueError):
        kl_table(a2).expand_in_C(HeckeElement.unit(a3))
    with pytest.raises(ValueError):
        kl_table(a2).braid_is_nonneg(BraidWord(a3, (1,)))


# ---------------------------------------------------------------------------
# the id kernel against the payload oracles


def assert_matches_oracles(table, b):
    h = braid_image_a(b)
    want = oracles.braid_image_a_payload(b)
    assert dict(h.coeffs) == want
    exp = table.expand_in_C(h)
    assert exp == oracles.expand_in_C_payload(want)
    assert list(exp) == sorted(exp, key=lambda w: (w.length(), w.payload))


@pytest.mark.parametrize(
    "family,rank,m", [("A", 1, None), ("A", 2, None), ("A", 3, None), ("B", 2, None), ("I2", 2, 5)]
)
def test_pair_braids_match_payload_oracles(family, rank, m):
    group = coxeter_group(family, rank, m)
    table = kl_table(group)
    for x in group.elements():
        for y in group.elements():
            assert_matches_oracles(table, positive_lift(x).inverse() * positive_lift(y))


def test_expand_in_C_fills_the_table_only_up_to_its_largest_id():
    """T_y has only C_w with w <= y, so an expansion fills P_{y,w} up to
    the largest id of its element, not to w0; the zero element fills
    nothing and expands to no terms."""
    group = coxeter_group("F4")
    table = KLTable(group)
    assert table.expand_in_C(HeckeElement(group)) == {} and len(table._p) == 1
    h = braid_image_a(BraidWord(group, (1, -2, 3, 4, -3)))
    exp = table.expand_in_C(h)
    assert len(table._p) <= max(h.rows) + 1 < len(group.table.length)
    assert exp == oracles.expand_in_C_by_elimination(table, h) and len(exp) > 1


@pytest.mark.parametrize(
    "family,rank,sample", [("A", 4, None), ("B", 3, None), ("H3", 3, None), ("D", 4, 40)]
)
def test_inverse_steps_match_payload_elimination(family, rank, sample):
    """T_x^-1 by l(x) inverse W-graph steps from C_e (_pair_rows(x, e))
    has the coordinates that payload elimination gives, for every x, or a
    seeded sample of x on D4."""
    group = coxeter_group(family, rank)
    table = kl_table(group)
    xs = group.elements()
    if sample:
        xs = random.Random(28).sample(xs, sample)
    for x in xs:
        t_inverse = oracles.braid_image_a_payload(positive_lift(x).inverse())
        want = oracles.expand_in_C_payload(t_inverse)
        assert oracles.expand_pair_in_C(table, x, group.identity) == want


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("H3", 3)])
def test_random_braids_match_payload_oracles(family, rank):
    group = coxeter_group(family, rank)
    table = kl_table(group)
    for b in random_braids(group, 200, 12, seed=41):
        assert_matches_oracles(table, b)


def random_element(group, rng, terms=4):
    elements = group.elements()
    return HeckeElement(
        group,
        {rng.choice(elements): L.of({rng.randrange(-3, 4): rng.randrange(-3, 4) for _ in range(2)})
         for _ in range(terms)},
    )


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 3, None), ("I2", 2, 5)])
def test_mul_and_bar_match_payload_oracles(family, rank, m):
    group = coxeter_group(family, rank, m)
    rng = random.Random(17)
    for _ in range(25):
        a, b = random_element(group, rng), random_element(group, rng)
        assert dict(hecke_mul(a, b).coeffs) == oracles.hecke_mul_payload(
            dict(a.coeffs), dict(b.coeffs)
        )
        assert dict(oracles.bar_involution(a).coeffs) == oracles.bar_involution_payload(
            dict(a.coeffs), group
        )


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("H3", 3)])
def test_int_rows_match_payload_oracles(family, rank):
    """Elements hold int rows and hand out LaurentPolynomial values:
    braid_image_a, hecke_mul, +, -, scale, c_prime and c_basis, read
    through coeffs and coeff, equal the payload oracles on seeded words and
    elements."""
    group = coxeter_group(family, rank)
    table = kl_table(group)
    rng = random.Random(3131)
    braids = random_braids(group, 12, 8, seed=3131)
    for a, b in zip(braids, braids[1:]):
        ha, hb = braid_image_a(a), braid_image_a(b)
        pa, pb = oracles.braid_image_a_payload(a), oracles.braid_image_a_payload(b)
        factor = L.of({rng.randrange(-3, 4): rng.choice((-2, 1, 3))})
        assert dict(ha.coeffs) == pa
        assert all(ha.coeff(w) == pa.get(w, L.zero()) for w in group.elements())
        assert dict(hecke_mul(ha, hb).coeffs) == oracles.hecke_mul_payload(pa, pb)
        assert dict((ha + hb).coeffs) == oracles.hecke_sum_payload(pa, pb)
        minus_b = oracles.hecke_scale_payload(pb, L.constant(-1))
        assert dict((ha - hb).coeffs) == oracles.hecke_sum_payload(pa, minus_b)
        assert dict(ha.scale(factor).coeffs) == oracles.hecke_scale_payload(pa, factor)
        assert (ha - ha).is_zero() and ha.scale(0).is_zero()
    for w in rng.sample(group.elements(), 10):
        assert dict(table.c_prime(w).coeffs) == oracles.c_prime_payload(w)
        assert dict(table.c_basis(w).coeffs) == oracles.c_basis_payload(w)


# ---------------------------------------------------------------------------
# the id KL table and its W-graph against the payload recursion and elimination


def order_at_most(bound):
    return [g for g in oracles.COVERED_GROUPS if CoxeterType(g[0], g[1], g[2]).order() <= bound]


@pytest.mark.parametrize("family,rank,m", order_at_most(192))
def test_kl_polynomials_match_payload_recursion(family, rank, m):
    group = coxeter_group(family, rank, m=m)
    table, oracle = KLTable(group), oracles.kl_payload(group)
    for w in group.elements():
        for y in group.elements():
            assert table.p(y, w) == oracle.p(y, w)
            assert table.mu(y, w) == oracle.mu(y, w)


@pytest.mark.parametrize("family,rank", [("B", 4), ("A", 5)])
def test_kl_polynomials_match_payload_recursion_on_a_sample(family, rank):
    """2000 seeded pairs; every other y is drawn from below w, so that most
    sampled P_{y,w} are nonzero."""
    group = coxeter_group(family, rank)
    table, oracle = KLTable(group), oracles.kl_payload(group)
    rng = random.Random(23)
    els = group.elements()
    position = {w: i for i, w in enumerate(els)}.__getitem__
    for i in range(2000):
        w = rng.choice(els)
        pool = els if i % 2 else sorted(oracles.bruhat_lower_interval_payload(w), key=position)
        y = rng.choice(pool)
        assert table.p(y, w) == oracle.p(y, w)
        assert table.mu(y, w) == oracle.mu(y, w)


def kl_inversion_failures(table, ws):
    """Check the Kazhdan-Lusztig inversion formula (Kazhdan-Lusztig 1979,
    Theorem 3.1) on the id rows of table, for each w in ws and every x <= w:
    sum_{x <= z <= w} (-1)^{l(z)-l(x)} P_{x,z} P_{w0 w, w0 z} = delta_{x,w}.
    One identity involves every P_{x,z} of the interval [x, w].  Returns the
    failing pairs (x, w) and the number of identities checked."""
    t = table.table
    length, bad, checked = t.length, [], 0
    for w in ws:
        interval = bit_ids(t.below(w))
        w0w = t.mul(t.w0, w)
        dual = {z: table._row(t.mul(t.w0, z))[w0w] for z in interval}  # P_{w0 w, w0 z}
        for x in interval:
            total = {}
            for z in interval:
                pxz = table._row(z).get(x)
                if pxz is None:  # x is not below z
                    continue
                sign = (-1) ** (length[z] - length[x])
                for i, a in enumerate(pxz):
                    for j, b in enumerate(dual[z]):
                        total[i + j] = total.get(i + j, 0) + sign * a * b
            total = {k: c for k, c in total.items() if c}
            if total != ({0: 1} if x == w else {}):
                bad.append((x, w))
            checked += 1
    return bad, checked


@pytest.mark.parametrize("family,rank", [("F4", 4), ("D", 5)])
def test_kl_inversion_formula_on_a_sample(family, rank):
    """Six seeded w of F4 and of D5, beyond the sizes the payload recursion
    is compared on; a fresh table, so the D5 one is freed afterwards."""
    table = KLTable(coxeter_group(family, rank))
    ws = random.Random(14).sample(range(len(table.table.length)), 6)
    bad, checked = kl_inversion_failures(table, ws)
    assert bad == []
    assert checked == sum(len(bit_ids(table.table.below(w))) for w in ws) > 1000


def test_kl_inversion_catches_one_changed_coefficient():
    table = KLTable(coxeter_group("B", 3))
    everything = range(len(table.table.length))
    assert kl_inversion_failures(table, everything)[0] == []
    w = table.table.w0
    y = random.Random(14).choice([y for y in table._row(w) if y != w])
    p = table._p[w][y]
    table._p[w][y] = p[:-1] + (p[-1] + 1,)
    assert (y, w) in kl_inversion_failures(table, [w])[0]


def pair_by_elimination(table, x, y):
    b = positive_lift(x).inverse() * positive_lift(y)
    return oracles.expand_in_C_by_elimination(table, braid_image_a(b))


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 1, None), ("A", 2, None), ("A", 3, None), ("B", 2, None), ("B", 3, None),
     ("I2", 2, 5), ("I2", 2, 8)],
)
def test_pair_steps_match_elimination(family, rank, m):
    """The W-graph steps give the elimination's coordinates of T_x^-1 T_y
    for every pair, whether y runs in id order (one step from the parent)
    or downwards from w0 (a chain of steps to the nearest kept prefix)."""
    group = coxeter_group(family, rank, m=m)
    up, down = KLTable(group), KLTable(group)
    els = group.elements()
    for i, x in enumerate(els):
        want = [pair_by_elimination(up, x, y) for y in els]
        assert [oracles.expand_pair_in_C(up, x, y) for y in els] == want
        assert [oracles.expand_pair_in_C(down, x, y) for y in reversed(els)] == want[::-1]
        assert up._pairs[0] == down._pairs[0] == i  # rows of the last x only


@pytest.mark.parametrize("family,rank", [("H3", 3), ("D", 4), ("B", 4)])
def test_pair_steps_match_elimination_on_a_sample(family, rank):
    group = coxeter_group(family, rank)
    table = kl_table(group)
    rng = random.Random(29)
    els = group.elements()
    for _ in range(500):
        x, y = rng.choice(els), rng.choice(els)
        assert oracles.expand_pair_in_C(table, x, y) == pair_by_elimination(table, x, y)


@pytest.mark.parametrize(
    "family,rank,m", [("A", 3, None), ("B", 3, None), ("H3", 3, None), ("D", 4, None), ("I2", 2, 5)]
)
def test_positivity_report_matches_elimination(family, rank, m):
    """For every simple dual braid b on every ordering, the W-graph steps
    of its fraction give the coordinates that eliminating the image of b
    gives, braid_is_nonneg reads their signs, and the thm-8.5 report holds
    one verdict per ordering from them."""
    group = coxeter_group(family, rank, m=m)
    table = kl_table(group)
    want = []
    for c, ordering in coxeter_element_orderings(group).items():
        dm = dual_monoid(c, ordering)
        verdicts = []
        for u in dm.divisors():
            b = dm.embed(u)
            expansion = oracles.expand_in_C_by_elimination(table, braid_image_a(b))
            assert oracles.expand_pair_in_C(table, *fraction_form(b)) == expansion
            verdicts.append(all(p.is_nonneg() for p in expansion.values()))
            assert table.braid_is_nonneg(b) is verdicts[-1]
        item = ",".join(map(str, ordering))
        want.append({"item": item, "ok": all(verdicts), "divisors": len(verdicts)})
    assert list(verify.run_check("thm-8.5", family, rank, m).items) == want


def test_positivity_report_falls_back_to_letter_steps(monkeypatch):
    """A braid whose normal form is not rational is folded letter by letter
    by W-graph steps, and its verdict reads every sign of the result."""
    group = coxeter_group("D", 4)
    c, ordering = next(iter(coxeter_element_orderings(group).items()))
    dm = dual_monoid(c, ordering)
    braids = [dm.embed(u) for u in dm.divisors()]
    table = kl_table(group)
    want = [table.braid_is_nonneg(b) for b in braids]
    report = verify.run_check("thm-8.5", "D", 4, coxeter=ordering).to_json()

    monkeypatch.setattr(hecke, "_rational_ids", lambda nf: False)
    monkeypatch.setattr(KLTable, "_pair_rows", None)
    assert [table.braid_is_nonneg(b) for b in braids] == want
    assert not table.braid_is_nonneg(BraidWord(group, (1, 1)))  # T_s^2 has -v^-1 C_s
    again = verify.run_check("thm-8.5", "D", 4, coxeter=ordering).to_json()
    assert {**again, "elapsed_seconds": 0} == {**report, "elapsed_seconds": 0}


def test_braid_is_nonneg_steps_through_non_rational_braids():
    """On braids that fraction_form rejects, the verdict of the letter
    steps is the one the payload oracles give, negative for s^2.  (No
    such braid of at most 5 letters on D4 has a nonnegative image; the
    fallback test above pins positive verdicts, on rational braids.)"""
    group = coxeter_group("D", 4)
    table = kl_table(group)
    verdicts = []
    for b in [BraidWord(group, (1, 1))] + random_braids(group, 80, 6, 28):
        try:
            fraction_form(b)
            continue
        except ValueError:
            pass
        image = oracles.braid_image_a_payload(b)
        want = all(p.is_nonneg() for p in oracles.expand_in_C_payload(image).values())
        verdicts.append(table.braid_is_nonneg(b))
        assert verdicts[-1] is want
    assert verdicts[0] is False and len(verdicts) > 10


def test_a_negative_pair_row_fails_the_ordering(monkeypatch):
    """thm-8.5 reads every sign of the pair rows: one negative coefficient
    in the rows of one simple dual braid's fraction fails its ordering."""
    group = coxeter_group("A", 3)
    c, ordering = next(iter(coxeter_element_orderings(group).items()))
    assert verify.run_check("thm-8.5", "A", 3, coxeter=ordering).passed
    dm = dual_monoid(c, ordering)
    x, y = fraction_form(dm.embed(dm.divisors()[-1]))
    t = group.table
    target = (x.id, y.id)
    pair_rows = KLTable._pair_rows

    def patched(self, x, y):
        rows = pair_rows(self, x, y)
        return {**rows, t.e: {0: -1}} if (x, y) == target else rows

    monkeypatch.setattr(KLTable, "_pair_rows", patched)
    assert not kl_table(group).pair_is_nonneg(x, y)
    report = verify.run_check("thm-8.5", "A", 3, coxeter=ordering)
    assert not report.passed
    assert report.items == ({"item": ",".join(map(str, ordering)), "ok": False, "divisors": 14},)


def test_kl_layer_takes_no_payload_products(monkeypatch):
    """After the walk, every C_w of B3 and the thm-8.2 sweep of A3 run on
    table ids alone: no generator action and no payload length."""
    b3, a3 = coxeter_group("B", 3), coxeter_group("A", 3)
    for group in (b3, a3):
        group.table
    calls = {"act": 0, "length": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    right_action = coxeter._right_action
    monkeypatch.setattr(
        coxeter, "_right_action", lambda *args: counted("act", right_action(*args))
    )
    monkeypatch.setattr(CoxeterElement, "length", counted("length", CoxeterElement.length))
    monkeypatch.setattr(verify, "kl_table", cache(KLTable))  # a fresh A3 table
    table = KLTable(b3)
    built = [table.c_basis(w) for w in b3.elements()]
    assert len(built) == 48 and all(not h.is_zero() for h in built)
    assert verify.run_check("thm-8.2", "A", 3).passed
    assert calls == {"act": 0, "length": 0}
