"""Independent oracles used by the tests.

Everything here is deliberately naive: recursive definitions, exhaustive
enumeration, and rewriting searches that know nothing about normal
forms.  The point is to cross check the library's clever code paths
against implementations too simple to share their bugs.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache, partial

from coxbraid.coxeter import (
    CoxeterElement,
    CoxeterGroup,
    GroupTable,
    IntegrityError,
    bit_ids,
    coxeter_group,
    reduced_words,
    standard_coxeter_elements,
    standard_ordering,
    type_b_embedding_words,
)
from coxbraid.dual import divisors_of
from coxbraid.garside import (
    BraidWord,
    GarsideNormalForm,
    _letters_of_nf_ids,
    _nf_ids,
    _nf_mul_ids,
    _right_fraction_ids,
    braid_equal,
    embed_braid_b_to_a,
    fraction_form,
    is_rational_permutation,
    is_square_free,
    positive_lift,
    signed_lift,
    word_key,
)
from coxbraid.hecke import HeckeElement, _fold
from coxbraid.laurent import LaurentPolynomial, addmul, combine, poly
from coxbraid.mikado import WiringDiagram, is_mikado_A, is_mikado_B
from coxbraid.tl import TLDiagram, TLElement, _diagram_table


# Every group the parametrized tests of the package cover, as
# (family, rank, m); differential tests of the group tables run on all.
COVERED_GROUPS = [
    ("A", 1, None), ("A", 2, None), ("A", 3, None), ("A", 4, None), ("A", 5, None),
    ("B", 2, None), ("B", 3, None), ("B", 4, None), ("D", 4, None),
    ("I2", 2, 5), ("I2", 2, 6), ("I2", 2, 7), ("I2", 2, 8), ("I2", 2, 9),
    ("H3", 3, None), ("F4", 4, None),
]


# ---------------------------------------------------------------------------
# lengths by search and by linear algebra


def payload_mul(group: CoxeterGroup, p: tuple, q: tuple) -> tuple:
    """The payload of p q, for any two payloads of group, composed right to
    left as in the coxbraid.coxeter module docstring: (p q)(j) = p(q(j))
    on (signed) permutations, and rho^a s^f rho^b s^g = rho^(a +- b)
    s^(f + g) on the dihedral pairs (a, f), (b, g)."""
    if group.type.family == "I2":
        (a, f), (b, g) = p, q
        return ((a + b if f == 0 else a - b) % group.type.m, f ^ g)
    return tuple(p[x - 1] if x > 0 else -p[-x - 1] for x in q)


def payload_of_word(group: CoxeterGroup, word) -> tuple:
    """The payload of the product of the generators of word, folded by
    payload products."""
    p = group.identity.payload
    for i in word:
        p = payload_mul(group, p, group._gen_payloads[i - 1])
    return p


@lru_cache(maxsize=None)
def reflections_by_conjugation(group: CoxeterGroup) -> frozenset[tuple]:
    """The payloads of the reflections: the closure of the generators
    under conjugation by them, by payload products."""
    gens = group._gen_payloads
    mul = partial(payload_mul, group)
    found = frontier = frozenset(gens)
    while frontier:
        frontier = {mul(mul(g, t), g) for t in frontier for g in gens} - found
        found |= frontier
    return found


@lru_cache(maxsize=None)
def _cayley_distances(group: CoxeterGroup, by_reflections: bool) -> dict:
    """Distance from the identity in the Cayley graph of the generators
    or of all reflections, by breadth first search over payloads."""
    if by_reflections:
        steps = sorted(reflections_by_conjugation(group))
    else:
        steps = list(group._gen_payloads)
    dist = {group.identity.payload: 0}
    frontier = [group.identity.payload]
    while frontier:
        nxt = []
        for p in frontier:
            for step in steps:
                q = payload_mul(group, p, step)
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def length_by_search(w: CoxeterElement) -> int:
    """Word length via breadth first search over the Cayley graph."""
    return _cayley_distances(w.group, False)[w.payload]


def reflection_length_by_search(w: CoxeterElement) -> int:
    """Reflection length via breadth first search over the reflection Cayley graph."""
    return _cayley_distances(w.group, True)[w.payload]


@lru_cache(maxsize=None)
def descents_by_search(w: CoxeterElement, left: bool = True) -> frozenset[int]:
    """The letters s with l(s w) < l(w), or l(w s) < l(w) when not left,
    by payload products and searched lengths."""
    g, p = w.group, w.payload
    dist = _cayley_distances(g, False)
    return frozenset(
        i for i, s in enumerate(g._gen_payloads, 1)
        if dist[payload_mul(g, s, p) if left else payload_mul(g, p, s)] < dist[p]
    )


@lru_cache(maxsize=None)
def shortlex_word_by_search(w: CoxeterElement) -> tuple[int, ...]:
    """The shortlex reduced word: strip the least left descent until the
    identity is left, by payload products and searched lengths."""
    g, p = w.group, w.payload
    word = []
    while p != g.identity.payload:
        i = min(descents_by_search(g.element(p)))
        word.append(i)
        p = payload_mul(g, g._gen_payloads[i - 1], p)
    return tuple(word)


@lru_cache(maxsize=None)
def inverse_by_search(w: CoxeterElement) -> CoxeterElement:
    """The inverse, as the product of the reversed shortlex word."""
    group = w.group
    return group.element(payload_of_word(group, reversed(shortlex_word_by_search(w))))


# lengths by search and left descents by payload products: the lengths
# and descents of the oracles below never read the group's walk or table
_length = length_by_search
_left_descents = descents_by_search


# ---------------------------------------------------------------------------
# closed forms of lengths and reflections for A_n, B_n, D_n and I2(m)


CLOSED_FORM_FAMILIES = ("A", "B", "D", "I2")


def closed_form_length(w: CoxeterElement) -> int:
    """Coxeter length by the classical formulas.  A_n counts inversions;
    B_n adds the pairs with negative sum and the negative entries, D_n
    only the pairs with negative sum.  In I2(m) the rotation rho^k has
    length 2 min(k, m - k) and rho^k s has min(2k + 1, 2(m - k) - 1)."""
    fam, u = w.group.type.family, w.payload
    if fam == "I2":
        m = w.group.type.m
        k, f = u
        return min(2 * k + 1, 2 * (m - k) - 1) if f else 2 * min(k, m - k)
    if fam not in CLOSED_FORM_FAMILIES:
        raise ValueError(f"family {fam} has no closed form length")
    pairs = list(itertools.combinations(u, 2))
    length = sum(a > b for a, b in pairs)
    if fam != "A":
        length += sum(a + b < 0 for a, b in pairs)
    if fam == "B":
        length += sum(x < 0 for x in u)
    return length


def closed_form_reflections(group: CoxeterGroup) -> frozenset[CoxeterElement]:
    """The reflections: transpositions (i j) in A_n; in B_n and D_n also
    the (i -j), and in B_n the sign changes; the m elements rho^k s in I2(m)."""
    fam = group.type.family
    if fam == "I2":
        return frozenset(group.element((k, 1)) for k in range(group.type.m))
    if fam not in CLOSED_FORM_FAMILIES:
        raise ValueError(f"family {fam} has no closed form reflections")
    ident = group.identity.payload
    out = set()
    for i, j in itertools.combinations(range(len(ident)), 2):
        for sign in (1,) if fam == "A" else (1, -1):
            p = list(ident)
            p[i], p[j] = sign * (j + 1), sign * (i + 1)
            out.add(group.element(tuple(p)))
    if fam == "B":
        for i in range(len(ident)):
            p = list(ident)
            p[i] = -(i + 1)
            out.add(group.element(tuple(p)))
    return frozenset(out)


def _rank_over_field(rows: list[list], ops: dict) -> int:
    """Row rank by Gaussian elimination over an exact field, dividing by
    each pivot."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if not ops["iszero"](rows[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv_p = ops["inv"](rows[rank][col])
        for r in range(rank + 1, nrows):
            if ops["iszero"](rows[r][col]):
                continue
            f = ops["mul"](rows[r][col], inv_p)
            rows[r] = [
                ops["add"](rows[r][c], ops["neg"](ops["mul"](f, rows[rank][c])))
                for c in range(ncols)
            ]
        rank += 1
    return rank


_Q_OPS = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "neg": lambda a: -a,
    "inv": lambda a: 1 / a,
    "iszero": lambda a: a == 0,
}


def _qphi_inv(a: tuple) -> tuple:
    # 1/(a0 + a1 phi) = (a0 + a1 - a1 phi) / N with N = a0^2 + a0 a1 - a1^2
    norm = a[0] * a[0] + a[0] * a[1] - a[1] * a[1]
    return ((a[0] + a[1]) / norm, -a[1] / norm)


_QPHI_OPS = {
    "add": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "mul": lambda a, b: (a[0] * b[0] + a[1] * b[1], a[0] * b[1] + a[1] * b[0] + a[1] * b[1]),
    "neg": lambda a: (-a[0], -a[1]),
    "inv": _qphi_inv,
    "iszero": lambda a: a[0] == 0 and a[1] == 0,
}


# ---------------------------------------------------------------------------
# the matrix models of H3 and F4
#
# The library computes in H3 and F4 on permutations of their roots.  These
# are their reflection representations as matrices, built from the Coxeter
# and Cartan matrices by hand: H3 as 3x3 matrices over Z[phi], entries
# (a, b) meaning a + b*phi, and F4 as 4x4 integer matrices in the root
# basis.  An element reaches them through a word, never through its payload.


_H3_COXETER_MATRIX = ((1, 5, 2), (5, 1, 3), (2, 3, 1))
_PHI_COS = {2: (0, 0), 3: (1, 0), 5: (0, 1)}  # 2cos(pi/m) inside Z[phi]
_F4_CARTAN = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))


def _pmat_mul(x: tuple, y: tuple) -> tuple:
    n = len(x)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            s0 = s1 = 0
            for k in range(n):
                a = x[r][k]
                b = y[k][c]
                s0 += a[0] * b[0] + a[1] * b[1]
                s1 += a[0] * b[1] + a[1] * b[0] + a[1] * b[1]
            row.append((s0, s1))
        out.append(tuple(row))
    return tuple(out)


def _imat_mul(x: tuple, y: tuple) -> tuple:
    cols = tuple(zip(*y))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in x)


def _h3_generators() -> tuple:
    gens = []
    for i in range(3):
        rows = []
        for r in range(3):
            row = []
            for c in range(3):
                if r == c:
                    row.append((-1, 0) if r == i else (1, 0))
                elif r == i:
                    row.append(_PHI_COS[_H3_COXETER_MATRIX[i][c]])
                else:
                    row.append((0, 0))
            rows.append(tuple(row))
        gens.append(tuple(rows))
    return tuple(gens)


def _f4_generators() -> tuple:
    gens = []
    for j in range(4):
        rows = []
        for r in range(4):
            row = []
            for c in range(4):
                e = 1 if r == c else 0
                if r == j:
                    e -= _F4_CARTAN[c][j]
                row.append(e)
            rows.append(tuple(row))
        gens.append(tuple(rows))
    return tuple(gens)


# family: (identity, generators, product)
MATRIX_MODELS = {
    "H3": (
        tuple(tuple((1, 0) if r == c else (0, 0) for c in range(3)) for r in range(3)),
        _h3_generators(),
        _pmat_mul,
    ),
    "F4": (
        tuple(tuple(1 if r == c else 0 for c in range(4)) for r in range(4)),
        _f4_generators(),
        _imat_mul,
    ),
}


def matrix_of_word(family: str, word) -> tuple:
    """The matrix of a word of 1-based letters in the model of H3 or F4."""
    p, gens, mul = MATRIX_MODELS[family]
    for i in word:
        p = mul(p, gens[i - 1])
    return p


def matrix_corank(family: str, p: tuple) -> int:
    """Codimension of the fixed space of a matrix of the H3 or F4 model."""
    if family == "H3":
        rows = [
            [(Fraction(p[r][c][0] - (1 if r == c else 0)), Fraction(p[r][c][1])) for c in range(3)]
            for r in range(3)
        ]
        return _rank_over_field(rows, _QPHI_OPS)
    rows = [[Fraction(p[r][c] - (1 if r == c else 0)) for c in range(4)] for r in range(4)]
    return _rank_over_field(rows, _Q_OPS)


def fixed_space_corank(w: CoxeterElement) -> int:
    """Codimension of the fixed space in the reflection representation.

    Exact linear algebra over Q or Q(phi), with Fractions.  Available for
    every family except the dihedral one, whose natural matrices are not
    rational.  H3 and F4 fold the shortlex word by search through their
    matrix models.
    """
    fam = w.group.type.family
    p = w.payload
    if fam == "A":
        n1 = len(p)
        rows = [
            [Fraction((1 if p[c] == r + 1 else 0) - (1 if r == c else 0)) for c in range(n1)]
            for r in range(n1)
        ]
        return _rank_over_field(rows, _Q_OPS)
    if fam in ("B", "D"):
        n = len(p)
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                e = 0
                if abs(p[c]) == r + 1:
                    e = 1 if p[c] > 0 else -1
                if r == c:
                    e -= 1
                row.append(Fraction(e))
            rows.append(row)
        return _rank_over_field(rows, _Q_OPS)
    if fam in MATRIX_MODELS:
        return matrix_corank(fam, matrix_of_word(fam, shortlex_word_by_search(w)))
    raise ValueError(f"family {fam} has no rational matrix model")


# ---------------------------------------------------------------------------
# absolute order on payloads
#
# Reflection lengths and inverses come from the searches above, so these
# oracles never read the reflection lengths of the table they check.


def abs_divides_by_search(x: CoxeterElement, y: CoxeterElement) -> bool:
    """The definition of absolute order, with reflection lengths by search."""
    return (
        reflection_length_by_search(x) + reflection_length_by_search(inverse_by_search(x) * y)
        == reflection_length_by_search(y)
    )


def divisors_of_payload(c: CoxeterElement) -> tuple[CoxeterElement, ...]:
    """Divisors of c by breadth first search on payloads, sorted by level."""
    if c not in standard_coxeter_elements(c.group):
        raise ValueError("expected a standard Coxeter element")
    group = c.group
    T = group.reflections
    level: set[CoxeterElement] = {group.identity}
    out = [group.identity]
    for k in range(reflection_length_by_search(c)):
        nxt: set[CoxeterElement] = set()
        for x in level:
            for t in T:
                y = x * t
                if reflection_length_by_search(y) == k + 1 and abs_divides_by_search(y, c):
                    nxt.add(y)
        level = nxt
        out.extend(sorted(nxt, key=lambda w: (_length(w), w.payload)))
    return tuple(out)


def t_reduced_factorization_payload(x: CoxeterElement) -> tuple[CoxeterElement, ...]:
    """Greedy minimal reflection factorisation of x on payloads: the first
    reflection of T that divides the remainder, at each step."""
    group = x.group
    out = []
    cur = x
    while not cur.is_identity():
        for t in group.reflections:
            if abs_divides_by_search(t, cur):
                out.append(t)
                cur = t * cur
                break
        else:
            raise IntegrityError("no reflection divides a nonidentity element")
    return tuple(out)


# ---------------------------------------------------------------------------
# normal forms by bubbling, signed lifts on payloads, words of normal
# forms, the Delta twist and strand paths


def normalize_bubble(table: GroupTable, factors: list[int]) -> tuple[int, list[int]]:
    """Bubble adjacent renormalisations to the unique locally greedy form.

    Returns (shift, factors) where shift counts stripped leading copies of
    w0; trailing identities are dropped.  Each renormalisation moves
    length strictly leftward, so the passes terminate.
    """
    if factors:
        changed = True
        while changed:
            changed = False
            for i in range(len(factors) - 1):
                x, y = factors[i], factors[i + 1]
                nx, ny = table.renorm(x, y)
                if nx != x:
                    factors[i], factors[i + 1] = nx, ny
                    changed = True
    shift = 0
    while factors and factors[0] == table.w0:
        factors.pop(0)
        shift += 1
    while factors and factors[-1] == table.e:
        factors.pop()
    return shift, factors


def nf_ids_bubble(table: GroupTable, letters) -> tuple[int, tuple[int, ...]]:
    """The normal form of a word: all simples first, then one bubble."""
    k = 0
    F: list[int] = []
    for letter in letters:
        s = abs(letter) - 1
        if letter > 0:
            F.append(table.gen_ids[s])
        else:
            k -= 1
            F = [table.tau[x] for x in F]
            F.append(table.rmul[s][table.w0])
    shift, F = normalize_bubble(table, F)
    return k + shift, tuple(F)


def nf_mul_ids_bubble(table: GroupTable, a, b) -> tuple[int, tuple[int, ...]]:
    """The normal form of a product of two normal forms, by one bubble."""
    (ka, Fa), (kb, Fb) = a, b
    if kb % 2:
        Fa = tuple(table.tau[x] for x in Fa)
    shift, F = normalize_bubble(table, list(Fa) + list(Fb))
    return ka + kb + shift, tuple(F)


def right_fraction_form(b: BraidWord) -> tuple[CoxeterElement, CoxeterElement]:
    """Right fraction: a pair (x, y) with b = b(x) b(y)^-1, read off the
    normal form as signed_lift reads its denominator y."""
    x, y = _right_fraction_ids(b.group.table, b.nf)
    return CoxeterElement(b.group, x), CoxeterElement(b.group, y)


def signed_lift_payload(b: BraidWord, word=None) -> BraidWord:
    """The sign rule of signed_lift walked on payloads: letter s_i is
    positive when s_i ... s_k y is one longer than s_{i+1} ... s_k y."""
    group = b.group
    w = group.from_word(abs(l) for l in b.letters)
    word = shortlex_word_by_search(w) if word is None else tuple(word)
    if group.from_word(word) != w or len(word) != _length(w):
        raise ValueError("not a reduced word of the braid's image")
    _, y = right_fraction_form(b)
    letters: list[int] = []
    cur = y
    for i in reversed(word):
        nxt = group.generator(i) * cur
        sign = 1 if _length(nxt) == _length(cur) + 1 else -1
        letters.append(i * sign)
        cur = nxt
    letters.reverse()
    return BraidWord(group, tuple(letters))


def braid_from_normal_form(nf: GarsideNormalForm) -> BraidWord:
    """The word Delta^inf f_1 ... f_l, from shortlex words found by search."""
    group = nf.group
    delta = shortlex_word_by_search(longest_element(group))
    if nf.inf < 0:
        delta = tuple(-l for l in reversed(delta))
    letters = delta * abs(nf.inf)
    for f in nf.factors:
        letters += shortlex_word_by_search(f)
    return BraidWord(group, letters)


def delta_twist(b: BraidWord) -> BraidWord:
    """Conjugation by the Garside element, Delta^-1 b Delta: each letter s
    goes to tau(s) = w0 s w0 with its sign, tau taken on payloads."""
    group = b.group
    w0 = longest_element(group)
    gens = [group.generator(i) for i in range(1, group.rank + 1)]
    tau = [gens.index(w0 * s * w0) + 1 for s in gens]
    return BraidWord(group, tuple((1 if l > 0 else -1) * tau[abs(l) - 1] for l in b.letters))


def strand_paths(d: WiringDiagram) -> dict[int, tuple[int, ...]]:
    """Slot occupied by each strand of d after 0, 1, 2, ... crossings."""
    occ = list(range(1, d.strand_count + 1))
    paths = {s: [s] for s in occ}
    for pos, _ in d.crossings:
        occ[pos - 1], occ[pos] = occ[pos], occ[pos - 1]
        for slot, strand in enumerate(occ):
            paths[strand].append(slot + 1)
    return {s: tuple(p) for s, p in paths.items()}


def end_positions(d: WiringDiagram) -> dict[int, int]:
    """The slot each strand of d ends in."""
    return {s: p[-1] for s, p in strand_paths(d).items()}


def good_strands(d: WiringDiagram) -> frozenset[int]:
    """Strands over in every crossing they take part in."""
    bad = {under for _, _, _, under in d.crossing_details()}
    return frozenset(range(1, d.strand_count + 1)) - bad


# ---------------------------------------------------------------------------
# Bruhat order by the one step recursion


@lru_cache(maxsize=None)
def deodhar_leq(u: CoxeterElement, v: CoxeterElement) -> bool:
    """u <= v decided by peeling one left descent of v at a time."""
    if _length(u) > _length(v):
        return False
    if u == v or u.is_identity():
        return True
    gen = v.group.generator(min(_left_descents(v)))
    su = gen * u
    return deodhar_leq(su if _length(su) < _length(u) else u, gen * v)


@lru_cache(maxsize=None)
def bruhat_lower_interval_payload(y: CoxeterElement) -> frozenset[CoxeterElement]:
    """All x <= y in Bruhat order, by the subword dynamic program over the
    shortlex reduced word of y: keep every product of a length increasing
    subword seen so far."""
    g = y.group
    reach = {g.identity}
    for i in shortlex_word_by_search(y):
        s = g.generator(i)
        reach |= {z * s for z in reach if _length(z * s) > _length(z)}
    return frozenset(reach)


def bruhat_leq_payload(x: CoxeterElement, y: CoxeterElement) -> bool:
    return x in bruhat_lower_interval_payload(y)


# ---------------------------------------------------------------------------
# left weak order


def weak_lower_set(x: CoxeterElement) -> frozenset[CoxeterElement]:
    """All u with l(u) + l(u^-1 x) = l(x), by sweeping the whole group."""
    group = x.group
    lx = _length(x)
    return frozenset(
        u for u in group.elements()
        if _length(u) + _length(inverse_by_search(u) * x) == lx
    )


def brute_weak_meet(x: CoxeterElement, y: CoxeterElement) -> CoxeterElement:
    common = weak_lower_set(x) & weak_lower_set(y)
    best = max(common, key=_length)
    ties = [u for u in common if _length(u) == _length(best)]
    assert len(ties) == 1, "weak order meet is not unique"
    return best


def weak_meet_left(u: CoxeterElement, v: CoxeterElement) -> CoxeterElement:
    """Greatest common prefix of u and v in weak order, by repeatedly
    extracting the least common left descent; (u, v) is left coprime
    exactly when the meet is the identity."""
    g = u.group
    meet = g.identity
    while True:
        common = u.left_descents() & v.left_descents()
        if not common:
            return meet
        s = g.generator(min(common))
        meet = meet * s
        u = s * u
        v = s * v


# ---------------------------------------------------------------------------
# word rewriting


@lru_cache(maxsize=None)
def coxeter_matrix(group: CoxeterGroup) -> tuple[tuple[int, ...], ...]:
    """The orders m(i, j) of the products of two generators."""
    gens = group.generators
    return tuple(
        tuple(1 if i == j else (gens[i] * gens[j]).order() for j in range(group.rank))
        for i in range(group.rank)
    )


@lru_cache(maxsize=None)
def _braid_patterns(group: CoxeterGroup) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All positive and negative braid relation replacements."""
    out = []
    matrix = coxeter_matrix(group)
    for i in range(1, group.rank + 1):
        for j in range(i + 1, group.rank + 1):
            m = matrix[i - 1][j - 1]
            if m < 2:
                continue
            a = tuple(i if k % 2 == 0 else j for k in range(m))
            b = tuple(j if k % 2 == 0 else i for k in range(m))
            out.append((a, b))
            out.append((b, a))
            na = tuple(-l for l in reversed(a))
            nb = tuple(-l for l in reversed(b))
            out.append((na, nb))
            out.append((nb, na))
    return tuple(out)


def _pattern_moves(word: tuple[int, ...], patterns) -> list[tuple[int, ...]]:
    out = []
    for a, b in patterns:
        k = len(a)
        for p in range(len(word) - k + 1):
            if word[p:p + k] == a:
                out.append(word[:p] + b + word[p + k:])
    return out


def _cancel_moves(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = []
    for p in range(len(word) - 1):
        if word[p] == -word[p + 1]:
            out.append(word[:p] + word[p + 2:])
    return out


def _insert_moves(word: tuple[int, ...], rank: int, max_len: int) -> list[tuple[int, ...]]:
    if len(word) + 2 > max_len:
        return []
    out = []
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    for p in range(len(word) + 1):
        for l in letters:
            out.append(word[:p] + (l, -l) + word[p:])
    return out


def rewriting_equal(
    group: CoxeterGroup,
    u: tuple[int, ...],
    v: tuple[int, ...],
    max_states: int = 60000,
    slack: int = 4,
) -> bool:
    """Meet in the middle search over defining relation rewrites.

    Returns True only when an explicit rewrite chain connects the words,
    so a positive answer is trustworthy; a negative answer means no
    chain was found within the state budget.
    """
    if u == v:
        return True
    patterns = _braid_patterns(group)
    max_len = max(len(u), len(v)) + slack

    def neighbours(word: tuple[int, ...]) -> list[tuple[int, ...]]:
        return (
            _pattern_moves(word, patterns)
            + _cancel_moves(word)
            + _insert_moves(word, group.rank, max_len)
        )

    sides = [{u}, {v}]
    frontiers = [deque([u]), deque([v])]
    while frontiers[0] or frontiers[1]:
        pick = 0 if (frontiers[0] and len(sides[0]) <= len(sides[1])) else 1
        if not frontiers[pick]:
            pick = 1 - pick
        frontier = frontiers[pick]
        for _ in range(len(frontier)):
            word = frontier.popleft()
            for nxt in neighbours(word):
                if nxt in sides[1 - pick]:
                    return True
                if nxt not in sides[pick]:
                    sides[pick].add(nxt)
                    frontier.append(nxt)
            if len(sides[0]) + len(sides[1]) > max_states:
                return False
    return False


def scrambled(
    word: tuple[int, ...], group: CoxeterGroup, rng, moves: int = 3
) -> tuple[int, ...]:
    """An equal braid word produced by a few random sound rewrites."""
    patterns = _braid_patterns(group)
    out = word
    for _ in range(moves):
        options = (
            _pattern_moves(out, patterns)
            + _cancel_moves(out)
            + _insert_moves(out, group.rank, len(word) + 2 * moves)
        )
        if not options:
            break
        out = options[rng.randrange(len(options))]
    return out


def positive_class(
    group: CoxeterGroup, word: tuple[int, ...], max_states: int = 200000
) -> frozenset[tuple[int, ...]]:
    """All positive words equal to the given one in the braid monoid.

    Positive words represent the same monoid element exactly when braid
    moves connect them, so this closure decides positive equality.
    """
    if any(l <= 0 for l in word):
        raise ValueError("positive words only")
    patterns = tuple(
        (a, b) for a, b in _braid_patterns(group) if a[0] > 0
    )
    seen = {word}
    queue = deque([word])
    while queue:
        cur = queue.popleft()
        for nxt in _pattern_moves(cur, patterns):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
        if len(seen) > max_states:
            raise RuntimeError("positive class larger than the state budget")
    return frozenset(seen)


def greedy_first_factor_brute(
    group: CoxeterGroup, word: tuple[int, ...]
) -> CoxeterElement:
    """Largest element of W whose reduced word starts some equal word.

    This is the first factor of the left greedy factorization of a
    positive braid word, computed without any gcd machinery.
    """
    candidates: set[CoxeterElement] = set()
    for variant in positive_class(group, word):
        acc = group.identity
        for pos, letter in enumerate(variant, start=1):
            nxt = acc * group.generator(letter)
            if _length(nxt) != pos:
                break
            acc = nxt
            candidates.add(acc)
    if not candidates:
        return group.identity
    best = max(candidates, key=_length)
    ties = [u for u in candidates if _length(u) == _length(best)]
    assert len(ties) == 1, "maximal simple prefix is not unique"
    return best


# ---------------------------------------------------------------------------
# reduced words and commutation classes


def commutation_class(
    group: CoxeterGroup, word: tuple[int, ...]
) -> frozenset[tuple[int, ...]]:
    """All words reachable by swapping adjacent commuting letters."""
    matrix = coxeter_matrix(group)
    commuting = {
        (i, j)
        for i in range(1, group.rank + 1)
        for j in range(1, group.rank + 1)
        if i != j and matrix[i - 1][j - 1] == 2
    }
    seen = {word}
    queue = deque([word])
    while queue:
        cur = queue.popleft()
        for p in range(len(cur) - 1):
            if (cur[p], cur[p + 1]) in commuting:
                nxt = cur[:p] + (cur[p + 1], cur[p]) + cur[p + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return frozenset(seen)


def is_fully_commutative_oracle(w: CoxeterElement) -> bool:
    """Definition level test: one commutation class covers all words."""
    words = reduced_words(w)
    if not words:
        return True
    return commutation_class(w.group, words[0]) == frozenset(words)


# ---------------------------------------------------------------------------
# noncrossing partitions and reflection factorizations


def set_partitions(labels: tuple[int, ...]):
    """All set partitions, as tuples of tuples in label order."""
    if not labels:
        yield ()
        return
    head, rest = labels[0], labels[1:]
    for part in set_partitions(rest):
        yield ((head,),) + part
        for k, block in enumerate(part):
            yield part[:k] + ((head,) + block,) + part[k + 1:]


def is_noncrossing_on_circle(
    blocks: tuple[tuple[int, ...], ...], circle: tuple[int, ...]
) -> bool:
    pos = {label: i for i, label in enumerate(circle)}
    for a, b in itertools.combinations(blocks, 2):
        pa = sorted(pos[x] for x in a)
        pb = sorted(pos[x] for x in b)
        for x, y in itertools.combinations(pa, 2):
            inside = sum(1 for z in pb if x < z < y)
            if inside not in (0, len(pb)):
                return False
    return True


def reduced_factorizations_brute(
    c: CoxeterElement,
) -> frozenset[tuple[CoxeterElement, ...]]:
    """All shortest reflection factorizations, by pruned recursion."""
    group = c.group
    total = reflection_length_by_search(c)
    out = []

    def extend(prefix: tuple[CoxeterElement, ...], x: CoxeterElement) -> None:
        depth = len(prefix)
        if depth == total:
            if x == c:
                out.append(prefix)
            return
        for t in group.reflections:
            y = x * t
            if reflection_length_by_search(y) == depth + 1:
                rest = inverse_by_search(y) * c
                if depth + 1 + reflection_length_by_search(rest) == total:
                    extend(prefix + (t,), y)

    extend((), group.identity)
    return frozenset(out)


# ---------------------------------------------------------------------------
# the b_w basis from the group side: a 321 test and reduced word folds


def avoids_321(payload: tuple[int, ...]) -> bool:
    """Whether the permutation payload has no decreasing subsequence of three."""
    best_drop = 0
    max_before = 0
    for value in payload:
        if max_before > value:
            if best_drop > value:
                return False
            best_drop = max(best_drop, value)
        max_before = max(max_before, value)
    return True


def fully_commutative_by_321(n: int) -> tuple[CoxeterElement, ...]:
    """The 321 avoiding elements of W(A_n), in id order."""
    return tuple(w for w in coxeter_group("A", n).elements() if avoids_321(w.payload))


@lru_cache(maxsize=None)
def b_w_table(n: int) -> dict[CoxeterElement, int]:
    """The diagram id of b_w for every 321 avoiding w of W(A_n), in id
    order, folded along two of its reduced words, with three checks: each
    fold is a single diagram with no loop, the two folds agree, and
    distinct elements give distinct diagrams."""
    table = _diagram_table(n + 1)
    out: dict[CoxeterElement, int] = {}
    for w in fully_commutative_by_321(n):
        diagrams = set()
        for word in reduced_words(w)[:2]:
            d, loops = table.fold(table.identity, word)
            if loops:
                raise IntegrityError("b_w is not a single bare diagram")
            diagrams.add(d)
        if len(diagrams) != 1:
            raise IntegrityError("b_w depends on the chosen reduced word")
        out[w] = diagrams.pop()
    if len(set(out.values())) != len(out):
        raise IntegrityError("distinct elements share a diagram")
    return out


def fc_of_diagram(n: int) -> tuple[CoxeterElement, ...]:
    """The 321 avoiding element of each diagram id, inverting b_w_table."""
    by_id = {d: w for w, d in b_w_table(n).items()}
    if len(by_id) != len(_diagram_table(n + 1).diagrams):
        raise IntegrityError("diagram outside the b_w basis")
    return tuple(by_id[d] for d in range(len(by_id)))


# ---------------------------------------------------------------------------
# Temperley-Lieb products by stacking diagrams


def cup_cap_diagram(m: int, i: int) -> TLDiagram:
    """The generator diagram at 1 <= i <= m-1: a top cup and bottom cap."""
    if not 1 <= i < m:
        raise ValueError("generator index out of range")
    pairing = list(2 * m - 1 - j for j in range(2 * m))
    a, b = i - 1, i
    pairing[a], pairing[b] = b, a
    c, d = 2 * m - 1 - a, 2 * m - 1 - b
    pairing[c], pairing[d] = d, c
    return TLDiagram(2 * m, tuple(pairing))


def j_tl(x: TLElement) -> TLElement:
    """The semilinear involution fixing every diagram: bar on each coefficient."""
    return TLElement(x.points, {d: c.bar() for d, c in x.coeffs.items()})


def compose_diagrams(d1: TLDiagram, d2: TLDiagram) -> tuple[TLDiagram, int]:
    """Stack d1 over d2 by walking strands; the diagram and the loop count."""
    if d1.points != d2.points:
        raise ValueError("diagrams of different sizes")
    m = d1.points // 2
    layers = (d1.pairing, d2.pairing)

    def glued(node: tuple[int, int]) -> tuple[int, int] | None:
        layer, idx = node
        if layer == 0 and idx >= m:
            return (1, 2 * m - 1 - idx)
        if layer == 1 and idx < m:
            return (0, 2 * m - 1 - idx)
        return None

    ext_index = {}
    for i in range(m):
        ext_index[(0, i)] = i
    for c in range(m, 2 * m):
        ext_index[(1, c)] = c

    seen: set[tuple[int, int]] = set()
    result = [-1] * (2 * m)
    for start in ext_index:
        if start in seen:
            continue
        seen.add(start)
        cur = (start[0], layers[start[0]][start[1]])
        while cur not in ext_index:
            seen.add(cur)
            mid = glued(cur)
            seen.add(mid)
            cur = (mid[0], layers[mid[0]][mid[1]])
        seen.add(cur)
        a, b = ext_index[start], ext_index[cur]
        result[a], result[b] = b, a
    loops = 0
    for layer in (0, 1):
        for idx in range(2 * m):
            node = (layer, idx)
            if node in seen or glued(node) is None:
                continue
            loops += 1
            while node not in seen:
                seen.add(node)
                partner = (node[0], layers[node[0]][node[1]])
                seen.add(partner)
                node = glued(partner)
    return TLDiagram(2 * m, tuple(result)), loops


def tl_mul_by_stacking(a: TLElement, b: TLElement) -> TLElement:
    """The product of two TL elements, one diagram stacking per pair of terms."""
    if a.points != b.points:
        raise ValueError("elements of different algebras")
    delta = LaurentPolynomial.of({1: 1, -1: 1})
    acc: dict[TLDiagram, LaurentPolynomial] = {}
    for d1, c1 in a.coeffs.items():
        for d2, c2 in b.coeffs.items():
            d, loops = compose_diagrams(d1, d2)
            c = c1 * c2
            for _ in range(loops):
                c = c * delta
            acc[d] = acc.get(d, LaurentPolynomial.zero()) + c
    return TLElement(a.points, acc)


def _fold_by_stacking(m: int, images) -> TLElement:
    el = TLElement.unit(m)
    for image in images:
        el = tl_mul_by_stacking(el, image)
    return el


def _affine(m: int, i: int, scalar: LaurentPolynomial, coeff: LaurentPolynomial) -> TLElement:
    """scalar + coeff * b_{s_i}, built from fresh diagrams."""
    return TLElement.unit(m).scale(scalar) + TLElement(2 * m, {cup_cap_diagram(m, i): coeff})


def omega_by_stacking(b: BraidWord) -> TLElement:
    """omega with each generator v^-1 - b_s (its inverse v - b_s) stacked in turn."""
    m = b.group.rank + 1
    minus_one = LaurentPolynomial.constant(-1)
    return _fold_by_stacking(
        m,
        (_affine(m, abs(l), v_power(-1 if l > 0 else 1), minus_one)
         for l in b.letters),
    )


def theta_by_stacking(h: HeckeElement, prime: bool = False) -> TLElement:
    """theta (T_s -> v^-1 b_s - 1) or theta_prime (T_s -> v^-2 - v^-1 b_s),
    term by term along reduced words."""
    m = h.group.rank + 1
    if prime:
        scalar, coeff = v_power(-2), v_power(-1, -1)
    else:
        scalar, coeff = LaurentPolynomial.constant(-1), v_power(-1)
    out = TLElement(2 * m)
    for w, c in h.coeffs.items():
        word = shortlex_word_by_search(w)
        image = _fold_by_stacking(m, (_affine(m, i, scalar, coeff) for i in word))
        out = out + image.scale(c)
    return out


def greedy_pairing_rescan(
    entries: tuple[tuple[LaurentPolynomial, ...], ...]
) -> tuple[tuple[int, int], ...] | None:
    """Peel the smallest row whose support has shrunk to one live column,
    rebuilding the live support of every live row after each peel."""
    n = len(entries)
    live_rows = set(range(n))
    dead_cols: set[int] = set()
    order = []
    while live_rows:
        found = None
        for r in sorted(live_rows):
            support = [j for j, p in enumerate(entries[r]) if p and j not in dead_cols]
            if len(support) == 1:
                found = (r, support[0])
                break
        if found is None:
            return None
        order.append(found)
        live_rows.discard(found[0])
        dead_cols.add(found[1])
    return tuple(order)


# ---------------------------------------------------------------------------
# monomials and degrees of Laurent polynomials


def v_power(k: int, coeff: int = 1) -> LaurentPolynomial:
    """The monomial coeff * v^k."""
    return LaurentPolynomial.of({k: coeff})


def min_exp(p: LaurentPolynomial) -> int:
    """The least exponent of a nonzero p."""
    if not p.terms:
        raise ValueError("the zero polynomial has no degree")
    return p.terms[0][0]


def max_exp(p: LaurentPolynomial) -> int:
    """The greatest exponent of a nonzero p."""
    if not p.terms:
        raise ValueError("the zero polynomial has no degree")
    return p.terms[-1][0]


# ---------------------------------------------------------------------------
# the Hecke algebra on CoxeterElement payloads
#
# Coefficients are dicts CoxeterElement -> LaurentPolynomial without zero
# values; products, lengths and the elimination order come from payload
# arithmetic, with no use of the integer tables.

_L_ZERO = LaurentPolynomial.zero()
_L_ONE = LaurentPolynomial.one()
_V2 = v_power(2)
_V2_MINUS_1 = LaurentPolynomial.of({2: 1, 0: -1})
_VM2 = v_power(-2)
_VM2_MINUS_1 = LaurentPolynomial.of({-2: 1, 0: -1})


def substituted_power(p: LaurentPolynomial, k: int) -> LaurentPolynomial:
    """Substitute v -> v^k in p (for k = 0 this evaluates at 1)."""
    acc: dict[int, int] = {}
    for e, c in p.terms:
        acc[e * k] = acc.get(e * k, 0) + c
    return LaurentPolynomial.of(acc)


def _hecke_acc(out: dict, w: CoxeterElement, c: LaurentPolynomial) -> None:
    total = out.get(w, _L_ZERO) + c
    if total:
        out[w] = total
    else:
        out.pop(w, None)


def mul_gen_payload(coeffs: dict, i: int, inverse: bool = False) -> dict:
    """Right multiplication by T_s or its inverse, s the generator i."""
    out: dict = {}
    for w, c in coeffs.items():
        ws = w * w.group.generator(i)
        if _length(ws) > _length(w):
            if inverse:
                _hecke_acc(out, ws, c * _V2)
                _hecke_acc(out, w, c * _V2_MINUS_1)
            else:
                _hecke_acc(out, ws, c)
        else:
            if inverse:
                _hecke_acc(out, ws, c)
            else:
                _hecke_acc(out, w, c * _VM2_MINUS_1)
                _hecke_acc(out, ws, c * _VM2)
    return out


def braid_image_a_payload(b: BraidWord) -> dict:
    """The coefficients of a(b), one generator at a time from the unit."""
    cur = {b.group.identity: _L_ONE}
    for l in b.letters:
        cur = mul_gen_payload(cur, abs(l), inverse=l < 0)
    return cur


def hecke_mul_payload(a: dict, b: dict) -> dict:
    """a * b, folding a along a reduced word of each term of b."""
    total: dict = {}
    for w, c in b.items():
        cur = dict(a)
        for i in shortlex_word_by_search(w):
            cur = mul_gen_payload(cur, i)
        for x, p in cur.items():
            _hecke_acc(total, x, p * c)
    return total


def bar_involution_payload(coeffs: dict, group: CoxeterGroup) -> dict:
    """Sum of bar(c) bar(T_w), with bar(T_w) the inverse generators along a word of w."""
    total: dict = {}
    for w, c in coeffs.items():
        cur = {group.identity: _L_ONE}
        for i in shortlex_word_by_search(w):
            cur = mul_gen_payload(cur, i, inverse=True)
        for x, p in cur.items():
            _hecke_acc(total, x, p * c.bar())
    return total


class KLPayload:
    """P_{y,w} in q by the classical recursion with mu corrections, on
    element payloads, memoised per pair."""

    def __init__(self, group: CoxeterGroup) -> None:
        self.group = group
        self._p: dict[tuple, LaurentPolynomial] = {}

    def p(self, y: CoxeterElement, w: CoxeterElement) -> LaurentPolynomial:
        key = (y.payload, w.payload)
        got = self._p.get(key)
        if got is not None:
            return got
        if y == w:
            val = _L_ONE
        elif not bruhat_leq_payload(y, w):
            val = _L_ZERO
        else:
            s = min(_left_descents(w))
            gen = self.group.generator(s)
            sw = gen * w
            sy = gen * y
            if _length(sy) < _length(y):
                val = self.p(sy, sw) + self.p(y, sw).shifted(1)
                for z in bruhat_lower_interval_payload(sw):
                    if s in _left_descents(z) and bruhat_leq_payload(y, z):
                        m = self.mu(z, sw)
                        if m:
                            gap = _length(w) - _length(z)
                            if gap % 2:
                                raise IntegrityError("odd exponent in the mu correction")
                            val = val - self.p(y, z) * v_power(gap // 2, m)
            else:
                val = self.p(sy, w)
        if y != w and val and 2 * max_exp(val) > _length(w) - _length(y) - 1:
            raise IntegrityError("degree bound violated in the recursion")
        self._p[key] = val
        return val

    def mu(self, y: CoxeterElement, w: CoxeterElement) -> int:
        gap = _length(w) - _length(y) - 1
        if gap < 0 or gap % 2:
            return 0
        return self.p(y, w).coeff(gap // 2)


kl_payload = lru_cache(maxsize=None)(KLPayload)


def c_prime_payload(w: CoxeterElement) -> dict:
    """C'_w = v^l(w) sum_y P_{y,w}(v^-2) T_y, from the payload P_{y,w}."""
    table = kl_payload(w.group)
    return {
        y: substituted_power(table.p(y, w), -2).shifted(_length(w))
        for y in bruhat_lower_interval_payload(w)
    }


def c_basis_payload(w: CoxeterElement) -> dict:
    """C_w = (-1)^l(w) j_H(C'_w), from the payload P_{y,w}."""
    out = {}
    for y, cprime in c_prime_payload(w).items():
        c = cprime.bar().shifted(2 * _length(y)) * (-1) ** (_length(y) + _length(w))
        if c:
            out[y] = c
    return out


def hecke_sum_payload(a: dict, b: dict) -> dict:
    """a + b on coefficient dicts keyed by element."""
    total = dict(a)
    for w, c in b.items():
        _hecke_acc(total, w, c)
    return total


def hecke_scale_payload(a: dict, factor: LaurentPolynomial) -> dict:
    """a times a Laurent polynomial, on coefficient dicts keyed by element."""
    return {w: c * factor for w, c in a.items() if c * factor}


def expand_in_C_payload(coeffs: dict) -> dict:
    """Triangular elimination of the largest (length, payload) term."""
    out = {}
    work = dict(coeffs)
    while work:
        w = max(work, key=lambda u: (_length(u), u.payload))
        gamma = work[w].shifted(-_length(w))
        out[w] = gamma
        for y, c in c_basis_payload(w).items():
            _hecke_acc(work, y, -(c * gamma))
        if w in work:
            raise IntegrityError("triangular elimination failed to clear a term")
    return out


@lru_cache(maxsize=None)
def _c_rows(table, x: int) -> tuple:
    """C_x on the standard basis as (y, terms) pairs, read off KLTable.c_basis."""
    c = table.c_basis(table.group.elements()[x])
    return tuple((y, tuple(p.items())) for y, p in c.rows.items())


def expand_in_C_by_elimination(table, h: HeckeElement) -> dict:
    """Coordinates of h on {C_w}, in increasing id order, by triangular
    elimination of the largest id, i.e. the largest (length, payload), with
    the C_w of the table's P_{y,w}: the reference for the W-graph steps of
    KLTable.expand_in_C."""
    length = table.table.length
    work = {x: dict(p) for x, p in table.group.member(h).rows.items()}
    out = {}
    while work:
        x = max(work)
        gamma = out[x] = {e - length[x]: c for e, c in work[x].items()}
        minus_gamma = [(e, -c) for e, c in gamma.items()]
        for y, terms in _c_rows(table, x):
            addmul(work, y, minus_gamma, terms)
        if x in work:
            raise IntegrityError("triangular elimination failed to clear a term")
    elements = table.group.elements()  # in id order
    return {elements[x]: poly(out[x]) for x in sorted(out)}


def expand_pair_in_C(table, x: CoxeterElement, y: CoxeterElement) -> dict:
    """Coordinates on {C_w}, in increasing id order, of T_x^-1 T_y, read off
    the W-graph steps of KLTable._pair_rows."""
    rows = table._pair_rows(x.id, y.id)
    elements = table.group.elements()  # in id order
    return {elements[i]: poly(rows[i]) for i in sorted(rows)}


# ---------------------------------------------------------------------------
# operations only the tests use, on the integer tables


def longest_element(group: CoxeterGroup) -> CoxeterElement:
    """The unique element of greatest length, the last one walked."""
    return group.elements()[-1]


def right_descents(w: CoxeterElement) -> frozenset[int]:
    """The letters s with l(w s) < l(w), read off the group's table
    (GroupTable.rdesc)."""
    table = w.group.table
    return frozenset(s + 1 for s in bit_ids(table.rdesc[w.id]))


def rdesc_by_elements(table: GroupTable) -> list[int]:
    """Right descent masks with one generator expression per element: the
    reference for GroupTable.rdesc, which builds them a generator column at
    a time."""
    length, rmul = table.length, table.rmul
    return [sum(1 << s for s, r in enumerate(rmul) if length[r[x]] < lx)
            for x, lx in enumerate(length)]


def t_reduced_factorization(x: CoxeterElement) -> tuple[CoxeterElement, ...]:
    """Greedy minimal reflection factorisation of x on table ids: the first
    reflection of T that divides the remainder, at each step."""
    table = x.group.table
    return tuple(CoxeterElement(x.group, t) for t in t_factor_ids(table, x.id))


# ---------------------------------------------------------------------------
# the dual monoid by divisibility tests and by folding rotation words
#
# The search, factorisation and fold that coxbraid.dual used before it
# built [1, c]_T as one lattice and its atoms by conjugation; kept as the
# reference for both.


def abs_divides_ids(table: GroupTable, x: int, y: int) -> bool:
    """Whether x divides y in absolute order: l_T(x) + l_T(x^-1 y) = l_T(y)."""
    r = table.rlens
    return r[x] + r[table.mul(table.inv[x], y)] == r[y]


def abs_divides(x: CoxeterElement, y: CoxeterElement) -> bool:
    """Left divisibility in absolute order on the table of y's group."""
    return abs_divides_ids(y.group.table, y.group.member(x).id, y.id)


def divisors_by_search(c: CoxeterElement) -> tuple[CoxeterElement, ...]:
    """DIV(c) by breadth first search on table ids, sorted by level: level
    k+1 holds the products x*t that gain reflection length and still
    divide c, each level sorted by id."""
    standard_ordering(c)
    table = c.group.table
    cid = c.id
    level = {table.e}
    out = [table.e]
    for k in range(table.rlens[cid]):
        nxt: set[int] = set()
        for x in level:
            for t in table.reflections:
                y = table.mul(x, t)
                if table.rlens[y] == k + 1 and abs_divides_ids(table, y, cid):
                    nxt.add(y)
        level = nxt
        out.extend(sorted(nxt))
    return tuple(CoxeterElement(c.group, x) for x in out)


def t_factor_ids(table: GroupTable, x: int) -> list[int]:
    """Greedy minimal reflection factorisation of the id x: the first
    reflection of T that divides the remainder, at each step."""
    out = []
    while x != table.e:
        for t in table.reflections:
            if abs_divides_ids(table, t, x):
                out.append(t)
                x = table.mul(t, x)
                break
        else:
            raise IntegrityError("no reflection divides a nonidentity element")
    return out


def atoms_by_rotation_words(
    c: CoxeterElement, ordering: tuple[int, ...]
) -> tuple[dict[int, tuple], dict[int, tuple[int, ...]]]:
    """Atom normal forms and letters by reflection id, each folded from its
    rotation word a_1 ... a_i a_{i+1} a_i^-1 ... a_1^-1, i < 2|T|; the first
    word that hits a reflection keeps its letters."""
    group = c.group
    ordering = standard_ordering(c, ordering)
    table = group.table
    n = group.rank
    nfs: dict[int, tuple] = {}
    words: dict[int, tuple[int, ...]] = {}
    hits: Counter = Counter()
    for i in range(2 * len(group.reflections)):
        seq = [ordering[j % n] for j in range(i + 1)]
        letters = tuple(seq) + tuple(-l for l in reversed(seq[:-1]))
        nf = _nf_ids(table, letters)
        tid = table.image_id(letters)
        hits[tid] += 1
        if nfs.setdefault(tid, nf) != nf:
            raise IntegrityError("rotation formula produced unequal braids for one reflection")
        words.setdefault(tid, letters)
    if len(words) != len(group.reflections) or set(hits.values()) != {2}:
        raise IntegrityError("rotation formula did not cover T twice over")
    return nfs, words


def embed_nf_ids_by_t_factors(table: GroupTable, atom_nfs: dict[int, tuple], x: int) -> tuple:
    """The simple dual braid of the divisor id x: the product of the atom
    normal forms along t_factor_ids(x), from the identity braid."""
    nf = (0, ())
    for t in t_factor_ids(table, x):
        nf = _nf_mul_ids(table, nf, atom_nfs[t])
    return nf


def hurwitz_orbit_braids_by_letters(
    start: tuple[BraidWord, ...],
) -> frozenset[tuple[BraidWord, ...]]:
    """The Hurwitz orbit of a tuple of braids by letter moves, breadth
    first: each distinct adjacent pair (a, b) of normal forms is rebuilt
    as words and a b a^-1 and b^-1 a b are folded from their letters.
    Entries are rebuilt in the canonical letters of their normal forms."""
    if not start:
        return frozenset({start})
    group = start[0].group

    def rebuild(nf: tuple) -> BraidWord:
        return BraidWord(group, _letters_of_nf_ids(group.table, nf))

    @lru_cache(maxsize=None)
    def move(na: tuple, nb: tuple) -> tuple:
        a, b = rebuild(na), rebuild(nb)
        return (a * b * a.inverse()).nf, (b.inverse() * a * b).nf

    first = tuple(b.nf for b in start)
    seen, queue = {first}, deque([first])
    while queue:
        tup = queue.popleft()
        for i in range(len(tup) - 1):
            a, b = tup[i], tup[i + 1]
            fwd_first, bwd_second = move(a, b)
            for cand in (tup[:i] + (fwd_first, a) + tup[i + 2:],
                         tup[:i] + (b, bwd_second) + tup[i + 2:]):
                if cand not in seen:
                    seen.add(cand)
                    queue.append(cand)
    return frozenset(tuple(rebuild(nf) for nf in tup) for tup in seen)


# ---------------------------------------------------------------------------
# the dual Garside normal form
#
# The dual braid monoid of a standard Coxeter element c is a Garside monoid
# with Garside element delta = b(c) and simples [1, c]_T (Bessis, The dual
# braid monoid, Ann. Sci. ENS 36, 2003), so its left-weighted normal form
# solves the word problem through a lattice of its own.  It reads only the
# table's products, inverses and words, and l_T from a search of its own
# over the conjugates of the generators: not rlens, the lattice of
# coxbraid.dual or its atoms.


def _dual_mul(table: GroupTable, x: int, y: int) -> int:
    for s in table.word(y):
        x = table.rmul[s - 1][x]
    return x


@lru_cache(maxsize=None)
def _t_lengths(group: CoxeterGroup) -> tuple[dict[int, int], tuple[int, ...]]:
    """l_T by id, by breadth-first search over right products by the
    reflections, the conjugates of the generators; and the generator ids."""
    table, e = group.table, group.identity.id
    gens = tuple(row[e] for row in table.rmul)
    refl, new = set(gens), set(gens)
    while new:
        new = {_dual_mul(table, _dual_mul(table, s, t), s) for t in new for s in gens} - refl
        refl |= new
    lengths, level, k = {e: 0}, {e}, 0
    while level:
        k += 1
        level = {_dual_mul(table, x, t) for x in level for t in refl} - lengths.keys()
        lengths.update(dict.fromkeys(level, k))
    return lengths, gens


class DualNormalForm:
    """Left-weighted normal forms delta^k s_1 ... s_r in the dual braid
    monoid of c, as (k, simple ids): s_1 is not c, s_r is not e, and no atom
    divides both s_i^-1 c and s_i+1.  The braid generator of s is the atom
    s, and its inverse is delta^-1 times the simple c s; moving delta^-1 to
    the left conjugates each simple x it passes to c x c^-1."""

    def __init__(self, c: CoxeterElement) -> None:
        table = self.table = c.group.table
        self.c, self.e = c.id, c.group.identity.id
        lt, self.gens = _t_lengths(c.group)
        mul, inv = partial(_dual_mul, table), table.inv

        def below(x: int, y: int) -> bool:  # x <= y in absolute order
            return lt[x] + lt[mul(inv[x], y)] == lt[y]

        self.simples = sorted((x for x in range(len(inv)) if below(x, c.id)), key=lt.__getitem__)
        self.down = {a: sum(1 << i for i, y in enumerate(self.simples) if below(y, a))
                     for a in self.simples}

    def meet(self, a: int, b: int) -> int:
        """The greatest common divisor of simples: simples run by l_T, so
        the last common one is the meet."""
        return self.simples[(self.down[a] & self.down[b]).bit_length() - 1]

    def of_letters(self, letters) -> tuple[int, tuple[int, ...]]:
        table, c, e, inv = self.table, self.c, self.e, self.table.inv
        mul = partial(_dual_mul, table)
        k, factors = 0, []
        for l in letters:
            x = self.gens[abs(l) - 1]
            if l < 0:
                k -= 1
                factors = [mul(mul(c, f), inv[c]) for f in factors]
                x = mul(c, x)
            factors.append(x)  # then restore left-weightedness from the right
            for i in range(len(factors) - 2, -1, -1):
                m = self.meet(mul(inv[factors[i]], c), factors[i + 1])
                if m == e:
                    break
                factors[i], factors[i + 1] = mul(factors[i], m), mul(inv[m], factors[i + 1])
            while factors and factors[-1] == e:
                factors.pop()
            while factors and factors[0] == c:
                k += 1
                factors.pop(0)
        return k, tuple(factors)

    def of_simple(self, x: CoxeterElement) -> tuple[int, tuple[int, ...]]:
        """The normal form of the simple dual braid of a divisor x of c."""
        return (1, ()) if x.id == self.c else (0, () if x.id == self.e else (x.id,))


def type_b_embedding(n: int) -> dict[int, CoxeterElement]:
    """Images in W(A_{2n-1}) of the generators of W(B_n)."""
    target = coxeter_group("A", 2 * n - 1)
    return {k: target.from_word(word) for k, word in type_b_embedding_words(n).items()}


def type_b_element_embedding(w: CoxeterElement) -> CoxeterElement:
    """Image of a type B element inside W(A_{2n-1}), via any reduced word."""
    if w.group.type.family != "B":
        raise ValueError("expected a type B element")
    images = type_b_embedding(w.group.rank)
    target = coxeter_group("A", 2 * w.group.rank - 1)
    out = target.identity
    for i in w.reduced_word():
        out = out * images[i]
    return out


def type_b_absolute_order_embedding_check(c: CoxeterElement) -> bool:
    """Divisibility in a type B dual monoid matches the type A image.

    For all divisors x, y of c in W(B_n): x divides y in absolute order
    exactly when the folded images divide in W(A_{2n-1}).
    """
    if c.group.type.family != "B":
        raise ValueError("expected a type B element")
    div = divisors_of(c)
    images = {x: type_b_element_embedding(x) for x in div}
    return all(
        abs_divides(x, y) == abs_divides(images[x], images[y]) for x in div for y in div
    )


def t_basis(w: CoxeterElement) -> HeckeElement:
    """The standard basis element T_w."""
    return HeckeElement(w.group, {w: LaurentPolynomial.one()})


@lru_cache(maxsize=None)
def _bar_t(group: CoxeterGroup, x: int) -> dict:
    """bar(T_w) for the element with id x: the inverse generators along a reduced word."""
    table = group.table
    return _fold(table, {table.e: {0: 1}}, [-s for s in table.word(x)])


def bar_involution(h: HeckeElement) -> HeckeElement:
    """The ring involution with v -> v^-1 and T_w -> T_{w^-1}^-1, on table ids."""
    bars = ((_bar_t(h.group, x), [(-e, c) for e, c in p.items()]) for x, p in h.rows.items())
    return HeckeElement._wrap(h.group, combine(bars))


# ---------------------------------------------------------------------------
# pair sweeps over all |W|^2 pairs


def coprime_pair(table: GroupTable, x: int, y: int) -> tuple[int, int]:
    """The coprime pair of ids with the braid b(x)^-1 b(y), by stripping
    common left descents until none is left: the reference for the parent
    verdicts of verify._pairs.

    For s in D_L(x) & D_L(y), b(x) = s b(sx) and b(y) = s b(sy), so
    b(x)^-1 b(y) = b(sx)^-1 b(sy).  Left fractions with coprime terms are
    unique (Dehornoy et al., Foundations of Garside Theory, 2015), so this
    is the pair that fraction_form returns.
    """
    ldesc, lmul = table.ldesc, table.lmul
    common = ldesc[x] & ldesc[y]
    while common:
        row = lmul[(common & -common).bit_length() - 1]
        x, y = row[x], row[y]
        common = ldesc[x] & ldesc[y]
    return x, y


def pairs_all(group: CoxeterGroup, ok, rows=None):
    """The items of verify._pairs with ok called on every pair (x, y),
    one item per pair keyed "wx|wy", in x-major id order.  rows, a set of
    ids, keeps only the items of those x."""
    elements = group.elements()
    words = [word_key(w) for w in elements]
    return [
        {"item": f"{wx}|{wy}", "ok": ok(x, y)}
        for i, (x, wx) in enumerate(zip(elements, words))
        if rows is None or i in rows
        for y, wy in zip(elements, words)
    ]


# ---------------------------------------------------------------------------
# pair verdicts on letter words: the reference for verify's, which compose
# each pair braid's normal form from the ids


def pair_braid(x: CoxeterElement, y: CoxeterElement) -> BraidWord:
    """The letter word b(x)^-1 b(y)."""
    return positive_lift(x).inverse() * positive_lift(y)


def rational_fraction_by_letters(x: CoxeterElement, y: CoxeterElement) -> bool:
    """prop-4.4: b(x)^-1 b(y) and its inverse are rational and the braid
    round trips through both fraction forms, each rebuilt as letters."""
    b = pair_braid(x, y)
    ok = is_rational_permutation(b) and is_rational_permutation(b.inverse())
    if ok:
        fx, fy = fraction_form(b)
        ok = braid_equal(pair_braid(fx, fy), b)
    if ok:
        gx, gy = right_fraction_form(b)
        ok = braid_equal(positive_lift(gx) * positive_lift(gy).inverse(), b)
    return ok


def square_free_by_letters(x: CoxeterElement, y: CoxeterElement) -> bool:
    """lemma-4.5: b(x)^-1 b(y) is square free and its signed lift equals it."""
    b = pair_braid(x, y)
    return is_square_free(b) and braid_equal(signed_lift(b), b)


def equivalent_by_letters(x: CoxeterElement, y: CoxeterElement) -> bool:
    """thm-5.9 and thm-6.4: b(x)^-1 b(y) is rational, Mikado (in family B
    on the flip symmetric picture in A_(2n-1)), round trips through its left
    fraction and equals its signed lift."""
    b = pair_braid(x, y)
    ok = is_rational_permutation(b)
    if ok:
        family = b.group.type.family
        ok = is_mikado_A(b) if family == "A" else is_mikado_B(embed_braid_b_to_a(b))
    if ok:
        fx, fy = fraction_form(b)
        ok = braid_equal(pair_braid(fx, fy), b)
    return ok and braid_equal(signed_lift(b), b)


LETTER_VERDICTS = {
    "prop-4.4": rational_fraction_by_letters,
    "lemma-4.5": square_free_by_letters,
    "thm-5.9": equivalent_by_letters,
    "thm-6.4": equivalent_by_letters,
}


# ---------------------------------------------------------------------------
# Artin's action of the braid group on a free group


def _free_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _free_inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-g for g in reversed(word))


def artin_action(letters, strands: int) -> tuple[tuple[int, ...], ...]:
    """Artin's faithful action of a braid word on the strands generators of
    a free group: the images of the generators 1 .. strands, each a freely
    reduced tuple with -j for the inverse of j.  sigma_i sends x_i to
    x_i x_(i+1) x_i^-1 and x_(i+1) to x_i, and the word acts by composing
    these, so two words give the same images exactly when they are the
    same braid (Artin, Theorie der Zoepfe, 1925)."""
    images = [(j,) for j in range(1, strands + 1)]
    for l in letters:
        i = abs(l) - 1
        a, b = images[i], images[i + 1]
        if l > 0:
            images[i], images[i + 1] = _free_reduce(a + b + _free_inverse(a)), a
        else:
            images[i], images[i + 1] = b, _free_reduce(_free_inverse(b) + a + b)
    return tuple(images)


def artin_action_of(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """artin_action on rank + 1 strands in family A; a family B braid acts
    through its image in A_(2n-1) (embed_braid_b_to_a)."""
    if b.group.type.family == "B":
        b = embed_braid_b_to_a(b)
    return artin_action(b.letters, b.group.rank + 1)


# ---------------------------------------------------------------------------
# rational permutation braid counts by enumeration


def a_descent_mask(x: tuple[int, ...]) -> int:
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


def b_descent_mask(w: tuple[int, ...]) -> int:
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


def disjoint_pair_count(masks: Counter[int]) -> int:
    """The pairs of elements with disjoint descent masks, from the number
    of elements with each mask."""
    total = 0
    for ma, ca in masks.items():
        for mb, cb in masks.items():
            if ma & mb == 0:
                total += ca * cb
    return total


def count_a_by_enumeration(n: int) -> int:
    """Mikado braids on n strands: descent disjoint pairs in S_n x S_n."""
    masks = Counter(
        a_descent_mask(p) for p in itertools.permutations(range(1, n + 1))
    )
    return disjoint_pair_count(masks)


def count_b_by_enumeration(n: int) -> int:
    """Descent disjoint pairs of signed permutations on n coordinates."""
    masks: Counter[int] = Counter()
    for p in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            masks[b_descent_mask(tuple(s * v for s, v in zip(signs, p)))] += 1
    return disjoint_pair_count(masks)
