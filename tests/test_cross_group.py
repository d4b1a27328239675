"""Objects of one group refused by the tables and objects of another.

An element is an id in its group's Cayley graph walk, so an id read
against another group's tables names some unrelated element of that
group.  Every entry point that reads an element, braid or Hecke element
against a group must check it through CoxeterGroup.member first.  Here
B2's objects, whose ids all lie in range for A3 (B2's w0 is id 7 of 8,
A3 has 24 elements), are fed to A3's groups and tables, and each probe
must raise member's ValueError.  A last test keeps the probes complete:
every public callable of coxeter, garside, hecke, dual and tl that takes
an element, braid or Hecke element is either probed here or takes
objects of a single group only.
"""

import importlib
import inspect

import pytest

from coxbraid.coxeter import bruhat_leq, coxeter_group
from coxbraid.dual import (
    dual_atoms,
    dual_monoid,
    embed_simple,
    hurwitz_orbit,
    hurwitz_orbit_braids,
    ncp_encode,
)
from coxbraid.garside import BraidWord, GarsideNormalForm, braid_equal
from coxbraid.hecke import HeckeElement, hecke_mul, kl_table
from coxbraid.laurent import LaurentPolynomial
from coxbraid.tl import zinno_matrix

from oracles import abs_divides, longest_element

A3 = coxeter_group("A", 3)
B2 = coxeter_group("B", 2)
C = A3.from_word((1, 2, 3))  # a standard Coxeter element of A3
W0 = longest_element(A3)
X = longest_element(B2)  # id 7: A3's element 7 divides C and lies below W0
T = B2.generator(1)  # id 1, the reflection s1 in A3 as well


def braid(group):
    return BraidWord(group, (1, -2))


def unit(group):
    return HeckeElement.unit(group)


def embed_nf_ids_after_cache():
    """A foreign id that hits a cached embedding is refused all the same."""
    monoid = dual_monoid(C)
    monoid.embed_nf_ids(A3.elements()[X.id])
    return monoid.embed_nf_ids(X)


PROBES = {
    "CoxeterElement.__mul__": lambda: C * X,
    "bruhat_leq": lambda: bruhat_leq(X, W0),
    "BraidWord.__mul__": lambda: braid(A3) * braid(B2),
    "braid_equal": lambda: braid_equal(braid(A3), braid(B2)),
    "GarsideNormalForm.__init__": lambda: GarsideNormalForm(A3, 0, (X,)),
    "HeckeElement.__init__": lambda: HeckeElement(A3, {X: LaurentPolynomial.one()}),
    "HeckeElement.coeff": lambda: unit(A3).coeff(X),
    "HeckeElement.__add__": lambda: unit(A3) + unit(B2),
    "HeckeElement.__sub__": lambda: unit(A3) - unit(B2),
    "HeckeElement.__mul__": lambda: unit(A3) * unit(B2),
    "hecke_mul": lambda: hecke_mul(unit(A3), unit(B2)),
    "KLTable.p(y)": lambda: kl_table(A3).p(X, W0),
    "KLTable.p(w)": lambda: kl_table(A3).p(A3.identity, X),
    "KLTable.mu(y)": lambda: kl_table(A3).mu(B2.identity, W0),
    "KLTable.mu(w)": lambda: kl_table(A3).mu(A3.identity, X),
    "KLTable.c_prime": lambda: kl_table(A3).c_prime(X),
    "KLTable.c_basis": lambda: kl_table(A3).c_basis(X),
    "KLTable.expand_in_C": lambda: kl_table(A3).expand_in_C(unit(B2)),
    "KLTable.pair_is_nonneg(x)": lambda: kl_table(A3).pair_is_nonneg(X, A3.identity),
    "KLTable.pair_is_nonneg(y)": lambda: kl_table(A3).pair_is_nonneg(A3.identity, X),
    "KLTable.braid_is_nonneg": lambda: kl_table(A3).braid_is_nonneg(braid(B2)),
    "ncp_encode": lambda: ncp_encode(X, C),
    "hurwitz_orbit": lambda: hurwitz_orbit((A3.generator(1), T)),
    # the empty braid keeps the orbit finite should the check be lost
    "hurwitz_orbit_braids": lambda: hurwitz_orbit_braids((braid(A3), BraidWord(B2, ()))),
    "DualAtomTable.braid": lambda: dual_atoms(C).braid(T),
    "DualAtomTable.normal_form_ids": lambda: dual_atoms(C).normal_form_ids(T),
    "DualMonoid.contains": lambda: dual_monoid(C).contains(X),
    "DualMonoid.embed_nf_ids": lambda: dual_monoid(C).embed_nf_ids(X),
    "DualMonoid.embed_nf_ids(cached)": embed_nf_ids_after_cache,
    "DualMonoid.embed": lambda: dual_monoid(C).embed(X),
    "embed_simple": lambda: embed_simple(X, C),
    "ZinnoMatrix.entry(x)": lambda: zinno_matrix(C).entry(X, A3.identity),
    "ZinnoMatrix.entry(w)": lambda: zinno_matrix(C).entry(A3.identity, X),
}

# Callables that take objects of one group only, so that no two groups can
# meet in them, and the records that their factories fill from one group.
ONE_GROUP = {
    "bruhat_lower_interval", "standard_ordering", "reflections_from_coxeter",
    "reduced_words", "word_key", "delta_normal_form", "is_rational_permutation",
    "fraction_form", "signed_lift", "square_free_witness",
    "is_square_free", "mirror_letters", "is_tau_fixed", "positive_lift",
    "embed_braid_b_to_a", "braid_image_a", "j_h", "divisors_of", "circle_sequence",
    "ncp_decode", "DualAtomTable.__init__", "DualMonoid.__init__", "dual_monoid",
    "dual_atoms", "verify_dual_relations", "b_w", "theta", "theta_prime", "omega",
    "zinno_matrix", "sign_alternating",
    "ZinnoMatrix.__init__",
}
OBJECTS = ("CoxeterElement", "BraidWord", "HeckeElement")


@pytest.mark.parametrize("name", PROBES)
def test_foreign_objects_are_refused(name):
    with pytest.raises(ValueError, match=r"of CoxeterGroup\(B2\) used with CoxeterGroup\(A3\)"):
        PROBES[name]()


def test_probes_answer_on_own_objects():
    """The same calls on A3's own objects answer, so each probe above fails
    on its foreign argument alone."""
    own = A3.elements()[X.id]
    table = kl_table(A3)
    assert table.p(own, W0) == LaurentPolynomial.one()
    assert dual_monoid(C).contains(own) and abs_divides(own, C) and bruhat_leq(own, W0)
    assert braid_equal(braid(A3), braid(A3))
    assert table.pair_is_nonneg(A3.identity, own)


def entry_points():
    """The qualified names of the public callables of the five modules whose
    annotations name an element, braid or Hecke element."""
    found = set()
    for module in ("coxeter", "garside", "hecke", "dual", "tl"):
        mod = importlib.import_module(f"coxbraid.{module}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [
                    (f"{name}.{k}", v) for k, v in vars(obj).items()
                    if callable(v) and (not k.startswith("_") or k in {
                        "__init__", "__mul__", "__add__", "__sub__"})
                ]
            for qualname, f in members:
                try:
                    params = inspect.signature(f).parameters.values()
                except (TypeError, ValueError):
                    continue
                if any(t in str(p.annotation) for p in params for t in OBJECTS):
                    found.add(qualname)
    return found


def test_every_entry_point_is_probed_or_takes_one_group():
    probed = {name.split("(")[0] for name in PROBES}
    assert probed.isdisjoint(ONE_GROUP)
    assert entry_points() == probed | ONE_GROUP
