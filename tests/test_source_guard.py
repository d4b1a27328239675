"""The package runs in one thread, reads no environment variables and
computes with integers only.

Every verdict must follow from the arguments of a call alone: no worker
pool can reorder work, and no variable can point a run at state kept on
disk.  The proof path uses no rational or decimal arithmetic, which is
left to the test oracles.  Elements are ids in the group's Cayley graph
walk: no module but coxeter.py, which builds the groups, names a payload
product, and coxeter.py reads one, the generator actions of
_right_action included, only inside the walk, GroupTable.__init__.
Payloads themselves are read only in coxeter.py: no other module reads
.payload or .payloads, so every layer above computes on ids, and an
element(payload) lookup passes.
Coefficients in Z[v, v^-1] have one kernel: no module but laurent.py
defines the row kernel or wraps terms as a LaurentPolynomial without the
constructor's check.
Size limits have one home: no module but verify.py, whose budget_guard
every command calls before it builds a table, and mikado.py, whose
COUNT_MAX_RANK keeps a count within a time budget, raises ResourceError.
A braid folds its normal form once: no code outside BraidWord calls
_nf_ids, on any arguments, so every entry point reads BraidWord.nf and
every other braid is composed from normal forms.
Group membership has one home, CoxeterGroup.member: no module but coxeter.py
raises from an if that compares .group objects, so every entry point that
takes an element, braid or Hecke element asks member instead of keeping
its own copy of the check (a comparison that only answers, as
HeckeElement.__eq__, is left alone).  Records are plain classes with
their fields in __slots__ (coxeter.Record): no module imports
dataclasses, which with the inspect module it loads would make import
coxbraid about three times slower, and a fresh interpreter that imports
the package loads neither.  Each module
imports only the modules below it, lazy imports included, in the order

    laurent < coxeter < garside < hecke < dual < mikado < render < tl
            < verify < cli < __init__

So hecke, for one, may not import dual, tl, verify or cli.  A name read
off the package itself, as verify's ``from . import __version__``, is
not a module import: the package is loaded before any of its modules.
This parses each module and rejects the imports, reads, calls and raises
that would bring any of these back.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import coxbraid

PACKAGE = Path(coxbraid.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
CONCURRENCY = {"threading", "_thread", "concurrent", "multiprocessing"}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
INEXACT = {"fractions", "decimal"}
SLOW_IMPORTS = {"dataclasses"}
BANNED = CONCURRENCY | INEXACT | SLOW_IMPORTS
# Every module but coxeter.py, which builds the groups, must stay off payload
# products, and coxeter.py may read them only in the one Cayley graph walk
# that builds each group's table:
# every other product is read off the walk's ids.  A read, not only a call,
# so that no other method can build the actions and call them through a
# subscript.
PAYLOAD_FREE = {p.name for p in MODULES} - {"coxeter.py"}
PAYLOAD_PRODUCTS = {"_mul", "_perm_mul", "_sp_mul", "_i2_mul", "_right_action"}
PAYLOAD_READS = {"payload", "payloads"}
WALK = ("GroupTable", "__init__")
# Every module but laurent.py must reach the coefficient kernel through
# laurent's addmul, combine and poly: no unchecked wrap of terms, no second
# kernel.
KERNEL_FREE = {p.name for p in MODULES} - {"laurent.py"}
KERNEL_NAMES = {"Rows", "addmul", "_addmul", "combine", "_combine", "poly", "_poly"}
# Every module but verify.py and mikado.py must leave size limits to
# verify.budget_guard, which --budget lifts.
LIMIT_FREE = {p.name for p in MODULES} - {"verify.py", "mikado.py"}
# BraidWord.nf is the one place that folds letters; every module reads it,
# or composes normal forms, instead of refolding.
REFOLD_OWNER = "BraidWord"
# Every module but coxeter.py must leave group membership to
# CoxeterGroup.member: no if that compares .group objects and raises.
MEMBERSHIP_FREE = {p.name for p in MODULES} - {"coxeter.py"}
GROUP_COMPARISONS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)
# Each module imports only the modules before it here.
LAYERS = (
    "laurent", "coxeter", "garside", "hecke", "dual", "mikado", "render", "tl",
    "verify", "cli", "__init__",
)


def imported_modules(node: ast.AST) -> list[str]:
    """The package modules an import names, "__init__" for the package."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ("coxbraid" if node.level else "", node.module)))
        paths = [f"{base}.{a.name}" for a in node.names] if base == "coxbraid" else [base]
    else:
        return []
    parts = [path.split(".") + ["__init__"] for path in paths]
    return [bits[1] for bits in parts if bits[0] == "coxbraid" and bits[1] in LAYERS]


def compares_groups(test: ast.AST) -> bool:
    """Whether an if test compares a .group object with is, is not, == or !=."""
    return any(
        isinstance(node, ast.Compare)
        and any(isinstance(op, GROUP_COMPARISONS) for op in node.ops)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "group"
            for side in (node.left, *node.comparators)
        )
        for node in ast.walk(test)
    )


def violations(
    tree: ast.AST, payload_free: bool = False, kernel_free: bool = False,
    limit_free: bool = False, refold_free: bool = False, layer: str | None = None,
    membership_free: bool = False,
) -> list[str]:
    found = []
    owner = {
        id(n) for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef) and c.name == REFOLD_OWNER for n in ast.walk(c)
    }
    walk = {
        id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == WALK[0]
        for f in c.body if isinstance(f, ast.FunctionDef) and f.name == WALK[1]
        for n in ast.walk(f)
    }
    for node in ast.walk(tree):
        if layer is not None:
            for name in imported_modules(node):
                if LAYERS.index(name) >= LAYERS.index(layer):
                    found.append(f"line {node.lineno}: {layer} imports {name}, not below it")
        if (
            refold_free and isinstance(node, ast.Call) and id(node) not in owner
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_nf_ids"
        ):
            found.append(f"line {node.lineno}: _nf_ids folds letters outside BraidWord")
        if (
            membership_free and isinstance(node, ast.If) and compares_groups(node.test)
            and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
        ):
            found.append(f"line {node.lineno}: membership checked outside CoxeterGroup.member")
        if limit_free and isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "attr", getattr(exc, "id", None)) == "ResourceError":
                found.append(f"line {node.lineno}: size limit outside verify.budget_guard")
        if kernel_free:
            if isinstance(node, ast.Attribute) and node.attr == "_trusted":
                found.append(f"line {node.lineno}: unchecked LaurentPolynomial._trusted")
            defined = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            found += [f"line {node.lineno}: row kernel {n}" for n in defined if n in KERNEL_NAMES]
        if payload_free:
            name = getattr(node, "attr", getattr(node, "id", None))
            if isinstance(node, ast.ImportFrom):
                name = next((a.name for a in node.names if a.name in PAYLOAD_PRODUCTS), None)
            if name in PAYLOAD_PRODUCTS:
                found.append(f"line {node.lineno}: payload product {name}")
            if isinstance(node, ast.Attribute) and node.attr in PAYLOAD_READS:
                found.append(f"line {node.lineno}: payload read .{node.attr}")
        if (
            isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in walk
            and getattr(node, "attr", getattr(node, "id", None)) in PAYLOAD_PRODUCTS
        ):
            found.append(f"line {node.lineno}: payload product read outside {'.'.join(WALK)}")
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "os":
                names += [f"os.{alias.name}" for alias in node.names if alias.name in ENVIRONMENT]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            names = [f"os.{node.attr}"]
        else:
            continue
        for name in names:
            if name.split(".")[0] in BANNED or name.startswith("os."):
                found.append(f"line {node.lineno}: {name}")
    return found


def test_every_module_is_scanned():
    assert {"cli.py", "hecke.py", "verify.py"} <= {p.name for p in MODULES}
    assert {p.stem for p in MODULES} == set(LAYERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_threads_and_no_environment(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert violations(
        tree, payload_free=path.name in PAYLOAD_FREE, kernel_free=path.name in KERNEL_FREE,
        limit_free=path.name in LIMIT_FREE, refold_free=True, layer=path.stem,
        membership_free=path.name in MEMBERSHIP_FREE,
    ) == []


@pytest.mark.parametrize(
    "source",
    [
        "import threading",
        "from concurrent.futures import ThreadPoolExecutor",
        "import multiprocessing.pool",
        "import os\nroot = os.environ.get('X')",
        "import os\nroot = os.getenv('X')",
        "from os import environ",
        "from fractions import Fraction",
        "import decimal",
        "import dataclasses",
        "from dataclasses import dataclass",
        "p = group._mul(a, b)",
        "from .coxeter import _perm_mul",
        "p = coxeter._sp_mul(a, b)",
        "p = coxeter._i2_mul(m, a, b)",
        "class CoxeterGroup:\n    def reflections(self):\n        return self._mul(g, t)",
        "from .coxeter import _right_action",
        "acts = [_right_action(ctype, g) for g in gens]\np = acts[s](q)",
        "fc = [w for w in group.elements() if avoids_321(w.payload)]",
        "p = LaurentPolynomial._trusted(((0, 1),))",
        "def _addmul(rows, x, p, q):\n    pass",
        "Rows = dict[int, dict[int, int]]",
        "raise ResourceError(f'order {n} exceeds the cap')",
        "raise coxeter.ResourceError",
        "def braid_equal(a, b):\n    return _nf_ids(table, a.letters) == b.nf",
        "k, F = garside._nf_ids(b.group.table, b.letters)",
        "nf = _nf_ids(table, letters)",
        "signed = [(_nf_ids(table, (a,)), _nf_ids(table, (-a,))) for a in order]",
        "from .dual import dual_monoid",
        "def positivity(c):\n    from .tl import zinno_matrix",
        "from . import verify",
        "import coxbraid.cli",
        "from coxbraid.hecke import kl_table",
        "if x.group is not y.group:\n    raise ValueError('elements of different groups')",
        "if b.group != self.group:\n    raise ValueError('braid of a different group')",
    ],
)
def test_guard_catches(source):
    assert violations(
        ast.parse(source), payload_free=True, kernel_free=True, limit_free=True,
        refold_free=True, layer="hecke", membership_free=True,
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    """-S keeps site hooks out, so only what the package imports counts."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import coxbraid; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_layer_guard_spares_lower_and_bottom_imports():
    """Lower imports, lazy ones included, and names read off the package
    pass.  coxeter, the bottom layer above laurent, imports no garside."""
    source = (
        "from .coxeter import CoxeterGroup\nfrom . import laurent\n"
        "def f():\n    from .garside import fraction_form\n"
    )
    assert violations(ast.parse(source), layer="hecke") == []
    assert violations(ast.parse("from . import garside"), layer="coxeter") != []
    assert violations(ast.parse("from . import __version__"), layer="verify") == []
    assert violations(ast.parse("from . import coxeter"), layer="garside") == []
    assert violations(ast.parse("from . import garside"), layer="laurent") != []


def test_payload_guard_spares_table_products():
    source = (
        "x = table.mul(a, b)\ny = table.rmul[s][x]\nr = table.rlens[x]\n"
        "payload = tuple(mapping[i] for i in points)\nz = group.element(payload)"
    )
    assert violations(ast.parse(source), payload_free=True) == []


def test_payload_products_are_read_only_in_the_walk():
    """coxeter.py may define the generator action factory, but read it only
    inside the walk, GroupTable.__init__: binding actions to the group, a
    lambda around one, an action called through a subscript or a product in
    any other method is caught."""
    walk = (
        "def _right_action(ctype, g):\n    return itemgetter(*g)\n"
        "class GroupTable:\n    def __init__(self, group):\n"
        "        acts = [_right_action(group.type, g) for g in group._gen_payloads]\n"
        "        return [list(map(act, level)) for act in acts]\n"
    )
    assert violations(ast.parse(walk)) == []
    for body in (
        "self._acts = [_right_action(self.type, g) for g in gens]",
        "return lambda p: _right_action(self.type, g)(p)",
        "return [_right_action(self.type, g) for g in gens][s](t)",
        "return self._mul(self._mul(g, t), g)",
    ):
        source = f"class CoxeterGroup:\n    def reflections(self):\n        {body}\n"
        assert violations(ast.parse(source)) != []


def test_membership_guard_spares_member_and_answers():
    """Asking CoxeterGroup.member, comparing groups without raising, and
    raising after a test of the family or of TL points all pass."""
    source = (
        "x = group.member(x).id\n"
        "def __eq__(self, other):\n"
        "    return self.group is other.group and self.rows == other.rows\n"
        "if w.group.type.family != 'A':\n    raise ValueError('expected a type A element')\n"
        "if self.points != other.points:\n    raise ValueError('elements of different algebras')\n"
    )
    assert violations(ast.parse(source), membership_free=True) == []


def test_limit_guard_spares_other_errors():
    source = "raise ValueError('bad rank')\ntry:\n    f()\nexcept ResourceError:\n    raise"
    assert violations(ast.parse(source), limit_free=True) == []


def test_refold_guard_spares_braidword_nf():
    """BraidWord.nf may fold, and reading or composing normal forms passes;
    the same fold in any other class is caught."""
    source = (
        "class BraidWord:\n    def nf(self):\n"
        "        return _nf_ids(self.group.table, self.letters)\n"
        "same = a.nf == b.nf\nab = _nf_mul_ids(table, a.nf, _nf_inv_ids(table, b.nf))"
    )
    assert violations(ast.parse(source), refold_free=True) == []
    elsewhere = source.replace("class BraidWord", "class DualAtomTable")
    assert violations(ast.parse(elsewhere), refold_free=True) != []


def test_kernel_guard_spares_kernel_calls():
    source = (
        "from .laurent import Rows, addmul, poly\n"
        "rows: Rows = {}\naddmul(rows, 0, p.items(), q)\nc = poly(rows[0])"
    )
    assert violations(ast.parse(source), kernel_free=True) == []
