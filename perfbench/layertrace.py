"""Outside-in per-layer tracing of the coxbraid package.

``Tracer`` wraps the public functions and methods of each layer module
from outside the program.  A layer is one module of ``coxbraid``.  Every
wrapped call is a span; a layer's self time is the time of its spans
minus the time of the spans they contain.  Code that is not wrapped
(private helpers, dataclass ``__init__``/``__eq__``/``__hash__``) counts
as self time of the nearest wrapped caller.

What is wrapped, per layer module:

- module-level functions defined there that are public, or that another
  coxbraid module imports by name (such as ``garside._nf_ids``, which
  ``dual`` uses);
- public methods, static methods, class methods and property getters of
  the classes defined there, and the operator methods in ``OPERATORS``.

A module-level function is replaced in every coxbraid module namespace
that holds it, so ``verify``'s ``from .garside import braid_equal`` sees
the wrapper too.  ``remove`` puts every original object back.

Methods in ``HOT`` run more than about 10^5 times in a sweep.  Each of
their calls is counted, but only one call in ``SAMPLE_EVERY`` is timed:
one per block of that many calls, at a position within the block drawn
from a fixed seed, so that the sample cannot lock onto the period of a
loop and still repeats exactly from run to run.  Their self time is
estimated from that sample: the mean self time of the timed calls times
the number of calls, moved out of the span each untimed call ran inside.
Layers that hold such a method report an estimated self time;
``summary()["estimated_self_s"]`` names them.

The wrappers cost time of their own, and most of it would land in the
span of the caller.  ``install`` and ``remove`` therefore measure, on a
no-op, what a wrapper adds per call: an untimed call, and the parts of a
timed call inside and outside its own span; the run uses the mean of the
two measurements.  ``self_times`` takes those costs out of
the span they landed in, using the counts of untimed and timed calls that
each span held.  The extra work of the argument and result probes
(``letters``, ``returned``, ``distinct``) is not measured; it runs on
fewer than 10^5 calls per sweep.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter
from types import FunctionType, ModuleType

PACKAGE = "coxbraid"
LAYERS = ("coxeter", "garside", "dual", "mikado", "laurent", "hecke", "tl", "verify")

OPERATORS = frozenset(
    {"__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__post_init__"}
)

LAURENT_OPS = tuple(
    f"laurent:LaurentPolynomial.{m}"
    for m in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
              "shifted", "bar", "substituted_power")
)

HOT = frozenset(
    {
        "coxeter:CoxeterElement.__mul__",
        "coxeter:CoxeterElement.length",
        "coxeter:CoxeterGroup.generator",
        "garside:BraidWord.__post_init__",
        "garside:GarsideTable.element",
        "garside:GarsideTable.renorm",
        "garside:_rational_ids",
        "garside:garside_table",
        "laurent:LaurentPolynomial.__post_init__",
        "laurent:LaurentPolynomial.of",
        "tl:TLDiagram.__post_init__",
        *LAURENT_OPS,
    }
)

SAMPLE_EVERY = 16
SAMPLE_BLOCKS = 256

NF_KEYS = tuple(
    f"garside:{f}"
    for f in ("delta_normal_form", "braid_equal", "is_rational_permutation",
              "fraction_form", "right_fraction_form", "signed_lift", "is_square_free")
)

# Per-layer metric name -> (unit, what it measures).  The measure is
# ("self_s", layer), ("errors", layer) or (kind, keys), where kind is
# "calls", "letters" (letters of the braid arguments), "returned" (length
# of the returned collection), "distinct" (distinct arguments) or
# "inclusive_s" (span time including children), summed over the keys.
METRICS: dict[str, tuple[str, tuple]] = {
    "coxeter.self_s": ("s", ("self_s", "coxeter")),
    "coxeter.reflection_length.calls": (
        "count", ("calls", ("coxeter:CoxeterElement.reflection_length",))),
    "coxeter.length.calls": ("count", ("calls", ("coxeter:CoxeterElement.length",))),
    "coxeter.mul.calls": ("count", ("calls", ("coxeter:CoxeterElement.__mul__",))),
    "coxeter.bruhat.calls": (
        "count", ("calls", ("coxeter:bruhat_leq", "coxeter:bruhat_lower_interval"))),
    "coxeter.errors": ("count", ("errors", "coxeter")),
    "garside.self_s": ("s", ("self_s", "garside")),
    "garside.nf.calls": ("count", ("calls", NF_KEYS)),
    "garside.letters": ("count", ("letters", NF_KEYS)),
    "garside.renorm.calls": ("count", ("calls", ("garside:GarsideTable.renorm",))),
    "garside.errors": ("count", ("errors", "garside")),
    "dual.self_s": ("s", ("self_s", "dual")),
    "dual.divisors.calls": ("count", ("calls", ("dual:divisors_of",))),
    "dual.divisors.count": ("count", ("returned", ("dual:divisors_of",))),
    "dual.monoid.calls": ("count", ("calls", ("dual:dual_monoid",))),
    "dual.monoid.built": ("count", ("distinct", ("dual:dual_monoid",))),
    "dual.embed.calls": ("count", ("calls", ("dual:DualMonoid.embed_nf_ids",))),
    "mikado.self_s": ("s", ("self_s", "mikado")),
    "mikado.peel.calls": ("count", ("calls", ("mikado:WiringDiagram.remove_strand",))),
    "hecke.self_s": ("s", ("self_s", "hecke")),
    "hecke.braid_image.calls": ("count", ("calls", ("hecke:braid_image_a",))),
    "hecke.braid_image.letters": ("count", ("letters", ("hecke:braid_image_a",))),
    "hecke.expand.calls": ("count", ("calls", ("hecke:KLTable.expand_in_C",))),
    "hecke.expand.s": ("s", ("inclusive_s", ("hecke:KLTable.expand_in_C",))),
    "hecke.expand.terms": ("count", ("returned", ("hecke:KLTable.expand_in_C",))),
    "hecke.c_basis.calls": ("count", ("calls", ("hecke:KLTable.c_basis",))),
    "hecke.c_basis.built": ("count", ("distinct", ("hecke:KLTable.c_basis",))),
    "hecke.kl_p.calls": ("count", ("calls", ("hecke:KLTable.p",))),
    "hecke.errors": ("count", ("errors", "hecke")),
    "laurent.self_s": ("s", ("self_s", "laurent")),
    "laurent.new": ("count", ("calls", ("laurent:LaurentPolynomial.__post_init__",))),
    "laurent.ops": ("count", ("calls", LAURENT_OPS)),
    "tl.self_s": ("s", ("self_s", "tl")),
    "tl.mul.calls": ("count", ("calls", ("tl:tl_mul",))),
    "tl.diagram.new": ("count", ("calls", ("tl:TLDiagram.__post_init__",))),
    "tl.zinno.calls": ("count", ("calls", ("tl:zinno_matrix",))),
    "tl.omega.calls": ("count", ("calls", ("tl:omega",))),
    "tl.errors": ("count", ("errors", "tl")),
    "verify.self_s": ("s", ("self_s", "verify")),
}

_PROBED = ("letters", "returned", "distinct")


def _probes() -> dict[str, frozenset[str]]:
    """Which keys need which argument or result probe."""
    out: dict[str, set[str]] = {}
    for _unit, (kind, what) in METRICS.values():
        if kind in _PROBED:
            for key in what:
                out.setdefault(key, set()).add(kind)
    return {k: frozenset(v) for k, v in out.items()}


class _Stat:
    __slots__ = ("calls", "timed", "children", "self_s", "inclusive_s", "letters", "returned",
                 "distinct")

    def __init__(self) -> None:
        self.calls = 0
        self.timed = 0
        self.children = 0  # timed spans directly inside this key's timed spans
        self.self_s = 0.0
        self.inclusive_s = 0.0
        self.letters = 0
        self.returned = 0
        self.distinct: set | None = None


class Tracer:
    """Wraps the layer modules of an imported coxbraid package.

    Use as a context manager, or call ``install`` and ``remove``.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._pattern = tuple(
            i == pick
            for pick in (rng.randrange(SAMPLE_EVERY) for _ in range(SAMPLE_BLOCKS))
            for i in range(SAMPLE_EVERY)
        )
        self.stats: dict[str, _Stat] = {}
        self.layer_of: dict[str, str] = {}
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        # (untimed hot key, key of the span it ran inside, or None) -> calls
        self.untimed_in: dict[tuple[str, str | None], int] = {}
        # seconds a wrapper adds per call; see ``wrapper_costs``
        self.costs = {"untimed": 0.0, "outside": 0.0, "inside": 0.0}
        # frames of the open timed spans: [key, child seconds, child spans]
        self._stack: list[list] = []
        self._seen_errors: dict[tuple[str, int], BaseException] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def _modules(self) -> list[ModuleType]:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def targets(self) -> list[tuple[object, str, str, str, object]]:
        """``(owner, attribute, key, layer, raw object)`` for everything wrapped."""
        modules = self._modules()
        imported: set[tuple[str, str]] = set()
        for mod in modules:
            for name, val in vars(mod).items():
                home = getattr(val, "__module__", None)
                if callable(val) and home != mod.__name__ and isinstance(home, str):
                    imported.add((home, name))
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, val in vars(mod).items():
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if isinstance(val, type):
                    if issubclass(val, BaseException):
                        continue
                    for attr, raw in vars(val).items():
                        if attr.startswith("_") and attr not in OPERATORS:
                            continue
                        if isinstance(raw, (FunctionType, staticmethod, classmethod, property)):
                            out.append((val, attr, f"{layer}:{name}.{attr}", layer, raw))
                elif callable(val) and (not name.startswith("_")
                                        or (mod.__name__, name) in imported):
                    out.append((mod, name, f"{layer}:{name}", layer, val))
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.costs = wrapper_costs()
        probes = _probes()
        modules = self._modules()
        for owner, attr, key, layer, raw in self.targets():
            self.layer_of[key] = layer
            kinds = probes.get(key, frozenset())
            if isinstance(owner, ModuleType):
                wrapper = self._wrap(raw, key, layer, kinds)
                for mod in modules:
                    for name, val in list(vars(mod).items()):
                        if val is raw:
                            self._restore.append((mod, name, raw))
                            setattr(mod, name, wrapper)
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, key, layer, kinds))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, key, layer, kinds))
            elif isinstance(raw, property):
                new = property(self._wrap(raw.fget, key, layer, kinds),
                               raw.fset, raw.fdel, raw.__doc__)
            else:
                new = self._wrap(raw, key, layer, kinds)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)

    def remove(self) -> None:
        if not self._restore:
            return
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)
        end = wrapper_costs()
        self.costs = {k: (v + end[k]) / 2 for k, v in self.costs.items()}

    # -- the wrappers -------------------------------------------------------

    def _error(self, layer: str, exc: BaseException) -> None:
        seen = (layer, id(exc))
        if seen not in self._seen_errors:
            self._seen_errors[seen] = exc
            self.errors[layer] += 1

    def _wrap(self, fn, key: str, layer: str, kinds: frozenset[str] = frozenset(),
              sample: tuple[bool, ...] | None = None):
        """A wrapper of ``fn`` that records its calls under ``key``.

        ``sample`` marks which calls, counted cyclically, are timed; by
        default the keys in ``HOT`` get ``self._pattern`` and all others
        have every call timed.
        """
        stat = self.stats[key] = _Stat()
        if sample is None and key in HOT:
            sample = self._pattern
        stack = self._stack
        error = self._error
        untimed_in = self.untimed_in
        letters = "letters" in kinds
        returned = "returned" in kinds
        distinct = "distinct" in kinds
        method = "." in key
        if distinct:
            stat.distinct = set()

        def timed(args, kwargs):
            frame = [key, 0.0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error(layer, exc)
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.timed += 1
                stat.self_s += elapsed - frame[1]
                stat.children += frame[2]
                stat.inclusive_s += elapsed
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[2] += 1

        if sample is not None:
            period = len(sample)

            def wrapper(*args, **kwargs):
                n = stat.calls
                stat.calls = n + 1
                if sample[n % period]:
                    return timed(args, kwargs)
                where = (key, stack[-1][0] if stack else None)
                untimed_in[where] = untimed_in.get(where, 0) + 1
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    error(layer, exc)
                    raise
        elif kinds:
            def wrapper(*args, **kwargs):
                stat.calls += 1
                result = timed(args, kwargs)
                if letters:
                    stat.letters += sum(len(a.letters) for a in args if hasattr(a, "letters"))
                if returned:
                    stat.returned += len(result)
                if distinct:
                    # a method's first argument is its instance, kept by identity
                    head = (id(args[0]),) if method else args[:1]
                    stat.distinct.add(head + args[1:] + tuple(sorted(kwargs.items())))
                return result
        else:
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return timed(args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results ------------------------------------------------------------

    def tracer_costs(self) -> dict[str, float]:
        """Seconds of wrapper cost that landed in each key's timed spans."""
        untimed = self.costs["untimed"]
        out = {k: self.costs["outside"] * s.children + self.costs["inside"] * s.timed
               for k, s in self.stats.items()}
        for (_hot, encl), n in self.untimed_in.items():
            if encl is not None:
                out[encl] += untimed * n
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds per key, without wrapper cost; sampled keys estimated."""
        inside: dict[str, list[tuple[str, int]]] = {}
        for (hot, encl), n in self.untimed_in.items():
            if encl is not None:
                inside.setdefault(encl, []).append((hot, n))
        costs = self.tracer_costs()
        measured = {k: s.self_s - costs[k] for k, s in self.stats.items()}
        mean = {k: measured[k] / s.timed for k, s in self.stats.items()
                if k in HOT and s.timed}
        # A timed hot span can hold untimed hot calls, whose time the
        # mean of the outer key must not include; iterate to a fixed point.
        for _ in range(8):
            for k in mean:
                moved = sum(mean.get(h, 0.0) * n for h, n in inside.get(k, ()))
                mean[k] = max(0.0, (measured[k] - moved) / self.stats[k].timed)
        out = {}
        for k, s in self.stats.items():
            if k in HOT:
                out[k] = mean.get(k, 0.0) * s.calls
            else:
                moved = sum(mean.get(h, 0.0) * n for h, n in inside.get(k, ()))
                out[k] = max(0.0, measured[k] - moved)
        return out

    def summary(self) -> dict:
        selfs = self.self_times()
        layer_self = {layer: 0.0 for layer in LAYERS}
        for k, t in selfs.items():
            layer_self[self.layer_of[k]] += t
        metrics = {}
        for name, (unit, (kind, what)) in METRICS.items():
            if kind == "self_s":
                value = layer_self[what]
            elif kind == "errors":
                value = self.errors[what]
            elif kind == "distinct":
                value = sum(len(self.stats[k].distinct or ()) for k in what if k in self.stats)
            else:
                value = sum(getattr(self.stats[k], kind) for k in what if k in self.stats)
            metrics[name] = {"value": value, "unit": unit}
        estimated = sorted({self.layer_of[k] for k, s in self.stats.items()
                            if k in HOT and s.calls > s.timed})
        return {
            "metrics": metrics,
            "estimated_self_s": estimated,
            "sample_every": SAMPLE_EVERY,
            "wrapper_cost_ns": {k: round(v * 1e9, 1) for k, v in self.costs.items()},
            "tracer_cost_s": round(sum(self.tracer_costs().values()), 6),
            "functions": {
                k: {"calls": s.calls, "timed": s.timed, "self_s": round(selfs[k], 6)}
                for k, s in sorted(self.stats.items()) if s.calls
            },
        }


def _ident(x):
    return x


def wrapper_costs(calls: int = 4000, rounds: int = 9) -> dict[str, float]:
    """Seconds a wrapper adds per call, measured on a one-argument no-op.

    ``untimed``: what an untimed call of a sampled key adds to the span
    it runs in.  ``outside``: what a timed call adds to the span it runs
    in.  ``inside``: what a timed call adds to its own span.  Each figure
    is the fastest of ``rounds`` loops of ``calls`` calls, less the same
    loop without the wrapper.
    """
    probe = Tracer()
    timed = probe._wrap(_ident, "probe:timed", "verify")
    untimed = probe._wrap(_ident, "probe:untimed", "verify", sample=(False,))
    stack = probe._stack

    def span_per_call(fn) -> float:
        frame = ["probe:span", 0.0, 0]
        stack.append(frame)
        start = perf_counter()
        if fn is None:
            for i in range(calls):
                pass
        else:
            for i in range(calls):
                fn(i)
        elapsed = perf_counter() - start
        stack.pop()
        return (elapsed - frame[1]) / calls

    best = dict.fromkeys(("empty", "bare", "timed", "untimed", "own"), float("inf"))
    inner = probe.stats["probe:timed"]
    for _ in range(rounds):
        before = inner.self_s
        for name, fn in (("empty", None), ("bare", _ident), ("timed", timed),
                         ("untimed", untimed)):
            best[name] = min(best[name], span_per_call(fn))
        best["own"] = min(best["own"], (inner.self_s - before) / calls)
    bare_call = best["bare"] - best["empty"]
    return {
        "untimed": max(0.0, best["untimed"] - best["bare"]),
        "outside": max(0.0, best["timed"] - best["empty"]),
        "inside": max(0.0, best["own"] - bare_call),
    }
