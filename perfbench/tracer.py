"""Span tracer for the contactconics package, installed from outside it.

`Tracer.install()` replaces the public functions of the nine package
modules, the public and arithmetic methods of the `poly` classes, a few
named methods (the group law, `PlaneCurve.singular_points`), and
`sympy.factor_list` / `sympy.Poly.factor_list` with timing wrappers.
Nothing under `src/` is edited: the wrappers are bound onto module and
class attributes at run time.

A name imported with `from .poly import resultant_t` is a second binding
of the same function object in the importing module, so wrapping only the
defining module would miss those calls.  `install()` therefore rebinds
every attribute of every `contactconics.*` module that is one of the
original objects, and then checks that no original is left reachable.

Each span records its call count and its self time: its duration minus the
durations of the spans it directly contains.  `FieldElem` arithmetic is
aggregated into one `field` leaf (per-operation call counts, one self time)
instead of individual spans, because it runs millions of times.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.machinery
import inspect
import sys
import time

MODULES = (
    "field", "poly", "curves", "surface", "heights",
    "lattice", "fixtures", "parsing", "cli",
)

# Methods of classes outside `poly` that get a span, by span name.  Other
# methods run inside their caller's span: wrapping small hot methods such as
# `CaseLattice.norm` would move the enumeration's own work out of
# `lattice.enumerate_height_vectors` and inflate the overhead.
_METHOD_SPANS = {
    ("surface", "Section", "__add__"): "surface.group_add",
    ("surface", "Section", "__rmul__"): "surface.group_mul",
    ("curves", "PlaneCurve", "singular_points"): "curves.PlaneCurve.singular_points",
}

_ARITHMETIC = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__floordiv__", "__mod__",
    "__pow__",
})

# FieldElem methods aggregated into the `field` leaf, by counter name.
_FIELD_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "inv": "inv",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow",
    "sqrt": "sqrt", "norm_to_q": "norm",
}

_SYMPY = "sympy"


class _Frame:
    __slots__ = ("name", "child", "leaf")

    def __init__(self, name: str, leaf: bool = False):
        self.name = name
        self.child = 0.0
        self.leaf = leaf


class Tracer:
    """Collects span statistics for one process."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self.field_calls: dict[str, int] = {op: 0 for op in set(_FIELD_OPS.values())}
        self.builds = 0
        self.loads = 0
        self.load_hits = 0
        self.certificates = 0
        self.curves_resultants = 0
        self.pair_computations = 0
        self.pairs_seen: set = set()
        self._originals: dict[int, object] = {}
        self._sympy_patched = False

    # -- span primitives -------------------------------------------------

    def _close(self, frame: _Frame, duration: float) -> None:
        entry = self.spans.get(frame.name)
        if entry is None:
            entry = self.spans[frame.name] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration - frame.child
        if self.stack:
            self.stack[-1].child += duration

    def span(self, name: str, fn, pre=None, post=None):
        """A wrapper timing fn as span `name`; pre/post observe the call."""
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            frame = _Frame(name)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                close(frame, duration)
            if post is not None:
                post(token, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def field_leaf(self, op: str, fn):
        """A wrapper counting a FieldElem operation into the `field` leaf.

        Operations nested inside another field operation (the products
        inside `inv`) are counted but not timed again.
        """
        stack = self.stack
        clock = time.perf_counter
        close = self._close
        counts = self.field_calls

        def wrapper(*args):
            counts[op] += 1
            if stack and stack[-1].leaf:
                return fn(*args)
            frame = _Frame("field", leaf=True)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                stack.pop()
                close(frame, duration)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- observers for the derived ratios --------------------------------

    def _record_pairs(self, curves) -> None:
        keys = [_curve_key(curve) for curve in curves]
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                self.pair_computations += 1
                self.pairs_seen.add(frozenset((keys[a], keys[b])))

    def _pre_load(self, args):
        return self.builds

    def _post_load(self, builds_before, args, result) -> None:
        self.loads += 1
        if self.builds == builds_before:
            self.load_hits += 1

    def _post_build(self, token, args, result) -> None:
        self.builds += 1

    def _pre_weak(self, args):
        self._record_pairs(list(args[:2]))

    def _post_weak(self, token, args, result) -> None:
        if result.shear is not None:
            self.certificates += 1

    def _pre_fingerprint(self, args):
        self._record_pairs(list(args[0]))

    def _pre_resultant_t(self, args):
        if any(frame.name.startswith("curves.") for frame in self.stack):
            self.curves_resultants += 1

    _HOOKS = {
        "fixtures.load_worked_example": ("_pre_load", "_post_load"),
        "fixtures.build_worked_example": (None, "_post_build"),
        "curves.is_weak_contact": ("_pre_weak", "_post_weak"),
        "curves.arrangement_fingerprint": ("_pre_fingerprint", None),
        "poly.resultant_t": ("_pre_resultant_t", None),
    }

    def _named_span(self, name: str, fn):
        pre, post = self._HOOKS.get(name, (None, None))
        return self.span(
            name,
            fn,
            getattr(self, pre) if pre else None,
            getattr(self, post) if post else None,
        )

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the package; raise RuntimeError if an original stays bound."""
        replacements: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"contactconics.{short}")
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(short, value)
                elif _is_own_callable(value, module.__name__):
                    replacements[id(value)] = self._named_span(f"{short}.{name}", value)
                    self._originals[id(value)] = value
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "contactconics" or module_name.startswith("contactconics.")
            ):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in replacements and self._originals[id(value)] is value:
                    setattr(module, name, replacements[id(value)])
        self._check_bound()
        if _SYMPY in sys.modules:
            self._patch_sympy(sys.modules[_SYMPY])
        else:
            sys.meta_path.insert(0, _SympyImportHook(self))

    def _wrap_class(self, short: str, cls) -> None:
        is_field = short == "field" and cls.__name__ == "FieldElem"
        wrapped: dict[int, object] = {}
        for name, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if is_field:
                if name not in _FIELD_OPS:
                    continue
                make = lambda fn, op=_FIELD_OPS[name]: self.field_leaf(op, fn)
            elif short == "poly" and (name in _ARITHMETIC or not name.startswith("_")):
                span_name = f"poly.{cls.__name__}.{value.__name__}"
                make = lambda fn, span_name=span_name: self._named_span(span_name, fn)
            elif (short, cls.__name__, name) in _METHOD_SPANS:
                span_name = _METHOD_SPANS[(short, cls.__name__, name)]
                make = lambda fn, span_name=span_name: self._named_span(span_name, fn)
            else:
                continue
            # `__radd__ = __add__` binds one function under two names.
            if id(value) not in wrapped:
                wrapped[id(value)] = make(value)
                self._originals[id(value)] = value
            setattr(cls, name, wrapped[id(value)])

    def _check_bound(self) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("contactconics"):
                continue
            holders = [module] + [
                v for v in vars(module).values()
                if inspect.isclass(v) and v.__module__.startswith("contactconics")
            ]
            for holder in holders:
                for name, value in vars(holder).items():
                    if id(value) in self._originals and self._originals[id(value)] is value:
                        raise RuntimeError(
                            f"tracer left {module_name}.{name} unwrapped"
                        )

    def _patch_sympy(self, sympy) -> None:
        if self._sympy_patched:
            return
        self._sympy_patched = True
        sympy.factor_list = self._sympy_span("sympy.factor_list", sympy.factor_list)
        sympy.Poly.factor_list = self._sympy_span(
            "sympy.Poly.factor_list", sympy.Poly.factor_list
        )

    def _sympy_span(self, name: str, fn):
        """A span for a sympy entry point; nested sympy calls are not re-counted."""
        inner = self.span(name, fn)
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1].name.startswith("sympy."):
                return fn(*args, **kwargs)
            return inner(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw statistics, mergeable across processes with `merge`."""
        return {
            "spans": {name: list(entry) for name, entry in self.spans.items()},
            "field_calls": dict(self.field_calls),
            "builds": self.builds,
            "loads": self.loads,
            "load_hits": self.load_hits,
            "certificates": self.certificates,
            "curves_resultants": self.curves_resultants,
            "pair_computations": self.pair_computations,
            "distinct_pairs": len(self.pairs_seen),
            "sympy_imported": 1 if _SYMPY in sys.modules else 0,
            "processes": 1,
        }


def _curve_key(curve) -> tuple:
    """A PlaneCurve's defining form as plain data, divided by the coefficient
    of its largest monomial when that coefficient is rational.

    Hooks run inside the traced process, so the key reads the form's fields
    and uses Fraction arithmetic only: PlaneCurve.__hash__ would run wrapped
    package code and count the tracer's own work in the layer metrics.
    """
    terms = [
        (monomial, (c.c0, c.c1, c.c2, c.c3))
        for monomial, c in curve.form.terms.items()
    ]
    lead = terms[-1][1] if terms else None
    if lead is not None and lead[0] and not any(lead[1:]):
        terms = [(m, tuple(x / lead[0] for x in coords)) for m, coords in terms]
    return (curve.form.degree, tuple(terms))


def _is_own_callable(value, module_name: str) -> bool:
    if inspect.isfunction(value):
        return value.__module__ == module_name
    # functools.lru_cache wrappers (load_worked_example)
    wrapped = getattr(value, "__wrapped__", None)
    return (
        callable(value)
        and inspect.isfunction(wrapped)
        and wrapped.__module__ == module_name
        and hasattr(value, "cache_info")
    )


class _SympyImportHook(importlib.abc.MetaPathFinder):
    """Times the first `import sympy` and patches sympy once it has loaded."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != _SYMPY:
            return None
        sys.meta_path.remove(self)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        tracer = self.tracer
        timed_exec = tracer.span("sympy.import", spec.loader.exec_module)

        def exec_and_patch(module):
            timed_exec(module)
            tracer._patch_sympy(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def merge(snapshots: list[dict]) -> dict:
    """Sum the raw statistics of several processes."""
    total: dict = {
        "spans": {}, "field_calls": {}, "builds": 0, "loads": 0, "load_hits": 0,
        "certificates": 0, "curves_resultants": 0, "pair_computations": 0,
        "distinct_pairs": 0, "sympy_imported": 0, "processes": 0,
    }
    for snap in snapshots:
        for name, (calls, self_s) in snap["spans"].items():
            entry = total["spans"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for op, calls in snap["field_calls"].items():
            total["field_calls"][op] = total["field_calls"].get(op, 0) + calls
        for key in (
            "builds", "loads", "load_hits", "certificates", "curves_resultants",
            "pair_computations", "distinct_pairs", "sympy_imported", "processes",
        ):
            total[key] += snap[key]
    return total
