"""Run-time wrappers that record a span per call into brauerkit.

A traced function is replaced, in every brauerkit module that has bound
it (and on its class, for methods), by a wrapper.  Each call is a span
with a start, an end and a parent, the innermost traced call still open.
Spans are folded as they close instead of being stored, because the
axiom checkers make millions of calls: a closing span adds its duration
to its parent's child time, and its own duration minus its children's
to its function's self time.  Entry points also get busy time, the
union of their outermost calls.  Counted functions get a call count
only; their time stays in the caller's self time.

Generator functions are timed per resumption, so their spans cover the
work of producing each item and not the consumer's work in between.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# (module, attribute or Class.method, kind); kind is "entry" (span plus
# busy time), "span", or "count"
TARGETS = (
    ("cli", "run", "entry"),
    ("labels", "label_key", "count"),
    ("pairing", "compose_pairings_detailed", "span"),
    ("pairing", "all_pairings", "span"),
    ("pairing", "make_pairing", "span"),
    ("brauer", "compose_detailed", "span"),
    ("brauer", "tensor", "span"),
    ("brauer", "make_diagram", "span"),
    ("brauer", "open_diagrams", "span"),
    ("brauer_algebra", "br_compose", "entry"),
    ("brauer_algebra", "make_element", "span"),
    ("brauer_algebra", "Ring.mul", "count"),
    ("brauer_algebra", "Ring.power", "count"),
    ("coloured", "compose_coloured", "span"),
    ("coloured", "tensor_coloured", "span"),
    ("coloured", "typed_boundary", "span"),
    ("coloured", "make_coloured", "span"),
    ("coloured", "coloured_diagrams", "span"),
    ("coloured", "coloured_permutation", "span"),
    ("wiring", "check_circuit_algebra", "entry"),
    ("wiring", "check_derived_axioms", "entry"),
    ("wiring", "operad_gamma", "span"),
    ("wiring", "sigma_action", "span"),
    ("wiring", "make_wiring", "span"),
    ("wiring", "enumerate_wirings", "span"),
    ("wiring", "algebra_from_json", "span"),
    ("wiring", "CircuitAlgebra.act", "count"),
    ("graph", "iso", "entry"),
    ("graph", "x_iso", "span"),
    ("graph", "canonical_form", "span"),
    ("graph", "glue", "span"),
    ("graph", "elements", "span"),
    ("graph", "element_arrows", "span"),
    ("substitution", "colimit", "span"),
    ("substitution", "delete_vertices", "span"),
    ("substitution", "terminal_representative", "span"),
    ("substitution", "similar", "span"),
    ("species", "species_from_circuit_algebra", "entry"),
    ("species", "validate_circuit_operad", "entry"),
    ("species", "check_modular_axioms", "entry"),
    ("species", "apply_product", "span"),
    ("species", "apply_contraction", "span"),
    ("species", "GraphicalSpecies.transport", "count"),
    ("species", "evaluate", "span"),
    ("species", "nerve_presheaf", "span"),
    ("species", "segal_check", "entry"),
)

# lru_caches whose size is reported as <module>.<name>.cache_entries
CACHES = (("labels", "label_key"), ("brauer", "boundary_key"))


def metric_names():
    """Every metric a traced run reports for TARGETS and CACHES."""
    names = []
    for module, attr, kind in TARGETS:
        base = f"{module}.{attr}"
        names.append(f"{base}.calls")
        if kind != "count":
            names.append(f"{base}.self_s")
        if kind == "entry":
            names.append(f"{base}.busy_s")
    names += [f"{module}.{attr}.cache_entries" for module, attr in CACHES]
    return names


class Stat:
    __slots__ = ("calls", "self_s", "busy_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps TARGETS while installed; records only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.stack = []      # child time of each open span, innermost last
        self.stats = {}      # "<module>.<attr>" -> Stat
        self.hooks = {}      # "<module>.<attr>" -> callable(result), on return
        self._restore = []   # (owner, attribute, original)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "brauerkit" or name.startswith("brauerkit.")]
        for module, attr, kind in TARGETS:
            name = f"{module}.{attr}"
            mod = importlib.import_module(f"brauerkit.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                base = getattr(mod, cls_name)
                owners = [c for c in [base, *_subclasses(base)] if meth in vars(c)]
                for cls in owners:
                    self._replace(cls, meth, self._wrap(name, vars(cls)[meth], kind))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, kind)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _replace(self, owner, key, wrapper):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, kind):
        st = self.stats.setdefault(name, Stat())
        tracer = self
        stack = self.stack

        if kind == "count":
            def counted(*args, **kwargs):
                if tracer.enabled:
                    st.calls += 1
                return fn(*args, **kwargs)
            return _named(counted, fn)

        def close(t0):
            dt = perf_counter() - t0
            st.self_s += dt - stack.pop()
            st.depth -= 1
            if st.depth == 0:
                st.busy_s += dt
            if stack:
                stack[-1] += dt

        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                if tracer.enabled:
                    st.calls += 1
                while True:
                    if not tracer.enabled:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        yield item
                        continue
                    st.depth += 1
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(t0)
                    yield item
            return _named(generator, fn)

        def spanned(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st.calls += 1
            st.depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(t0)
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(result)
            return result
        return _named(spanned, fn)

    def metrics(self):
        """Every name of metric_names() with its value so far."""
        out = {}
        for name in metric_names():
            base, field = name.rsplit(".", 1)
            if field == "cache_entries":
                module, attr = base.split(".")
                fn = vars(importlib.import_module(f"brauerkit.{module}"))[attr]
                while not hasattr(fn, "cache_info"):
                    fn = fn.__wrapped__
                out[name] = fn.cache_info().currsize
            else:
                out[name] = getattr(self.stats.get(base) or Stat(), field)
        return out


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _named(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper
