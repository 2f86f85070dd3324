"""In-memory layer tracing for the benchmark's traced passes.

``Tracer.install`` wraps the public functions and methods of each ``qdha``
module (plus the arithmetic dunders and explicit constructors) at the
attribute where callers look them up: class attributes, and every module
global that refers to a wrapped module-level function.  A layer is a module.

Self time: the clock runs against the layer whose wrapped call is on top of
the span stack, so a layer's self time excludes the wrapped calls it makes
into other layers.  A call into the layer already on top only counts.
Everything is aggregated in memory; nothing is written per call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("polyring", "rootsys", "weyl", "orderfun", "algebra", "bqha", "kz",
          "clans", "fm", "modcat", "instances", "cli")
WRAPPED_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__mul__", "__neg__",
                             "__truediv__", "__pow__"})

# per-layer metric name -> wrapped function whose calls it counts
CALL_COUNTERS = {
    "polyring.poly_mul.calls": "polyring.Poly.__mul__",
    "polyring.substitute.calls": "polyring.Poly.substitute",
    "polyring.ratfunc.calls": "polyring.RatFunc.__init__",
    "polyring.divmod.calls": "polyring.poly_divmod",
    "rootsys.inner.calls": "rootsys.FiniteRootSystem.inner",
    "rootsys.reflect_root.calls": "rootsys.FiniteRootSystem.reflect_root",
    "weyl.reflection.calls": "weyl.FiniteWeylGroup.reflection",
    "weyl.act_point.calls": "weyl.AffineWeylGroup.act_point",
    "weyl.length.calls": "weyl.AffineWeylGroup.length_formula",
    "weyl.witness.calls": "weyl.AffineWeylGroup.witness",
    "orderfun.integral.calls": "orderfun.integral",
    "algebra.mul.calls": "algebra.Algebra.mul",
    "algebra.tau_word.calls": "algebra.Algebra.tau_word",
    "algebra.normal_form.calls": "algebra.Algebra.normal_form_rational",
    "bqha.mul.calls": "bqha.BAlgebra.mul",
    "bqha.normal_form.calls": "bqha.BAlgebra.normal_form_rational",
    "bqha.frobenius_trace.calls": "bqha.BAlgebra.frobenius_trace",
    "bqha.gram_matrix.calls": "bqha.BAlgebra.gram_matrix",
    "kz.coset_representatives.calls": "kz.coset_representatives",
    "kz.pregamma_point.calls": "kz.pregamma_point",
    "kz.sigma.calls": "kz.sigma",
    "clans.clan_of.calls": "clans.clan_of",
    "fm.feasible.calls": "fm.feasible",
    "modcat.gk_growth.calls": "modcat.gk_growth",
}


def _exact_division(args, result) -> bool:
    return not result[1].coeffs


def _first_args(n):
    """Key on the receiver object and the next n - 1 positional arguments."""
    def key(args, result):
        return args[:n]
    return key


# per-layer metric name -> (wrapped function, outcome of one call, repeat).  A
# share is the number of calls with a true outcome over all calls of that
# function.  With repeat set the outcome is a key, and it counts as true when
# the same key was already seen in the pass.
SHARES = {
    "polyring.divmod.exact_share": ("polyring.poly_divmod", _exact_division, False),
    "weyl.reflection.repeat_share": ("weyl.FiniteWeylGroup.reflection", _first_args(2), True),
    "algebra.tau_element.hit_share": ("algebra.Algebra.tau_element", _first_args(3), True),
    "kz.coset_representatives.repeat_share": ("kz.coset_representatives", _first_args(2), True),
}


class Tracer:
    """Call counts, outcome shares and per-layer self time for one pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack = ["bench"]
        self._mark = [perf_counter()]

    def span(self, layer: str, fn):
        """``fn`` wrapped so that its calls are counted and timed as ``layer``."""
        stack, mark, self_s, calls, hits = (self._stack, self._mark, self.self_s,
                                            self.calls, self.hits)
        name = f"{layer}.{fn.__qualname__}"
        probe = None
        for share_fn, outcome, repeat in SHARES.values():
            if share_fn == name:
                probe = _probe(name, outcome, repeat, hits)
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                now = clock()
                self_s[stack[-1]] += now - mark[0]
                mark[0] = now
                stack.append(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_s[layer] += now - mark[0]
                    mark[0] = now
                    stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        replaced: dict[int, object] = {}
        modules = [importlib.import_module(f"qdha.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    replaced[id(obj)] = self.span(layer, obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, module, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def _install_class(self, layer: str, module, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
            fn = member.__func__ if kind else member
            # skip properties and methods generated by dataclasses
            if not inspect.isfunction(fn) or fn.__code__.co_filename != module.__file__:
                continue
            wrapped = self.span(layer, fn)
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def counters(self) -> dict[str, float]:
        """Every call counter and share, by per-layer metric name."""
        out: dict[str, float] = {metric: self.calls[fn] for metric, fn in CALL_COUNTERS.items()}
        for metric, (fn, _, _) in SHARES.items():
            out[metric] = self.hits[fn] / self.calls[fn] if self.calls[fn] else 0.0
        return out

    def layer_self_s(self) -> dict[str, float]:
        return {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}


def _probe(name: str, outcome, repeat: bool, hits: Counter):
    seen: set = set()

    def probe(args, result):
        value = outcome(args, result)
        if repeat:
            hit = value in seen
            seen.add(value)
        else:
            hit = value
        if hit:
            hits[name] += 1

    return probe
