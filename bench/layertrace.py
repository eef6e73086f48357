"""Per-layer tracing for the benchmark's traced run.

``install(tracer)`` wraps the public functions of each sievekit module
and rebinds every name under which a sievekit module imported them, so
``solve_j`` is traced whether ``moments``, ``bounds`` or ``cli`` calls
it.  ``JFunction.j_prime`` is wrapped on the class, and the
``scipy.integrate.quad`` calls that ``moments`` issues are traced as
``moments.quad``.  Nothing under ``src/`` changes.

Spans are kept in memory, in flat arrays, and reduced to metrics only
when the run ends.  A span's self time is its duration minus the time
its direct child spans cover; a function's busy time counts only spans
with no ancestor of the same name.  The traced run is single-threaded:
spans nest by call order.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("arithmetic", "delay_ode", "moments", "weights", "bounds", "search", "cli")


class Tracer:
    """In-memory span recorder with a few work counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.distinct: defaultdict = defaultdict(set)

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, clock = self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def observe(self, fn, probe):
        """``fn`` followed by ``probe(bound_arguments, result)``."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            probe(bound.arguments, result)
            return result

        return observed

    def note_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def summary(self) -> dict[str, float]:
        """Flat metrics: ``<span>.calls``, ``.busy_s`` and ``.self_s`` per
        span name, ``<span>.redundancy`` (calls per distinct argument key)
        where a probe recorded keys, and the probes' counters and maxima."""
        names = {nid: name for name, nid in self._ids.items()}
        n = len(self._start)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        chain: list[int] = []
        on_chain: Counter = Counter()
        for i in range(n):
            # Spans are numbered in call order, so the open chain at span
            # i is its parent's chain.
            while chain and chain[-1] != self._parent[i]:
                on_chain[self._name[chain.pop()]] -= 1
            nid = self._name[i]
            dur = self._end[i] - self._start[i]
            calls[nid] += 1
            own[nid] += dur - child[i]
            if not on_chain[nid]:
                busy[nid] += dur
            chain.append(i)
            on_chain[nid] += 1
        out: dict[str, float] = {}
        for nid, name in names.items():
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.busy_s"] = busy[nid]
            out[f"{name}.self_s"] = own[nid]
            if name in self.distinct:
                out[f"{name}.redundancy"] = calls[nid] / len(self.distinct[name])
        out.update(self.counts)
        out.update(self.maxima)
        return out


class _Namespace:
    """Module stand-in that overrides some attributes of ``module``."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _probes(tracer: Tracer) -> dict:
    """Counters recorded from the arguments and results of a few calls."""

    def solve_j(a, J):
        tracer.note_max("delay_ode.solve_j.max_degree", J.degree)

    def tables(a, t):
        tracer.note_max("arithmetic.arithmetic_tables.max_limit", int(a["limit"]))

    def support(a, elems):
        tracer.counts["weights.support_elements.elements"] += len(elems)
        tracer.distinct["weights.support_elements"].add((a["xi"], a["z_prime"]))

    def profile(a, hist):
        x = int(a["x"])
        tracer.counts["search.segments"] += len(range(1, x + 1, int(a["segment_size"])))
        tracer.counts["search.values"] += x * len(a["L"].forms)

    return {"delay_ode.solve_j": solve_j, "arithmetic.arithmetic_tables": tables,
            "weights.support_elements": support, "search.omega_profile": profile}


def install(tracer: Tracer) -> None:
    """Trace every public function of MODULES, in place."""
    import sievekit.cli  # noqa: F401  (loads every module)
    from scipy import integrate

    from sievekit import delay_ode, moments

    probes = _probes(tracer)
    replaced = {}
    for short in MODULES:
        mod = importlib.import_module(f"sievekit.{short}")
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if name == "weights.G_sum":
                replaced[fn] = _split_g_sum(tracer, fn)
                continue
            wrapped = tracer.span(name, fn)
            if name in probes:
                wrapped = tracer.observe(wrapped, probes[name])
            replaced[fn] = wrapped
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "sievekit" and not mod_name.startswith("sievekit."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(mod, attr, replaced[value])
    JF = delay_ode.JFunction
    JF.j_prime = tracer.span("delay_ode.j_prime", JF.j_prime)
    moments.integrate = _Namespace(integrate,
                                   quad=tracer.span("moments.quad", integrate.quad))


def _split_g_sum(tracer: Tracer, fn):
    """G_sum traced as ``G_sum_exact`` or ``G_sum_float`` by its mode."""
    exact = tracer.span("weights.G_sum_exact", fn)
    flt = tracer.span("weights.G_sum_float", fn)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def G_sum(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return (exact if bound.arguments["exact"] else flt)(*args, **kwargs)

    return G_sum
