"""Timing shims around the package's layer boundaries, and span arithmetic.

The tracer replaces public functions with shims for the duration of a
traced pass. A function imported into several modules has one binding per
module, so every binding of the original object is replaced (for example
``rates.integrate`` as well as ``quadrature.integrate``, which is the
binding ``integrate_nested`` and ``integrate_semi_infinite`` call). The
shim around ``integrate`` also wraps its integrand, so time inside the
integrand is split out of the engine's own time.

A span is (id, name, start, end, parent, call id, thread id, error, count).
Spans stay in memory until the run ends. A span opened on a pool thread
has an empty stack there; its parent is the innermost span open on the
caller thread, which is blocked in the pool's map at that moment (the
benchmark drives the package from one caller). Self time is a span's
duration minus the union of its children's intervals, because children on
pool threads overlap one another.
"""
from __future__ import annotations

import gzip
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

NODE = "quadrature.integrand"
NESTED = "quadrature.nested"
NESTED_NODE = "quadrature.nested.node"  # integrand of the outer axis of integrate_nested

# (module, attribute, span name, count taken from (args, kwargs, result))
_SHIMS = (
    ("quadrature", "integrate_nested", NESTED, None),
    ("quadrature", "integrate_semi_infinite", "quadrature.semi_infinite", None),
    ("specfun", "sinc_deficit", "specfun.sinc_deficit", None),
    ("coupling", "spectral_density", "coupling.spectral_density", None),
    ("rates", "rate_closed_form", "rates.closed", None),
    ("rates", "rate_double_integral", "rates.double", None),
    ("rates", "rate_monte_carlo", "rates.mc", lambda a, k, r: int(k.get("samples", 10**7))),
    ("harmonic", "coherence_ratio", "harmonic.coherence_ratio", None),
    ("harmonic", "asymptotic_coherence", "harmonic.asymptotic_coherence", None),
    ("harmonic", "decoherence_curve", "harmonic.curve", None),
    ("sweep", "run_sweep", "sweep", lambda a, k, r: int(a[0].points)),
    ("sweep", "fit_power_law", "sweep.fit", None),
    ("sweep", "fit_log_law", "sweep.fit", None),
)

# Every span name a traced pass can record; a per-layer metric belongs to
# the layer its name starts with.
SPAN_NAMES = {"quadrature.integrate", NODE, NESTED_NODE, "specfun.table_eval"} | {
    name for _, _, name, _ in _SHIMS}


class Tracer:
    """Records spans; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._caller = None
        self._saved = []
        self.call_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(span id, name) of the innermost open span for this thread."""
        stack = self._stack() or self._caller
        return stack[-1] if stack else (0, "")

    def run(self, name, fn, args, kwargs=None, count=None):
        kwargs = kwargs or {}
        parent = self.current()[0]
        stack = self._stack()
        sid = next(self._ids)
        stack.append((sid, name))
        err, n, t0 = "", 0, perf_counter()
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                n = count(args, kwargs, out)
            return out
        except BaseException as exc:
            err = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.call_id,
                               threading.get_ident(), err, n))

    def _shim(self, name, fn, count):
        def shim(*args, **kwargs):
            return self.run(name, fn, args, kwargs, count)
        shim.__wrapped__ = fn
        return shim

    def _integrate_shim(self, fn):
        def shim(f, a, b, cfg=None):
            node = NESTED_NODE if self.current()[1] == NESTED else NODE

            def integrand(x):
                return self.run(node, f, (x,))
            return self.run("quadrature.integrate", fn, (integrand, a, b, cfg),
                            count=lambda a_, k_, r: r.evaluations)
        shim.__wrapped__ = fn
        return shim

    def _patch_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "dephaser" or modname.startswith("dephaser.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Patch every binding of every traced function; the caller is this thread."""
        import dephaser.quadrature as quadrature
        import dephaser.specfun as specfun

        self._caller = self._stack()
        self._patch_everywhere(quadrature.integrate,
                               self._integrate_shim(quadrature.integrate))
        for modname, attr, name, count in _SHIMS:
            original = getattr(sys.modules[f"dephaser.{modname}"], attr)
            self._patch_everywhere(original, self._shim(name, original, count))
        table = specfun.BoseMomentTable
        self._saved.append((table, "eval", table.eval))
        # a plain function on the class, so args are (table, x)
        table.eval = self._shim("specfun.table_eval", table.eval,
                                lambda a, k, r: int(np.size(a[1])))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._caller = None

    def write(self, path):
        """Write every span as one CSV line to a gzip file."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,call,thread,error,count\n")
            for s in self.spans:
                fh.write(",".join(str(v) for v in s) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - covered(children.get(s[0], ()), s[2], s[3])
            for s in spans}


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer counts and times per traced pass, from the recorded spans."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    errored_parents = {s[4] for s in spans if s[7]}

    def n(name):
        return len(by_name[name]) / passes

    def self_s(*names):
        return sum(own[s[0]] for name in names for s in by_name[name]) / passes

    def counted(name):
        return sum(s[8] for s in by_name[name]) / passes

    integ = by_name["quadrature.integrate"]
    evals = counted("quadrature.integrate")
    engine_s = self_s("quadrature.integrate")
    mc = by_name["rates.mc"]
    mc_time = sum(s[3] - s[2] for s in mc)
    mc_samples = sum(s[8] for s in mc)
    closed_ms = [1e3 * (s[3] - s[2]) for s in by_name["rates.closed"]]
    return {
        "quadrature.integrate.calls": n("quadrature.integrate"),
        "quadrature.integrate.evals": evals,
        "quadrature.integrate.self_s": engine_s,
        "quadrature.integrate.integrand_s": self_s(NODE),
        "quadrature.integrate.nodes_per_s": evals / engine_s if engine_s > 0 else 0.0,
        # raised by the call itself, not passed up from an inner integral
        "quadrature.integrate.nonconvergence": sum(
            1 for s in integ if s[7] == "NonConvergence" and s[0] not in errored_parents
        ) / passes,
        "quadrature.nested.calls": n(NESTED),
        "quadrature.nested.inner_calls": sum(
            1 for s in integ if by_id.get(s[4], (0, ""))[1] == NESTED_NODE) / passes,
        "quadrature.nested.self_s": self_s(NESTED, NESTED_NODE),
        "quadrature.semi_infinite.calls": n("quadrature.semi_infinite"),
        "specfun.table_eval.calls": n("specfun.table_eval"),
        "specfun.table_eval.points": counted("specfun.table_eval"),
        "specfun.table_eval.self_s": self_s("specfun.table_eval"),
        "specfun.sinc_deficit.calls": n("specfun.sinc_deficit"),
        "specfun.sinc_deficit.self_s": self_s("specfun.sinc_deficit"),
        "coupling.spectral_density.calls": n("coupling.spectral_density"),
        "coupling.spectral_density.self_s": self_s("coupling.spectral_density"),
        "rates.closed.calls": n("rates.closed"),
        "rates.closed.self_s": self_s("rates.closed"),
        "rates.closed.p50_ms": statistics.median(closed_ms) if closed_ms else 0.0,
        "rates.double.calls": n("rates.double"),
        "rates.double.self_s": self_s("rates.double"),
        "rates.mc.samples": mc_samples / passes,
        "rates.mc.ns_per_sample": 1e9 * mc_time / mc_samples if mc_samples else 0.0,
        "harmonic.coherence_ratio.calls": n("harmonic.coherence_ratio"),
        "harmonic.coherence_ratio.self_s": self_s("harmonic.coherence_ratio"),
        "harmonic.curve.pool_s": self_s("harmonic.curve"),
        "sweep.points": counted("sweep"),
        "sweep.pool_s": self_s("sweep"),
        "sweep.fit.self_s": self_s("sweep.fit"),
    }
