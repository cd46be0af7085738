"""Spans and counts recorded around ddjump's layer entry points.

The package is instrumented from outside: :meth:`Tracer.install` replaces
each entry point listed in ``SPANS`` with a wrapper in every loaded
``ddjump`` module namespace that holds it (modules import each other's
functions by name), and :meth:`Tracer.restore` puts the originals back.
Spans are kept in memory; a span's self time is its duration minus the
durations of its direct children.  Wrappers return the wrapped call's
result unchanged, so traced and untraced runs produce identical bytes.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# (module, attribute) of every layer entry point that gets a span
SPANS = (
    ("ddjump.dynamics", "certify"),
    ("ddjump.dynamics", "cutoff_time"),
    ("ddjump.lattice", "classify_jumps"),
    ("ddjump.rng", "substream"),
    ("ddjump.engine", "run_paths"),
    ("ddjump.engine", "simulate_chunk"),
    ("ddjump.simulate", "estimate_K2"),
    ("ddjump.simulate", "coupled_ensemble"),
    ("ddjump.simulate", "simulate_coupled"),
    ("ddjump.simulate", "martingale_deviation"),
    ("ddjump.simulate", "exit_probability"),
    ("ddjump.equilibrium", "stationary_exact"),
    ("ddjump.equilibrium", "build_restricted_generator"),
    ("ddjump.equilibrium", "enumerate_ball"),
    ("ddjump.equilibrium", "cutoff_profile"),
    ("ddjump.equilibrium", "tv_distance"),
    ("ddjump.equilibrium", "_empirical_tv_with_ci"),
    ("ddjump.io", "write_csv"),
)

# rate evaluations counted while certify is running
CERTIFY_COUNTS = (("ddjump.model", "eval_rates"), ("ddjump.model", "rate_gradients"))

ENGINE_STEP = "ddjump.engine.simulate_chunk"


def _union_rows(a, b):
    """Number of distinct lattice points among the rows of ``a`` and ``b``."""
    rows = np.concatenate([np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)])
    rows = rows - rows.min(axis=0)
    keys = np.ravel_multi_index(rows.T, tuple(rows.max(axis=0) + 1))
    return int(len(np.unique(keys)))


# union support of the two laws a TV call compares, read from its arguments
SPAN_SIZES = {
    "ddjump.equilibrium.tv_distance": lambda args: _union_rows(args[0].support, args[1].support),
    "ddjump.equilibrium._empirical_tv_with_ci": lambda args: _union_rows(args[0], args[1].support),
}
RESULT_SIZES = {
    "ddjump.equilibrium.enumerate_ball": len,
    "ddjump.io.write_csv": lambda text: len(text.encode()),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    N: int
    end: float = 0.0
    children_s: float = 0.0
    size: int = 0
    error: bool = False

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.children_s


class Tracer:
    """Span recorder.  ``only`` restricts :meth:`install` to those span names
    (a timing-only run wraps just ``engine.run_paths``)."""

    def __init__(self, only=None):
        self.only = only
        self.spans = []
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.N = 0
        self._patches = []

    # -- recording -------------------------------------------------------
    def _wrap_span(self, name, fn):
        size_args = SPAN_SIZES.get(name)
        size_result = RESULT_SIZES.get(name)

        def wrapper(*args, **kwargs):
            size = size_args(args) if size_args else 0
            parent = self.stack[-1] if self.stack else -1
            span = Span(name, 0.0, parent, self.N, size=size)
            idx = len(self.spans)
            self.spans.append(span)
            self.stack.append(idx)
            self.active[name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self.active[name] -= 1
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent].children_s += span.dur
            if size_result:
                span.size = size_result(result)
            return result

        return wrapper

    def _wrap_certify_count(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active["ddjump.dynamics.certify"]:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_compile_rates(self, fn):
        """Kernels compiled while a simulate_chunk span is open count their
        calls (event steps) and rows (replicates advanced)."""

        def compile_rates(model):
            kernel = fn(model)
            if not self.active[ENGINE_STEP]:
                return kernel

            def counted(Y):
                self.counts["engine.steps"] += 1
                self.counts["engine.rate_rows"] += Y.shape[0] if Y.ndim == 2 else 1
                return kernel(Y)

            return counted

        return compile_rates

    # -- installation ----------------------------------------------------
    def _replace(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ddjump" or modname.startswith("ddjump.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self):
        for modname, attr in SPANS:
            name = f"{modname}.{attr}"
            if self.only is None or name in self.only:
                original = getattr(sys.modules[modname], attr)
                self._replace(original, self._wrap_span(name, original))
        if self.only is not None:
            return
        for modname, attr in CERTIFY_COUNTS:
            original = getattr(sys.modules[modname], attr)
            self._replace(original, self._wrap_certify_count(f"{modname}.{attr}", original))
        engine = sys.modules["ddjump.engine"]
        self._replace(engine.compile_rates, self._wrap_compile_rates(engine.compile_rates))
        dist_cls = sys.modules["ddjump.dist"].LatticeDistribution
        original = dist_cls.__dict__["from_points"]
        dist_cls.from_points = staticmethod(
            self._wrap_span("ddjump.dist.from_points", original.__func__)
        )
        self._patches.append((dist_cls, "from_points", original))

    def restore(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- queries ---------------------------------------------------------
    def select(self, name, since=0, N=None):
        return [
            s
            for s in self.spans[since:]
            if s.name == name and (N is None or s.N == N)
        ]

    def total(self, name, since=0, N=None):
        return sum(s.dur for s in self.select(name, since, N))

    def self_total(self, name, since=0, N=None):
        return sum(s.self_s for s in self.select(name, since, N))

    def median(self, name, since=0):
        durs = [s.dur for s in self.select(name, since)]
        return statistics.median(durs) if durs else 0.0

    def top_level_s(self, since=0):
        return sum(s.dur for s in self.spans[since:] if s.parent < 0)


class tag:
    """Label spans opened inside the block with the system size N."""

    def __init__(self, tracer, N):
        self.tracer = tracer
        self.N = N

    def __enter__(self):
        if self.tracer is not None:
            self.prev, self.tracer.N = self.tracer.N, self.N

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.N = self.prev
