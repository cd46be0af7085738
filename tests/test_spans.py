"""Every entry point that the benchmark tracer (``perfbench/spans.py``)
wraps still exists, and its engine counters read one rate call per step.
A missing one breaks only a traced benchmark run, so nothing else in the
suite would notice a rename or a removal."""

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ddjump as dj
from ddjump import engine

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    # executed from its source text, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_spans")
    sys.modules[module.__name__] = module  # its dataclass looks the module up by name
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), module.__dict__)
    return module


SPANS = _spans_module()


@pytest.mark.parametrize(
    "module,attribute",
    [*SPANS.SPANS, *SPANS.CERTIFY_COUNTS, ("ddjump.engine", "compile_rates")],
)
def test_traced_entry_point_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


@pytest.mark.parametrize("mode", [engine.RECORDS, engine.EVENTS, engine.MARTINGALE, engine.EXIT])
def test_engine_counters_read_one_rate_call_per_step(mode):
    # a pure death started at N takes N events, then one step that finds
    # every replicate absorbed, in every mode
    N, reps = 6, 5
    kw = {
        engine.RECORDS: dict(record_times=(1e3,)),
        engine.EVENTS: dict(horizon=1e3),
        engine.MARTINGALE: dict(horizon=1e3, stop_box=(np.array([-1.0]), np.array([2.0]))),
        engine.EXIT: dict(
            horizon=1e3, exit_ball=engine.Restriction(M=np.eye(1), center=np.array([6.0]), radius=10.0)
        ),
    }[mode]
    model = dj.parse_model("[dimension]\n1\n[jumps]\n-1 : x1\n")
    for module, _ in SPANS.SPANS:  # the tracer wraps loaded modules only
        importlib.import_module(module)
    with SPANS.Tracer() as tracer:
        out = engine.simulate_chunk(model, N, np.array([N]), 1, 0, reps, mode=mode, **kw)
    assert out["absorbed"].all()
    assert tracer.counts["engine.steps"] == N + 1
    assert tracer.counts["engine.rate_rows"] == reps * (N + 1)
