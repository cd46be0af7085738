"""Every entry point that the benchmark tracer (``perfbench/spans.py``)
wraps still exists.  A missing one breaks only a traced benchmark run, so
nothing else in the suite would notice a rename or a removal."""

import importlib
import sys
import types
from pathlib import Path

import pytest

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

