"""The benchmark's traced run wraps the functions named in
``perfbench/tracer.py``; each must still exist where it is named."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """Execute the tracer's source without importing it, so no bytecode is written."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    missing = []
    for mod, fns in tracer.TRACED.items():
        module = importlib.import_module(f"sunbch.{mod}")
        missing += [f"{mod}.{fn}" for fn in fns if not callable(getattr(module, fn, None))]
    assert missing == []
    assert set(tracer.FAILURE_SITES) <= set(tracer.NAMES)
