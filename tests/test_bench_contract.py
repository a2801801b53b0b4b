"""The benchmark's traced run wraps the functions named in
``perfbench/tracer.py``, and its verify workload patches the bindings of
``sunbch.verify`` named in ``perfbench/run.py``; each must still exist
where it is named."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import sunbch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
RUN = PERFBENCH / "run.py"


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


def test_traced_modules_load_with_the_cli():
    """The benchmark imports `sunbch` and `sunbch.cli`, then wraps the
    traced functions of each module it finds in ``sys.modules``."""
    modules = [f"sunbch.{mod}" for mod in load_tracer().TRACED]
    script = f"import sys, sunbch, sunbch.cli; print([m for m in {modules!r} if m not in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(sunbch.__file__).resolve().parents[1]))
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert child.returncode == 0 and child.stdout == "[]\n"


def test_instrumented_verify_bindings_resolve():
    """verify-n4 patches every ``TICKED`` name of ``run.py`` on
    ``sunbch.verify`` with getattr/setattr.  The two assignments are run
    alone from the parsed source, so ``run.py`` is neither imported nor
    compiled to bytecode."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"), str(RUN))
    names = ("TIMED", "TICKED")
    assigns = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in names for t in node.targets)
    ]
    namespace = {}
    exec(compile(ast.Module(body=assigns, type_ignores=[]), str(RUN), "exec"), namespace)
    verify = importlib.import_module("sunbch.verify")
    assert set(namespace["TIMED"]) <= set(namespace["TICKED"])
    assert [name for name in namespace["TICKED"] if not callable(getattr(verify, name, None))] == []
