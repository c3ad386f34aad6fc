"""The benchmark's hooks into quadlie still point at something.

perfbench/tracer.py wraps quadlie functions and methods named by module and
name, and perfbench/run.py reads quadlie._fast.BACKEND. A refactor that moves
or renames one of them would otherwise surface only in the benchmark run.
The tracer file is parsed, not imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks(name):
    """The literal tuple assigned to name at the top level of tracer.py."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACER.name}")


def test_traced_functions_are_module_level_functions_of_their_module():
    missing = []
    for module, name, _ in _hooks("FUNCTIONS"):
        fn = getattr(importlib.import_module(module), name, None)
        if not (inspect.isfunction(fn) and (fn.__module__, fn.__qualname__) == (module, name)):
            missing.append(f"{module}.{name}")
    assert not missing


def test_traced_methods_are_defined_on_their_class():
    missing = []
    for module, cls_name, meth, _ in _hooks("METHODS"):
        cls = getattr(importlib.import_module(module), cls_name, None)
        if not (inspect.isclass(cls) and callable(vars(cls).get(meth))):
            missing.append(f"{module}.{cls_name}.{meth}")
    assert not missing


def test_fast_backend_is_named():
    assert isinstance(importlib.import_module("quadlie._fast").BACKEND, str)
