"""The benchmark's hooks into quadlie still point at something.

perfbench/tracer.py wraps quadlie functions and methods named by module and
name, perfbench/run.py reads quadlie._fast.BACKEND, and the roundtrip
workload in perfbench/workloads.py recognizes one known wrong verdict by its
reason string. A refactor that moves or renames one of them would otherwise
surface only in the benchmark run. The perfbench files are parsed, not
imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

from quadlie.exact_field import Field
from quadlie.linalg import Matrix
from quadlie.oscillator import OscillatorData, decide_isometric, from_lambda_tuple
from quadlie.quadspace import OrthogonalSpace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _literal(file, name):
    """The literal assigned to name at the top level of perfbench/file."""
    path = PERFBENCH / file
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {path.name}")


def test_traced_functions_are_module_level_functions_of_their_module():
    missing = []
    for module, name, _ in _literal("tracer.py", "FUNCTIONS"):
        fn = getattr(importlib.import_module(module), name, None)
        if not (inspect.isfunction(fn) and (fn.__module__, fn.__qualname__) == (module, name)):
            missing.append(f"{module}.{name}")
    assert not missing


def test_patched_entry_points_keep_their_arity():
    # the tracer reads args[0] of minimal_polynomial as a Matrix, and tests
    # stand in for minimal_polynomial(A), primary_component(A, pi, k) and
    # primary_split(f)
    for module, name, params in [
        ("quadlie.linalg", "minimal_polynomial", ["A"]),
        ("quadlie.linalg", "primary_component", ["A", "pi", "k"]),
        ("quadlie.skewcanon", "primary_split", ["f"]),
    ]:
        fn = getattr(importlib.import_module(module), name)
        assert list(inspect.signature(fn).parameters) == params


def test_traced_methods_are_defined_on_their_class():
    missing = []
    for module, cls_name, meth, _ in _literal("tracer.py", "METHODS"):
        cls = getattr(importlib.import_module(module), cls_name, None)
        if not (inspect.isclass(cls) and callable(vars(cls).get(meth))):
            missing.append(f"{module}.{cls_name}.{meth}")
    assert not missing


def test_fast_backend_is_named():
    assert isinstance(importlib.import_module("quadlie._fast").BACKEND, str)


def test_known_wrong_no_keeps_its_reason():
    # roundtrip counts a "no" on a repeated-lambda rational seed as the known
    # defect only under this reason; any other reason reads as a wrong output
    Q = Field.parse("Q")
    d = from_lambda_tuple(Q, (3, 3))
    P = Matrix(Q, [[1, 0, -1, 1], [-1, -1, -1, -1], [2, 0, 2, -1], [0, 2, 2, 0]])
    scrambled = OscillatorData(
        OrthogonalSpace(P.transpose() * d.space.gram * P), P.inverse() * d.delta.matrix * P
    )
    out = decide_isometric(d, scrambled)
    assert (out["verdict"], out["reason"]) == ("no", _literal("workloads.py", "KNOWN_WRONG_NO"))
