"""Checks on the quadlie sources themselves, which are parsed, not imported.

Rational data becomes integers in one place: _fast.integer_image reads each
Fraction with one as_integer_ratio call, and every kernel, the Lie algebra
layer and rational factoring go through it. A second reader of
as_integer_ratio elsewhere would be a second copy of that helper.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quadlie"


def test_only_fast_reads_as_integer_ratio():
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_fast.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio":
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers, f"as_integer_ratio outside _fast.py: {readers}"

