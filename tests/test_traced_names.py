"""The names that the benchmark's tracer wraps must exist in the program.

``perfbench/spans.py`` looks up each ``(module, attr)`` of ``TRACED_FUNCTIONS``
and ``driveselect.cli.ToyPlanner`` with ``getattr`` when a traced pass starts.
A rename in ``src/`` would otherwise fail only a traced benchmark run. The
list is read from the file; the tracer is not installed here.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_functions() -> tuple:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED_FUNCTIONS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED_FUNCTIONS in {SPANS}")


@pytest.mark.parametrize("module, attr", [*traced_functions(), ("cli", "ToyPlanner")])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"driveselect.{module}"), attr))
