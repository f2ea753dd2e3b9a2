"""The benchmark tracer's wrap targets still name functions of the package.

perfbench/tracing.py wraps the functions listed in its TARGETS; one that no
longer resolves drops the metrics that depend on it. TARGETS is read from the
file's source, so the benchmark code is neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for module_name, attr, _span in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
