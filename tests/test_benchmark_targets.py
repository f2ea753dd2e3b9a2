"""The benchmark still finds the package surface it uses.

perfbench/tracing.py wraps the functions listed in its TARGETS; one that no
longer resolves drops the metrics that depend on it. perfbench/workloads.py
calls package functions by module attribute, and its session check reads
nu and delta from the records of a loaded cache. A deletion that would
break the benchmark fails here first. The benchmark's sources are parsed,
never imported or changed.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

from steklov import Rectangle, build_spectrum_by_count, spectrum_from_json, spectrum_to_json
from steklov.analysis import boundary_sup

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _targets():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    missing = [f"{m}.{attr}" for m, attr, _span in targets if not callable(_resolve(m, attr))]
    assert missing == []


def _workload_names():
    """Each `module.attr[.attr...]` that workloads.py reads from a steklov module
    it imports by `from steklov import module`."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "steklov" for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add((f"steklov.{modules[node.id]}", ".".join(reversed(chain))))
    return names


def test_every_workload_name_resolves():
    names = _workload_names()
    assert {("steklov.spectrum", "spectrum_from_json"), ("steklov.solvers", "solve_robin")} <= names
    missing = [f"{m}.{attr}" for m, attr in sorted(names) if _resolve(m, attr) is None]
    assert missing == []


def test_traced_boundary_sup_arguments_exist():
    """The tracer counts boundary_sup's samples from the arguments it binds by name."""
    bound = set()
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "arguments"):
            bound.add(node.args[0].value)
    assert bound == {"samples_per_side", "include_corners"}
    assert bound <= set(inspect.signature(boundary_sup).parameters)


def test_cache_records_carry_the_arrays():
    """The session check: the (nu, delta) of each record of a loaded cache are
    the cache rows', and the tracer counts the records."""
    spec = build_spectrum_by_count(Rectangle(0.7), 60)
    text = spectrum_to_json(spec)
    loaded = spectrum_from_json(text)
    records = [(md.nu, md.delta) for md in loaded.modes]
    assert records == [(row["nu"], row["delta"]) for row in json.loads(text)["modes"]]
    assert records == list(zip(loaded.arrays.nu.tolist(), loaded.arrays.delta.tolist()))
    assert len(loaded.modes) == loaded.size == spec.size
