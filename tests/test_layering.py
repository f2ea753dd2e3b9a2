"""Only spectrum.py evaluates mode factors: no other module of the package
names the private parts of the factor kernel. Tests of the kernel itself
may call them."""

import ast
from pathlib import Path

import steklov

KERNEL = {"_factors", "_factor_table", "_axis_tables", "_factor_plan", "_apply_kinds"}


def kernel_references(path: Path):
    """(line, name) of every attribute, name or import of a KERNEL name in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name in KERNEL)


def test_only_the_spectrum_module_touches_the_mode_factors():
    modules = sorted(Path(steklov.__file__).parent.glob("*.py"))
    assert "spectrum.py" in [path.name for path in modules]
    found = {path.name: refs for path in modules if path.name != "spectrum.py" and (refs := list(kernel_references(path)))}
    assert found == {}
