"""Only spectrum.py evaluates mode factors: no other module of the package
names the private parts of the factor kernel or its block sizes. Tests of
the kernel itself may call them. No module-level private name of the
package is dead: some package module reads each one. And the scalar
reference of the tests reads no private name of the package."""

import ast
from pathlib import Path

import steklov

KERNEL = {"_factors", "_factor_table", "_axis_tables", "_factor_plan", "_apply_kinds"}
BLOCK_SIZES = {"_BLOCK", "_BLOCK_ENTRIES"}


def kernel_references(path: Path, names=KERNEL):
    """(line, name) of every attribute, name, import or string of one of
    `names` in the module at path; a string reaches the kernel through
    getattr or a cached property's __dict__ entry."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.ImportFrom):
            found = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = [node.value]
        else:
            continue
        yield from ((node.lineno, name) for name in found if name in names)


def test_only_the_spectrum_module_touches_the_mode_factors():
    modules = sorted(Path(steklov.__file__).parent.glob("*.py"))
    assert "spectrum.py" in [path.name for path in modules]
    found = {path.name: refs for path in modules if path.name != "spectrum.py" and (refs := list(kernel_references(path)))}
    assert found == {}


def test_only_the_spectrum_module_sizes_evaluation_blocks():
    """Spectrum._point_blocks is the one block rule: every other module
    takes its blocks (_point_blocks, _mode_blocks) and names no block size."""
    modules = sorted(Path(steklov.__file__).parent.glob("*.py"))
    found = {path.name: refs for path in modules
             if path.name != "spectrum.py" and (refs := list(kernel_references(path, BLOCK_SIZES)))}
    assert found == {}


def test_the_scalar_reference_imports_no_private_package_name():
    """tests/scalar_reference.py keeps its own family table and formulas:
    what it imports from steklov is public."""
    path = Path(__file__).parent / "scalar_reference.py"
    imported = [alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("steklov") for alias in node.names]
    assert imported and [name for name in imported if name.startswith("_")] == []


def test_the_coefficient_pass_reaches_no_factor_plan():
    """boundary.py evaluates the live parity classes of a coefficient pass
    as a row subset, Spectrum.take: the subset's factor plans are built
    inside spectrum.py, and boundary.py names no plan, kind table or kernel."""
    path = Path(steklov.__file__).parent / "boundary.py"
    assert {"_factor_plan", "_factor_table", "_axis_tables", "_apply_kinds"} <= KERNEL
    assert list(kernel_references(path)) == []


def module_private_names(tree: ast.Module):
    """(line, name) of every private (underscore) name a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_module_level_private_name_is_read():
    """A private helper or constant no package module reads is dead code."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(Path(steklov.__file__).parent.glob("*.py"))}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [(module, line, name) for module, tree in trees.items()
              for line, name in module_private_names(tree) if name not in read]
    assert unread == []
