"""Each layer's dependencies stay with their owner.

The packed term format stays inside ``poly`` and ``brackets``: ``poly`` owns
the format (layouts, packing, unpacking, tagged entries) and ``brackets``
owns the kernel walk and every reader of it; every other module takes
brackets as integer rows or polynomials from ``brackets``.

numpy and scipy stay inside ``spectra._float_layer``, which the FD solver
calls when it runs, so importing the package loads neither.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phasealg"
OWNERS = {"poly", "brackets"}
PACKED_NAMES = {"_series", "_tagged", "_pack", "_unpack", "_layout", "_units", "_product_into"}
FLOAT_LIBRARIES = {"numpy", "scipy"}


def test_only_poly_and_brackets_import_the_packed_format():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert OWNERS <= set(modules)
    offenders = {}
    for name, path in sorted(modules.items()):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        if name not in OWNERS and imported & PACKED_NAMES:
            offenders[name] = sorted(imported & PACKED_NAMES)
    assert offenders == {}


def _float_imports(tree: ast.AST) -> list[ast.stmt]:
    """Every ``import`` under ``tree`` of numpy, scipy or one of their modules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in FLOAT_LIBRARIES for name in names):
            found.append(node)
    return found


def test_only_the_float_layer_helper_imports_numpy_and_scipy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "spectra.py" in modules
    offenders = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = [node for node in tree.body if path.stem == "spectra"
                   and isinstance(node, ast.FunctionDef) and node.name == "_float_layer"]
        inside = {id(node) for helper in allowed for node in _float_imports(helper)}
        lines = [node.lineno for node in _float_imports(tree) if id(node) not in inside]
        if lines:
            offenders[str(path.relative_to(PACKAGE))] = lines
    assert offenders == {}
