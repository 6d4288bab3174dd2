"""Each layer's dependencies stay with their owner.

The packed term format stays inside ``poly`` and ``brackets``: ``poly`` owns
the format (layouts, packing, unpacking, tagged entries) and ``brackets``
owns the kernel walk and every reader of it; every other module takes
brackets as integer rows or polynomials from ``brackets``.  Inside them,
``poly._pack`` has two callers: ``PhasePoly.__mul__`` packs a product's
operands and ``brackets._PackedBasis._run`` packs every bracket walk's.

numpy and scipy stay inside ``spectra._float_layer``, which the FD solver
calls when it runs, so importing the package loads neither.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phasealg"
OWNERS = {"poly", "brackets"}
PACKED_NAMES = {"_tagged", "_pack", "_unpack", "_layout", "_units", "_product_into"}
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


PACK_CALLERS = {("poly", "PhasePoly.__mul__"), ("brackets", "_PackedBasis._run")}


def _pack_callers(tree: ast.Module) -> set[str]:
    """The qualified name of each function under ``tree`` that calls
    ``_pack`` (or ``poly._pack``) itself; a method's is ``Class.method``."""
    callers = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "_pack"
                        or isinstance(func, ast.Attribute) and func.attr == "_pack"
                        and isinstance(func.value, ast.Name) and func.value.id == "poly"):
                    callers.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return callers


def test_only_the_packed_basis_and_the_product_call_pack():
    """One owner packs every bracket walk: a second packer (a free function
    in ``brackets``, say) is a fork of the kernel's one per-walk set-up,
    ``_PackedBasis._run``."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.stem, name) for name in _pack_callers(tree)}
    assert found == PACK_CALLERS


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
