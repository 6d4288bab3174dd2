"""Each layer's dependencies stay with their owner.

The packed term format stays inside ``poly`` and ``brackets``: ``poly`` owns
the format (layouts, packing, unpacking, tagged entries) and ``brackets``
owns the kernel walk and every reader of it; every other module takes
brackets as integer rows or polynomials from ``brackets``.  Inside them,
``poly._pack`` has two callers: ``PhasePoly.__mul__`` packs a product's
operands and ``brackets._PackedBasis._run`` packs every bracket walk's.
``poly._unpack`` reads a product and a public bracket as a polynomial, and
every other walk is read as integer blocks (``poly._tagged``); of those,
``_PackedBasis.blocks`` has one caller, the closure's pair loop.

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
# The one reader of a walk as a polynomial: every other reader takes
# ``poly._tagged``'s integer blocks.
UNPACK_CALLERS = {("brackets", "poisson_bracket"), ("brackets", "moyal_bracket"),
                  ("poly", "PhasePoly.__mul__")}


def _callers(name: str, method: bool = False) -> set[tuple[str, str]]:
    """``(module, qualified function)`` of each function in the package that
    calls ``name`` itself, as a bare name or as ``poly.<name>``, or, with
    ``method``, as an attribute of any object; a method's qualified name is
    ``Class.method``."""
    callers = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == name
                        or isinstance(func, ast.Attribute) and func.attr == name
                        and (method or isinstance(func.value, ast.Name) and func.value.id == "poly")):
                    callers.add((module, scope or "<module>"))
            visit(child, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.stem
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return callers


def test_only_the_packed_basis_and_the_product_call_pack():
    """One owner packs every bracket walk: a second packer (a free function
    in ``brackets``, say) is a fork of the kernel's one per-walk set-up,
    ``_PackedBasis._run``."""
    assert _callers("_pack") == PACK_CALLERS


def test_one_pair_loop_and_one_polynomial_reader():
    """``_PackedBasis.blocks`` serves one pair loop, the closure's, which
    ``LieClosure.verify`` re-runs: a second caller is a second pair loop.
    Only the public brackets and the product read a walk as a polynomial
    (``poly._unpack``); every other reader takes its integer blocks."""
    assert _callers("blocks", method=True) == {("closure", "_close")}
    assert _callers("_unpack") == UNPACK_CALLERS


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
