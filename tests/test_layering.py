"""The packed term format stays inside ``poly`` and ``brackets``.

``poly`` owns the format (layouts, packing, unpacking, tagged entries) and
``brackets`` owns the kernel walk and every reader of it; every other
module takes brackets as integer rows or polynomials from ``brackets``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phasealg"
OWNERS = {"poly", "brackets"}
PACKED_NAMES = {"_series", "_tagged", "_pack", "_unpack", "_layout", "_units", "_product_into"}


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
