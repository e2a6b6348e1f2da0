"""The library is standard-library only: every import under src/tworow
names either a standard-library module or tworow itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tworow"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_library_imports_only_the_standard_library():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths, f"no modules found under {PACKAGE}"
    foreign = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, module in _imported_modules(tree):
            top = module.split(".")[0]
            if top != "tworow" and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{lineno}: {module}")
    assert foreign == []
