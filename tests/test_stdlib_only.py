"""The library is standard-library only: every import under src/tworow
names either a standard-library module or tworow itself, and importing it
loads neither dataclasses nor, without the command line, json."""

import ast
import subprocess
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


def test_no_module_imports_dataclasses():
    # records are named tuples: dataclasses, with the inspect, ast and dis
    # it pulls in, would more than double the import of tworow.cli
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{lineno}" for lineno, module in _imported_modules(tree)
                  if module.split(".")[0] == "dataclasses"]
    assert found == []


def _loaded_by(statement):
    """The modules that a fresh isolated interpreter loads for statement."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); before = set(sys.modules)\n"
        f"{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_import_loads_neither_dataclasses_nor_json_for_the_library():
    cli = _loaded_by("import tworow.cli")
    assert "tworow.cli" in cli and "dataclasses" not in cli
    library = _loaded_by("import tworow")
    assert "tworow.springer" in library
    assert not {"dataclasses", "json", "tworow.cli"} & library
