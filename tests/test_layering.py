"""metrics and stats are leaves of the package: neither imports another
unmixlab module."""

import ast
from pathlib import Path

import pytest

import unmixlab

PACKAGE = Path(unmixlab.__file__).parent


def _package_imports(path: Path) -> list[str]:
    """The unmixlab modules that the import statements of path name,
    relative imports included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "unmixlab":
                found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "unmixlab"]
    return found


@pytest.mark.parametrize("module", ["metrics", "stats"])
def test_imports_no_other_unmixlab_module(module):
    assert _package_imports(PACKAGE / f"{module}.py") == []
