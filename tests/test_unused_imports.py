"""Every name a package module imports is used in it (no linter runs on this repo).

A name counts as used when the module reads it anywhere (`np.x` reads `np`).
The names that a module lists in `__all__` are re-exports, not unused.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sigclass"


def unused_imports(source):
    """The names that source imports at any level but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_checker_sees_unused_and_reexported_names():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d\nnp.x(c)\n") == ["os", "d"]
    assert unused_imports("from .errors import E\n__all__ = ['E']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
