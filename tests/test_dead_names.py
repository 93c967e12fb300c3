"""Every module-level function, class and constant of the package is read in the package.

A name counts as read when some package module loads it (`f()`) or reads an
attribute of that name (`synthgen.ROSTER`); its own definition does not count.
Dunders such as `__version__` are read by Python and tools, so they are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sigclass"


def defined_names(tree):
    """The non-dunder names that a module's top-level statements define, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def dead_names(sources):
    """The names that the sources define at module level but none of them reads."""
    trees = [ast.parse(source) for source in sources]
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [name for tree in trees for name in defined_names(tree) if name not in read]


def test_checker_sees_unread_names():
    sources = ["A = 1\nB: int = 2\n__all__ = []\ndef f():\n    return g()\nclass C:\n    pass\n",
               "from .a import f\ndef g():\n    f()\nm.A\n"]
    assert dead_names(sources) == ["B", "C"]


def test_package_reads_every_module_level_name():
    assert dead_names(p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))) == []
