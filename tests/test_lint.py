"""Every import in the library is used, and every module-level private
name is read somewhere in it: AST checks, with no linter needed.

`__init__.py` only re-exports, and `from __future__` imports are
directives, so both are exempt from the import check.
"""

import ast
from pathlib import Path

import pytest

import fmapkit

MODULES = sorted(p for p in Path(fmapkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read anywhere in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nfrom pathlib import Path\nimport numpy as np\nnp.zeros(1)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: Path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_names` defined in one of the sources and read in none.

    A read is a loaded name or an attribute (`_blas._controls`) anywhere in
    any of the sources; dunder names are exempt.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_stray = 1\ndef _helper():\n    return _LIMIT\n"
                "def _project(x):\n    return x\n",
        "b.py": "import a\nfrom a import _helper\n_helper()\n_cached: int = 0\n",
        "c.py": "import a\na._project(2)\n",
    }
    assert unread_private_names(sources) == ["a.py: _stray", "b.py: _cached"]


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in Path(fmapkit.__file__).parent.glob("*.py")}
    assert unread_private_names(sources) == []
