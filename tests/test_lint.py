"""Every import in the library is used, every module-level private name
is read somewhere in it, every module-level cache is emptied between
tests, IndexOutOfRange has one raise site and LengthMismatch a pinned few:
AST checks, with no linter needed.

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


# constructors of a cache container, and decorators that memoise a function
CACHE_TYPES = {"LRU", "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary",
               "dict", "defaultdict"}
MEMO_DECORATORS = {"cache", "lru_cache"}


def _callee(node) -> str | None:
    """The bare name a call or decorator expression names (`functools.cache` -> cache)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def module_caches(sources: dict[str, str]) -> list[str]:
    """Module-level caches: a name bound to a new container (one of
    CACHE_TYPES or an empty `{}`), or a function memoised by a decorator
    in MEMO_DECORATORS."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if any(_callee(d) in MEMO_DECORATORS for d in node.decorator_list):
                    found.append(f"{module}: {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                value = node.value
                if (isinstance(value, ast.Dict) and not value.keys) or (
                        isinstance(value, ast.Call) and _callee(value) in CACHE_TYPES):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found += [f"{module}: {t.id}" for t in targets if isinstance(t, ast.Name)]
    return found


def emptied_by(source: str, fixture: str) -> set[str]:
    """`module.py: name` of every `module.name` that function `fixture` reaches.

    Modules are the names it imports `from fmapkit`, under their aliases.
    """
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name
               for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module == "fmapkit" for alias in node.names}
    [func] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == fixture]
    return {f"{modules[node.value.id]}.py: {node.attr}" for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_the_check_sees_a_module_cache():
    sources = {
        "a.py": "import functools\nfrom ._lru import LRU\n_SIZES = {'a': 1}\n_seen = {}\n"
                "_hits = LRU(2)\n_rows: dict = weakref.WeakKeyDictionary()\n_saved = []\n"
                "@functools.cache\ndef _parser():\n    pass\n"
                "@functools.lru_cache(maxsize=4)\ndef _solve(k):\n    pass\n",
    }
    assert module_caches(sources) == ["a.py: _seen", "a.py: _hits", "a.py: _rows",
                                      "a.py: _parser", "a.py: _solve"]
    fixture = ("from fmapkit import a as a_module, b\n"
               "def cold():\n    a_module._hits.clear()\n    b._x.cache_clear()\n")
    assert emptied_by(fixture, "cold") == {"a.py: _hits", "b.py: _x"}


def test_every_module_cache_is_emptied_between_tests():
    """tests/conftest.py's autouse fixture empties each cache, so no test
    sees a value an earlier one left."""
    sources = {p.name: p.read_text() for p in Path(fmapkit.__file__).parent.glob("*.py")}
    conftest = (Path(__file__).parent / "conftest.py").read_text()
    caches = module_caches(sources)
    assert caches   # the check finds the caches it guards
    assert set(caches) - emptied_by(conftest, "cold_side_cache") == set()


def raise_sites(sources: dict[str, str], error: str) -> list[str]:
    """`module: function` of every function with a `raise error` of its own.

    A raise in a nested function counts for that function alone; one
    outside any function counts for `<module>`.
    """
    sites = []

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            site = f"{module}: {func}"
            if (isinstance(child, ast.Raise) and child.exc is not None
                    and _callee(child.exc) == error and site not in sites):
                sites.append(site)
            visit(child, module, func)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sites


def test_the_check_sees_a_raise_site():
    sources = {
        "a.py": "def check(i):\n    if i < 0:\n        raise IndexOutOfRange('low')\n"
                "    if i > 9:\n        raise IndexOutOfRange('high')\n"
                "def other():\n    raise LengthMismatch('x')\n"
                "def outer():\n    def inner():\n        raise errors.IndexOutOfRange\n"
                "    return inner\n",
        "b.py": "raise IndexOutOfRange('at import')\n",
    }
    assert raise_sites(sources, "IndexOutOfRange") == ["a.py: check", "a.py: inner",
                                                       "b.py: <module>"]


def test_index_out_of_range_has_one_raise_site():
    """errors._vertex_indices is the one vertex-index check."""
    sources = {p.name: p.read_text() for p in MODULES}
    assert raise_sites(sources, "IndexOutOfRange") == ["errors.py: _vertex_indices"]


def test_length_mismatch_raise_sites_are_pinned():
    """Array shapes are checked in errors, the one home of the array
    contract: by _matrix (2-D), _rows ((n,) or (n, d)) and _vertex_indices
    (integer indices); a new hand-written shape comparison adds a site
    here. The others check values a shape cannot say: an empty part list,
    fewer than two rows, soft-map row values, no errors to aggregate."""
    sources = {p.name: p.read_text() for p in MODULES}
    assert raise_sites(sources, "LengthMismatch") == [
        "descriptors.py: concat_features",
        "diagnostics.py: nn_distinctness",
        "errors.py: _matrix",
        "errors.py: _rows",
        "errors.py: _vertex_indices",
        "evaluate.py: accuracy_curve",
        "fmap.py: _check_rows",
        "fmap.py: _exp_rows",
    ]
