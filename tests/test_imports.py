"""Static guards: every name a package module imports is used by that module,
every module-level private name is referenced somewhere in the package, and
every formula catalog entry's function takes the parameters its signature
names."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import grundydom
from grundydom.theory import FORMULAS

MODULES = sorted(p for p in Path(grundydom.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no Name node reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_guard_sees_unused_imports():
    source = "import os\nimport os.path as osp\nfrom itertools import combinations, chain\nchain\n"
    assert unused_imports(source) == ["os", "osp", "combinations"]
    assert unused_imports("from __future__ import annotations\nimport time\ntime.sleep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def names_in(tree: ast.AST) -> list[str]:
    """Every name the tree reads, binds, reaches as an attribute or imports."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name)
    return out


def defined_names(node: ast.stmt) -> list[str]:
    """Names a module-level function, class or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def is_formula(node: ast.stmt) -> bool:
    # registered in theory.FORMULAS by its decorator and reached through the table
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_formula"
        for d in getattr(node, "decorator_list", ())
    )


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants, outside
    __init__.py, that no code in sources names apart from their own definition.

    Names are matched by spelling across all sources, so a use in one module
    keeps a same-named private of another alive. Dunder names and functions
    registered with @_formula are exempt.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    counts = Counter(name for tree in trees.values() for name in names_in(tree))
    out = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            for name in defined_names(node):
                if not name.startswith("_") or name.endswith("__") or is_formula(node):
                    continue
                if counts[name] == names_in(node).count(name):
                    out.append(f"{module}:{name}")
    return out


def test_guard_sees_unreferenced_privates():
    sources = {
        "__init__.py": "from .a import _used_by_init\n",
        "a.py": (
            "_DEAD = 1\n_LIVE = 2\n__all__ = []\n"
            "def _recursive(n):\n    return _recursive(n - 1) + _LIVE\n"
            "def _used_by_init():\n    pass\n"
            "@_formula('f', 'k', 'exact')\ndef _registered(k):\n    return k\n"
            "class _Dead:\n    pass\n_LIVE_BY_ATTRIBUTE = 3\n"
        ),
        "b.py": "from . import a\n_read = a._LIVE_BY_ATTRIBUTE\n",
    }
    assert unreferenced_privates(sources) == [
        "a.py:_DEAD", "a.py:_recursive", "a.py:_Dead", "b.py:_read"
    ]


def test_every_private_name_is_referenced():
    package = Path(grundydom.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_formula_functions_match_their_signatures():
    # formula_value checks the count from the signature and then calls fn(*params),
    # so a mismatch would end in a TypeError instead of a ParameterError
    for fid, entry in FORMULAS.items():
        params = inspect.signature(entry.fn).parameters.values()
        positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        variadic = any(p.kind is p.VAR_POSITIONAL for p in params)
        assert variadic == ("..." in entry.signature), fid
        if not variadic:
            assert len(positional) == len(entry.signature.split()), fid
