"""Static guards: every name a package module imports is used by that module,
and every formula catalog entry's function takes the parameters its
signature names."""

import ast
import inspect
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
