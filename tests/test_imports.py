"""Every name a package module imports is used by that module."""

import ast
from pathlib import Path

import pytest

import grundydom

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
