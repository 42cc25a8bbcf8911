"""The public API resolves: every exported name exists, the package
exports exactly what its __init__ imports, and the README documents it."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import trilap

MODULES = sorted(m.name for m in pkgutil.iter_modules(trilap.__path__))


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_every_exported_name_exists(name):
    module = trilap if name == "__init__" else importlib.import_module(f"trilap.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_package_exports_exactly_what_init_imports():
    tree = ast.parse(Path(trilap.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert len(trilap.__all__) == len(set(trilap.__all__))
    assert set(trilap.__all__) == imported


def test_readme_library_layout_names_every_export():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    layout = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    # each name as inline code: `name` or `name(...)`
    missing = [n for n in trilap.__all__ if not re.search(rf"`{n}[`(]", layout)]
    assert not missing, f"README 'Library layout' does not name: {missing}"
