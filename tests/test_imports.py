"""No module of the package imports a name it does not read.

A name may be imported unread only on an import marked ``# noqa: F401``,
and only if ``perfbench/tracer.py`` wraps it in that module (``SITES``):
such a name is kept for the tracer alone.  The modules are parsed with
``ast``, not imported.
"""

import ast
from pathlib import Path

import pytest

from test_perfbench_sites import _load_tracer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rbsdetree"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imports(tree: ast.Module, lines: list) -> list:
    """(bound name, marked noqa: F401) for each name an import statement of ``tree`` binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                out.append(((alias.asname or alias.name).split(".")[0], marked))
    return out


def _read_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read_or_kept_for_the_tracer(path):
    source = path.read_text()
    tree = ast.parse(source)
    read = _read_names(tree)
    wrapped = {attr for module, attr, _, _ in _load_tracer().SITES if module == path.stem}
    imports = _imports(tree, source.splitlines())
    assert not [name for name, marked in imports if not marked and name not in read]
    assert not [name for name, marked in imports if marked and name not in wrapped]


def test_the_check_sees_an_unread_import_and_a_marked_one():
    source = "import os\nimport sys  # noqa: F401\nfrom a import (\n    b,  # noqa: F401\n)\nos.sep\n"
    tree = ast.parse(source)
    assert _imports(tree, source.splitlines()) == [("os", False), ("sys", True), ("b", True)]
    assert "os" in _read_names(tree) and "sys" not in _read_names(tree)
