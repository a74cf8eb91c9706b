"""Every name a module of the package imports is used in it.

A stdlib stand-in for a linter's unused-import rule (pyflakes F401): a name
bound by an import counts as used when the module reads it as a name, the
root of an attribute chain included.  ``__init__.py`` re-exports by
importing, so it is exempt, as is any imported name on a line marked
``# noqa: F401``.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "flatgp"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, bound))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in imported if name not in read]


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(3, "pi")]
