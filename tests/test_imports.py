"""Every name a module of the package imports is used in that module.

An import no code reads is a leftover of code that is gone. One may stay on
a line whose ``noqa`` comment says why (a name the benchmark reads from the
module, say); the package's ``__init__.py`` imports its public names from
its modules to re-export them.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "structreg"
# a noqa comment, with or without codes, followed by a reason
EXPLAINED_NOQA = re.compile(r"#\s*noqa(?::\s*[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)?\s+\S")


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """``"line: name"`` of each name ``source`` imports and never reads,
    but for one on a line whose noqa comment gives a reason and, with
    ``reexports``, one imported from a module of the same package."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or reexports and node.level):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and not EXPLAINED_NOQA.search(lines[alias.lineno - 1]):
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(), reexports=path.name == "__init__.py") == []


def test_the_import_check_names_what_nothing_reads():
    source = ("from __future__ import annotations\n"
              "import operator\n"
              "import os.path\n"
              "from collections.abc import Sequence  # noqa: F401\n"
              "from . import (\n"
              "    sre,  # noqa: F401  read by name elsewhere\n"
              "    tuning as tn,\n"
              ")\n"
              "from .metrics import Curves\n"
              "def f(x: Curves):\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == ["2: operator", "4: Sequence", "7: tn"]
    assert unused_imports(source, reexports=True) == ["2: operator", "4: Sequence"]
