"""No module imports a name that it never reads.

No linter ships with the package's toolchain, so this walks the syntax
tree of every module under ``src/`` and ``tests/`` instead.  Package
``__init__.py`` files are exempt, since their imports are re-exports, and
so are ``__future__`` imports, which are compiler directives."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name bound by an import that no expression
    of the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_scan_names_only_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import json.decoder\n"
              "from math import pi, tau as turn\n"
              "from itertools import *\n"
              "def f():\n"
              "    from sys import argv\n"
              "    return json.dumps(pi)\n"
              "turn = 1\n")
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (4, "turn"), (7, "argv")]


def test_no_module_imports_an_unread_name():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        if path.name == "__init__.py":
            continue
        found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                  for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
