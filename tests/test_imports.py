"""No module imports a name that it never reads, and the package is layered.

No linter ships with the package's toolchain, so this walks the syntax
tree of every module under ``src/`` and ``tests/`` instead.  Package
``__init__.py`` files are exempt from the unread-name scan, since their
imports are re-exports, and so are ``__future__`` imports, which are
compiler directives.  Under ``src/`` no import sits inside a function, and
the package's modules import each other without a cycle."""

import ast
import graphlib
import pathlib

import pytest

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


def package_imports(source: str) -> tuple[set[str], list[int]]:
    """The sibling modules a package module imports (``from .m import x``
    or ``from . import m``), and the lines of imports inside a function."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules |= {node.module} if node.module else {a.name for a in node.names}
    deferred = {inner.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))}
    return modules, sorted(deferred)


def test_the_layering_scan_names_siblings_and_deferred_imports():
    source = ("import json\n"
              "from .diagram import multiply\n"
              "from . import enumeration, green\n"
              "class C:\n"
              "    def f(self):\n"
              "        from . import structure\n"
              "def g():\n"
              "    import math\n")
    assert package_imports(source) == ({"diagram", "enumeration", "green", "structure"}, [6, 8])


def test_the_package_is_layered():
    graph, deferred = {}, []
    for path in sorted(ROOT.glob("src/twisted_brauer/*.py")):
        modules, lines = package_imports(path.read_text(encoding="utf-8"))
        graph[path.stem] = modules
        deferred += [f"{path.relative_to(ROOT)}:{line}" for line in lines]
    assert deferred == []
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
