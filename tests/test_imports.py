"""No module imports a name that it never reads, and the package is layered.

No linter ships with the package's toolchain, so this walks the syntax
tree of every module under ``src/`` and ``tests/`` instead.  Package
``__init__.py`` files are exempt from the unread-name scan, since their
imports are re-exports, and so are ``__future__`` imports, which are
compiler directives.  Under ``src/`` no import sits inside a function, and
the package's modules import each other without a cycle.  ``ideals``
imports no sibling but ``diagram`` and ``twisted``, and each hypothesis and
input rule of the package, and the one size refusal, is raised with its one
text by one ``raise``."""

import ast
import collections
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


def test_ideals_imports_only_diagram_and_twisted():
    source = (ROOT / "src/twisted_brauer/ideals.py").read_text(encoding="utf-8")
    assert package_imports(source)[0] == {"diagram", "twisted"}


def raised_texts(source: str) -> list[str]:
    """The text of each ``raise E("...")`` or ``raise E(f"...")``, with
    ``{}`` for each formatted value; a message built otherwise is skipped."""
    texts = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
            continue
        message = node.exc.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        if all(isinstance(p, ast.FormattedValue)
               or isinstance(p, ast.Constant) and isinstance(p.value, str) for p in parts):
            texts.append("".join("{}" if isinstance(p, ast.FormattedValue) else p.value
                                 for p in parts))
    return texts


def test_the_raise_scan_reads_literal_messages():
    source = ("def f(n, name):\n"
              "    if n:\n"
              "        raise ValueError(f'degree {n!r} of ' 'the {name}')\n"
              "    raise KeyError('plain')\n"
              "raise TypeError(MESSAGE)\n"
              "raise TypeError(3)\n"
              "raise StopIteration\n")
    assert sorted(raised_texts(source)) == ["degree {} of the {name}", "plain"]


# the one text of each hypothesis and input rule, and of the one size
# refusal, and the module that raises it
COST_TEXT = "{} refused: it needs more than {}"
RULE_TEXTS = {
    COST_TEXT: "ideals",
    "{} is stated for n >= 3, got n = {}": "ideals",
    "{} is stated for 0 < r < n, got r = {} in degree {}": "ideals",
    "twist parameter {} must be non-negative": "ideals",
    "degrees differ: {} vs {}": "diagram",
    "degree must be a non-negative integer, got {}": "diagram",
}
# wordings of the same rules that no other raise may use
RULE_WORDS = ("degree >= 3", "n >= 3", "0 < r < n", "0 < rank", "strictly between",
              "non-negative", "degrees differ")


def test_each_rule_is_raised_once_with_one_text():
    raised = collections.defaultdict(list)
    for path in sorted(ROOT.glob("src/twisted_brauer/*.py")):
        for text in raised_texts(path.read_text(encoding="utf-8")):
            raised[text].append(path.stem)
    assert {text: raised[text] for text in RULE_TEXTS} == {
        text: [module] for text, module in RULE_TEXTS.items()}
    restated = sorted(text for text in raised
                      if text not in RULE_TEXTS and any(word in text for word in RULE_WORDS))
    assert restated == []


# wordings of a size refusal that no raise but the cost check's may use
COST_WORDS = ("refused", "more than")
# the two limits that are no cost, and the module that raises each: an
# oracle's domain, and the interpreter's int-to-text limit, which is no work
KEPT_LIMITS = {
    "subset oracle refused for |J| = {} > 16": ["structure"],
    "rank of I({};{}) in degree {} refused: it has more than {} digits, the int-to-text "
    "limit": ["ideals"],
}


def test_every_size_refusal_is_the_cost_check():
    raised = collections.defaultdict(list)
    for path in sorted(ROOT.glob("src/twisted_brauer/*.py")):
        for text in raised_texts(path.read_text(encoding="utf-8")):
            if any(word in text for word in COST_WORDS):
                raised[text].append(path.stem)
    assert raised == {COST_TEXT: ["ideals"], **KEPT_LIMITS}
