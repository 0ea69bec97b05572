"""Run the doctest examples embedded in the library modules and README,
and parse every CLI line of README's shell blocks."""

import doctest
import pathlib
import re
import shlex

import pytest

from twisted_brauer import diagram, enumeration, ideals
from twisted_brauer.cli import build_parser
from twisted_brauer.verify import CHECKS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [diagram, enumeration, ideals])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0


def readme_cli_lines() -> list[list[str]]:
    """The argv of each ``twisted-brauer`` line in README's ``sh`` blocks,
    with continuations joined and comments and redirects dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["twisted-brauer"]:
                lines.append(argv[1:argv.index(">")] if ">" in argv else argv[1:])
    return lines


def test_readme_cli_lines_parse():
    # a renamed or dropped option cannot leave a README example stale
    lines = readme_cli_lines()
    assert len(lines) >= 15
    for argv in lines:
        args = build_parser().parse_args(argv)
        assert args.command != "verify" or args.theorem in CHECKS, argv
