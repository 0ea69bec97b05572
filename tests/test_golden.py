"""The golden corpus replays byte-identical: every CLI request of
``golden/cli.jsonl`` and every witness family of ``golden/witnesses.txt``.
After a deliberate change, ``golden/regen.py`` rewrites both files."""

from golden import regen

from twisted_brauer import parse_diagram


def test_the_golden_corpus_replays():
    entries = regen.read_cli_file()
    commands = {"mul", "star", "green", "ideal", "enumerate", "closure", "gh-graph", "factor",
                "verify"}
    assert {e["argv"].split()[0] for e in entries} == commands  # every subcommand
    changed = [e["argv"] for e in entries if regen.run_request(e["argv"]) != e]
    assert changed == []
    hashes, inputs = regen.read_witness_file()
    assert regen.witness_hashes([parse_diagram(line) for line in inputs]) == hashes
