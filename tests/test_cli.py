"""Command-line interface: formats, exit codes, verification reports."""

import functools
import inspect
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time

import pytest

import twisted_brauer

from twisted_brauer import (
    DiagramError,
    TwistedElement,
    identity,
    is_idempotent_twisted,
    make_diagram,
    parse_diagram,
    star_chain,
    verify,
)
from twisted_brauer.cli import build_parser, main, parse_element
from twisted_brauer.enumeration import random_diagram
from twisted_brauer.ideals import delta, rank_of_ideal
from twisted_brauer.verify import CHECKS

ALPHA10 = "n=10: (1,2)(5,8)(9,10)(3,3')(4,6')(6,7')(7,8')(1',2')(4',5')(9',10')"
BETA10 = "n=10: (2,4)(6,7)(8,10)(1,5)(3,2')(9,9')(1',3')(4',5')(7',8')(6',10')"
PRODUCT10 = "n=10: (1,2)(3,2')(4,6)(5,8)(7,9')(9,10)(1',3')(4',5')(6',10')(7',8')"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cost_refusal(subject):
    """The one size refusal of ``subject``, on stderr, by either budget."""
    return re.compile(f"error: {re.escape(subject)} refused: it needs more than (60 s|1 GB)\n")


def test_mul_figure1(capsys):
    code, out, _ = run(capsys, "mul", "--n", "10", ALPHA10, BETA10)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == PRODUCT10
    assert lines[1] == "tau=1"


def test_mul_identity(capsys):
    one = identity(3).to_text()
    code, out, _ = run(capsys, "mul", "--n", "3", one, one)
    assert code == 0
    assert out.strip().splitlines() == [one, "tau=0"]


def test_mul_jsonl(capsys):
    code, out, _ = run(capsys, "mul", "--n", "10", "--format", "jsonl", ALPHA10, BETA10)
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 1
    assert payload["product"]["n"] == 10


def test_mul_non_integer_degree_is_domain_error(capsys):
    code, _, err = run(capsys, "mul", "--n", "2", '{"n": "2", "blocks": [[1,2],[-1,-2]]}',
                       "n=2: (1,1')(2,2')")
    assert code == 1 and err.startswith("error:") and "Traceback" not in err


def test_mul_degree_mismatch_is_domain_error(capsys):
    code, _, err = run(capsys, "mul", "--n", "3", "n=3: (1,1')(2,2')(3,3')", "n=2: (1,1')(2,2')")
    assert code == 1
    assert "error" in err


def test_explicit_degree_must_agree_with_text():
    with pytest.raises(DiagramError, match="text declares degree 2 but degree 3 was requested"):
        parse_diagram("n=2: (1,1')(2,2')", degree=3)


def test_json_input_must_agree_with_n(capsys):
    as_json = '{"n":3,"blocks":[[1,2],[3,-1],[-2,-3]]}'
    as_text = "n=3: (1,2)(3,1')(2',3')"
    for argv in (("star",), ("green", "class", "--rel", "R"), ("factor", "--idempotents")):
        code, out, err = run(capsys, *argv, "--n", "7", as_json)
        assert (code, out) == (1, "")
        assert err == "error: text declares degree 3 but degree 7 was requested\n"
        assert run(capsys, *argv, "--n", "7", as_text) == (code, out, err)
        code, out, err = run(capsys, *argv, "--n", "3", as_json)
        assert code == 0 and out and not err
        assert run(capsys, *argv, "--n", "3", as_text) == (code, out, err)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["mul", "--n", "3"])  # missing operands
    assert info.value.code == 2


def test_star_chain_cli(capsys):
    code, out, _ = run(capsys, "star", "--n", "10", f"2 * {ALPHA10}", BETA10)
    assert code == 0
    assert out.strip() == f"3 * {PRODUCT10}"


def test_parse_element_json_twist():
    x = parse_element('{"n": 2, "blocks": [[1, 2], [-1, -2]], "twist": 4}')
    assert x.twist == 4 and x.degree == 2


def test_json_input_refuses_unknown_keys(capsys):
    misspelt = '{"n":3,"blocks":[[1,2],[3,-1],[-2,-3]],"twsit":2}'
    code, out, err = run(capsys, "star", "--n", "3", misspelt)
    assert (code, out) == (1, "")
    assert err == "error: unknown keys in JSON diagram: 'twsit'\n"
    code, out, err = run(capsys, "mul", "--n", "3", misspelt, identity(3).to_text())
    assert (code, out) == (1, "") and err.startswith("error: unknown keys")
    # what --format jsonl emits reads back as the same element
    code, out, _ = run(capsys, "star", "--n", "3", "--format", "jsonl", f"2 * {identity(3).to_text()}")
    assert code == 0
    assert run(capsys, "star", "--n", "3", "--format", "jsonl", out.strip()) == (0, out, "")


def test_green_leq_and_class(capsys):
    hook = "n=3: (1,2)(3,3')(1',2')"
    one = identity(3).to_text()
    code, out, _ = run(capsys, "green", "leq", "--rel", "J", "--n", "3", hook, one)
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "green", "leq", "--rel", "J", "--n", "3", one, hook)
    assert (code, out.strip()) == (0, "false")
    code, out, _ = run(capsys, "green", "class", "--rel", "D", "--n", "3", f"1 * {hook}")
    assert code == 0 and "twist=1" in out and "rank=1" in out


def test_green_factor_modes(capsys):
    a = "n=3: (1,2)(3,1')(2',3')"
    for mode in ("right", "left", "two-sided"):
        code, out, _ = run(capsys, "green", "factor", "--mode", mode, "--n", "3", a, a)
        assert code == 0
        witnesses = [parse_diagram(line) for line in out.strip().splitlines()]
        assert len(witnesses) == (2 if mode == "two-sided" else 1)


def test_ideal_subcommands(capsys):
    code, out, _ = run(capsys, "ideal", "normalize", "--n", "7",
                       "--spec", "I(3;2) + I(5;4) + I(3;3)")
    assert (code, out.strip()) == (0, "I(5;4) + I(3;2)")
    code, out, _ = run(capsys, "ideal", "contains", "--n", "3", "--spec", "I(1;1)",
                       "2 * n=3: (1,2)(3,3')(1',2')")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "ideal", "rank", "--n", "4", "--r", "2", "--k", "1")
    assert code == 0
    assert json.loads(out)["rank"] == 81
    code, out, _ = run(capsys, "ideal", "gens", "--n", "3", "--r", "1", "--k", "0", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size=3 kind=idempotent-matching"
    assert len(lines) == 4


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--count-only")
    assert (code, out.strip()) == (0, "105")
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--rank", "2", "--count-only")
    assert (code, out.strip()) == (0, "72")
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--idempotents", "twisted",
                       "--count-only")
    assert (code, out.strip()) == (0, "7")
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "jsonl")
    assert code == 0
    assert all(json.loads(line)["n"] == 3 for line in out.strip().splitlines())


def test_enumerate_refuses_rank_with_idempotents(capsys):
    # a D-class or the idempotents: asking for both is a usage error, where
    # --idempotents was once ignored and all 72 diagrams of D_2 printed
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--n", "4", "--rank", "2", "--idempotents", "twisted", "--count-only"])
    out = capsys.readouterr()
    assert (info.value.code, out.out) == (2, "")
    assert "argument --idempotents: not allowed with argument --rank" in out.err


def test_enumerate_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "11", "--count-only")
    assert code == 1 and "refused" in err


def test_closure_from_stdin(capsys, monkeypatch, tmp_path):
    gens = tmp_path / "gens.jsonl"
    idem = make_diagram(3, [(1, -1), (2, 3), (-2, -3)])
    gens.write_text(idem.to_json() + "\n" + identity(3).to_json() + "\n")
    code, out, err = run(capsys, "closure", "--n", "3", "--gens", str(gens),
                         "--bound", "1", "--format", "jsonl")
    assert code == 0
    elements = [json.loads(line) for line in out.strip().splitlines()]
    assert {e.get("twist", 0) for e in elements} <= {0, 1}
    assert "elements=" in err


def test_closure_refuses_a_negative_bound(capsys, monkeypatch):
    # with no generators the bound was once echoed as "bound=-5 saturated=true"
    for gens in ("", "n=3: (1,2)(3,3')(1',2')\n1 * n=3: (1,1')(2,3)(2',3')\n"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(gens))
        code, out, err = run(capsys, "closure", "--n", "3", "--bound", "-5", "--gens", "-")
        assert (code, out, err) == (1, "", "error: bound must be at least 0, got -5\n")


def test_closure_non_utf8_generators_are_domain_errors(capsys, monkeypatch, tmp_path):
    junk = b"\xff\xfe\x00junk\n"
    gens = tmp_path / "gens.jsonl"
    gens.write_bytes(junk)
    code, out, err = run(capsys, "closure", "--n", "3", "--gens", str(gens), "--bound", "1")
    assert (code, out) == (1, "") and err.startswith("error:")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(junk), encoding="utf-8"))
    code, out, err = run(capsys, "closure", "--n", "3", "--gens", "-", "--bound", "1")
    assert (code, out) == (1, "") and err.startswith("error:")


HOOK3 = "n=3: (1,2)(3,3')(1',2')"
# one request per subcommand that prints in a chosen format, ending in the
# option that takes it, to which the format is appended
FORMATTED = {
    "mul": ["mul", "--n", "3", HOOK3, HOOK3, "--format"],
    "star": ["star", "--n", "3", f"1 * {HOOK3}", HOOK3, "--format"],
    "green factor": ["green", "factor", "--mode", "right", "--n", "3", HOOK3, HOOK3, "--format"],
    "ideal normalize": ["ideal", "normalize", "--n", "6", "--spec", "I(4;1) + I(2;3)", "--format"],
    "ideal gens": ["ideal", "gens", "--n", "3", "--r", "1", "--k", "1", "--list"],
    "enumerate": ["enumerate", "--n", "2", "--format"],
    "closure": ["closure", "--n", "3", "--bound", "1", "--gens", "-", "--format"],
    "factor": ["factor", "--idempotents", "--n", "3", "n=3: (1,2)(3,1')(2',3')", "--format"],
    "gh-graph": ["gh-graph", "--n", "4", "--r", "2", "--format"],
}


@pytest.mark.parametrize("name", sorted(FORMATTED))
def test_every_format_changes_the_output(capsys, monkeypatch, name):
    outputs = set()
    for fmt in ("jsonl", "dot") if name == "gh-graph" else ("text", "jsonl"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{HOOK3}\n"))
        code, out, _ = run(capsys, *FORMATTED[name], fmt)
        assert code == 0 and out
        outputs.add(out)
    assert len(outputs) == 2


@pytest.mark.parametrize("argv", [
    ["green", "leq", "--rel", "R", "--n", "3", HOOK3, HOOK3, "--format", "text"],
    ["green", "class", "--rel", "H", "--n", "3", HOOK3, "--format", "jsonl"],
    ["ideal", "contains", "--n", "3", "--spec", "I(1;0)", HOOK3, "--format", "text"],
    ["ideal", "rank", "--n", "6", "--r", "4", "--k", "0", "--format", "jsonl"],
    ["gh-graph", "--n", "4", "--r", "2", "--format", "text"],  # its jsonl output
    ["enumerate", "--n", "3", "--count-only", "--format", "jsonl"],  # a count
    ["ideal", "gens", "--n", "3", "--r", "1", "--k", "0", "--format", "jsonl"],  # see --list
])
def test_format_is_refused_where_it_would_change_nothing(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out = capsys.readouterr()
    assert (info.value.code, out.out) == (2, "") and "--format" in out.err


def test_gh_graph_report_and_dot(capsys):
    code, out, _ = run(capsys, "gh-graph", "--n", "4", "--r", "2")
    assert code == 0
    report = json.loads(out)
    assert report["certified_rank"] == 6 and report["b"] == 4
    code, out, _ = run(capsys, "gh-graph", "--n", "4", "--r", "2", "--format", "dot")
    assert code == 0 and out.startswith("graph graham_houghton {")


# the degree-4, rank-2 graph: each R- and L-class labelled by its hooks
GH_DOT_4_2 = """\
graph graham_houghton {
  rankdir=LR;
  L0 [label="ker (1,2)" shape=box];
  L1 [label="ker (1,3)" shape=box];
  L2 [label="ker (1,4)" shape=box];
  L3 [label="ker (2,3)" shape=box];
  L4 [label="ker (2,4)" shape=box];
  L5 [label="ker (3,4)" shape=box];
  R0 [label="coker (1,2)" shape=ellipse];
  R1 [label="coker (1,3)" shape=ellipse];
  R2 [label="coker (1,4)" shape=ellipse];
  R3 [label="coker (2,3)" shape=ellipse];
  R4 [label="coker (2,4)" shape=ellipse];
  R5 [label="coker (3,4)" shape=ellipse];
  L0 -- R1;
  L0 -- R2;
  L0 -- R3;
  L0 -- R4;
  L1 -- R0;
  L1 -- R2;
  L1 -- R3;
  L1 -- R5;
  L2 -- R0;
  L2 -- R1;
  L2 -- R4;
  L2 -- R5;
  L3 -- R0;
  L3 -- R1;
  L3 -- R4;
  L3 -- R5;
  L4 -- R0;
  L4 -- R2;
  L4 -- R3;
  L4 -- R5;
  L5 -- R1;
  L5 -- R2;
  L5 -- R3;
  L5 -- R4;
}
"""


def test_gh_graph_dot_golden(capsys):
    assert run(capsys, "gh-graph", "--n", "4", "--r", "2", "--format", "dot") == (
        0, GH_DOT_4_2, "")


def test_green_class_h_golden(capsys):
    # hooks on both rows, each listed in canonical order
    x = "2 * n=6: (5,6)(2,1')(1,3)(4,2')(4',5')(3',6')"
    assert run(capsys, "green", "class", "--rel", "H", "--n", "6", x) == (
        0, "H-class twist=2 ker=(1,3)(5,6) coker=(3,6)(4,5)\n", "")
    assert run(capsys, "green", "class", "--rel", "H", "--n", "4",
               "n=4: (1,2)(3,1')(4,4')(2',3')") == (
        0, "H-class twist=0 ker=(1,2) coker=(2,3)\n", "")


def test_gh_graph_guard(capsys):
    for extra in ((), ("--format", "dot")):
        code, out, err = run(capsys, "gh-graph", "--n", "10", "--r", "2", *extra)
        assert (code, out) == (1, "")
        assert cost_refusal("Graham-Houghton graph of D_2 in degree 10").fullmatch(err)


def test_ideal_spec_junk_is_domain_error(capsys):
    for spec in ("I(3;2) + junk", "I(3;2) x I(1;0)"):
        code, out, err = run(capsys, "ideal", "normalize", "--n", "5", "--spec", spec)
        assert (code, out) == (1, "") and err.startswith("error:")


def test_factor_idempotents_cli(capsys):
    alpha = "n=3: (1,2)(3,1')(2',3')"
    code, out, _ = run(capsys, "factor", "--idempotents", "--n", "3", alpha)
    assert code == 0
    chain = [parse_diagram(line) for line in out.strip().splitlines()]
    assert star_chain(chain) == TwistedElement(0, parse_diagram(alpha))


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_factor_idempotents_cli_round_trip_degree_40(capsys, fmt):
    alpha = random_diagram(40, random.Random(13))
    assert 0 < alpha.rank < 40
    code, out, err = run(capsys, "factor", "--idempotents", "--n", "40", "--format", fmt,
                         alpha.to_text())
    assert (code, err) == (0, "")
    chain = [parse_element(line, 40) for line in out.splitlines()]
    assert all(x.twist == 0 and is_idempotent_twisted(x) for x in chain)
    assert star_chain(chain) == TwistedElement(0, alpha)
    assert len(chain) <= 2 * 40 - 1


def test_verify_pass_and_report_shape(capsys):
    code, out, _ = run(capsys, "verify", "tau-identity", "--n", "3")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["counts"]["triples"] == 3375
    assert report["theorem"] == "tau-identity"
    assert report["params"] == {"n": 3, "samples": None, "seed": None}


def test_verify_samples_alone_choose_sampling(capsys):
    code, out, err = run(capsys, "verify", "tau-identity", "--n", "3", "--samples", "5",
                         "--seed", "2")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["status"] == "pass" and report["counts"] == {"triples": 5}
    assert report["params"] == {"n": 3, "samples": 5, "seed": 2}
    with pytest.raises(SystemExit) as info:  # no other switch chooses between the two
        main(["verify", "tau-identity", "--exhaustive"])
    assert info.value.code == 2
    assert "unrecognized arguments: --exhaustive" in capsys.readouterr().err


def test_verify_seeded_sampling_echoes_seed(capsys):
    code, out, _ = run(capsys, "verify", "tau-identity", "--n", "4",
                       "--samples", "200", "--seed", "42")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["seed"] == 42
    assert report["params"]["samples"] == 200


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "no-such-theorem")
    assert code == 2 and "unknown theorem" in err


def test_verify_refuses_large_exhaustive(capsys):
    code, _, err = run(capsys, "verify", "tau-identity", "--n", "7")
    assert code == 1 and "refuse" in err


def test_verify_samples_lift_the_guard_only_where_they_bound_the_sweep(capsys):
    # green-relations takes no --samples, and green-pre-orders searches the
    # graph of each relation over all 34M diagrams of B_9 whatever --samples is
    code, out, err = run(capsys, "verify", "green-relations", "--n", "9", "--samples", "3")
    assert (code, out) == (2, "") and "--samples" in err
    code, out, err = run(capsys, "verify", "green-pre-orders", "--n", "9", "--samples", "3")
    assert code == 1 and out == "" and err.startswith("error:") and "refused" in err
    # without --samples tau-identity sweeps every triple; with it, only the samples
    code, out, err = run(capsys, "verify", "tau-identity", "--n", "9")
    assert (code, out) == (1, "") and cost_refusal("verify tau-identity").fullmatch(err)
    code, out, _ = run(capsys, "verify", "tau-identity", "--n", "9", "--samples", "3")
    assert code == 0 and json.loads(out)["counts"]["triples"] == 3
    code, out, _ = run(capsys, "verify", "tau-identity", "--n", "50", "--samples", "10")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass" and report["counts"]["triples"] == 10


def test_verify_green_preorders_samples_degree_6(capsys):
    # 1,000 pairs plus one search of each relation's graph over 10,395 diagrams
    code, out, err = run(capsys, "verify", "green-pre-orders", "--n", "6", "--samples", "1000")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["status"] == "pass" and report["counts"]["pairs"] == 1000


# at least one request per check that costs more than a budget: a degree
# above the largest each check admits, or a count far past it
REFUSED_SWEEPS = {
    "tau-identity": "tau-identity --n 5",  # 843,908,625 triples
    "tau-identity-sampled": "tau-identity --n 50 --samples 1000000000",
    "tau-identity-huge-degree": "tau-identity --n 100000",
    "green-pre-orders": "green-pre-orders --n 6",
    "green-relations": "green-relations --n 9",  # 34,459,425 diagrams
    "regularity": "regularity --n 6",  # 20,790^2 pairs
    "regularity-degree-5": "regularity --n 5 --bound 4",  # 4,725^2 pairs
    "ideal-classification": "ideal-classification --n 9",
    "rank-drop-lemma": "rank-drop-lemma --n 9",
    "twist-raise-lemma": "twist-raise-lemma --n 9",
    "twist-keep-lemma": "twist-keep-lemma --n 9",
    "idempotent-generation": "idempotent-generation --n 8",
    "idempotent-closure": "idempotent-closure --n 7 --r 5 --bound 2",
    "gh-conditions": "gh-conditions --n 10 --r 2",  # 44,651,250 candidates
    "rank-table": "rank-table --n 8",
    "rank-table-huge-degree": "rank-table --n 2000",
    "minimal-gens": "minimal-gens --n 6 --r 6 --k 1",
    "singular-rank": "singular-rank --n 10",
    "ig-subsemigroup": "ig-subsemigroup --n 7",
    "maltcev-mazorchuk": "maltcev-mazorchuk --n 8",  # 2,027,025 diagrams
}


@pytest.mark.parametrize("case", sorted(REFUSED_SWEEPS))
def test_verify_refuses_sweeps_above_the_limit(capsys, case):
    request = REFUSED_SWEEPS[case]
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *request.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "") and cost_refusal(f"verify {request.split()[0]}").fullmatch(err)


@pytest.mark.parametrize("request_", [
    "ideal-classification --n -1",  # rng.choice on an empty I(n)
    "ideal-classification --n 3 --bound -1",
    "rank-drop-lemma --n -1",  # an empty sweep, which would pass
    "rank-drop-lemma --n 2",  # no rank r <= n - 4: nothing to sweep
    "rank-drop-lemma --n 3",
    "twist-raise-lemma --n 1",  # no singular diagram below degree 2
    "twist-keep-lemma --n 0",
    "rank-table --n -1",
    "regularity --n 3 --bound -1",
    "idempotent-closure --n 3 --r 3",  # outside the theorem's hypotheses
    "idempotent-closure --n 4 --r 0",
    "minimal-gens --n 3 --r 1 --k 0",
    "maltcev-mazorchuk --n 1",  # no singular diagram to factor: it would pass
    "ig-subsemigroup --n 1",
    "idempotent-generation --n 2",
])
def test_verify_refuses_parameters_outside_each_check(capsys, request_):
    code, out, err = run(capsys, "verify", *request_.split())
    assert (code, out) == (1, "") and err.startswith("error:")


# the least degree each replayed result is stated for, where it is above 0
LEAST_DEGREES = {"rank-drop-lemma": 4, "twist-raise-lemma": 2, "twist-keep-lemma": 2,
                 "ig-subsemigroup": 2, "maltcev-mazorchuk": 3, "idempotent-generation": 3,
                 "idempotent-closure": 3, "gh-conditions": 3, "rank-table": 3,
                 "singular-rank": 3, "minimal-gens": 1}


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_verify_runs_each_check_from_its_least_degree(capsys, theorem):
    least = LEAST_DEGREES.get(theorem, 0)
    assert CHECKS[theorem](n=least).passed
    if least == 0:
        return
    message = f"verify {theorem} is stated for n >= {least}, got n = {least - 1}"
    with pytest.raises(DiagramError) as refused:
        CHECKS[theorem](n=least - 1)
    assert str(refused.value) == message
    assert run(capsys, "verify", theorem, "--n", str(least - 1)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("request_, unused", [
    ("rank-table --k 0 --samples 4 --seed 3", "--k, --samples, --seed"),
    ("green-relations --r 3", "--r"),
    ("regularity --n 3 --k 1", "--k"),
])
def test_verify_names_the_flags_a_check_does_not_take(capsys, request_, unused):
    code, out, err = run(capsys, "verify", *request_.split())
    assert (code, out) == (2, "")
    assert err == f"verify {request_.split()[0]} does not take {unused}\n"


@pytest.mark.parametrize("request_, ignored", [
    ("tau-identity --seed 2", "--seed"),  # every triple, unseeded, without --samples
    ("green-pre-orders --n 3 --seed 4", "--seed"),  # every pair, unseeded, without --samples
    ("singular-rank --n 4 --bound 5", "--bound"),  # its closure runs at n <= 3 only
])
def test_verify_refuses_a_flag_the_check_would_ignore(capsys, request_, ignored):
    code, out, err = run(capsys, "verify", *request_.split())
    assert (code, out) == (1, "")
    assert err == f"error: verify {request_.split()[0]} ignores {ignored} with these parameters\n"


def test_verify_flags_are_the_parameter_table():
    # every check parameter is in the table, bar the Python-only factor, and
    # every table name is taken by some check and is a verify flag
    taken = {name for check in CHECKS.values() for name in inspect.signature(check).parameters}
    assert taken - {"factor"} == set(verify.PARAMETERS)
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {a.dest: a.type for a in commands.choices["verify"]._actions
             if a.option_strings and a.dest != "help"}
    assert set(flags) == set(verify.PARAMETERS)
    assert set(flags.values()) == {int}  # every flag takes an int


def test_verify_bound_reaches_the_check(capsys):
    code, out, _ = run(capsys, "verify", "singular-rank", "--n", "3", "--bound", "3")
    report = json.loads(out)
    assert code == 0 and report["params"] == {"n": 3, "bound": 3}
    assert report["counts"]["closure"] == 54  # 39 at the default bound 2
    code, out, _ = run(capsys, "verify", "regularity", "--n", "2", "--bound", "2")
    assert code == 0 and json.loads(out)["params"] == {"n": 2, "bound": 2}


@pytest.mark.parametrize("request_, subject", [
    ("enumerate --n 3000 --count-only", "enumeration of degree 3000"),
    ("enumerate --n 3000 --rank 2998 --count-only", "enumeration of degree 3000"),
    ("gh-graph --n 3000 --r 2998", "Graham-Houghton graph of D_2998 in degree 3000"),
    ("verify gh-conditions --n 3000", "verify gh-conditions"),
])
def test_size_refusals_never_print_the_unbounded_count(capsys, request_, subject):
    # (2n-1)!! and delta(n, r) at degree 3000 exceed Python's 4,300-digit int-to-text limit
    code, out, err = run(capsys, *request_.split())
    assert (code, out, err) == (1, "", f"error: {subject} refused: it needs more than 60 s\n")


@pytest.mark.parametrize("argv", [
    ("green-relations", "--n", "7"),
    ("twist-raise-lemma", "--n", "7"),
    ("gh-conditions", "--n", "7"),  # the default rank n - 2 lies in I(7)
])
def test_verify_runs_sweeps_within_the_limit(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "pass"


def test_gh_rank_outside_the_index_set_names_it(capsys):
    code, out, err = run(capsys, "gh-graph", "--n", "7", "--r", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "I(7) = (1, 3, 5, 7)" in err


def test_verify_n2_anomaly(capsys):
    code, out, _ = run(capsys, "verify", "ig-subsemigroup", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["twisted_closure"] == 1
    assert report["counts"]["plain_closure"] == 2


def test_verify_rank_table_n3(capsys):
    code, out, _ = run(capsys, "verify", "rank-table", "--n", "3")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_commands_are_deterministic(capsys):
    runs = [
        ("ideal", "gens", "--n", "3", "--r", "1", "--k", "0", "--list"),
        ("gh-graph", "--n", "4", "--r", "2", "--format", "dot"),
        ("enumerate", "--n", "3", "--format", "jsonl"),
    ]
    for argv in runs:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def _strip_seconds(argv, out):
    # a verify report's elapsed time is the one field that differs per run
    if argv[0] != "verify":
        return out
    report = json.loads(out)
    del report["seconds"]
    return report


def test_cached_parser_carries_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    calls = {
        "mul": ["mul", "--n", "3", "n=3: (1,2)(3,1')(2',3')", "n=3: (1,1')(2,2')(3,3')"],
        "usage": ["green", "factor", "--mode", "sideways", "--n", "3", "x", "y"],
        "factor": ["factor", "--idempotents", "--n", "3", "n=3: (1,2)(3,1')(2',3')"],
        "domain": ["mul", "--n", "3", "n=3: (1,2)", "n=3: (1,1')(2,2')(3,3')"],
        "verify": ["verify", "tau-identity"],
    }
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(twisted_brauer.__file__)))
    alone = {}
    for name, argv in calls.items():
        proc = subprocess.run([sys.executable, "-m", "twisted_brauer.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        alone[name] = (proc.returncode, _strip_seconds(argv, proc.stdout), proc.stderr)
    assert [alone[k][0] for k in calls] == [0, 2, 0, 1, 0]
    for name in ("mul", "usage", "factor", "domain", "verify",
                 "usage", "mul", "verify", "domain", "factor"):
        argv = calls[name]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, _strip_seconds(argv, out.out), out.err) == alone[name], name


@pytest.mark.parametrize("argv", [
    ("tau-identity", "--n", "7", "--samples", "-3"),
    ("green-pre-orders", "--n", "5", "--samples", "0"),
])
def test_verify_refuses_sample_counts_below_one(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: samples must be at least 1")


def test_verify_oracle_refusal_is_immediate(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "green-pre-orders", "--n", "8")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "") and cost_refusal("verify green-pre-orders").fullmatch(err)


def test_verify_gh_conditions_is_refused_by_its_real_size(capsys):
    # its delta(n, r) candidates, the Graham-Houghton build's, cost 2.8 us each
    code, out, err = run(capsys, "verify", "gh-conditions", "--n", "7", "--r", "3")
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "pass"
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "gh-conditions", "--n", "10", "--r", "2")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "") and cost_refusal("verify gh-conditions").fullmatch(err)


def _child_process(args, timeout):
    """The interpreter with ``args`` in a child process under a 1 GB
    address-space limit and a timeout, so that a request which allocates or
    runs unbounded fails the test without harming the test process."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(twisted_brauer.__file__)))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit_memory)


def _run_child(argv):
    """One CLI request in a child process, with 10 s to run."""
    return _child_process(["-m", "twisted_brauer.cli", *argv], timeout=10)


# runs each JSON-listed argv through cli.main in turn and prints, per
# request, [exit status, stdout, stderr, seconds]; anything main lets
# escape leaves its traceback on that request's stderr, as it would at the
# top level of a process of its own
_RUN_IN_TURN = """
import contextlib, io, json, sys, time, traceback
from twisted_brauer.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    print(json.dumps([code, out.getvalue(), err.getvalue(), seconds]), flush=True)
"""


# every request a size guard decides, at degrees far past every limit;
# idempotent-closure takes a rank 0 < r < n
GUARDED = ["enumerate --n {n} --count-only", "enumerate --n {n} --rank 2 --count-only",
           "gh-graph --n {n} --r 2", "ideal gens --n {n} --r 2 --k 0",
           "ideal gens --n {n} --r 0 --k 1",
           *(f"verify {theorem} --n {{n}}" + (" --r 2" if theorem == "idempotent-closure" else "")
             for theorem in sorted(CHECKS))]
# requests outside a hypothesis, at the same degrees: each is refused by its
# rule, with the rule's text, before any size is counted
OUTSIDE_HYPOTHESES = {
    "gh-graph --n {n} --r {n}": "the Graham-Houghton analysis is stated for 0 < r < n, "
                                "got r = {n} in degree {n}",
    "verify gh-conditions --n {n} --r 0": "verify gh-conditions is stated for 0 < r < n, "
                                          "got r = 0 in degree {n}",
    **{f"verify {theorem} --n {{n}} --r {{n}}": f"verify {theorem} is stated for 0 < r < n, "
                                                "got r = {n} in degree {n}"
       for theorem in ("idempotent-generation", "idempotent-closure")},
}


@functools.lru_cache(maxsize=None)
def _guarded_in_one_child(degree):
    """Every GUARDED and OUTSIDE_HYPOTHESES request at ``degree``, run in
    turn in one child process (under the limits of _child_process, with 10 s
    a request): a dict from request to its [exit status, stdout, stderr,
    seconds]."""
    templates = [*GUARDED, *OUTSIDE_HYPOTHESES]
    requests = [request_.format(n=degree).split() for request_ in templates]
    proc = _child_process(["-c", _RUN_IN_TURN, json.dumps(requests)],
                          timeout=10 * len(requests))
    assert (proc.returncode, proc.stderr) == (0, "")
    return dict(zip(templates, (json.loads(line) for line in proc.stdout.splitlines())))


@pytest.mark.parametrize("degree", [3000, 10**5, 10**6, 10**9])
@pytest.mark.parametrize("request_", GUARDED)
def test_huge_degrees_are_refused_at_once(capsys, request_, degree):
    code, out, err, seconds = _guarded_in_one_child(degree)[request_]
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert seconds < 10
    argv = request_.format(n=degree).split()
    start = time.perf_counter()
    assert run(capsys, *argv) == (1, "", err)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("degree", [3000, 10**5, 10**6, 10**9])
@pytest.mark.parametrize("request_", OUTSIDE_HYPOTHESES)
def test_huge_degrees_outside_a_hypothesis_are_refused_by_it(request_, degree):
    code, out, err, seconds = _guarded_in_one_child(degree)[request_]
    message = OUTSIDE_HYPOTHESES[request_].format(n=degree)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert seconds < 1.0


def test_ideal_rank_is_exact_at_large_degree_near_the_top(capsys):
    # rho(3000, 2998) = C(3000, 2); its lgamma estimate must not refuse it
    code, out, err = run(capsys, "ideal", "rank", "--n", "3000", "--r", "2998", "--k", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 3000, "r": 2998, "k": 0, "rank": 4_498_500,
                               "idempotent_generated": True, "idrank": 4_498_500}


@pytest.mark.parametrize("degree", [3000, 10**5, 10**6, 10**9])
def test_huge_degree_ideal_normalizes(capsys, degree):
    argv = ["ideal", "normalize", "--n", str(degree), "--spec", "I(2;0)"]
    proc = _run_child(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "I(2;0)\n", "")
    start = time.perf_counter()
    assert run(capsys, *argv) == (0, "I(2;0)\n", "")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("request_, subject", [
    # each draws or builds diagrams of degree 10^9, and once ran out of memory
    ("verify tau-identity --n 1000000000 --samples 1", "verify tau-identity"),
    ("ideal gens --n 1000000000 --r 1000000000 --k 0", "the four generators of degree 1000000000"),
])
def test_requests_that_ran_out_of_memory_are_refused_by_their_bytes(capsys, request_, subject):
    proc = _run_child(request_.split())
    message = f"error: {subject} refused: it needs more than 1 GB\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)
    start = time.perf_counter()
    assert run(capsys, *request_.split()) == (1, "", message)
    assert time.perf_counter() - start < 1.0


def test_running_out_of_memory_is_an_error():
    # the backstop, for what no guard bounds: a diagram argument of degree 10^9
    # is read into 2 * 10^9 slots, which the child's 1 GB address space cannot hold
    argv = ["mul", "--n", "1000000000", "n=1000000000:(1,2)", "n=1000000000:(1,2)"]
    proc = _run_child(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


# M(r;k) has (k + [r = 0]) * |D_r u D_(r-2) u ...| elements: 9(k + [r = 0])
# at (3, 1) and (4, 0); tests/test_costs.py walks the boundary
GRIDS_PAST_THE_LIMIT = ["ideal gens --n 3 --r 1 --k 10000000",
                        "ideal gens --n 4 --r 0 --k 10000000",
                        f"ideal gens --n 5 --r 3 --k {10**100}"]


def test_ideal_gens_refuses_a_grid_past_the_limit(capsys):
    requests = [request_.split() for request_ in GRIDS_PAST_THE_LIMIT]
    proc = _child_process(["-c", _RUN_IN_TURN, json.dumps(requests)], timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    for argv, line in zip(requests, proc.stdout.splitlines(), strict=True):
        code, out, err, seconds = json.loads(line)
        assert (code, out) == (1, "") and seconds < 1.0
        assert cost_refusal(f"M({argv[5]};{argv[7]}) in degree {argv[3]}").fullmatch(err)
        assert run(capsys, *argv) == (1, "", err)


# requests that no size guard decides, of mul, star, green, factor and
# closure (whose bound is guarded), and requests with absurd --r, --k,
# --samples and --bound values, at the degrees of GUARDED: {v} is 10^100
SWEPT = ["mul --n {n} n={n}:(1,2) n={n}:(1,2)", "mul --n 3 n=3:(1,2)(3,1')(2',3') n={n}:(1,2)",
         "star --n {n} {v}*n={n}:(1,2)", "star --n 3 {v}*n=3:(1,1')(2,2')(3,3')",
         "green leq --n {n} --rel J n={n}:(1,2) n={n}:(1,2)",
         "green class --n {n} --rel H n={n}:(1,2)",
         "green factor --n {n} --mode right n={n}:(1,2) n={n}:(1,2)",
         "factor --idempotents --n {n} n={n}:(1,2)",
         "closure --n {n} --gens {gens} --bound {v}", "closure --n 3 --gens {gens} --bound {v}",
         "closure --n 3 --gens {gens} --bound -{v}",
         "ideal gens --n {n} --r {v} --k {v}", "ideal gens --n 5 --r 3 --k {v}",
         "ideal rank --n {n} --r {v} --k -{v}", "ideal rank --n 5 --r 1 --k {v}",
         "verify tau-identity --n 3 --samples {v} --seed {v}",
         "verify green-pre-orders --n 3 --samples {v}", "verify regularity --n 3 --bound {v}",
         "verify ideal-classification --n 3 --bound {v}", "verify singular-rank --n 3 --bound {v}",
         "verify minimal-gens --n 3 --r 1 --k {v}", "verify ig-subsemigroup --n 3 --bound {v}",
         "verify idempotent-closure --n 5 --r 3 --bound {v}",
         "verify idempotent-generation --n {n} --r {v}", "verify gh-conditions --n {n} --r -{v}"]


@pytest.mark.parametrize("degree", [3000, 10**5, 10**6, 10**9])
def test_no_request_ends_in_a_traceback_or_a_hang(degree):
    gens = os.path.join(os.path.dirname(__file__), "golden", "closure-gens.txt")
    requests = [request_.format(n=degree, v=10**100, gens=gens).split() for request_ in SWEPT]
    proc = _child_process(["-c", _RUN_IN_TURN, json.dumps(requests)],
                          timeout=10 * len(requests))
    assert (proc.returncode, proc.stderr) == (0, "")
    for argv, line in zip(requests, proc.stdout.splitlines(), strict=True):
        code, _, err, seconds = json.loads(line)
        assert code in (0, 1, 2) and "Traceback" not in err and seconds < 10, argv


def test_rank_message_lists_i_n_up_to_eight_ranks(capsys):
    assert run(capsys, "enumerate", "--n", "15", "--rank", "2") == (
        1, "", "error: rank 2 is not in I(15) = (1, 3, 5, 7, 9, 11, 13, 15)\n")
    assert run(capsys, "gh-graph", "--n", "16", "--r", "3") == (
        1, "", "error: rank 3 is not in I(16) = (0, 2, ..., 16)\n")
    huge = 10**30  # I(n) has more ranks than a range can count
    assert run(capsys, "ideal", "rank", "--n", str(huge), "--r", "3", "--k", "0") == (
        1, "", f"error: rank 3 is not in I({huge}) = (0, 2, ..., {huge})\n")


@pytest.mark.parametrize("request_", [
    "ideal rank --n 5000 --r 0 --k 1",  # 2 * delta(5000, 0): 16,324 digits
    "ideal rank --n 100000 --r 2 --k 0",  # rho(100000, 2): 228,291 digits
    "ideal rank --n 1000000000 --r 2 --k 0",  # refused from lgamma, never computed
    f"ideal rank --n {10**309} --r 0 --k 0",  # a degree past the float range
])
def test_ideal_rank_refuses_ranks_past_the_int_to_text_limit(capsys, request_):
    proc = _run_child(request_.split())
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert f"more than {sys.get_int_max_str_digits()} digits" in proc.stderr
    start = time.perf_counter()
    assert run(capsys, *request_.split()) == (1, "", proc.stderr)
    assert time.perf_counter() - start < 1.0


def test_ideal_rank_prints_every_rank_within_the_limit(capsys):
    # 2 * delta(n, 0) first exceeds 4,300 digits at n = 1560, where the
    # lgamma estimate is close and the exact value decides
    limit = sys.get_int_max_str_digits()
    for n in (1556, 1558, 1560, 1562):
        exact = 2 * delta(n, 0)
        code, out, err = run(capsys, "ideal", "rank", "--n", str(n), "--r", "0", "--k", "1")
        if exact < 10**limit:
            assert (code, json.loads(out)["rank"], err) == (0, exact, "")
        else:
            assert (code, out) == (1, "") and f"more than {limit} digits" in err
    assert 2 * delta(1558, 0) < 10**limit <= 2 * delta(1560, 0)


def test_rank_of_ideal_reads_the_int_to_text_limit():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(DiagramError, match=f"more than {limit} digits"):
        rank_of_ideal(1560, 0, 1)
    sys.set_int_max_str_digits(0)  # no limit
    try:
        assert rank_of_ideal(1560, 0, 1).rank == 2 * delta(1560, 0)
    finally:
        sys.set_int_max_str_digits(limit)
