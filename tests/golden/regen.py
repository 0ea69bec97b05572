"""The golden corpus: every CLI subcommand and every witness family, hashed.

``cli.jsonl`` holds one line per CLI request: the argv as text, the exit
status and the sha256 of stdout and of stderr, with the elapsed
``seconds`` of a ``verify`` report masked.  ``witnesses.txt`` holds one
sha256 per witness family (lemma witnesses, idempotent chains and
transposition absorptions) over every diagram of degree <= 5 and the
seeded diagrams listed after the hashes, up to degree 64.

``tests/test_golden.py`` replays both files.  To rewrite them after a
deliberate change, run from the repository root

    PYTHONPATH=src python tests/golden/regen.py

which prints every entry that changed.  The requests and the seeded
diagrams are drawn once, from fixed seeds, and then kept as text in the
files, so a change to random_diagram does not move the corpus; delete a
file to draw its inputs afresh.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import shlex
import sys
from unittest import mock

from twisted_brauer import (
    all_diagrams,
    factor_into_idempotents,
    identity,
    idempotent_factor_sigma,
    lemma_rank_drop,
    lemma_twist_keep,
    lemma_twist_raise,
    parse_diagram,
    random_diagram,
)
from twisted_brauer.cli import main
from twisted_brauer.verify import CHECKS

HERE = pathlib.Path(__file__).resolve().parent
CLI_FILE = HERE / "cli.jsonl"
WITNESS_FILE = HERE / "witnesses.txt"
CLOSURE_GENS = "closure-gens.txt"  # read by the closure requests, relative to HERE
FAMILIES = ("lemmas", "chains", "absorption")
_SECONDS = re.compile(r'"seconds": [0-9.e+-]+')


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_request(argv: str) -> dict:
    """One CLI request in-process, run in this directory at a terminal width
    of 80 (argparse wraps usage to it), as its corpus entry."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                status = main(shlex.split(argv))
            except SystemExit as exc:  # a usage error
                status = exc.code
    finally:
        os.chdir(cwd)
    stdout = out.getvalue()
    if argv.startswith("verify "):
        stdout = _SECONDS.sub('"seconds": 0', stdout)
    return {"argv": argv, "status": status, "stdout": _sha(stdout), "stderr": _sha(err.getvalue())}


def _seeded_pairs(rng: random.Random, degrees):
    """(x, y) per degree with x = g * y * d, x = y * d and x = g * y."""
    for n in degrees:
        g, y, d = (random_diagram(n, rng) for _ in range(3))
        yield n, "two-sided", g * y * d, y
        yield n, "right", y * d, y
        yield n, "left", g * y, y


def _seeded_singular(rng: random.Random, n: int):
    while True:
        alpha = random_diagram(n, rng)
        if alpha.rank < n:
            return alpha


def requests() -> list[str]:
    """Every request of the CLI corpus, as argv text; seeded inputs come from
    random.Random(2026) and are written into the argv."""
    rng = random.Random(2026)
    q = shlex.quote
    alpha6 = "n=6: (1,3)(2,3')(4,5)(6,6')(1',2')(4',5')"
    hook3 = "n=3: (1,2)(3,3')(1',2')"
    hook2 = "n=2: (1,2)(1',2')"
    out = [
        f"mul --n 6 {q(alpha6)} {q(alpha6)}",
        f"mul --n 3 --format jsonl {q(hook3)} {q(hook3)}",
        f"mul --n 3 {q(hook3)} {q('n=2: (1,2)(1,2)')}",
        f"star --n 3 {q('1 * ' + hook3)} {q(hook3)} {q(hook3)}",
        f"star --n 3 --format jsonl {q(hook3)} {q(hook3)}",
        f"green leq --rel R --n 6 {q(alpha6)} {q(identity(6).to_text())}",
    ]
    for rel in "RLJ":
        out.append(f"green leq --rel {rel} --n 3 {q('2 * ' + hook3)} {q(identity(3).to_text())}")
    for rel in "RLHDJ":
        out.append(f"green class --rel {rel} --n 6 {q('2 * ' + alpha6)}")
    for n, mode, x, y in _seeded_pairs(rng, range(3, 13)):
        out.append(f"green factor --mode {mode} --n {n} {q(x.to_text())} {q(y.to_text())}")
    out.append(f"green factor --mode right --n 3 --format jsonl {q(hook3)} {q(hook3)}")
    for n in range(3, 13):
        for fmt in ("text", "jsonl"):
            alpha = _seeded_singular(rng, n)
            out.append(f"factor --idempotents --n {n} --format {fmt} {q(alpha.to_text())}")
    out.append(f"factor --idempotents --n 3 {q(identity(3).to_text())}")
    out += [
        f"ideal contains --n 6 --spec {q('I(4;1) + I(2;3)')} {q('2 * ' + alpha6)}",
        f"ideal contains --n 6 --spec {q('I(4;3)')} {q(alpha6)}",
        f"ideal normalize --n 6 --spec {q('I(2;3) + I(4;1) + I(2;5)')}",
        f"ideal normalize --n 6 --format jsonl --spec {q('I(4;1) + I(2;3)')}",
        "ideal rank --n 6 --r 4 --k 0",
        "ideal rank --n 6 --r 2 --k 3",
        "ideal rank --n 5 --r 5 --k 0",
        "ideal gens --n 4 --r 4 --k 0 --list",
        "ideal gens --n 5 --r 3 --k 0 --list",
        "ideal gens --n 5 --r 1 --k 0 --list jsonl",
        "ideal gens --n 3 --r 1 --k 1 --list",
        "ideal gens --n 4 --r 0 --k 2 --list jsonl",
    ]
    for n in range(7):
        out.append(f"enumerate --n {n}")
        out.append(f"enumerate --n {n} --count-only")
        for r in range(n % 2, n + 1, 2):
            out.append(f"enumerate --n {n} --rank {r}")
        for kind in ("plain", "twisted"):
            out.append(f"enumerate --n {n} --idempotents {kind}")
    out += [
        "enumerate --n 3 --format jsonl",
        "enumerate --n 4 --rank 2 --idempotents twisted --count-only",
        f"closure --n 3 --bound 2 --gens {CLOSURE_GENS}",
        f"closure --n 3 --bound 1 --format jsonl --gens {CLOSURE_GENS}",
    ]
    for n in range(3, 8):
        for r in range(2 - n % 2, n, 2):
            out.append(f"gh-graph --n {n} --r {r}")
            if n <= 6:
                out.append(f"gh-graph --n {n} --r {r} --format dot")
    out.append("gh-graph --n 8 --r 6")
    out += [f"verify {theorem}" for theorem in sorted(CHECKS)]
    out += ["verify no-such-theorem", "verify tau-identity --r 1", "mul --n 3 x y"]
    out += [  # a --format where it would change nothing, and a negative bound
        f"green leq --rel R --n 3 {q(hook3)} {q(hook3)} --format text",
        f"green class --rel H --n 3 {q(hook3)} --format jsonl",
        f"ideal contains --n 3 --spec {q('I(1;0)')} {q(hook3)} --format text",
        "ideal rank --n 6 --r 4 --k 0 --format jsonl",
        "gh-graph --n 4 --r 2 --format text",
        f"closure --n 3 --bound -1 --gens {CLOSURE_GENS}",
    ]
    out += [  # a flag that the check would ignore, and two more --format that change nothing
        "verify tau-identity --n 3 --samples 5 --seed 2",
        "verify green-pre-orders --n 3 --seed 4",
        "verify singular-rank --n 4 --bound 5",
        "enumerate --n 3 --count-only --format jsonl",
        "ideal gens --n 3 --r 1 --k 0 --format jsonl",
    ]
    out.append("verify tau-identity --exhaustive")  # --samples alone chooses sampling
    out += [f"verify {theorem} --n {n}" for theorem, n in (  # one degree below the least
        ("ig-subsemigroup", 1), ("maltcev-mazorchuk", 2), ("idempotent-generation", 2),
        ("idempotent-closure", 2), ("gh-conditions", 2), ("rank-table", 2),
        ("singular-rank", 2), ("minimal-gens", 0))]
    out += [  # just outside a hypothesis or an input rule, each refused by its one helper
        "verify idempotent-generation --n 3 --r 3",
        "verify idempotent-generation --n 12 --r 12",  # the rank is refused before the size
        "verify idempotent-closure --n 3 --r 3",
        "verify gh-conditions --n 3 --r 3",
        "gh-graph --n 2 --r 0",
        "ideal gens --n 2 --r 2 --k 0",
        "ideal rank --n 2 --r 0 --k 1",
        "ideal rank --n 4 --r 2 --k -1",
        f"factor --n 2 --idempotents {q(hook2)}",
        "enumerate --n -1 --count-only",
        f"ideal normalize --n -1 --spec {q('I()')}",
    ]
    out += [  # refused by the one cost check, by the step or the byte budget
        "verify maltcev-mazorchuk --n 8",
        "enumerate --n 10 --count-only",
        "verify tau-identity --n 1000000000 --samples 1",
        "ideal gens --n 1000000000 --r 1000000000 --k 0",
        f"closure --n 3 --bound 1000000 --gens {CLOSURE_GENS}",
    ]
    return out


def witness_inputs() -> list:
    """200 seeded diagrams of degree 6 to 64, drawn by random.Random(2027)."""
    rng = random.Random(2027)
    return [random_diagram(n, rng) for n in itertools.islice(itertools.cycle(range(6, 65)), 200)]


def _points(n: int) -> list[tuple[int, int]]:
    """The transposition pairs absorbed: all of them up to degree 5, and
    beyond it the pairs among 1, n // 2 and n."""
    points = range(1, n + 1) if n <= 5 else (1, n // 2, n)
    return list(itertools.combinations(points, 2))


def witness_hashes(inputs) -> dict[str, str]:
    """The sha256 of each witness family over every diagram of degree <= 5
    and then ``inputs``: one line per input and witness, of pairing arrays."""
    hashes = {family: hashlib.sha256() for family in FAMILIES}

    def put(family: str, *items) -> None:
        hashes[family].update(repr(items).encode("ascii") + b"\n")

    diagrams = itertools.chain.from_iterable(all_diagrams(n) for n in range(6))
    for alpha in itertools.chain(diagrams, inputs):
        n, r, p = alpha.degree, alpha.rank, alpha.pairing
        if r == n:
            continue
        if r <= n - 4:
            put("lemmas", p, "drop", *(w.pairing for w in lemma_rank_drop(alpha)))
        put("lemmas", p, "raise", lemma_twist_raise(alpha).pairing)
        put("lemmas", p, "keep", lemma_twist_keep(alpha).pairing)
        if n >= 3:
            put("chains", p, *(e.pairing for e in factor_into_idempotents(alpha)))
        if r > 0:
            for i, j in _points(n):
                put("absorption", p, i, j, *(e.pairing for e in idempotent_factor_sigma(alpha, i, j)))
    return {family: h.hexdigest() for family, h in hashes.items()}


def read_witness_file(path=WITNESS_FILE) -> tuple[dict[str, str], list[str]]:
    """The family hashes and the input lines of a witness file."""
    hashes, inputs = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if line.startswith("n="):
            inputs.append(line)
        else:
            family, digest = line.split()
            hashes[family] = digest
    return hashes, inputs


def read_cli_file(path=CLI_FILE) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def main_regen() -> int:
    """Rewrite both files from the inputs they store, so a change to
    random_diagram does not move the corpus; a file that is missing draws
    its inputs afresh from the seeds."""
    old = {e["argv"]: e for e in read_cli_file()} if CLI_FILE.exists() else {}
    lines = []
    for argv in old or requests():
        entry = run_request(argv)
        if old.get(argv) != entry:
            print(f"cli: {argv}: {old.get(argv)} -> {entry}")
        lines.append(json.dumps(entry))
    CLI_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")

    old_hashes, texts = read_witness_file() if WITNESS_FILE.exists() else ({}, [])
    inputs = [parse_diagram(t) for t in texts] or witness_inputs()
    hashes = witness_hashes(inputs)
    for family, digest in hashes.items():
        if old_hashes.get(family) != digest:
            print(f"witnesses: {family}: {old_hashes.get(family)} -> {digest}")
    WITNESS_FILE.write_text(
        "# sha256 of each witness family, then the seeded inputs (see regen.py)\n"
        + "".join(f"{family} {digest}\n" for family, digest in hashes.items())
        + "".join(d.to_text() + "\n" for d in inputs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main_regen())
