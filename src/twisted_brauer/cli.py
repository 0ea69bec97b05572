"""
Command-line front end.

One subcommand per concept: diagram arithmetic (``mul``, ``star``),
Green's relation queries and constructive factorizations (``green``),
ideal queries (``ideal``), exhaustive enumeration and closures
(``enumerate``, ``closure``), Graham-Houghton graph export
(``gh-graph``), idempotent factorization (``factor``) and the theorem
verification harness (``verify``).

Diagrams are read in either the human text format ``n=6: (1,3)(2,3')...``
or the one-object-per-line JSON format; a twist prefix ``2 * `` or a
``"twist"`` key lifts them into the twisted monoid.  The degree is always
explicit.  Exit status: 0 on success, 1 on domain errors (including a
failed verification), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from . import enumeration, green, ideals, structure, verify
from .diagram import (PAST_INT_LIMIT, BrauerDiagram, DiagramError, diagram_from_json_obj,
                      multiply, parse_diagram, read_int)
from .twisted import TwistedElement, _check_plain, as_twisted, star_chain

_TWIST_PREFIX = re.compile(r"^\s*(\d+)\s*\*\s*")


def parse_element(text: str, degree: int | None = None) -> TwistedElement:
    """Parse a twisted element from text or JSON (twist defaults to 0).

    JSON takes the keys of a diagram plus ``twist``; any other is refused.
    """
    text = text.strip()
    if text.startswith("{"):
        obj = json.loads(text, parse_int=read_int)
        twist = obj.pop("twist", 0)
        return TwistedElement(twist, diagram_from_json_obj(obj, degree))
    twist = 0
    m = _TWIST_PREFIX.match(text)
    if m:
        twist = read_int(m.group(1))
        text = text[m.end():]
    return TwistedElement(twist, parse_diagram(text, degree))


def parse_plain(text: str, degree: int | None = None) -> BrauerDiagram:
    element = parse_element(text, degree)
    return _check_plain(element if element.twist else element.diagram)


def _emit_element(x: TwistedElement, fmt: str) -> str:
    try:
        if fmt == "jsonl":
            return json.dumps(x.to_json_obj())
        return x.to_text() if x.twist else x.diagram.to_text()
    except ValueError:  # the text of a twist past the int-to-text limit
        raise DiagramError(PAST_INT_LIMIT.format(sys.get_int_max_str_digits())) from None


def _emit_witnesses(witnesses, chain: TwistedElement, alpha: BrauerDiagram, fmt: str) -> int:
    if chain != TwistedElement(0, alpha):
        raise DiagramError("internal check failed: the witnesses do not rebuild the input")
    for w in witnesses:
        print(_emit_element(as_twisted(w), fmt))
    return 0


def _cmd_mul(args) -> int:
    product, t = multiply(parse_plain(args.alpha, args.n), parse_plain(args.beta, args.n))
    if args.format == "jsonl":
        print(json.dumps({"product": product.to_json_obj(), "tau": t}))
    else:
        print(product.to_text())
        print(f"tau={t}")
    return 0


def _cmd_star(args) -> int:
    elements = [parse_element(t, args.n) for t in args.elements]
    print(_emit_element(star_chain(elements), args.format))
    return 0


def _cmd_green(args) -> int:
    if args.green_cmd == "leq":
        x = parse_element(args.x, args.n)
        y = parse_element(args.y, args.n)
        print("true" if green.twisted_leq(args.rel, x, y) else "false")
        return 0
    if args.green_cmd == "class":
        print(green.green_class(args.rel, parse_element(args.x, args.n)))
        return 0
    a = parse_plain(args.x, args.n)
    b = parse_plain(args.y, args.n)
    if args.mode == "right":  # the witnesses left and right of b in the chain that rebuilds a
        left, right = [], [green.factor_right(a, b)]
    elif args.mode == "left":
        left, right = [green.factor_left(a, b)], []
    else:
        left, right = ([w] for w in green.factor_two_sided(a, b))
    return _emit_witnesses(left + right, star_chain(*left, b, *right), a, args.format)


def _cmd_ideal(args) -> int:
    if args.ideal_cmd == "contains":
        spec = ideals.parse_ideal(args.spec, args.n)
        x = parse_element(args.element, args.n)
        print("true" if ideals.ideal_contains(spec, x) else "false")
        return 0
    if args.ideal_cmd == "normalize":
        spec = ideals.parse_ideal(args.spec, args.n)
        print(spec.to_json() if args.format == "jsonl" else spec.to_text())
        return 0
    if args.ideal_cmd == "rank":
        info = ideals.rank_of_ideal(args.n, args.r, args.k)
        print(json.dumps(info.to_json_obj()))
        return 0
    spec = ideals.ideal_normalize(args.n, [(args.r, args.k)])
    gens = structure.generating_set(spec)
    print(f"size={gens.size} kind={gens.kind}")
    if args.list:
        for g in gens.elements:
            print(_emit_element(g, args.list))
    return 0


def _cmd_enumerate(args) -> int:
    if args.rank is not None:
        stream = enumeration.d_class(args.n, args.rank)
    elif args.idempotents:
        stream = enumeration.idempotents(args.n, twisted=args.idempotents == "twisted")
    else:
        stream = enumeration.all_diagrams(args.n)
    count = 0
    for d in stream:
        count += 1
        if not args.count_only:
            print(d.to_json() if args.format == "jsonl" else d.to_text())
    if args.count_only:
        print(count)
    return 0


def _cmd_closure(args) -> int:
    text = sys.stdin.read() if args.gens == "-" else Path(args.gens).read_text(encoding="utf-8")
    gens = [parse_element(line, args.n) for line in text.splitlines() if line.strip()]
    result = enumeration.bounded_closure(gens, args.bound)
    for x in sorted(result.elements):
        print(_emit_element(x, args.format))
    print(
        f"# elements={len(result.elements)} bound={result.bound} "
        f"saturated={str(result.saturated_within_bound).lower()}",
        file=sys.stderr,
    )
    return 0


def _cmd_gh_graph(args) -> int:
    graph = structure.build_gh_graph(args.n, args.r)
    if args.format == "dot":
        print(graph.to_dot())
        return 0
    report = structure.rank_idrank_report(graph)
    print(json.dumps(report.to_json_obj()))
    return 0 if report.certified else 1


def _cmd_factor(args) -> int:
    alpha = parse_plain(args.alpha, args.n)
    chain = structure.factor_into_idempotents(alpha)
    return _emit_witnesses(chain, star_chain(chain), alpha, args.format)


def _cmd_verify(args) -> int:
    given = {name: getattr(args, name) for name in verify.PARAMETERS if name in args}
    report = verify.CHECKS[args.theorem](**given)  # the check's runner reads the request
    print(report.to_json())
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: parse_args keeps
    no state between calls."""
    parser = argparse.ArgumentParser(
        prog="twisted-brauer",
        description="Exact computations in the Brauer monoid and its twisted cover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_degree(p):
        p.add_argument("--n", type=int, required=True, help="degree (always explicit)")

    def add_common(p):  # for a command that prints in two forms
        add_degree(p)
        p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("mul", help="multiply two diagrams, reporting the twist")
    add_common(p)
    p.add_argument("alpha")
    p.add_argument("beta")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("star", help="star product of twisted elements")
    add_common(p)
    p.add_argument("elements", nargs="+")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("green", help="Green's relations, classes, factorizations")
    green_sub = p.add_subparsers(dest="green_cmd", required=True)
    q = green_sub.add_parser("leq", help="decide a twisted pre-order")
    add_degree(q)
    q.add_argument("--rel", choices=("R", "L", "J"), required=True)
    q.add_argument("x")
    q.add_argument("y")
    q.set_defaults(func=_cmd_green)
    q = green_sub.add_parser("class", help="describe a Green's class")
    add_degree(q)
    q.add_argument("--rel", choices=green.RELATIONS, required=True)
    q.add_argument("x")
    q.set_defaults(func=_cmd_green)
    q = green_sub.add_parser("factor", help="constructive pre-order witnesses")
    add_common(q)
    q.add_argument("--mode", choices=("right", "left", "two-sided"), required=True)
    q.add_argument("x")
    q.add_argument("y")
    q.set_defaults(func=_cmd_green)

    p = sub.add_parser("ideal", help="ideal membership, canonical forms, ranks")
    ideal_sub = p.add_subparsers(dest="ideal_cmd", required=True)
    q = ideal_sub.add_parser("contains")
    add_degree(q)
    q.add_argument("--spec", required=True, help='e.g. "I(5;2) + I(3;4)"')
    q.add_argument("element")
    q.set_defaults(func=_cmd_ideal)
    q = ideal_sub.add_parser("normalize")
    add_common(q)
    q.add_argument("--spec", required=True)
    q.set_defaults(func=_cmd_ideal)
    q = ideal_sub.add_parser("rank")
    add_degree(q)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=_cmd_ideal)
    q = ideal_sub.add_parser("gens")
    add_degree(q)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--list", nargs="?", const="text", choices=("text", "jsonl"),
                   help="print the elements, as text (the default) or jsonl")
    q.set_defaults(func=_cmd_ideal)

    p = sub.add_parser("enumerate", help="stream diagrams, D-classes or idempotents")
    add_degree(p)
    output = p.add_mutually_exclusive_group()  # a count has no format
    # no default (None prints text), so that --format text with --count-only conflicts too
    output.add_argument("--format", choices=("text", "jsonl"))
    stream = p.add_mutually_exclusive_group()  # a D-class or the idempotents
    stream.add_argument("--rank", type=int)
    stream.add_argument("--idempotents", choices=("plain", "twisted"))
    output.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("closure", help="twist-bounded closure of generators (JSONL)")
    add_common(p)
    p.add_argument("--gens", required=True, help="path to JSONL generators, or -")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("gh-graph", help="Graham-Houghton graph of a D-class")
    add_degree(p)
    p.add_argument("--format", choices=("jsonl", "dot"), default="jsonl")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_gh_graph)

    p = sub.add_parser("factor", help="factor a singular diagram into idempotents")
    add_common(p)
    p.add_argument("--idempotents", action="store_true", required=True)
    p.add_argument("alpha")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("verify", help="run a theorem check, emitting a JSON report")
    p.add_argument("theorem", choices=sorted(verify.CHECKS), metavar="theorem",
                   help="one of: %(choices)s")
    for name in verify.PARAMETERS:  # absent when not given, so the check's default holds
        p.add_argument(f"--{name}", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DiagramError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a backstop for requests that no size guard bounds
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
