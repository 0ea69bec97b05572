"""
Brauer diagrams and their multiplication.

A Brauer diagram of degree n is a perfect matching on the 2n points
1, ..., n (top row) and 1', ..., n' (bottom row).  Internally the points
are indexed 0..2n-1: top vertex i is index i-1 and bottom vertex i' is
index n+i-1, and a diagram stores the fixed-point-free involution
``pairing`` with ``pairing[p] == q`` whenever {p, q} is a block.

Two diagrams are multiplied by stacking the first on top of the second:
the bottom row of the first is glued to the top row of the second, and
the blocks of the product are read off from the connected components of
the resulting three-row graph.  Components that stay entirely in the
glued middle row are *floating components*; their number is the twist
``tau`` returned alongside every product.

>>> a = make_diagram(2, [(1, 2), (-1, -2)])
>>> multiply(a, a)
(BrauerDiagram.from_text("n=2: (1,2)(1',2')"), 1)
"""

from __future__ import annotations

import json
import operator
import re
import sys
from dataclasses import dataclass


class DiagramError(ValueError):
    """A malformed diagram or an illegal diagram operation, named by its message."""


class PreconditionError(DiagramError):
    """A request outside a result's hypotheses, or a factorization outside its pre-order."""


def _check_degree(n) -> None:
    if not is_int(n) or n < 0:
        raise DiagramError(f"degree must be a non-negative integer, got {n!r}")


def _check_degrees(alpha, beta) -> None:
    """Refuse two operands (diagrams, twisted elements or ideals) of different degrees."""
    if alpha.degree != beta.degree:
        raise DiagramError(f"degrees differ: {alpha.degree} vs {beta.degree}")


def _check_least(name: str, value: int, least: int | None) -> None:
    if least is not None and value < least:
        raise DiagramError(f"{name} must be at least {least}, got {value}")


def _check_pair(n: int, i: int, j: int) -> None:
    if not 1 <= i < j <= n:
        raise PreconditionError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")


@dataclass(frozen=True, order=True, slots=True)
class BrauerDiagram:
    """A perfect matching on [n] u [n]', immutable and totally ordered.

    ``degree`` is n; ``pairing`` is the involution on point indices
    (top i at index i-1, bottom i' at index n+i-1).  Equality, hashing
    and the total order are structural (degree, then pairing array).
    The two fields are slots, so a diagram carries no instance dict.
    """

    degree: int
    pairing: tuple[int, ...]

    def __post_init__(self) -> None:
        n, p = self.degree, self.pairing
        if not is_int(n) or type(p) is not tuple:  # no bool or float degree, no list to hash
            raise DiagramError(f"need an int degree and a tuple pairing, got {n!r} and a "
                               f"{type(p).__name__}")
        n2 = 2 * n
        if len(p) != n2:  # as at every negative degree
            _check_degree(n)
            raise DiagramError(f"pairing must have length {n2}, got {len(p)}")
        try:
            for x, y in enumerate(p):
                if not 0 <= y < n2:
                    raise DiagramError(f"pairing entry {y} out of range")
                if y == x or p[y] != x:
                    raise DiagramError("pairing is not a fixed-point-free involution")
        except TypeError:  # an entry that is no int can neither be compared nor index p
            raise DiagramError("pairing entries must be integers") from None

    # -- structural invariants ------------------------------------------

    @property
    def rank(self) -> int:
        """Number of transversals (blocks meeting both rows)."""
        n, count = self.degree, 0
        for y in self.pairing[:n]:  # on CPython 3.11 faster than sum() over map or a generator
            if y >= n:
                count += 1
        return count

    @property
    def dom(self) -> tuple[int, ...]:
        """Top vertices (1-based) whose block meets the bottom row."""
        n = self.degree
        return tuple(i + 1 for i in range(n) if self.pairing[i] >= n)

    @property
    def codom(self) -> tuple[int, ...]:
        """Bottom vertices (1-based) whose block meets the top row."""
        n = self.degree
        return tuple(i + 1 for i in range(n) if self.pairing[n + i] < n)

    @property
    def ker(self) -> frozenset[tuple[int, int]]:
        """The kernel: the upper hooks (a, b), a < b.

        Every non-singleton kernel class of a Brauer diagram is a hook, so
        kernel containment is containment of these sets.
        """
        return frozenset(self.top_hooks())

    @property
    def coker(self) -> frozenset[tuple[int, int]]:
        """The cokernel: the lower hooks (a, b) of a' and b', a < b."""
        return frozenset(self.bottom_hooks())

    def top_hooks(self) -> list[tuple[int, int]]:
        """Upper hooks in canonical order (sorted, smaller vertex first)."""
        n, p = self.degree, self.pairing
        return [(i + 1, p[i] + 1) for i in range(n) if i < p[i] < n]

    def bottom_hooks(self) -> list[tuple[int, int]]:
        """Lower hooks in canonical order."""
        n, p = self.degree, self.pairing
        return [(i - n + 1, p[i] - n + 1) for i in range(n, 2 * n) if i < p[i]]

    def transversal_pairs(self) -> list[tuple[int, int]]:
        """Transversals as (top, bottom) 1-based pairs, sorted by top."""
        n, p = self.degree, self.pairing
        return [(i + 1, p[i] - n + 1) for i in range(n) if p[i] >= n]

    # -- involution and operators ---------------------------------------

    def star(self) -> BrauerDiagram:
        """Reflect top-to-bottom: the * anti-automorphism."""
        n = self.degree
        p = self.pairing
        # the new point y is the old point y +- n, and so is its partner
        return _raw_diagram(n, tuple([x + n if x < n else x - n for x in p[n:] + p[:n]]))

    def __mul__(self, other: BrauerDiagram) -> BrauerDiagram:
        """Plain product in the Brauer monoid (twist discarded)."""
        return multiply(self, other)[0]

    # -- presentation -----------------------------------------------------

    def blocks(self) -> list[tuple[int, int]]:
        """Blocks as signed 1-based pairs (negative = bottom), canonical order."""
        return [(a, b) for a, b in self.to_json_obj()["blocks"]]

    def to_text(self) -> str:
        """Canonical human-readable form, e.g. ``n=2: (1,2)(1',2')``."""
        blocks = self.to_json_obj()["blocks"]
        body = "".join(f"({_token_str(a)},{_token_str(b)})" for a, b in blocks)
        return f"n={self.degree}: {body}"

    def to_json_obj(self) -> dict:
        """The machine form, whose signed block list every other block reader reads."""
        n = self.degree
        blocks = [
            [x + 1 if x < n else n - x - 1, y + 1 if y < n else n - y - 1]
            for x, y in enumerate(self.pairing)
            if x < y
        ]
        return {"n": n, "blocks": blocks}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @staticmethod
    def from_text(text: str) -> BrauerDiagram:
        return parse_diagram(text)

    def __repr__(self) -> str:
        return f'BrauerDiagram.from_text("{self.to_text()}")'


_new_instance = object.__new__
_set_degree = BrauerDiagram.degree.__set__
_set_pairing = BrauerDiagram.pairing.__set__


def _raw_diagram(degree: int, pairing: tuple[int, ...]) -> BrauerDiagram:
    # construction bypass for outputs that are involutions by construction:
    # the slot setters skip both the frozen __setattr__ and __post_init__
    d = _new_instance(BrauerDiagram)
    _set_degree(d, degree)
    _set_pairing(d, pairing)
    return d


def _from_pairs(n: int, pairs: list[tuple[int, int]]) -> BrauerDiagram:
    """The diagram whose blocks are the 0-based point pairs ``pairs``, the
    one writer of the constructive witnesses.  With points below 2n, n
    pairs that leave no entry negative are a fixed-point-free involution:
    a repeated point or an (x, x) pair leaves another point unpaired (-1),
    and a negative point writes itself into an entry."""
    out = [-1] * (2 * n)
    for x, y in pairs:
        out[x], out[y] = y, x
    if len(pairs) != n or min(out, default=0) < 0:
        raise DiagramError("a witness left a point unpaired")
    return _raw_diagram(n, tuple(out))


def _index_to_token(x: int, n: int) -> int:
    return x + 1 if x < n else -(x - n + 1)


def is_int(x) -> bool:
    """An int that is not a bool: bools are no vertex, degree or twist."""
    return isinstance(x, int) and not isinstance(x, bool)


def _token_to_index(t: int, n: int) -> int:
    # read once as an exact int, so an int subclass cannot bend a comparison;
    # an exact int skips the is_int call, which would pass it
    if not (type(t) is int or is_int(t)) or not 0 < abs(i := operator.index(t)) <= n:
        raise DiagramError(f"vertex token {t!r} out of range for degree {n}")
    return i - 1 if i > 0 else n - i - 1


def _token_str(t: int) -> str:
    return str(t) if t > 0 else f"{-t}'"


def make_diagram(degree: int, blocks) -> BrauerDiagram:
    """Build a diagram from blocks of signed vertices (+i top, -i bottom).

    Raises DiagramError with a message naming each failure mode, in block
    order: a block without exactly two distinct vertices, an out-of-range
    vertex, a vertex used twice, or a vertex left uncovered.  A pairing that
    passes these checks is a fixed-point-free involution, so it is not
    validated again.  The points are kept in a dict, so a short block list
    costs no memory in the degree.

    >>> make_diagram(2, [(1, -1), (2, -2)]) == identity(2)
    True
    """
    _check_degree(degree)
    n = degree
    pairing = {}
    for block in blocks:
        block = tuple(block)
        if len(block) != 2 or block[0] == block[1]:
            raise DiagramError(f"block {block!r} does not have size 2")
        x, y = _token_to_index(block[0], n), _token_to_index(block[1], n)
        if x == y or x in pairing or y in pairing:
            raise DiagramError(f"vertex repeated in block {block!r}")
        pairing[x], pairing[y] = y, x
    if len(pairing) < 2 * n:  # of the len(pairing) + 1 first points, one is uncovered
        x = next(x for x in range(len(pairing) + 1) if x not in pairing)
        raise DiagramError(f"vertex {_token_str(_index_to_token(x, n))} is not covered")
    return _raw_diagram(n, tuple([pairing[x] for x in range(2 * n)]))


def identity(n: int) -> BrauerDiagram:
    """The identity diagram: i joined to i' for every i."""
    _check_degree(n)
    return permutation_diagram(n, range(1, n + 1))


def transposition(n: int, i: int, j: int) -> BrauerDiagram:
    """The unit interchanging i and j and fixing everything else."""
    _check_pair(n, i, j)
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return permutation_diagram(n, images)


def permutation_diagram(n: int, images) -> BrauerDiagram:
    """The unit sending i to images[i-1] for every i in [n]."""
    images = list(images)
    if len(images) != n or sorted(images) != list(range(1, n + 1)):
        raise DiagramError(f"{images!r} is not a bijection of [{n}]")
    pairing = [0] * (2 * n)
    for i, v in enumerate(images, start=1):
        pairing[i - 1] = n + v - 1
        pairing[n + v - 1] = i - 1
    return BrauerDiagram(n, tuple(pairing))


_WALK_REPEAT = "a product walk met a middle point twice: a pairing is no involution"
_NO_PRODUCT = "the product walks pair no perfect matching: a pairing is no involution"


def multiply(alpha: BrauerDiagram, beta: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Product diagram together with its floating-component count.

    A path walk over the stacked graph: alpha's bottom row is glued to
    beta's top row, so every glued middle point meets one edge of each
    diagram and every component is a path or a cycle.  A walk from each
    outer endpoint, alternating alpha's and beta's edges through the
    middle row, ends at the other endpoint of its block.  The walks from
    the top row run first; the bottom points they leave over lie on paths
    that never reach the top row.  The middle points no walk visits lie
    on cycles; each cycle is one floating component and only contributes
    to the twist.  A pairing that is no involution raises DiagramError
    where a walk meets a middle point twice, where the walks leave other
    than n blocks, or where a cycle leaves the middle row.
    """
    n = alpha.degree
    if beta.degree != n:  # tested here, so a product of equal degrees makes no call
        _check_degrees(alpha, beta)
    pa, pb = alpha.pairing, beta.pairing
    out = [-1] * (2 * n)
    seen = [False] * n  # middle points, by their index in beta's top row
    walks = 0
    for start in range(n):  # top points leave by an alpha edge
        if out[start] >= 0:
            continue
        end = pa[start]
        while end >= n:  # alpha edge into the middle row
            end -= n
            if seen[end]:
                raise DiagramError(_WALK_REPEAT)
            seen[end] = True
            end = pb[end]
            if end >= n:  # beta edge down to the bottom row
                break
            if seen[end]:
                raise DiagramError(_WALK_REPEAT)
            seen[end] = True
            end = pa[end + n]
        out[start], out[end] = end, start
        walks += 1
    for start in range(n, 2 * n):  # bottom points leave by a beta edge
        if out[start] >= 0:
            continue
        # paths that meet the top row were all walked above, so every alpha
        # edge on this one joins two middle points
        end = pb[start]
        while end < n:  # beta edge into the middle row
            if seen[end]:
                raise DiagramError(_WALK_REPEAT)
            seen[end] = True
            end = pa[end + n] - n
            if seen[end]:
                raise DiagramError(_WALK_REPEAT)
            seen[end] = True
            end = pb[end]
        out[start], out[end] = end, start
        walks += 1
    if walks != n:  # every point is written: n walks pair all 2n, more share an end
        raise DiagramError(_NO_PRODUCT)
    floating = 0
    for m in range(n):
        if not seen[m]:
            floating += 1
            while not seen[m]:
                seen[m] = True
                m = pb[m]
                if m >= n:
                    raise DiagramError(_NO_PRODUCT)
                seen[m] = True
                m = pa[m + n] - n
    return _raw_diagram(n, tuple(out)), floating


def read_int(digits: str) -> int:
    """The one reader of the numbers of a diagram, twist or ideal text and of
    JSON input: int(), with a DiagramError past the int-to-text limit."""
    if 0 < (limit := sys.get_int_max_str_digits()) < len(digits):
        raise DiagramError(PAST_INT_LIMIT.format(limit))
    return int(digits)


PAST_INT_LIMIT = "a number has more digits than the int-to-text limit, {}"
_BLOCK = re.compile(r"\s*\(\s*(\d+)\s*('?)\s*,\s*(\d+)\s*('?)\s*\)")
_PREFIX = re.compile(r"^\s*n\s*=\s*(\d+)\s*:\s*")


def parse_diagram(text: str, degree: int | None = None) -> BrauerDiagram:
    """Parse the human text format, e.g. ``n=6: (1,3)(2,3')...``.

    Blocks may appear in any order, separated and padded by any
    whitespace; anything else in the body is an error.  A leading ``n=K:``
    fixes the degree (mandatory unless ``degree`` is given).
    """
    m = _PREFIX.match(text)
    body = text
    if m:
        stated = read_int(m.group(1))
        _check_declared_degree(stated, degree)
        degree, body = stated, text[m.end():]
    if degree is None:
        raise DiagramError(f"no degree in {text!r}; expected a leading 'n=K:'")
    body = body.rstrip()
    blocks = []
    pos = 0
    while pos < len(body):
        m = _BLOCK.match(body, pos)
        if m is None:
            raise DiagramError(f"unparsable diagram text: {text!r}")
        a = read_int(m.group(1)) * (-1 if m.group(2) else 1)
        b = read_int(m.group(3)) * (-1 if m.group(4) else 1)
        blocks.append((a, b))
        pos = m.end()
    return make_diagram(degree, blocks)


def _check_declared_degree(stated, degree: int | None) -> None:
    if degree is not None and degree != stated:
        raise DiagramError(
            f"text declares degree {stated} but degree {degree} was requested"
        )


def diagram_from_json_obj(obj: dict, degree: int | None = None) -> BrauerDiagram:
    """Read the machine format ``{"n": ..., "blocks": [[..], ..]}``.

    A given ``degree`` must agree with ``n``, as in :func:`parse_diagram`.
    Any other key is refused, so a misspelt key is never ignored.
    """
    if not isinstance(obj, dict) or "n" not in obj or "blocks" not in obj:
        raise DiagramError(f"JSON object needs 'n' and 'blocks': {obj!r}")
    unknown = sorted(set(obj) - {"n", "blocks"})
    if unknown:
        raise DiagramError(f"unknown keys in JSON diagram: {', '.join(map(repr, unknown))}")
    if is_int(obj["n"]):  # any other n is refused by make_diagram
        _check_declared_degree(obj["n"], degree)
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise DiagramError(f"'blocks' must be a list of vertex lists: {blocks!r}")
    return make_diagram(obj["n"], [tuple(b) for b in blocks])


def diagram_from_json(text: str) -> BrauerDiagram:
    return diagram_from_json_obj(json.loads(text, parse_int=read_int))
