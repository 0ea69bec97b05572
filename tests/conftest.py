"""Shared golden data: the worked example of degree 6 and the degree-10
multiplication example, plus an independent product oracle."""

import pytest

from twisted_brauer import BrauerDiagram, make_diagram


@pytest.fixture(scope="session")
def alpha6() -> BrauerDiagram:
    """The running degree-6 example: rank 2, ker (1,3)(5,6), coker (2,6)(4,5)."""
    return make_diagram(6, [(1, 3), (2, -3), (4, -1), (5, 6), (-2, -6), (-4, -5)])


@pytest.fixture(scope="session")
def figure1():
    """Two degree-10 diagrams whose product creates one floating component."""
    a = make_diagram(
        10,
        [(1, 2), (5, 8), (9, 10), (3, -3), (4, -6), (6, -7), (7, -8),
         (-1, -2), (-4, -5), (-9, -10)],
    )
    b = make_diagram(
        10,
        [(2, 4), (6, 7), (8, 10), (1, 5), (3, -2), (9, -9),
         (-1, -3), (-4, -5), (-7, -8), (-6, -10)],
    )
    product = make_diagram(
        10,
        [(1, 2), (9, 10), (4, 6), (5, 8), (3, -2), (7, -9),
         (-1, -3), (-4, -5), (-7, -8), (-6, -10)],
    )
    return a, b, product


def product_oracle(a: BrauerDiagram, b: BrauerDiagram):
    """Reference product: build the stacked graph explicitly and take the
    transitive closure of its edge relation by traversal.  Components are
    classified by vertex set: those without a boundary vertex float."""
    n = a.degree
    adj = {v: set() for v in range(3 * n)}
    for p in range(2 * n):
        q = a.pairing[p]
        adj[p].add(q)
        adj[q].add(p)
        q = b.pairing[p]
        adj[p + n].add(q + n)
        adj[q + n].add(p + n)
    seen = set()
    blocks, floating = [], 0
    for v in range(3 * n):
        if v in seen:
            continue
        comp, stack = set(), [v]
        while stack:
            w = stack.pop()
            if w in comp:
                continue
            comp.add(w)
            stack.extend(adj[w])
        seen |= comp
        boundary = sorted(u for u in comp if u < n or u >= 2 * n)
        if not boundary:
            floating += 1
        else:
            u, w = boundary
            blocks.append(
                (u + 1 if u < n else -(u - 2 * n + 1),
                 w + 1 if w < n else -(w - 2 * n + 1))
            )
    return make_diagram(n, blocks), floating


def closure_oracle(generators, product, keep=lambda p: True):
    """Reference closure: the all-pairs worklist, which multiplies every
    new element by every known one, on both sides, round after round.
    Returns the elements and whether ``keep`` never dropped a product."""
    elements = set(generators)
    frontier = list(elements)
    complete = True
    while frontier:
        fresh = []
        for x in frontier:
            for y in list(elements):
                for p in (product(x, y), product(y, x)):
                    if not keep(p):
                        complete = False
                    elif p not in elements:
                        elements.add(p)
                        fresh.append(p)
        frontier = fresh
    return frozenset(elements), complete
