"""Shared golden data: the worked example of degree 6 and the degree-10
multiplication example, plus independent oracles for diagram construction,
the product (and the product walk as it was before it checked for a
repeated middle point), the closures, reachability, the hook patterns, the D-class
stream, the Graham-Houghton graph, the perfect matching, the Strong Hall
Condition, the three constructive lemmas, the absorption of a
transposition, the kernel's idempotent, the walk that splits a
permutation into transpositions, the idempotent chain and Green's right
and two-sided factorizations."""

import contextlib
import itertools
import signal
from array import array

import pytest

from twisted_brauer import (
    BrauerDiagram,
    make_diagram,
    multiply,
    permutation_diagram,
    transposition,
)
from twisted_brauer import enumeration
from twisted_brauer.diagram import DiagramError, is_int
from twisted_brauer.green import PreconditionError, _check_degrees
from twisted_brauer.diagram import _raw_diagram
from twisted_brauer.structure import GHGraph
from twisted_brauer.twisted import as_twisted, is_idempotent_twisted, star


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


@contextlib.contextmanager
def within(seconds: float):
    """Interrupt the block with TimeoutError once ``seconds`` have passed,
    so a walk that never ends fails its test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def union_find_product(a: BrauerDiagram, b: BrauerDiagram):
    """Reference product: union-find over the 3n points of the stacked
    graph (top row, glued middle row, bottom row).  Components holding a
    top or bottom point yield blocks; middle-only components float."""
    n = a.degree
    pa, pb = a.pairing, b.pairing
    n2, n3 = 2 * n, 3 * n
    parent = list(range(n3))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in range(n2):
        for offset, q in ((0, pa[p]), (n, pb[p])):
            if q > p:
                parent[find(q + offset)] = find(p + offset)
    roots = [find(x) for x in range(n3)]
    out = [-1] * n2
    open_end = {}
    for prod in range(n2):
        root = roots[prod] if prod < n else roots[prod + n]
        mate = open_end.pop(root, None)
        if mate is None:
            open_end[root] = prod
        else:
            out[mate], out[prod] = prod, mate
    floating = set(roots[n:n2]) - set(roots[:n]) - set(roots[n2:])
    return BrauerDiagram(n, tuple(out)), len(floating)


def unchecked_walk_product(alpha: BrauerDiagram, beta: BrauerDiagram):
    """Reference product: the path walk of ``multiply`` as it was before
    each step checked the middle point it enters.  On two valid diagrams
    it must agree with ``multiply`` exactly; on a pairing that is no
    involution it may never return."""
    n = alpha.degree
    pa, pb = alpha.pairing, beta.pairing
    out = [-1] * (2 * n)
    seen = [False] * n
    for start in range(n):
        if out[start] >= 0:
            continue
        end = pa[start]
        while end >= n:
            end -= n
            seen[end] = True
            end = pb[end]
            if end >= n:
                break
            seen[end] = True
            end = pa[end + n]
        out[start], out[end] = end, start
    for start in range(n, 2 * n):
        if out[start] >= 0:
            continue
        end = pb[start]
        while end < n:
            seen[end] = True
            end = pa[end + n] - n
            seen[end] = True
            end = pb[end]
        out[start], out[end] = end, start
    floating = 0
    for m in range(n):
        if not seen[m]:
            floating += 1
            while not seen[m]:
                seen[m] = True
                m = pb[m]
                seen[m] = True
                m = pa[m + n] - n
    return _raw_diagram(n, tuple(out)), floating


def copy_per_candidate_d_class(n: int, r: int):
    """Reference D-class stream: the hook slots of each (upper, lower)
    pattern pair are written once into a template, and every bijection
    fills a fresh copy of it through the validating ``BrauerDiagram``."""
    lower = list(enumeration.hook_patterns(n, r))
    for upper_hooks, dom in enumeration.hook_patterns(n, r):
        tops = [i - 1 for i in dom]
        for lower_hooks, codom in lower:
            hooked = [0] * (2 * n)
            for a, b in upper_hooks:
                hooked[a - 1], hooked[b - 1] = b - 1, a - 1
            for c, d in lower_hooks:
                hooked[n + c - 1], hooked[n + d - 1] = n + d - 1, n + c - 1
            for image in itertools.permutations([n + v - 1 for v in codom]):
                pairing = hooked[:]
                for x, y in zip(tops, image):
                    pairing[x], pairing[y] = y, x
                yield BrauerDiagram(n, tuple(pairing))


def csr_graph(n: int, r: int, signatures, edges) -> GHGraph:
    """A GHGraph on ``signatures`` whose CSR arrays hold ``edges``, any
    collection of (kernel index, cokernel index) pairs."""
    rows = [[] for _ in signatures]
    for l, c in edges:
        rows[l].append(c)
    starts, flat = array("i", [0]), array("i")
    for row in rows:
        flat.extend(sorted(row))
        starts.append(len(flat))
    return GHGraph(n, r, tuple(signatures), starts, flat)


def kernel_keyed_idempotents(n: int, r: int):
    """Reference Graham-Houghton graph: every twisted idempotent of the
    D-class, bucketed by the ``ker`` and ``coker`` computed from the
    diagram itself rather than read off its place in the stream.  Returns
    the sorted signatures and a dict from each edge to its idempotent."""
    signatures = tuple(sorted(tuple(hooks) for hooks, _ in enumeration.hook_patterns(n, r)))
    index = {frozenset(hooks): i for i, hooks in enumerate(signatures)}
    edges = {}
    for d in enumeration.d_class(n, r):
        if is_idempotent_twisted(d):
            edge = index[d.ker], index[d.coker]
            assert edge not in edges, "an H-class contained two idempotents"
            edges[edge] = d
    return signatures, edges


def recursive_matching(graph):
    """Reference matcher: recursive augmenting paths, scanning left
    vertices and neighbour lists in increasing order."""
    match_right = {}

    def augment(l, banned):
        for r in sorted(graph.edges[graph.starts[l]:graph.starts[l + 1]]):
            if r in banned:
                continue
            banned.add(r)
            if r not in match_right or augment(match_right[r], banned):
                match_right[r] = l
                return True
        return False

    for l in range(len(graph.signatures)):
        if not augment(l, set()):
            return None
    return {l: r for r, l in match_right.items()}


def subset_strong_hall(graph) -> bool:
    """Reference Strong Hall Condition, read straight off its definition:
    |N(S)| > |S| for every proper nonempty set S of left vertices."""
    size = len(graph.signatures)
    rows = [set(graph.edges[graph.starts[l]:graph.starts[l + 1]]) for l in range(size)]
    return all(len(set().union(*(rows[l] for l in subset))) > k
               for k in range(1, size) for subset in itertools.combinations(range(size), k))


def filtered_hook_patterns(n: int, r: int):
    """Reference hook patterns: every partial matching of [n], the first
    point left unmatched before it is paired with each later point, kept
    when it has (n - r) / 2 hooks."""

    def partial_matchings(points):
        if not points:
            yield [], []
            return
        first, rest = points[0], points[1:]
        for pairs, unmatched in partial_matchings(rest):
            yield pairs, [first] + unmatched
        for idx, partner in enumerate(rest):
            for pairs, unmatched in partial_matchings(rest[:idx] + rest[idx + 1:]):
                yield [(first, partner)] + pairs, unmatched

    for pairs, unmatched in partial_matchings(list(range(1, n + 1))):
        if len(pairs) == (n - r) // 2:
            yield pairs, unmatched


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


def searched_reach(source, step) -> set:
    """Reference reachability: everything one depth-first search from
    ``source`` alone reaches, where ``step(x)`` lists what x leads to."""
    seen, stack = {source}, [source]
    while stack:
        for y in step(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def token_by_token_make_diagram(degree, blocks) -> BrauerDiagram:
    """Reference constructor: converts each token through one checked
    helper and hands the pairing to the validating ``BrauerDiagram``."""

    def token_to_index(t):
        if not is_int(t) or t == 0 or abs(t) > degree:
            raise DiagramError(f"vertex token {t!r} out of range for degree {degree}")
        return t - 1 if t > 0 else degree - t - 1

    def index_to_text(x):
        return str(x + 1) if x < degree else f"{x - degree + 1}'"

    if not is_int(degree) or degree < 0:
        raise DiagramError(f"degree must be a non-negative integer, got {degree!r}")
    pairing = [-1] * (2 * degree)
    for block in blocks:
        block = tuple(block)
        if len(block) != 2 or block[0] == block[1]:
            raise DiagramError(f"block {block!r} does not have size 2")
        x, y = (token_to_index(t) for t in block)
        if pairing[x] != -1 or pairing[y] != -1:
            raise DiagramError(f"vertex repeated in block {block!r}")
        pairing[x], pairing[y] = y, x
    for x, y in enumerate(pairing):
        if y == -1:
            raise DiagramError(f"vertex {index_to_text(x)} is not covered")
    return BrauerDiagram(degree, tuple(pairing))


def block_list_rank_drop(alpha: BrauerDiagram) -> tuple[BrauerDiagram, BrauerDiagram]:
    """Reference rank drop: (beta, gamma) of ``lemma_rank_drop`` written as
    lists of signed blocks over alpha's transversal pairs and canonical
    hooks, and built through the validating ``make_diagram``."""
    n, r = alpha.degree, alpha.rank
    if r > n - 4:
        raise PreconditionError(
            f"the rank-drop lemma is stated for r <= n - 4, got r = {r} in degree {n}")
    tv = alpha.transversal_pairs()
    A = alpha.top_hooks()
    C = alpha.bottom_hooks()
    s = len(C)

    beta_blocks = [(i, -j) for i, j in tv]
    beta_blocks += [(A[0][0], -C[0][0]), (A[0][1], -C[0][1])]
    beta_blocks += [(a, b) for a, b in A[1:]]
    beta_blocks += [(-c, -d) for c, d in C[1:]]
    beta = make_diagram(n, beta_blocks)

    gamma_blocks = [(j, -j) for _, j in tv]
    gamma_blocks += [(C[1][0], -C[1][0]), (C[s - 1][1], -C[1][1])]
    gamma_blocks.append((C[0][0], C[0][1]))
    gamma_blocks += [(C[m][1], C[m + 1][0]) for m in range(1, s - 1)]
    gamma_blocks.append((-C[0][0], -C[0][1]))
    gamma_blocks += [(-C[m][0], -C[m][1]) for m in range(2, s)]
    gamma = make_diagram(n, gamma_blocks)
    return beta, gamma


def block_list_twist_raise(alpha: BrauerDiagram) -> BrauerDiagram:
    """Reference twist raise: ``lemma_twist_raise`` written as a list of
    signed blocks and built through the validating ``make_diagram``."""
    n, r = alpha.degree, alpha.rank
    if r == n:
        raise PreconditionError(
            f"the twist-raising lemma is stated for r <= n - 2, got r = {r} in degree {n}")
    tv = alpha.transversal_pairs()
    C = alpha.bottom_hooks()
    s = len(C)
    blocks = [(j, -j) for _, j in tv]
    blocks.append((C[0][0], C[s - 1][1]))
    blocks += [(C[m][1], C[m + 1][0]) for m in range(s - 1)]
    blocks += [(-c, -d) for c, d in C]
    return make_diagram(n, blocks)


def block_list_twist_keep(alpha: BrauerDiagram) -> BrauerDiagram:
    """Reference twist keep: both branches of ``lemma_twist_keep`` written
    as lists of signed blocks and built through the validating
    ``make_diagram``."""
    n, r = alpha.degree, alpha.rank
    if r == n:
        raise PreconditionError(
            f"the twist-keeping lemma is stated for r <= n - 2, got r = {r} in degree {n}")
    tv = alpha.transversal_pairs()
    C = alpha.bottom_hooks()
    s = len(C)
    if r > 0:
        j_r = tv[-1][1]
        blocks = [(j, -j) for _, j in tv[:-1]]
        blocks.append((C[s - 1][1], -j_r))
        blocks.append((tv[-1][1], C[0][0]))
        blocks += [(C[m][1], C[m + 1][0]) for m in range(s - 1)]
        blocks += [(-c, -d) for c, d in C]
    else:
        blocks = [(C[0][0], -C[0][0]), (C[s - 1][1], -C[0][1])]
        blocks += [(C[m][1], C[m + 1][0]) for m in range(s - 1)]
        blocks += [(-c, -d) for c, d in C[1:]]
    return make_diagram(n, blocks)


def block_list_sigma(alpha: BrauerDiagram, i: int, j: int) -> list[BrauerDiagram]:
    """Reference absorption of sigma_ij: each idempotent is written as a
    list of signed blocks over relabelled transversal bottoms and lower
    hooks, and built through the validating ``make_diagram``.  It sorts
    the lower hooks itself rather than trust their order."""
    n, r = alpha.degree, alpha.rank
    if not 0 < r < n:
        raise PreconditionError(f"need 0 < rank < degree, got rank {r} in degree {n}")
    if not 1 <= i < j <= n:
        raise PreconditionError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    hook_of = {v: (c, d) for c, d in sorted(alpha.bottom_hooks()) for v in (c, d)}

    def relabel(last_bottoms, first_hooks):
        # transversal bottoms with last_bottoms moved last, lower hooks
        # with the oriented pairs first_hooks moved first
        jm = [b for _, b in alpha.transversal_pairs() if b not in last_bottoms]
        jm += list(last_bottoms)
        first_keys = {frozenset(h) for h in first_hooks}
        cd = list(first_hooks)
        cd += [h for h in sorted(alpha.bottom_hooks()) if frozenset(h) not in first_keys]
        return jm, cd

    def shifted(cd):
        return [(cd[m][1], cd[m + 1][0]) for m in range(len(cd) - 1)]

    codom = set(alpha.codom)
    if i in codom and j in codom:
        jm, cd = relabel([i, j], [])
        s = len(cd)
        b1 = [(v, -v) for v in jm[:-2]]
        b1 += [(jm[-2], -jm[-1]), (cd[-1][1], -cd[-1][1])]
        b1.append((jm[-1], cd[0][0]))
        b1 += shifted(cd)
        b1 += [(-c, -d) for c, d in cd[: s - 1]]
        b1.append((-jm[-2], -cd[-1][0]))
        b2 = [(v, -v) for v in jm[:-2]]
        b2 += [(jm[-1], -jm[-1]), (cd[0][0], -jm[-2])]
        b2.append((jm[-2], cd[-1][1]))
        b2 += shifted(cd)
        b2 += [(-c, -d) for c, d in cd]
        return [make_diagram(n, b1), make_diagram(n, b2)]
    if i in codom or j in codom:
        u, v = (i, j) if i in codom else (j, i)
        partner = next(w for w in hook_of[v] if w != v)
        jm, cd = relabel([u], [(v, partner)])
        blocks = [(w, -w) for w in jm[:-1]]
        blocks.append((cd[-1][1], -cd[0][0]))
        blocks.append((jm[-1], cd[0][0]))
        blocks += shifted(cd)
        blocks.append((-jm[-1], -cd[0][1]))
        blocks += [(-c, -d) for c, d in cd[1:]]
        return [make_diagram(n, blocks)]
    if hook_of[i] == hook_of[j]:
        return []
    ci, di = hook_of[i]
    cj, dj = hook_of[j]
    jm, cd = relabel([], [(ci if di == i else di, i), (j, dj if cj == j else cj)])
    blocks = [(w, -w) for w in jm[:-1]]
    blocks.append((cd[-1][1], -jm[-1]))
    blocks.append((jm[-1], cd[0][0]))
    blocks += shifted(cd)
    blocks += [(-cd[0][0], -cd[1][0]), (-cd[0][1], -cd[1][1])]
    blocks += [(-c, -d) for c, d in cd[2:]]
    return [make_diagram(n, blocks)]


def hand_written_kernel_idempotent(alpha: BrauerDiagram) -> tuple[BrauerDiagram, list[int]]:
    """Reference ``_kernel_idempotent``: the twisted idempotent on alpha's
    own kernel and domain written straight into a pairing array, with the
    lines t - t' for t < t_r, the lower hooks t_r' - a_1', b_1' - a_2', ...
    and t_r - b_k', and the image list of the unit that carries it to
    alpha.  Requires 0 < rank < n."""
    n, p = alpha.degree, alpha.pairing
    # 0-based vertices from here on: top v is index v, bottom v' is n + v
    tops, path = [], []  # the path runs a_1, b_1, ..., a_k, b_k
    for v in range(n):
        if p[v] >= n:
            tops.append(v)
        elif v < p[v]:
            path += (v, p[v])
    lowers = [(c - n + 1, p[c] - n + 1) for c in range(n, 2 * n) if c < p[c]]
    t, last = tops.pop(), path.pop()
    out, images = list(p[:n]) + [0] * n, [0] * n
    for v in tops:
        out[v], out[n + v] = n + v, v
        images[v] = p[v] - n + 1
    out[t], out[n + last] = n + last, t
    images[last] = p[t] - n + 1
    for x, y, (c, d) in zip([t] + path[1::2], path[::2], lowers):
        out[n + x], out[n + y] = n + y, n + x
        images[x], images[y] = c, d
    return _raw_diagram(n, tuple(out)), images


def dict_walk_transposition_factors(images: list[int]) -> list[tuple[int, int]]:
    """Reference split of the permutation i -> images[i - 1] of 1, ..., n
    into transpositions (i, j), i < j, whose left-to-right product it is:
    a dict and a set walk each cycle from its least point."""
    n = len(images)
    image_of = {i + 1: v for i, v in enumerate(images)}
    seen: set[int] = set()
    factors: list[tuple[int, int]] = []
    for start in range(1, n + 1):
        if start in seen or image_of[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        nxt = image_of[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = image_of[nxt]
        for idx in range(len(cycle) - 1, 0, -1):
            a, b = cycle[idx - 1], cycle[idx]
            factors.append((min(a, b), max(a, b)))
    return factors


def product_absorption_chain(alpha: BrauerDiagram) -> list[BrauerDiagram]:
    """Reference idempotent chain: the constructive pipeline of
    ``factor_into_idempotents`` from the same start idempotent and unit,
    written by ``hand_written_kernel_idempotent`` and split into
    transpositions by ``dict_walk_transposition_factors``, with each
    transposition absorbed by ``block_list_sigma`` and the partial product
    moved on by multiplying by the transposition diagram."""
    n, r = alpha.degree, alpha.rank
    if is_idempotent_twisted(alpha):
        return [alpha]
    if r == 0:
        beta, gamma = block_list_rank_drop(alpha)
        return product_absorption_chain(beta) + product_absorption_chain(gamma)
    current, images = hand_written_kernel_idempotent(alpha)
    chain = [current]
    for i, j in dict_walk_transposition_factors(images):
        chain.extend(block_list_sigma(current, i, j))
        current = multiply(current, transposition(n, i, j))[0]
    return chain


def cayley_word(graph: enumeration.CayleyGraph, x) -> list[int]:
    """Generator indices of the shortest word whose product is ``x``: the
    least in short-lex order, read back along the prefixes ``graph`` keeps."""
    out = []
    i = graph.index[x]
    while i >= 0:
        i, j = graph._words[i][:2]
        out.append(j)
    return out[::-1]


def factor_into_idempotents_bfs(alpha: BrauerDiagram) -> list[BrauerDiagram] | None:
    """Reference idempotent chain by search: a shortest chain read off the
    zero-twist closure of the twisted idempotents, independent of the
    constructive pipeline.  Returns None if alpha is not in that closure.
    Enumerates the whole closure; meant for degree <= 4."""
    idems = [as_twisted(e) for e in enumeration.idempotents(alpha.degree)]
    graph = enumeration.CayleyGraph(idems, star, keep=lambda p: p.twist == 0)
    target = as_twisted(alpha)
    if target not in graph.index:
        return None
    return [idems[j].diagram for j in cayley_word(graph, target)]


def image(beta: BrauerDiagram, i: int) -> int:
    """The removed ``BrauerDiagram.image``: the bottom vertex paired with
    top vertex ``i``, an error if i is hooked."""
    n = beta.degree
    q = beta.pairing[i - 1]
    if q < n:
        raise DiagramError(f"top vertex {i} is not in the domain")
    return q - n + 1


def block_list_factor_right(alpha: BrauerDiagram, beta: BrauerDiagram) -> BrauerDiagram:
    """Reference ``factor_right``: d written as a list of signed blocks over
    1-based accessors and beta's images, and built through the validating
    ``make_diagram``."""
    _check_degrees(alpha, beta)
    beta_hooks = beta.ker
    if not beta_hooks <= alpha.ker:
        raise PreconditionError("ker(alpha) does not contain ker(beta)")
    n = alpha.degree
    split_hooks = [h for h in alpha.top_hooks() if h not in beta_hooks]  # (a_m, b_m)
    alpha_lower = alpha.bottom_hooks()
    s = len(split_hooks)
    own_lower = alpha_lower[:s]  # become d's lower hooks (c_m, d_m)
    routed_lower = alpha_lower[s:]  # reached through beta's lower hooks
    beta_lower = beta.bottom_hooks()  # (e_{s+m}, f_{s+m})

    blocks: list[tuple[int, int]] = []
    for top, bottom in alpha.transversal_pairs():
        blocks.append((image(beta, top), -bottom))
    for (e, f), (c, d) in zip(beta_lower, routed_lower):
        blocks.append((e, -c))
        blocks.append((f, -d))
    for a, b in split_hooks:
        blocks.append((image(beta, a), image(beta, b)))
    for c, d in own_lower:
        blocks.append((-c, -d))
    return make_diagram(n, blocks)


def block_list_factor_two_sided(
    alpha: BrauerDiagram, beta: BrauerDiagram
) -> tuple[BrauerDiagram, BrauerDiagram]:
    """Reference ``factor_two_sided``: e as a list of signed blocks through
    the validating ``make_diagram``, d from ``block_list_factor_right`` and
    the unit g through ``permutation_diagram``."""
    _check_degrees(alpha, beta)
    r = alpha.rank
    if r > beta.rank:
        raise PreconditionError("rank(alpha) exceeds rank(beta)")
    n = alpha.degree

    beta_tv = beta.transversal_pairs()
    kept, spare = beta_tv[:r], beta_tv[r:]
    paired_tops = [
        (spare[m][0], spare[m + 1][0]) for m in range(0, len(spare), 2)
    ]  # (g_m, h_m)
    eps_upper = paired_tops + list(beta.top_hooks())
    alpha_tv = alpha.transversal_pairs()
    eps_blocks: list[tuple[int, int]] = []
    for (l, _), (_, j) in zip(kept, alpha_tv):
        eps_blocks.append((l, -j))
    eps_blocks += [(g, h) for g, h in eps_upper]
    eps_blocks += [(-c, -d) for c, d in alpha.bottom_hooks()]
    eps = make_diagram(n, eps_blocks)

    delta = block_list_factor_right(eps, beta)

    images = [0] * n  # the unit g as a function on [n]
    for (i, _), (l, _) in zip(alpha_tv, kept):
        images[i - 1] = l
    for (a, b), (g, h) in zip(alpha.top_hooks(), eps_upper):
        images[a - 1], images[b - 1] = g, h
    gamma = permutation_diagram(n, images)
    return gamma, delta
