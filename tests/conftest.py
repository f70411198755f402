"""Shared test catalog and definition-level oracles.

The oracles here deliberately reimplement library functionality from the
definitions (explicit cycle enumeration, plain recursive coloring, naive
isomorphism backtracking) so the library can be checked against something
that shares none of its code paths.
"""

from __future__ import annotations

import math
import random

from semitrans import (
    Graph,
    Orientation,
    circulant,
    complete,
    complete_bipartite,
    chvatal,
    cycle,
    delete_edge,
    grotzsch,
    kneser,
    kneser83_sub16,
    mycielski,
    toft,
)

# Graphs small enough for exhaustive sweeps over all acyclic orientations.
SMALL_CATALOG: dict[str, Graph] = {
    "k1": Graph(1, []),
    "empty3": Graph(3, []),
    "path2": Graph(2, [(0, 1)]),
    "path4": Graph(4, [(0, 1), (1, 2), (2, 3)]),
    "star5": Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "triangle": cycle(3),
    "c4": cycle(4),
    "c5": cycle(5),
    "c6": cycle(6),
    "c7": cycle(7),
    "k4": complete(4),
    "k5": complete(5),
    "k23": complete_bipartite(2, 3),
    "k33": complete_bipartite(3, 3),
    "k33_minus": delete_edge(complete_bipartite(3, 3), 0, 3),
    "paw": Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "bull": Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
    "house": Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)]),
    "butterfly": Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
    "prism": Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                       (0, 3), (1, 4), (2, 5)]),
    "wheel6": Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                        (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]),
    "circ6_12": circulant(6, [1, 2]),
    "circ7_12": circulant(7, [1, 2]),
    "mycielski_k2": mycielski(complete(2)),
    "two_comps": Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]),
}

BIG_CATALOG: dict[str, Graph] = {
    "grotzsch": grotzsch(),
    "chvatal": chvatal(),
    "kneser83_sub16": kneser83_sub16(),
    "circ13_15": circulant(13, [1, 5]),
    "circ14_1345": circulant(14, [1, 3, 4, 5]),
    "toft5": toft(5),
    "petersen": kneser(5, 2),
    "mycielski_c4": mycielski(cycle(4)),
}

CATALOG: dict[str, Graph] = {**SMALL_CATALOG, **BIG_CATALOG}


def brute_girth(g: Graph) -> float:
    """Explicit simple-cycle enumeration; cycles canonicalized by min root."""
    best = math.inf
    for root in range(g.n):
        stack = [(root, (root,))]
        while stack:
            v, path = stack.pop()
            for w in g.neighbors(v):
                if w == root and len(path) >= 3:
                    best = min(best, len(path))
                elif w > root and w not in path and len(path) + 1 < best:
                    stack.append((w, path + (w,)))
    return best


def _colorable(g: Graph, k: int, colors: list[int], v: int) -> bool:
    if v == g.n:
        return True
    for c in range(k):
        if all(colors[w] != c for w in g.neighbors(v) if w < v):
            colors[v] = c
            if _colorable(g, k, colors, v + 1):
                return True
    colors[v] = -1
    return False


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if _colorable(g, k, [-1] * g.n, 0):
            return k
    raise AssertionError("unreachable")


def rand_acyclic(g: Graph, rng: random.Random) -> Orientation:
    """Orientation along a uniformly random vertex order (always acyclic)."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    pos = {v: i for i, v in enumerate(perm)}
    arcs = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges]
    return Orientation(g, arcs)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Naive backtracking with degree pruning."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(
        h.degree(v) for v in range(h.n)
    ):
        return False
    # map dense-first for early conflicts
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    image: list[int] = [-1] * g.n
    used = [False] * h.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or g.degree(v) != h.degree(w):
                continue
            ok = True
            for u in order[:i]:
                if g.adjacent(v, u) != h.adjacent(image[u], w):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return extend(0)


def is_induced_subgraph(small: Graph, big: Graph) -> bool:
    """Injective map preserving both adjacency and non-adjacency."""
    # expand along edges so every new vertex is constrained by a mapped one
    order: list[int] = []
    seen = [False] * small.n
    for s in range(small.n):
        if seen[s]:
            continue
        seen[s] = True
        order.append(s)
        i = len(order) - 1
        while i < len(order):
            for w in small.neighbors(order[i]):
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            i += 1
    image = [-1] * small.n
    used = [False] * big.n

    def candidates(i: int) -> range | list[int]:
        v = order[i]
        for u in order[:i]:
            if small.adjacent(v, u):
                return big.neighbors(image[u])
        return range(big.n)

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in candidates(i):
            if used[w] or small.degree(v) > big.degree(w):
                continue
            if all(
                small.adjacent(v, u) == big.adjacent(image[u], w)
                for u in order[:i]
            ):
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return extend(0)


def random_connected_3colorable(rng: random.Random) -> Graph:
    """Random connected graph with a planted proper 3-coloring, <= 10 vertices."""
    n = rng.randint(4, 10)
    classes = [rng.randrange(3) for _ in range(n)]
    while len(set(classes)) < 2:  # need at least one crossing edge
        classes = [rng.randrange(3) for _ in range(n)]
    allowed = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if classes[u] != classes[v]
    ]
    rng.shuffle(allowed)
    # spanning-tree edges first (over allowed pairs) to force connectivity
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for u, v in allowed:
        if find(u) != find(v):
            parent[find(u)] = find(v)
            edges.append((u, v))
    if len(edges) < n - 1:  # a color class swallowed everything; retry
        return random_connected_3colorable(rng)
    extra = [e for e in allowed if e not in set(edges)]
    edges.extend(extra[: rng.randint(0, len(extra) // 2)])
    return Graph(n, edges)
