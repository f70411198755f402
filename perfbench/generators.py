"""Seeded instance generators whose verdicts are known without the solver.

Each generator takes a ``random.Random`` and returns the instance together
with the evidence for its verdict, so the tests can check the promise:

* ``induced_extension`` keeps a base graph as an induced subgraph.  Semi-
  transitive orientability is inherited by induced subgraphs, so extending a
  graph with no semi-transitive orientation gives another one.
* ``random_three_colourable`` plants a proper 3-colouring.  Orienting every
  edge from the lower colour to the higher one leaves no directed path with
  three arcs, hence no shortcut: the graph is semi-transitively orientable.
* ``planted_shortcut`` and ``planted_cycle`` orient a random graph along a
  random vertex order and then plant a shortcut (path a->b->c->d, arc a->d,
  a and c non-adjacent) or a directed cycle.
"""

from __future__ import annotations

import random

from semitrans.graphs import Graph

Arc = tuple[int, int]


def induced_extension(
    rng: random.Random, base: Graph, extra: int, degree: int
) -> tuple[Graph, list[int]]:
    """``base`` plus ``extra`` vertices, each joined to ``degree`` random
    earlier vertices, then randomly relabelled.

    Returns the graph and ``image``, where base vertex v is ``image[v]``.  No
    edge is added between two base vertices, so the embedding is induced.
    """
    n = base.n + extra
    edges = list(base.edges)
    for v in range(base.n, n):
        edges.extend((u, v) for u in rng.sample(range(v), min(degree, v)))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges]), perm[: base.n]


def _connected_edges(
    rng: random.Random, n: int, m: int, allowed: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """A random spanning tree over ``allowed`` pairs, topped up to ``m`` edges."""
    rng.shuffle(allowed)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree, rest = [], []
    for u, v in allowed:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
        else:
            rest.append((u, v))
    if len(tree) != n - 1 or m > len(allowed):
        raise ValueError(f"cannot build a connected graph with n={n}, m={m}")
    return tree + rest[: m - len(tree)]


def random_three_colourable(
    rng: random.Random, n: int, m: int
) -> tuple[Graph, list[int]]:
    """A connected graph with exactly ``m`` edges and a planted proper
    3-colouring (classes as equal as possible).  Returns (graph, colours)."""
    colours = [v % 3 for v in range(n)]
    rng.shuffle(colours)
    allowed = [
        (u, v) for u in range(n) for v in range(u + 1, n) if colours[u] != colours[v]
    ]
    return Graph(n, _connected_edges(rng, n, m, allowed)), colours


def colouring_arcs(g: Graph, colours: list[int]) -> list[Arc]:
    """Every edge directed from the lower colour to the higher one."""
    return [(u, v) if colours[u] < colours[v] else (v, u) for u, v in g.edges]


def _random_order_instance(
    rng: random.Random, n: int, m: int, planted: list[tuple[int, int]]
) -> tuple[list[int], set[tuple[int, int]]]:
    """A random vertex order and a connected edge set that contains ``planted``
    (pairs of positions in that order)."""
    order = list(range(n))
    rng.shuffle(order)
    want = {tuple(sorted((order[i], order[j]))) for i, j in planted}
    allowed = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(_connected_edges(rng, n, m, allowed)) | want
    return order, edges


def planted_shortcut(
    rng: random.Random, n: int, m: int
) -> tuple[Graph, list[Arc], tuple[int, int, int, int]]:
    """An acyclic orientation with a planted shortcut a->b->c->d plus a->d,
    where a and c are non-adjacent.  Returns (graph, arcs, (a, b, c, d))."""
    i, j, k, l = sorted(rng.sample(range(n), 4))
    order, edges = _random_order_instance(rng, n, m, [(i, j), (j, k), (k, l), (i, l)])
    a, b, c, d = order[i], order[j], order[k], order[l]
    edges.discard(tuple(sorted((a, c))))
    g = Graph(n, edges)
    pos = {v: p for p, v in enumerate(order)}
    arcs = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges]
    return g, arcs, (a, b, c, d)


def planted_cycle(
    rng: random.Random, n: int, m: int, length: int
) -> tuple[Graph, list[Arc], tuple[int, ...]]:
    """An orientation along a random order, except that a planted cycle of
    ``length`` vertices is directed all the way round.  Returns
    (graph, arcs, cycle)."""
    picks = sorted(rng.sample(range(n), length))
    ring = [(picks[t], picks[t + 1]) for t in range(length - 1)] + [(picks[0], picks[-1])]
    order, edges = _random_order_instance(rng, n, m, ring)
    cyc = tuple(order[p] for p in picks)
    succ = {cyc[t]: cyc[(t + 1) % length] for t in range(length)}
    g = Graph(n, edges)
    pos = {v: p for p, v in enumerate(order)}
    arcs = []
    for u, v in g.edges:
        if succ.get(u) == v or succ.get(v) == u:
            arcs.append((u, v) if succ.get(u) == v else (v, u))
        else:
            arcs.append((u, v) if pos[u] < pos[v] else (v, u))
    return g, arcs, cyc
