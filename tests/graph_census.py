"""Every graph on a few vertices, one per isomorphism class.

Graphs are built one vertex at a time: each graph on n vertices, joined by
its new vertex to every subset of the old ones, gives every graph on n + 1
vertices (delete the last vertex of any of them).  One graph is kept per
canonical form: the smallest adjacency code over the vertex orders that
respect a degree-refined colouring, which is a labelling invariant, so two
graphs share a form iff they are isomorphic.  Small n only: a regular graph
leaves one colour class, whose permutations are all tried.
"""

from __future__ import annotations

from itertools import permutations, product

from semitrans import Graph


def _refined_colours(adj: tuple[int, ...]) -> list[int]:
    """Colour by degree, then by the colours of the neighbours, to a fixpoint."""
    col = [a.bit_count() for a in adj]
    while True:
        sig = [(c, tuple(sorted(col[w] for w in range(len(adj)) if a >> w & 1)))
               for c, a in zip(col, adj)]
        keys = sorted(set(sig))
        new = [keys.index(s) for s in sig]
        if len(keys) == len(set(col)):
            return new
        col = new


def canonical_form(adj: tuple[int, ...]) -> tuple[int, int]:
    n = len(adj)
    col = _refined_colours(adj)
    cells = [[v for v in range(n) if col[v] == c] for c in sorted(set(col))]
    best = None
    for perms in product(*(permutations(cell) for cell in cells)):
        order = [v for p in perms for v in p]
        code = 0
        for i in range(n):
            row = adj[order[i]]
            for j in range(i + 1, n):
                code = code << 1 | (row >> order[j] & 1)
        if best is None or code < best:
            best = code
    return n, best


def graphs_up_to(n_max: int) -> dict[int, list[tuple[int, ...]]]:
    """Adjacency masks of one graph per isomorphism class, keyed by order."""
    layers = {1: [(0,)]}
    for n in range(1, n_max):
        forms: dict[tuple[int, int], tuple[int, ...]] = {}
        for adj in layers[n]:
            for s in range(1 << n):
                new = tuple(a | (s >> v & 1) << n for v, a in enumerate(adj)) + (s,)
                forms.setdefault(canonical_form(new), new)
        layers[n + 1] = list(forms.values())
    return layers


def to_graph(adj: tuple[int, ...]) -> Graph:
    n = len(adj)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1])
