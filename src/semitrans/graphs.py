"""Undirected simple graphs and the structural queries the toolkit relies on.

Vertices are the integers ``0..n-1``.  Edges are stored as ``(min, max)``
pairs and adjacency is kept as one bitmask int per vertex, which keeps the
hot loops (common-neighbor tests, reachability, coloring) allocation-free.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import BadParameters, BoundExceeded, FormatError, MissingEdge

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``."""

    __slots__ = ("n", "edges", "_adj", "_nbrs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise BadParameters(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise BadParameters(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise BadParameters(f"self-loop at vertex {u}")
            seen.add(normalize_edge(u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))
        self._adj = tuple(adj)
        self._nbrs: tuple[tuple[int, ...], ...] | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def adjacency_mask(self, u: int) -> int:
        return self._adj[u]

    def neighbors(self, u: int) -> tuple[int, ...]:
        if self._nbrs is None:
            self._nbrs = tuple(tuple(_bits(m)) for m in self._adj)
        return self._nbrs[u]

    def degree(self, u: int) -> int:
        return self._adj[u].bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of ``g`` without the edge ``{u, v}``."""
    e = normalize_edge(u, v)
    if e not in set(g.edges):
        raise MissingEdge(f"graph has no edge {{{u}, {v}}}")
    return Graph(g.n, (f for f in g.edges if f != e))


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    queue = deque([0])
    while queue:
        u = queue.popleft()
        fresh = g.adjacency_mask(u) & ~seen
        seen |= fresh
        queue.extend(_bits(fresh))
    return seen == (1 << g.n) - 1


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or ``math.inf`` for a forest.

    One breadth-first search per root; the first non-tree edge seen from a
    root closes a cycle of length ``dist[u] + dist[w] + 1``, and the minimum
    of those estimates over all roots is exact.
    """
    best: int | float = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                continue
            for w in g.neighbors(u):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
        if best == 3:
            break
    return best


def is_clique(g: Graph, vs: Sequence[int]) -> bool:
    """True iff the listed vertices are pairwise adjacent; a repeated vertex
    is not adjacent to itself."""
    return all(
        g.adjacent(vs[i], vs[j])
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
    )


def is_triangle_free(g: Graph) -> bool:
    return all(not (g.adjacency_mask(u) & g.adjacency_mask(v)) for u, v in g.edges)


def degree_profile(g: Graph) -> tuple[int, int, bool]:
    """``(min degree, max degree, regular?)``; ``(0, 0, True)`` when empty."""
    if g.n == 0:
        return (0, 0, True)
    degs = [g.degree(v) for v in range(g.n)]
    lo, hi = min(degs), max(degs)
    return (lo, hi, lo == hi)


@dataclass(frozen=True)
class Coloring:
    """A vertex coloring with colors ``0..num_colors-1``."""

    colors: tuple[int, ...]
    num_colors: int = -1  # -1: infer from the palette actually used

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.num_colors < 0:
            inferred = max(self.colors) + 1 if self.colors else 0
            object.__setattr__(self, "num_colors", inferred)

    def color_of(self, v: int) -> int:
        return self.colors[v]


def is_proper(g: Graph, coloring: Coloring) -> bool:
    if len(coloring.colors) != g.n:
        return False
    if any(not (0 <= c < max(coloring.num_colors, 1)) for c in coloring.colors):
        return False
    return all(coloring.colors[u] != coloring.colors[v] for u, v in g.edges)


def proper_coloring(g: Graph, k: int) -> Coloring | None:
    """Deterministic backtracking search for a proper ``k``-coloring.

    Vertices are colored in saturation-degree order (most distinctly colored
    neighbors first, ties by degree then index) and a fresh color index is
    only opened once, which prunes color permutations.
    """
    if k < 0:
        raise BadParameters("number of colors must be non-negative")
    n = g.n
    if n == 0:
        return Coloring((), k)
    if k == 0:
        return None
    colors = [-1] * n
    neighbor_colors = [0] * n  # bitmask of colors used by colored neighbors

    def pick() -> int:
        best_v = -1
        best_key = (-1, -1, 0)
        for v in range(n):
            if colors[v] >= 0:
                continue
            key = (neighbor_colors[v].bit_count(), g.degree(v), -v)
            if key > best_key:
                best_key = key
                best_v = v
        return best_v

    def extend(colored: int, used: int) -> bool:
        if colored == n:
            return True
        v = pick()
        limit = min(used + 1, k)
        for c in range(limit):
            if neighbor_colors[v] >> c & 1:
                continue
            colors[v] = c
            touched = []
            for w in g.neighbors(v):
                if colors[w] < 0 and not (neighbor_colors[w] >> c & 1):
                    neighbor_colors[w] |= 1 << c
                    touched.append(w)
            if extend(colored + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            for w in touched:
                neighbor_colors[w] &= ~(1 << c)
        return False

    if extend(0, 0):
        return Coloring(tuple(colors), k)
    return None


def chromatic_number(g: Graph, *, max_vertices: int = 32) -> int:
    """Exact chromatic number for graphs up to ``max_vertices`` vertices."""
    if g.n > max_vertices:
        raise BoundExceeded(
            f"graph has {g.n} vertices, above the cap of {max_vertices}"
        )
    k = 0
    while proper_coloring(g, k) is None:
        k += 1
    return k


PairLine = tuple[int, str, int, int]  # (lineno, line, a, b)


def lex_pair_list(text: str, shape: str) -> tuple[int, Iterator[PairLine]]:
    """Split the header-plus-pairs text format shared by edge and arc lists.

    ``#`` starts a comment and blank lines are skipped; the first remaining
    line is the vertex count, every later one two integers.  Returns the count
    and a lazy iterator of ``(lineno, line, a, b)``, so a caller's range and
    duplicate checks report errors in line order.  ``shape`` names the two
    fields in the error for a line that does not have exactly two.
    """
    numbered = (
        (lineno, raw.split("#", 1)[0].strip())
        for lineno, raw in enumerate(text.splitlines(), start=1)
    )
    lines = ((lineno, line) for lineno, line in numbered if line)
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 1:
            raise FormatError(f"line {lineno}: expected a single vertex count")
        try:
            n = int(fields[0])
        except ValueError:
            raise FormatError(f"line {lineno}: bad vertex count {fields[0]!r}")
        return n, _lex_pairs(lines, shape)
    raise FormatError("missing vertex-count header line")


def _lex_pairs(lines: Iterator[tuple[int, str]], shape: str) -> Iterator[PairLine]:
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected {shape}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: bad vertex in {line!r}")
        yield lineno, line, a, b


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    ``#`` starts a comment, the first non-comment line is the vertex count,
    and every following line is one ``u v`` edge.  Duplicate edges are an
    error so that a round-trip through the format is loss-free.
    """
    n, pairs = lex_pair_list(text, "'u v'")
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, line, u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: vertex out of range in {line!r}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        e = normalize_edge(u, v)
        if e in seen:
            raise FormatError(f"line {lineno}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
