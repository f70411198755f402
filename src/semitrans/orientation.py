"""Orientations of graphs and the semi-transitivity verdict machinery.

A *shortcut* is a directed path v0 -> ... -> vk (k >= 3) together with the
arc v0 -> vk, such that some pair of path vertices is non-adjacent in the
underlying graph.  An orientation is *semi-transitive* when it is acyclic
and has no shortcut.

Two detectors are provided.  ``find_shortcut_oracle`` enumerates directed
paths and applies the definition literally; it is the reference.
``find_shortcut`` is the fast detector: a shortcut exists iff there is an
arc u -> v and a non-adjacent ordered pair (x, y), x != y, with
u => x => y => v all reachable.  Sufficiency: concatenating explicit DAG
paths u=>x=>y=>v gives a directed walk whose vertices strictly increase in
topological position, hence a simple path; non-adjacency of (x, y) forces
the x=>y segment to have length >= 2, so the path has length >= 3 in every
degenerate case (x = u or y = v).  Necessity: take x, y on the long path.
The equivalence is additionally validated exhaustively in the test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import (
    DoubleAssignment,
    FormatError,
    NotAcyclic,
    NotAnEdge,
    UncoveredEdge,
)
from .graphs import Edge, Graph, _bits, lex_pair_list, normalize_edge

Arc = tuple[int, int]


class Orientation:
    """A total assignment of directions to the edges of a graph."""

    __slots__ = ("graph", "arcs", "_out", "_in", "_closure")

    def __init__(self, graph: Graph, arcs: Iterable[Arc]):
        directed: dict[Edge, Arc] = {}
        out = [0] * graph.n
        inc = [0] * graph.n
        for t, h in arcs:
            if not (0 <= t < graph.n and 0 <= h < graph.n) or not graph.adjacent(t, h):
                raise NotAnEdge(f"arc {t}->{h} is not over an edge of the graph")
            e = normalize_edge(t, h)
            if e in directed:
                raise DoubleAssignment(f"edge {e} assigned more than once")
            directed[e] = (t, h)
            out[t] |= 1 << h
            inc[h] |= 1 << t
        if len(directed) != len(graph.edges):
            missing = next(e for e in graph.edges if e not in directed)
            raise UncoveredEdge(f"edge {missing} has no direction")
        self.graph = graph
        self.arcs: tuple[Arc, ...] = tuple(sorted(directed.values()))
        self._out = tuple(out)
        self._in = tuple(inc)
        self._closure: Reachability | None = None

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self._out[u] >> v & 1)

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(_bits(self._out[u]))

    def in_neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(_bits(self._in[u]))

    def reversed(self) -> "Orientation":
        return Orientation(self.graph, [(h, t) for t, h in self.arcs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.graph == other.graph and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.graph, self.arcs))

    def __repr__(self) -> str:
        return f"Orientation(n={self.graph.n}, arcs={len(self.arcs)})"


class PartialOrientation:
    """A mutable partial assignment of directions; the proof replay kernel
    works over these (the search keeps its own bit planes)."""

    __slots__ = ("graph", "dirs")

    def __init__(self, graph: Graph, arcs: Iterable[Arc] = ()):
        self.graph = graph
        self.dirs: dict[Edge, Arc] = {}
        for t, h in arcs:
            self.assign(t, h)

    def assign(self, t: int, h: int) -> bool:
        """Add arc t->h.  Returns True when new, False when already present;
        raises on a conflicting direction."""
        if not (0 <= t < self.graph.n and 0 <= h < self.graph.n) or not self.graph.adjacent(t, h):
            raise NotAnEdge(f"arc {t}->{h} is not over an edge of the graph")
        e = normalize_edge(t, h)
        cur = self.dirs.get(e)
        if cur is None:
            self.dirs[e] = (t, h)
            return True
        if cur == (t, h):
            return False
        raise DoubleAssignment(f"edge {e} already oriented {cur[0]}->{cur[1]}")

    def has_arc(self, t: int, h: int) -> bool:
        return self.dirs.get(normalize_edge(t, h)) == (t, h)

    def direction_of(self, u: int, v: int) -> Arc | None:
        return self.dirs.get(normalize_edge(u, v))

    def is_total(self) -> bool:
        return len(self.dirs) == len(self.graph.edges)

    def copy(self) -> "PartialOrientation":
        twin = PartialOrientation(self.graph)
        twin.dirs = dict(self.dirs)
        return twin

    def to_orientation(self) -> Orientation:
        return Orientation(self.graph, self.dirs.values())

    def __repr__(self) -> str:
        return f"PartialOrientation({len(self.dirs)}/{len(self.graph.edges)} edges)"


@dataclass(frozen=True)
class ShortcutCertificate:
    """A long path plus the positions (i, j) of a non-adjacent vertex pair.

    ``path[0] -> path[-1]`` is the shortcutting arc.
    """

    path: tuple[int, ...]
    nonadjacent_pair: tuple[int, int]

    @property
    def shortcut_arc(self) -> Arc:
        return (self.path[0], self.path[-1])

    @property
    def pair_vertices(self) -> tuple[int, int]:
        i, j = self.nonadjacent_pair
        return (self.path[i], self.path[j])


@dataclass(frozen=True)
class SemiTransitive:
    status = "semi-transitive"


@dataclass(frozen=True)
class DirectedCycle:
    cycle: tuple[int, ...]
    status = "cyclic"


@dataclass(frozen=True)
class Shortcut:
    certificate: ShortcutCertificate
    status = "shortcut"


Verdict = Union[SemiTransitive, DirectedCycle, Shortcut]


def kahn_order(out_masks: Sequence[int], in_masks: Sequence[int]) -> list[int]:
    """Kahn's algorithm over one bitmask of successors and one of predecessors
    per vertex: a FIFO queue, successors released in ascending order.  The
    vertices on or downstream of a directed cycle are missing from the result.
    """
    order = [v for v, m in enumerate(in_masks) if not m]
    pending = (1 << len(in_masks)) - 1  # not yet taken off the queue
    for u in order:  # the list grows while it is read: it is the FIFO queue
        pending ^= 1 << u
        for w in _bits(out_masks[u]):
            if not in_masks[w] & pending:  # u was w's last pending predecessor
                order.append(w)
    return order


def is_acyclic(o: Orientation) -> tuple[bool, tuple[int, ...]]:
    """Kahn's algorithm; (True, topological order) or (False, cycle witness)."""
    n = o.graph.n
    out, inc = o._out, o._in
    order = kahn_order(out, inc)
    if len(order) == n:
        return True, tuple(order)
    # Kahn's pass leaves out the vertices a cycle reaches, the reverse pass
    # those that reach a cycle.  A vertex left out by both has an out-neighbor
    # left out by both, so walking the smallest such neighbor from the
    # smallest such vertex always ends at a repeat.
    core = (1 << n) - 1
    for v in order + kahn_order(inc, out):
        core &= ~(1 << v)
    seen_at: dict[int, int] = {}
    walk: list[int] = []
    v = next(_bits(core))
    while v not in seen_at:
        seen_at[v] = len(walk)
        walk.append(v)
        v = next(_bits(out[v] & core))
    return False, tuple(walk[seen_at[v]:])


def topological_order(o: Orientation) -> tuple[int, ...]:
    ok, witness = is_acyclic(o)
    if not ok:
        raise NotAcyclic(f"orientation has a directed cycle {list(witness)}")
    return witness


@dataclass(frozen=True)
class Reachability:
    """Forward/backward reachable sets, one bitmask per vertex, reflexive."""

    forward: tuple[int, ...]
    backward: tuple[int, ...]

    def reach(self, u: int, v: int) -> bool:
        return bool(self.forward[u] >> v & 1)


def reach_closure(o: Orientation) -> Reachability:
    order = topological_order(o)
    fwd = [0] * o.graph.n
    back = [0] * o.graph.n
    for u in reversed(order):
        acc = 1 << u
        for w in o.out_neighbors(u):
            acc |= fwd[w]
        fwd[u] = acc
    for v in order:
        acc = 1 << v
        for u in o.in_neighbors(v):
            acc |= back[u]
        back[v] = acc
    return Reachability(tuple(fwd), tuple(back))


def _closure_of(o: Orientation) -> Reachability:
    if o._closure is None:
        o._closure = reach_closure(o)
    return o._closure


def _dag_path(o: Orientation, s: int, t: int) -> list[int]:
    """A directed path s => t (must exist); BFS with ascending out-neighbors."""
    if s == t:
        return [s]
    parent = {s: -1}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in o.out_neighbors(u):
            if w not in parent:
                parent[w] = u
                if w == t:
                    path = [t]
                    while path[-1] != s:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(w)
    raise AssertionError(f"no directed path {s} => {t}")


def nonadjacent_ordered_pairs(g: Graph) -> list[tuple[int, int]]:
    return [
        (x, y)
        for x in range(g.n)
        for y in range(g.n)
        if x != y and not g.adjacent(x, y)
    ]


def find_shortcut(o: Orientation) -> ShortcutCertificate | None:
    """Fast detector; see the module docstring for the decision rule."""
    closure = _closure_of(o)
    fwd = closure.forward
    pairs = nonadjacent_ordered_pairs(o.graph)
    for u, v in o.arcs:
        fu = fwd[u]
        for x, y in pairs:
            if fu >> x & 1 and fwd[x] >> y & 1 and fwd[y] >> v & 1:
                head = _dag_path(o, u, x)
                mid = _dag_path(o, x, y)
                tail = _dag_path(o, y, v)
                path = head + mid[1:] + tail[1:]
                i = len(head) - 1
                j = len(head) + len(mid) - 2
                return ShortcutCertificate(tuple(path), (i, j))
    return None


def find_shortcut_oracle(o: Orientation) -> ShortcutCertificate | None:
    """Definition-level detector: enumerate every directed path of length >= 3
    and look for a shortcutting arc plus a non-adjacent pair.  Exponential;
    intended for small instances and as the reference in equivalence tests.
    """
    ok, _ = is_acyclic(o)
    if not ok:
        raise NotAcyclic("oracle requires an acyclic orientation")
    g = o.graph
    path: list[int] = []

    def extend() -> ShortcutCertificate | None:
        last = path[-1]
        for w in o.out_neighbors(last):
            path.append(w)
            if len(path) >= 4 and o.has_arc(path[0], w):
                for j in range(1, len(path)):
                    for i in range(j):
                        if not g.adjacent(path[i], path[j]):
                            return ShortcutCertificate(tuple(path), (i, j))
            found = extend()
            if found is not None:
                return found
            path.pop()
        return None

    for v0 in range(g.n):
        path = [v0]
        found = extend()
        if found is not None:
            return found
    return None


def check_semi_transitive(o: Orientation) -> Verdict:
    ok, witness = is_acyclic(o)
    if not ok:
        return DirectedCycle(witness)
    cert = find_shortcut(o)
    if cert is not None:
        return Shortcut(cert)
    return SemiTransitive()


def verify_certificate(g: Graph, o: Orientation, verdict: Verdict) -> bool:
    """Audit a verdict against its type invariants, trusting nothing."""
    if o.graph != g:
        return False
    if isinstance(verdict, DirectedCycle):
        c = verdict.cycle
        if not c:
            return False
        return all(o.has_arc(c[t], c[(t + 1) % len(c)]) for t in range(len(c)))
    if isinstance(verdict, Shortcut):
        cert = verdict.certificate
        p = cert.path
        i, j = cert.nonadjacent_pair
        if len(p) < 4 or len(set(p)) != len(p):
            return False
        if not (0 <= i < j <= len(p) - 1):
            return False
        if g.adjacent(p[i], p[j]):
            return False
        if not o.has_arc(p[0], p[-1]):
            return False
        return all(o.has_arc(p[t], p[t + 1]) for t in range(len(p) - 1))
    if isinstance(verdict, SemiTransitive):
        ok, _ = is_acyclic(o)
        if not ok:
            return False
        detector = find_shortcut_oracle if len(g.edges) <= 22 else find_shortcut
        return detector(o) is None
    return False


def verdict_doc(verdict: Verdict) -> dict:
    """Structured form of a verdict; pair entries are vertex ids."""
    if isinstance(verdict, SemiTransitive):
        return {"status": verdict.status}
    if isinstance(verdict, DirectedCycle):
        return {"status": verdict.status, "cycle": list(verdict.cycle)}
    cert = verdict.certificate
    return {
        "status": verdict.status,
        "path": list(cert.path),
        "shortcut_arc": list(cert.shortcut_arc),
        "nonadjacent_pair": list(cert.pair_vertices),
    }


# --- text format -----------------------------------------------------------


def read_arc_list(text: str) -> tuple[int, tuple[Arc, ...]]:
    """Parse the arc-list format: header n, then one "u v" arc per line."""
    n, pairs = lex_pair_list(text, "'tail head'")
    arcs: list[Arc] = []
    seen: set[Arc] = set()
    for lineno, _, t, h in pairs:
        if not (0 <= t < n and 0 <= h < n) or t == h:
            raise FormatError(f"line {lineno}: bad arc {t}->{h}")
        if (t, h) in seen:
            raise FormatError(f"line {lineno}: duplicate arc {t}->{h}")
        seen.add((t, h))
        arcs.append((t, h))
    return n, tuple(arcs)


def read_orientation(text: str, g: Graph) -> Orientation:
    n, arcs = read_arc_list(text)
    if n != g.n:
        raise FormatError(f"orientation is over {n} vertices, graph has {g.n}")
    return Orientation(g, arcs)


def write_arc_list(o: Orientation) -> str:
    lines = [str(o.graph.n)]
    lines.extend(f"{t} {h}" for t, h in o.arcs)
    return "\n".join(lines) + "\n"
