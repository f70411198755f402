"""Complete search for semi-transitive orientations.

The engine is a depth-first search over edge directions with two pruning
devices, each individually sound:

* the cycle rule — on a cycle of length m >= 4 whose vertex set is not a
  clique, m-1 edges oriented one way around are a contradiction, and m-2
  force the remaining edges the opposite way.  A triangle obeys the same
  count one arc later: 3 arcs one way around are a directed 3-cycle, and 2
  force the third edge against them, the transitive closure;
* a directed-cycle check over the assigned arcs after every decision.

The catalog rule is sound but not complete, so every full assignment is
verified with the real detector before being reported.  Root symmetry
breaking explores the first decision edge in one direction only: reversing
all arcs preserves acyclicity and maps shortcuts to shortcuts, so the two
halves of the search tree are verdict-equivalent.

Bookkeeping of the cycle rule.  The engine's cycles are the graph's
triangles followed by the catalog; a cycle of length L acts at L-1 arcs
if it is a triangle and at L-2 if it is a catalog cycle.  Per cycle the
engine counts the edges assigned along it, against it, and in all.  Each
count is bit-sliced over all cycles (Biham, FSE 1997): plane k is one int
whose bit i is bit k of cycle i's count.  Assigning an edge adds 1 to the
counts of the cycles through it, a ripple carry over a few ints; a
decision saves the planes and its undo restores them.  A cycle that acts
at A starts its along and against counts at 2**top - A and its assigned
count at 2**top - L, where 2**top >= the longest catalog length.  The
questions the rule asks then read alike for every cycle:

* count = A (force): top plane set, lower planes clear;
* count > A (contradiction): top plane set, some lower plane set;
* count = A-1 (the branch score, catalog cycles only): top plane clear,
  every lower plane set;
* every edge assigned: the assigned count's top plane.

Propagation visits the cycles through an edge in ascending index and
re-reads the planes after each cycle it acts on, as a loop over per-cycle
counters would, so the search counters and the orientations found do not
depend on the representation (tests/test_engine_counters.py pins them).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import BadParameters, ImproperColoring, TooLarge
from .graphs import Coloring, Graph, is_clique, is_proper, normalize_edge
from .orientation import (
    Orientation,
    SemiTransitive,
    check_semi_transitive,
    find_shortcut,
    find_shortcut_oracle,
    is_acyclic,  # unused here: perfbench/tracing.py binds solver.is_acyclic
    kahn_order,
    topological_order,
)


def short_cycles(g: Graph, max_len: int) -> tuple[tuple[int, ...], ...]:
    """Enumerate cycles of length 4..max_len up to rotation and reflection.

    Canonical form: the smallest vertex first, and the smaller of its two
    cycle-neighbors second.
    """
    if max_len < 4:
        raise BadParameters(f"catalog length must be >= 4, got {max_len}")
    found: list[tuple[int, ...]] = []
    path: list[int] = []

    def extend(root: int) -> None:
        last = path[-1]
        can_close = len(path) >= 4 and len(path) <= max_len
        for w in g.neighbors(last):
            if w == root and can_close and path[1] < path[-1]:
                vs = tuple(path)
                if not is_clique(g, vs):
                    found.append(vs)
            elif w > root and w not in path and len(path) < max_len:
                path.append(w)
                extend(root)
                path.pop()

    for root in range(g.n):
        path = [root]
        extend(root)
    return tuple(found)


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0
    leaf_checks: int = 0
    wall_ms: float = 0.0


@dataclass(frozen=True)
class SolverConfig:
    catalog_max_len: int = 5
    node_limit: int | None = None
    branch_heuristic: str = "dynamic_most_constrained"
    symmetry_break: bool = True

    def __post_init__(self) -> None:
        if self.catalog_max_len < 4:
            raise BadParameters("catalog_max_len must be >= 4")
        if self.node_limit is not None and self.node_limit < 0:
            raise BadParameters(f"node_limit must be >= 0, got {self.node_limit}")
        if self.branch_heuristic not in ("static_degree", "dynamic_most_constrained"):
            raise BadParameters(f"unknown heuristic {self.branch_heuristic!r}")


@dataclass(frozen=True)
class Sat:
    orientation: Orientation
    stats: SolveStats
    verdict = "sat"


@dataclass(frozen=True)
class Unsat:
    stats: SolveStats
    verdict = "unsat"


@dataclass(frozen=True)
class Unknown:
    stats: SolveStats
    reason: str = "node_limit"
    verdict = "unknown"


SolveResult = Union[Sat, Unsat, Unknown]


class _NodeLimit(Exception):
    pass


def _read(planes: list[int]) -> tuple[int, int]:
    """Masks of the cycles whose offset count (module docstring) stands
    above their acting threshold and exactly at it."""
    top = planes[-1]
    low = 0
    for p in planes[:-1]:
        low |= p
    over = top & low
    return over, top ^ over


def _mask(indices: list[int]) -> int:
    """The int with the bits ``indices`` (ascending) set.  Filling bytes
    first: or-ing each bit into a growing int would copy it every time."""
    if not indices:
        return 0
    buf = bytearray(indices[-1] // 8 + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _add_one(planes: list[int], carry: int) -> None:
    """Add 1 to the count of every cycle in ``carry``, rippling the carry."""
    for k, p in enumerate(planes):
        planes[k] = p ^ carry
        carry &= p
        if not carry:
            return


class _Engine:
    def __init__(self, g: Graph, cfg: SolverConfig):
        self.g = g
        self.cfg = cfg
        self.stats = SolveStats()
        edges = g.edges
        self.edges = edges
        m = len(edges)
        self.m = m
        eidx = {e: i for i, e in enumerate(edges)}

        # the triangles first, so that propagation visits them first
        tris = [
            (a, b, c)
            for a, b in edges
            for c in g.neighbors(b)
            if c > b and g.adjacent(a, c)
        ]
        self.n_tris = len(tris)
        catalog = short_cycles(g, cfg.catalog_max_len)
        # cycle indices per edge, split by the dirs value that runs along them
        through: list[tuple[list[int], list[int]]] = [([], []) for _ in range(m)]
        lengths: dict[int, list[int]] = {}
        self.cyc_edges: list[tuple[int, ...]] = []
        self.cyc_signs: list[tuple[int, ...]] = []
        for ci, cyc in enumerate(tris + list(catalog)):
            mlen = len(cyc)
            es, ss = [], []
            for t in range(mlen):
                u, v = cyc[t], cyc[(t + 1) % mlen]
                e = eidx[normalize_edge(u, v)]
                s = 1 if (u, v) == edges[e] else 2  # dirs value meaning "along"
                es.append(e)
                ss.append(s)
                through[e][s - 1].append(ci)
            self.cyc_edges.append(tuple(es))
            self.cyc_signs.append(tuple(ss))
            lengths.setdefault(mlen, []).append(ci)
        # up[e][v] for dirs value v: the cycles that edge e then runs along;
        # up[e][0]: every cycle through e
        self.up: list[tuple[int, int, int]] = []
        for on1, on2 in through:
            a1, a2 = _mask(on1), _mask(on2)
            self.up.append((a1 | a2, a1, a2))
        by_len = {mlen: _mask(cis) for mlen, cis in lengths.items()}

        top = (max(by_len, default=4) - 1).bit_length()
        self.along = [0] * (top + 1)
        self.against = [0] * (top + 1)
        self.placed = [0] * (top + 1)
        for mlen, mask in by_len.items():
            acts = 2 if mlen == 3 else mlen - 2
            for k in range(top + 1):
                if (2**top - acts) >> k & 1:
                    self.along[k] |= mask
                    self.against[k] |= mask
                if (2**top - mlen) >> k & 1:
                    self.placed[k] |= mask

        self.dirs = bytearray(m)
        self.trail: list[int] = []
        self._queue: list[int] = []

        if cfg.branch_heuristic == "static_degree":
            self.static_order = sorted(
                range(m),
                key=lambda i: (-(g.degree(edges[i][0]) + g.degree(edges[i][1])), edges[i]),
            )

    # -- assignment machinery -------------------------------------------

    def _assign(self, e: int, val: int) -> None:
        self.dirs[e] = val
        self.trail.append(e)
        up = self.up[e]
        _add_one(self.along, up[val])
        _add_one(self.against, up[3 - val])
        _add_one(self.placed, up[0])
        self._queue.append(e)

    def _undo(self, mark: int, saved: tuple[list[int], ...]) -> None:
        """Unassign the trail above ``mark``; restore the counters saved there."""
        while len(self.trail) > mark:
            self.dirs[self.trail.pop()] = 0
        self.along[:], self.against[:], self.placed[:] = saved

    def _propagate(self) -> bool:
        q = self._queue
        dirs = self.dirs
        along, against, placed = self.along, self.against, self.placed
        qi = 0
        while qi < len(q):
            e = q[qi]
            qi += 1
            # the cycles through e in ascending order, re-read after each
            # one the rule acts on; only a count at its acting threshold or
            # more can act
            pending = self.up[e][0]
            while pending & (along[-1] | against[-1]):
                over_a, tight_a = _read(along)
                over_b, tight_b = _read(against)
                over = over_a | over_b
                act = pending & (over | ((tight_a | tight_b) & ~placed[-1]))
                if not act:
                    break
                low = act & -act
                if over & low:
                    return False
                forced_along = bool(tight_b & low)
                ci = low.bit_length() - 1
                for k, sk in zip(self.cyc_edges[ci], self.cyc_signs[ci]):
                    if not dirs[k]:
                        self.stats.propagations += 1
                        self._assign(k, sk if forced_along else 3 - sk)
                pending &= -(low << 1)  # drop ci and the cycles below it
        return True

    def _has_directed_cycle(self) -> bool:
        n = self.g.n
        out = [0] * n
        inc = [0] * n
        for i, (u, v) in enumerate(self.edges):
            d = self.dirs[i]
            if d == 1:
                out[u] |= 1 << v
                inc[v] |= 1 << u
            elif d == 2:
                out[v] |= 1 << u
                inc[u] |= 1 << v
        return len(kahn_order(out, inc)) != n

    # -- branching --------------------------------------------------------

    def _pick_edge(self) -> int | None:
        dirs = self.dirs
        if self.cfg.branch_heuristic == "static_degree":
            for e in self.static_order:
                if not dirs[e]:
                    return e
            return None
        # score: the catalog cycles through e with a count at L-3 or L-2
        hot = 0
        for planes in (self.along, self.against):
            below = ~planes[-1]  # L-3 is "top plane clear, every lower set"
            for p in planes[:-1]:
                below &= p
            hot |= _read(planes)[1] | below
        hot = hot >> self.n_tris << self.n_tris  # triangles do not score
        best, best_score = None, -1
        for e in range(self.m):
            if dirs[e]:
                continue
            score = (hot & self.up[e][0]).bit_count()
            if score > best_score:
                best, best_score = e, score
        return best

    def _leaf(self) -> Orientation | None:
        self.stats.leaf_checks += 1
        o = Orientation(
            self.g,
            [
                (u, v) if self.dirs[i] == 1 else (v, u)
                for i, (u, v) in enumerate(self.edges)
            ],
        )
        # acyclic: _has_directed_cycle passed it (or m = 0)
        return o if find_shortcut(o) is None else None

    def search(self) -> Orientation | None:
        return self._search(0)

    def _search(self, depth: int) -> Orientation | None:
        e = self._pick_edge()
        if e is None:
            return self._leaf()
        self.stats.nodes += 1
        limit = self.cfg.node_limit
        if limit is not None and self.stats.nodes > limit:
            raise _NodeLimit()
        branches = (1,) if depth == 0 and self.cfg.symmetry_break else (1, 2)
        mark = len(self.trail)
        saved = self.along[:], self.against[:], self.placed[:]
        for val in branches:
            self._queue = []
            self._assign(e, val)
            if self._propagate() and not self._has_directed_cycle():
                found = self._search(depth + 1)
                if found is not None:
                    return found
            self._undo(mark, saved)
        return None


def solve(g: Graph, cfg: SolverConfig | None = None) -> SolveResult:
    cfg = cfg or SolverConfig()
    engine = _Engine(g, cfg)
    t0 = time.perf_counter()
    try:
        found = engine.search()
    except _NodeLimit:
        engine.stats.wall_ms = (time.perf_counter() - t0) * 1000.0
        return Unknown(engine.stats, "node_limit")
    engine.stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    if found is None:
        return Unsat(engine.stats)
    if not isinstance(check_semi_transitive(found), SemiTransitive):
        raise AssertionError("solver produced an unverified orientation")
    return Sat(found, engine.stats)


def stats_doc(result: SolveResult, cfg: SolverConfig) -> dict:
    doc = {
        "verdict": result.verdict,
        "nodes": result.stats.nodes,
        "propagations": result.stats.propagations,
        "leaf_checks": result.stats.leaf_checks,
        "wall_ms": round(result.stats.wall_ms, 3),
        "config": {
            "catalog_max_len": cfg.catalog_max_len,
            "node_limit": cfg.node_limit,
            "branch_heuristic": cfg.branch_heuristic,
            "symmetry_break": cfg.symmetry_break,
        },
    }
    if isinstance(result, Unknown):
        doc["reason"] = result.reason
    return doc


def orient_by_coloring(g: Graph, coloring: Coloring) -> Orientation:
    """Direct every edge from the lower color to the higher one."""
    if not is_proper(g, coloring):
        raise ImproperColoring("coloring is not proper on this graph")
    col = coloring.colors
    return Orientation(
        g, [(u, v) if col[u] < col[v] else (v, u) for u, v in g.edges]
    )


_ENUM_EDGE_CAP = 22


def enumerate_acyclic_orientations(g: Graph) -> Iterator[Orientation]:
    """All acyclic orientations, in ascending bitmask order (bit i set =
    edge i reversed against its sorted form)."""
    m = len(g.edges)
    if m > _ENUM_EDGE_CAP:
        raise TooLarge(f"{m} edges is above the enumeration cap {_ENUM_EDGE_CAP}")
    n = g.n
    edges = g.edges
    for mask in range(1 << m):
        out = [0] * n
        inc = [0] * n
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                u, v = v, u
            out[u] |= 1 << v
            inc[v] |= 1 << u
        if len(kahn_order(out, inc)) == n:
            yield Orientation(
                g,
                [
                    (v, u) if mask >> i & 1 else (u, v)
                    for i, (u, v) in enumerate(edges)
                ],
            )


def count_st_orientations(g: Graph) -> int:
    """Brute-force count of semi-transitive orientations, via the oracle."""
    return sum(
        1
        for o in enumerate_acyclic_orientations(g)
        if find_shortcut_oracle(o) is None
    )


def longest_directed_path(o: Orientation) -> int:
    """Number of arcs on a longest directed path."""
    order = topological_order(o)
    dist = [0] * o.graph.n
    for u in reversed(order):
        best = 0
        for w in o.out_neighbors(u):
            if dist[w] + 1 > best:
                best = dist[w] + 1
        dist[u] = best
    return max(dist, default=0)
