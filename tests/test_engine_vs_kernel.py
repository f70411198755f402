"""Differential gate: the search engine's propagation against the kernel.

The engine searches the whole tree, since every leaf is rejected here, and
after every ``_propagate`` the state is handed to
``lemma2_propagate``, the proof-replay kernel's cycle rule, over the same
catalog, and to a plain check of every triangle.

* When the engine reports success, the kernel must derive nothing and find
  no contradiction, no triangle may be a directed 3-cycle, and no triangle
  may hold a 2-arc path whose third edge is still unassigned: the engine
  has reached the fixpoint of both rules.
* When the engine reports a conflict, the kernel must find a contradiction
  or some triangle must be directed.

After every ``_propagate`` and every ``_undo`` the engine's successor and
predecessor masks must also equal those rebuilt from its edge directions.
"""

import pytest

from graph_census import graphs_up_to, to_graph
from semitrans import (
    Contradiction,
    PartialOrientation,
    SolverConfig,
    is_connected,
    lemma2_propagate,
    parse_family_spec,
    short_cycles,
)
from semitrans.solver import _Engine


class _CheckedEngine(_Engine):
    """The engine, rejecting every leaf and checking its state against the
    kernel after every propagation."""

    def __init__(self, g, cfg):
        super().__init__(g, cfg)
        self.kernel_catalog = short_cycles(g, cfg.catalog_max_len)
        self.triangles = [
            (a, b, c)
            for a, b in g.edges
            for c in g.neighbors(b)
            if c > b and g.adjacent(a, c)
        ]
        self.checked = {True: 0, False: 0}

    def _leaf(self):
        return None

    def _arcs(self):
        return [
            (u, v) if d == 1 else (v, u)
            for (u, v), d in zip(self.edges, self.dirs)
            if d
        ]

    def _triangle_faults(self, p):
        """(directed triangles, triangles with an open 2-arc path)."""
        directed = open_paths = 0
        for tri in self.triangles:
            for x, y, z in (tri, tri[::-1]):
                for r in range(3):
                    a, b, c = (x, y, z)[r:] + (x, y, z)[:r]
                    if p.has_arc(a, b) and p.has_arc(b, c):
                        if p.has_arc(c, a):
                            directed += 1
                        elif p.direction_of(a, c) is None:
                            open_paths += 1
        return directed, open_paths

    def _check_masks(self):
        out = [0] * self.g.n
        inc = [0] * self.g.n
        for t, h in self._arcs():
            out[t] |= 1 << h
            inc[h] |= 1 << t
        assert (self.out, self.inc) == (out, inc), self.dirs

    def _undo(self, mark, saved):
        super()._undo(mark, saved)
        self._check_masks()

    def _propagate(self):
        ok = super()._propagate()
        self._check_masks()
        p = PartialOrientation(self.g, self._arcs())
        result, derived = lemma2_propagate(self.g, p, self.kernel_catalog)
        directed, open_paths = self._triangle_faults(p)
        if ok:
            assert not isinstance(result, Contradiction), (result, p.dirs)
            assert derived == [], (derived, p.dirs)
            assert (directed, open_paths) == (0, 0), p.dirs
        else:
            assert isinstance(result, Contradiction) or directed, p.dirs
        self.checked[ok] += 1
        return ok


def _run(g, length):
    engine = _CheckedEngine(g, SolverConfig(catalog_max_len=length))
    engine.search()
    return engine.checked


@pytest.fixture(scope="module")
def small_connected():
    layers = graphs_up_to(6)
    return [g for n in range(1, 7) for g in map(to_graph, layers[n]) if is_connected(g)]


@pytest.mark.parametrize("length", [4, 5, 7])
def test_engine_matches_kernel_on_small_graphs(small_connected, length):
    total = {True: 0, False: 0}
    for g in small_connected:
        for ok, k in _run(g, length).items():
            total[ok] += k
    # both outcomes occur, so neither half of the gate is vacuous
    assert total[True] > 0 and total[False] > 0


# every named instance at catalog lengths 4 and 5, and all but the two
# costliest at 7 (circulant:14:1,3,4,5 and mycielski:grotzsch take 2.5 and
# 4 s there); toft:7 is left out, its whole tree is far too large
NAMED = [
    (spec, length)
    for spec in ("grotzsch", "chvatal", "circulant:13:1,5", "kneser83sub16",
                 "circulant:14:1,3,4,5", "mycielski:grotzsch")
    for length in (4, 5, 7)
    if length < 7 or spec not in ("circulant:14:1,3,4,5", "mycielski:grotzsch")
]


@pytest.mark.parametrize("spec,length", NAMED)
def test_engine_matches_kernel_on_named_graphs(spec, length):
    checked = _run(parse_family_spec(spec), length)
    assert checked[True] > 0
