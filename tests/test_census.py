"""Census gate: every connected graph on 6 and 7 vertices against the
published counts of non-word-representable graphs.

A graph is semi-transitive iff it is word-representable.  There are 1, 25
and 929 connected non-word-representable graphs on 6, 7 and 8 vertices
(Kitaev, DLT 2017, reporting Akgun, Gent, Kitaev & Zantema, J. Integer
Sequences 2019).  The solver must find exactly these under each
configuration, and every orientation it returns must pass the audit.
``SEMITRANS_CENSUS8=1`` adds the 8-vertex count (about half a minute).
"""

import os

import pytest

from graph_census import graphs_up_to, to_graph
from semitrans import (
    Sat,
    SemiTransitive,
    SolverConfig,
    Unsat,
    is_connected,
    solve,
    verify_certificate,
)

UNSAT_COUNTS = {6: 1, 7: 25, 8: 929}
CONNECTED_COUNTS = {6: 112, 7: 853, 8: 11117}
CONFIGS = {
    "default": SolverConfig(),
    "catalog4": SolverConfig(catalog_max_len=4),
    "catalog7": SolverConfig(catalog_max_len=7),
    "static_degree": SolverConfig(branch_heuristic="static_degree"),
    "no_symmetry_break": SolverConfig(symmetry_break=False),
}


@pytest.fixture(scope="module")
def connected():
    layers = graphs_up_to(7)
    return {n: [g for g in map(to_graph, layers[n]) if is_connected(g)] for n in (6, 7)}


def _census(graphs, cfg):
    unsat = 0
    for g in graphs:
        r = solve(g, cfg)
        if isinstance(r, Sat):
            assert verify_certificate(g, r.orientation, SemiTransitive()), g.edges
        else:
            assert isinstance(r, Unsat), (g.edges, r)
            unsat += 1
    return unsat


def test_census_sizes(connected):
    assert {n: len(gs) for n, gs in connected.items()} == {
        n: CONNECTED_COUNTS[n] for n in (6, 7)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_census_unsat_counts(connected, name):
    got = {n: _census(gs, CONFIGS[name]) for n, gs in connected.items()}
    assert got == {n: UNSAT_COUNTS[n] for n in (6, 7)}


@pytest.mark.skipif(os.environ.get("SEMITRANS_CENSUS8") != "1",
                    reason="opt-in: set SEMITRANS_CENSUS8=1")
def test_census_eight_vertices():
    graphs = [g for g in map(to_graph, graphs_up_to(8)[8]) if is_connected(g)]
    assert len(graphs) == CONNECTED_COUNTS[8]
    assert _census(graphs, SolverConfig()) == UNSAT_COUNTS[8]
