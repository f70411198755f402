"""Differential gate: the search engine's leaf rule against the detectors.

The engine decides a leaf with ``solver.shortcut_free`` over its own arc
masks and Kahn order.  On seeded random acyclic orientations of named
graphs and of every graph on up to 6 vertices, plus the orientation the
solver finds on each semi-transitive one, the rule must call an
orientation shortcut-free exactly when ``find_shortcut`` finds nothing, and
exactly when ``find_shortcut_oracle`` finds nothing on graphs with at most
22 edges.
"""

import random

import pytest

from conftest import rand_acyclic
from graph_census import graphs_up_to, to_graph
from semitrans import (
    Graph,
    Sat,
    SolverConfig,
    find_shortcut,
    find_shortcut_oracle,
    parse_family_spec,
    solve,
)
from semitrans.orientation import kahn_order
from semitrans.solver import _Engine, shortcut_free


def _orientations(g, count, seed):
    rng = random.Random(seed)
    found = [rand_acyclic(g, rng) for _ in range(count)]
    result = solve(g)
    if isinstance(result, Sat):
        found.append(result.orientation)
    return found


def _agree(g, orientations):
    """Check every orientation; return how many the rule calls shortcut-free."""
    nonadj = _Engine(g, SolverConfig()).nonadj
    free = 0
    for o in orientations:
        out = [0] * g.n
        inc = [0] * g.n
        for t, h in o.arcs:
            out[t] |= 1 << h
            inc[h] |= 1 << t
        verdict = shortcut_free(nonadj, out, inc, kahn_order(out, inc))
        assert verdict == (find_shortcut(o) is None), o.arcs
        if len(g.edges) <= 22:
            assert verdict == (find_shortcut_oracle(o) is None), o.arcs
        free += verdict
    return free


@pytest.mark.parametrize(
    "spec", ["grotzsch", "chvatal", "circulant:13:1,5", "kneser83sub16", "toft:7"]
)
def test_leaf_rule_on_named_graphs(spec):
    g = parse_family_spec(spec)
    orientations = _orientations(g, 150, seed=len(spec))
    free = _agree(g, orientations)
    assert free < len(orientations)  # some orientation has a shortcut


def test_leaf_rule_on_small_graphs():
    layers = graphs_up_to(6)
    free = total = 0
    for n in range(1, 7):
        for i, adj in enumerate(layers[n]):
            g = to_graph(adj)
            orientations = _orientations(g, 8, seed=100 * n + i)
            free += _agree(g, orientations)
            total += len(orientations)
    # both answers occur, so neither half of the gate is vacuous
    assert 0 < free < total


@pytest.mark.parametrize("n", [1, 3])
def test_edgeless_graph_reaches_the_leaf_without_a_kahn_pass(n):
    result = solve(Graph(n, []))
    assert isinstance(result, Sat)
    assert result.orientation.arcs == ()
    assert (result.stats.nodes, result.stats.leaf_checks) == (0, 1)
