import random

import pytest

from conftest import CATALOG, SMALL_CATALOG, rand_acyclic
from semitrans import (
    BadParameters,
    Contradiction,
    Graph,
    ImproperColoring,
    Orientation,
    PartialOrientation,
    Sat,
    SemiTransitive,
    SolverConfig,
    TooLarge,
    Unknown,
    Unsat,
    check_semi_transitive,
    chromatic_number,
    chvatal,
    circulant,
    complete,
    count_st_orientations,
    cycle,
    enumerate_acyclic_orientations,
    find_shortcut_oracle,
    grotzsch,
    is_connected,
    lemma2_propagate,
    longest_directed_path,
    orient_by_coloring,
    proper_coloring,
    short_cycles,
    solve,
    stats_doc,
)


def test_short_cycles_counts():
    assert len(short_cycles(cycle(4), 5)) == 1
    assert len(short_cycles(complete(4), 4)) == 0  # clique vertex sets dropped
    assert len(short_cycles(grotzsch(), 4)) == 10
    assert len(short_cycles(grotzsch(), 5)) == 41
    assert len(short_cycles(chvatal(), 4)) == 17
    assert len(short_cycles(chvatal(), 5)) == 61
    assert len(short_cycles(circulant(13, [1, 5]), 5)) == 65
    with pytest.raises(BadParameters):
        short_cycles(cycle(4), 3)


def test_short_cycles_contains_proof_cycle():
    # the 4-cycle outer,outer,outer,shadow the hand proof branches on
    cycles = {frozenset(c) for c in short_cycles(grotzsch(), 4)}
    assert frozenset((0, 1, 2, 6)) in cycles


def test_short_cycles_are_valid():
    for g in (grotzsch(), chvatal(), circulant(13, [1, 5])):
        for cyc in short_cycles(g, 5):
            assert 4 <= len(cyc) <= 5
            assert len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert g.adjacent(a, b)
            vs = list(cyc)
            assert any(
                not g.adjacent(vs[i], vs[j])
                for i in range(len(vs))
                for j in range(i + 1, len(vs))
            )


def test_lemma2_forces_opposite_pair():
    g = cycle(4)
    p = PartialOrientation(g)
    p.assign(0, 1)
    p.assign(1, 2)
    out, derived = lemma2_propagate(g, p, short_cycles(g, 4))
    assert not isinstance(out, Contradiction)
    assert set(derived) == {(3, 2), (0, 3)}
    assert out.direction_of(2, 3) == (3, 2)
    assert out.direction_of(0, 3) == (0, 3)


def test_lemma2_five_cycle():
    g = cycle(5)
    p = PartialOrientation(g)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        p.assign(u, v)
    out, derived = lemma2_propagate(g, p, short_cycles(g, 5))
    assert set(derived) == {(4, 3), (0, 4)}


def test_lemma2_contradiction():
    g = cycle(4)
    p = PartialOrientation(g)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        p.assign(u, v)
    out, _ = lemma2_propagate(g, p, short_cycles(g, 4))
    assert isinstance(out, Contradiction)


def test_lemma2_fixpoint_idempotent():
    g = circulant(13, [1, 5])
    p = PartialOrientation(g)
    p.assign(0, 1)
    p.assign(1, 2)
    cat = short_cycles(g, 5)
    out, derived = lemma2_propagate(g, p, cat)
    again, more = lemma2_propagate(g, out, cat)
    assert more == []


def _st_completions(g, p):
    for o in enumerate_acyclic_orientations(g):
        if find_shortcut_oracle(o) is not None:
            continue
        if all(o.has_arc(*p.direction_of(*e)) for e in g.edges if p.direction_of(*e)):
            yield o


def test_lemma2_propagation_soundness():
    # every derived arc must hold in every semi-transitive completion;
    # a contradiction must mean no completion exists
    rng = random.Random(99)
    for name, g in SMALL_CATALOG.items():
        if not 1 <= len(g.edges) <= 14:
            continue
        cat = short_cycles(g, 5)
        for _ in range(20):
            p = PartialOrientation(g)
            for u, v in g.edges:
                r = rng.random()
                if r < 0.25:
                    p.assign(u, v)
                elif r < 0.5:
                    p.assign(v, u)
            out, derived = lemma2_propagate(g, p, cat)
            completions = list(_st_completions(g, p))
            if isinstance(out, Contradiction):
                assert completions == [], (name, p.dirs)
            else:
                for t, h in derived:
                    assert all(o.has_arc(t, h) for o in completions), (name, t, h)


def test_solve_examples():
    assert isinstance(solve(grotzsch()), Unsat)
    r = solve(circulant(13, [1, 5]))
    assert isinstance(r, Sat)
    assert isinstance(check_semi_transitive(r.orientation), SemiTransitive)
    assert isinstance(solve(cycle(4)), Sat)
    assert isinstance(solve(Graph(3, [])), Sat)


def test_solver_oracle_agreement():
    # solve is Sat exactly when brute force finds a witness
    for name, g in CATALOG.items():
        if len(g.edges) > 18:
            continue
        expect = count_st_orientations(g) > 0
        assert isinstance(solve(g), Sat) == expect, name


def test_symmetry_break_soundness():
    for name, g in CATALOG.items():
        if len(g.edges) > 18:
            continue
        a = solve(g, SolverConfig(symmetry_break=True))
        b = solve(g, SolverConfig(symmetry_break=False))
        assert a.verdict == b.verdict, name


def test_solver_config_knobs():
    for cfg in (
        SolverConfig(catalog_max_len=4),
        SolverConfig(catalog_max_len=7),
        SolverConfig(branch_heuristic="static_degree"),
    ):
        assert isinstance(solve(grotzsch(), cfg), Unsat)
        assert isinstance(solve(circulant(13, [1, 5]), cfg), Sat)


def test_solver_config_validation():
    with pytest.raises(BadParameters):
        SolverConfig(catalog_max_len=3)
    with pytest.raises(BadParameters):
        SolverConfig(branch_heuristic="random")
    with pytest.raises(BadParameters):
        SolverConfig(node_limit=-1)


def test_node_limit_gives_unknown():
    r = solve(chvatal(), SolverConfig(node_limit=1))
    assert isinstance(r, Unknown)
    assert r.reason == "node_limit"
    doc = stats_doc(r, SolverConfig(node_limit=1))
    assert doc["verdict"] == "unknown" and doc["reason"] == "node_limit"


def test_stats_doc_shape():
    cfg = SolverConfig()
    r = solve(cycle(5), cfg)
    doc = stats_doc(r, cfg)
    assert doc["verdict"] == "sat"
    for key in ("nodes", "propagations", "leaf_checks", "wall_ms"):
        assert doc[key] >= 0
    assert doc["config"]["catalog_max_len"] == 5
    assert doc["config"]["branch_heuristic"] == "dynamic_most_constrained"


def test_orient_by_coloring():
    g = cycle(7)
    c = proper_coloring(g, 3)
    o = orient_by_coloring(g, c)
    assert isinstance(check_semi_transitive(o), SemiTransitive)
    assert longest_directed_path(o) <= 2
    # bijective coloring of a clique gives the transitive tournament
    k4 = complete(4)
    c4 = proper_coloring(k4, 4)
    t = orient_by_coloring(k4, c4)
    order = sorted(range(4), key=c4.color_of)
    for i in range(4):
        for j in range(i + 1, 4):
            assert t.has_arc(order[i], order[j])
    # alternating source/sink square
    sq = orient_by_coloring(cycle(4), proper_coloring(cycle(4), 2))
    assert isinstance(check_semi_transitive(sq), SemiTransitive)
    with pytest.raises(ImproperColoring):
        from semitrans import Coloring

        orient_by_coloring(cycle(3), Coloring((0, 0, 1)))


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_acyclic_orientations(cycle(4))) == 14
    assert sum(1 for _ in enumerate_acyclic_orientations(cycle(3))) == 6
    assert sum(1 for _ in enumerate_acyclic_orientations(complete(3))) == 6
    assert sum(1 for _ in enumerate_acyclic_orientations(SMALL_CATALOG["prism"])) == 204


def test_count_st_orientations():
    assert count_st_orientations(cycle(4)) == 6
    assert count_st_orientations(complete(3)) == 6
    assert count_st_orientations(cycle(5)) == 20
    assert count_st_orientations(complete(4)) == 24
    assert count_st_orientations(SMALL_CATALOG["bull"]) == 24
    assert count_st_orientations(SMALL_CATALOG["prism"]) == 24


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        next(iter(enumerate_acyclic_orientations(chvatal())))
    with pytest.raises(TooLarge):
        count_st_orientations(chvatal())


def test_longest_directed_path():
    t = Orientation(
        complete(4), [(i, j) for i in range(4) for j in range(i + 1, 4)]
    )
    assert longest_directed_path(t) == 3
    assert longest_directed_path(Orientation(Graph(1, []), [])) == 0


def test_vitaver_identity_small():
    # minimum longest path over acyclic orientations = chi - 1
    for name, g in SMALL_CATALOG.items():
        if g.n > 6 or g.n == 0 or not is_connected(g):
            continue
        best = min(
            longest_directed_path(o) for o in enumerate_acyclic_orientations(g)
        )
        assert best + 1 == chromatic_number(g), name
