import random

import pytest

from conftest import SMALL_CATALOG, rand_acyclic
from semitrans import (
    DirectedCycle,
    DoubleAssignment,
    FormatError,
    Graph,
    NotAcyclic,
    NotAnEdge,
    Orientation,
    PartialOrientation,
    SemiTransitive,
    Shortcut,
    ShortcutCertificate,
    UncoveredEdge,
    check_semi_transitive,
    circulant,
    cycle,
    enumerate_acyclic_orientations,
    find_shortcut,
    find_shortcut_oracle,
    is_acyclic,
    reach_closure,
    read_arc_list,
    read_orientation,
    topological_order,
    verdict_doc,
    verify_certificate,
    write_arc_list,
)
from semitrans.constructions import fig4_orientation

SQUARE = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
# directed path 0->1->2->3 plus the shortcutting arc 0->3
SHORTCUT_O = Orientation(SQUARE, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_orientation_validates():
    with pytest.raises(NotAnEdge):
        Orientation(SQUARE, [(0, 2), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(DoubleAssignment):
        Orientation(SQUARE, [(0, 1), (1, 0), (2, 3), (0, 3)])
    with pytest.raises(UncoveredEdge):
        Orientation(SQUARE, [(0, 1), (1, 2), (2, 3)])


def test_orientation_queries():
    o = SHORTCUT_O
    assert o.has_arc(0, 1) and not o.has_arc(1, 0)
    assert o.out_neighbors(0) == (1, 3)
    assert o.in_neighbors(3) == (0, 2)
    assert o.reversed().has_arc(1, 0)
    assert o.reversed().reversed() == o


def test_partial_orientation():
    p = PartialOrientation(SQUARE)
    assert p.assign(0, 1) is True
    assert p.assign(0, 1) is False  # already there
    with pytest.raises(DoubleAssignment):
        p.assign(1, 0)
    with pytest.raises(NotAnEdge):
        p.assign(0, 2)
    assert not p.is_total()
    p.assign(1, 2)
    p.assign(2, 3)
    p.assign(0, 3)
    assert p.is_total()
    assert p.to_orientation() == SHORTCUT_O
    q = p.copy()
    assert q.direction_of(0, 1) == (0, 1)


def test_acyclicity():
    ok, order = is_acyclic(SHORTCUT_O)
    assert ok
    pos = {v: i for i, v in enumerate(order)}
    for t, h in SHORTCUT_O.arcs:
        assert pos[t] < pos[h]
    spin = Orientation(cycle(3), [(0, 1), (1, 2), (2, 0)])
    ok, cyc = is_acyclic(spin)
    assert not ok
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert spin.has_arc(a, b)
    with pytest.raises(NotAcyclic):
        topological_order(spin)


def test_cycle_witness_when_smallest_vertex_is_downstream():
    # 0 is left over by Kahn's pass (its in-neighbor 1 is on the cycle) but
    # reaches no cycle itself
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    o = Orientation(g, [(1, 2), (2, 3), (3, 1), (1, 0)])
    assert is_acyclic(o) == (False, (1, 2, 3))
    v = check_semi_transitive(o)
    assert v == DirectedCycle((1, 2, 3))
    assert verify_certificate(g, o, v)


def test_cycle_witness_random():
    rng = random.Random(20)
    cyclic = 0
    for _ in range(400):
        n = rng.randint(3, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5])
        o = Orientation(g, [(u, v) if rng.random() < 0.5 else (v, u)
                            for u, v in g.edges])
        ok, witness = is_acyclic(o)
        if not ok:
            cyclic += 1
            assert len(set(witness)) == len(witness)
            assert verify_certificate(g, o, DirectedCycle(witness))
    assert cyclic > 100


def test_reach_closure():
    r = reach_closure(SHORTCUT_O)
    assert r.reach(0, 3) and r.reach(0, 0) and not r.reach(3, 0)
    assert r.reach(1, 3) and not r.reach(2, 1)


def test_find_shortcut_canonical():
    cert = find_shortcut(SHORTCUT_O)
    assert cert == ShortcutCertificate(path=(0, 1, 2, 3), nonadjacent_pair=(0, 2))
    assert cert.shortcut_arc == (0, 3)
    assert cert.pair_vertices == (0, 2)
    assert verify_certificate(SQUARE, SHORTCUT_O, Shortcut(cert))


def test_no_false_positive_on_diamond():
    # u->x, u->y, x->v, y->v, u->v with x,y nonadjacent: every directed
    # path has length <= 2, so there is no shortcut to find
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
    o = Orientation(g, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
    assert find_shortcut(o) is None
    assert find_shortcut_oracle(o) is None
    assert isinstance(check_semi_transitive(o), SemiTransitive)


def test_check_semi_transitive_verdicts():
    assert isinstance(check_semi_transitive(fig4_orientation()), SemiTransitive)
    spin = Orientation(cycle(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    v = check_semi_transitive(spin)
    assert isinstance(v, DirectedCycle)
    assert verify_certificate(cycle(4), spin, v)
    v = check_semi_transitive(SHORTCUT_O)
    assert isinstance(v, Shortcut)
    assert verify_certificate(SQUARE, SHORTCUT_O, v)


def test_oracle_equivalence_exhaustive():
    # the load-bearing equivalence sweep: every acyclic orientation of
    # every small catalog graph, fast detector vs definition-level oracle
    total = 0
    for name, g in SMALL_CATALOG.items():
        for o in enumerate_acyclic_orientations(g):
            total += 1
            fast = find_shortcut(o)
            slow = find_shortcut_oracle(o)
            assert (fast is None) == (slow is None), (name, o.arcs)
            if fast is not None:
                assert verify_certificate(g, o, Shortcut(fast)), (name, o.arcs)
            if slow is not None:
                assert verify_certificate(g, o, Shortcut(slow)), (name, o.arcs)
    assert total == 3388


@pytest.mark.parametrize("n,jumps", [(13, (1, 5)), (14, (1, 3, 4, 5))])
def test_oracle_equivalence_random_circulants(n, jumps):
    g = circulant(n, list(jumps))
    rng = random.Random(n * 1000)
    for _ in range(1000):
        o = rand_acyclic(g, rng)
        assert (find_shortcut(o) is None) == (find_shortcut_oracle(o) is None)


def test_reversal_preserves_semi_transitivity():
    for name, g in SMALL_CATALOG.items():
        if len(g.edges) > 12:
            continue
        for o in enumerate_acyclic_orientations(g):
            if isinstance(check_semi_transitive(o), SemiTransitive):
                assert isinstance(
                    check_semi_transitive(o.reversed()), SemiTransitive
                ), (name, o.arcs)


def test_verify_certificate_rejects_tampering():
    cert = find_shortcut(SHORTCUT_O)
    # claim an adjacent pair is the nonadjacent one
    bad = ShortcutCertificate(path=cert.path, nonadjacent_pair=(0, 1))
    assert not verify_certificate(SQUARE, SHORTCUT_O, Shortcut(bad))
    # cycle witness with a missing arc
    assert not verify_certificate(
        SQUARE, SHORTCUT_O, DirectedCycle((0, 1, 2, 3))
    )
    # semi-transitive claim on a shortcut orientation
    assert not verify_certificate(SQUARE, SHORTCUT_O, SemiTransitive())
    # certificate against the wrong graph
    from semitrans import complete

    assert not verify_certificate(complete(4), SHORTCUT_O, Shortcut(cert))


def test_verdict_docs():
    assert verdict_doc(check_semi_transitive(fig4_orientation())) == {
        "status": "semi-transitive"
    }
    assert verdict_doc(check_semi_transitive(SHORTCUT_O)) == {
        "status": "shortcut",
        "path": [0, 1, 2, 3],
        "shortcut_arc": [0, 3],
        "nonadjacent_pair": [0, 2],
    }
    spin = Orientation(cycle(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    doc = verdict_doc(check_semi_transitive(spin))
    assert doc["status"] == "cyclic" and sorted(doc["cycle"]) == [0, 1, 2, 3]


def test_arc_list_round_trip():
    text = write_arc_list(SHORTCUT_O)
    assert text == "4\n0 1\n0 3\n1 2\n2 3\n"
    n, arcs = read_arc_list(text)
    assert n == 4 and set(arcs) == set(SHORTCUT_O.arcs)
    assert read_orientation(text, SQUARE) == SHORTCUT_O


def test_read_orientation_rejects():
    with pytest.raises(FormatError):
        read_orientation("3\n0 1\n", SQUARE)  # wrong vertex count
    with pytest.raises(FormatError):
        read_arc_list("4\n0 1\n0 1\n")  # duplicate arc
    with pytest.raises(NotAnEdge):
        read_orientation("4\n0 2\n1 2\n2 3\n0 3\n", SQUARE)
    with pytest.raises(UncoveredEdge):
        read_orientation("4\n0 1\n", SQUARE)
