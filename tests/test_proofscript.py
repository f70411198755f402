import ast

import pytest

from semitrans import ParseError, StepRejected, chvatal, cycle, grotzsch, proofscript
from semitrans.proofscript import (
    AssumeStep,
    BStep,
    CStep,
    MCStep,
    SStep,
    bundled_script_text,
    format_script,
    parse,
    replay,
    resolve_graph,
)

def _script(steps_line, copies="  0>1 1>2", graph="cycle:4", extra_headers=""):
    return (
        f"graph {graph}\n{extra_headers}"
        f"copy A:\n{copies}\nsteps A:\n  {steps_line}\n"
    )


def test_parse_vertex_tokens():
    s = parse(_script("S98(12)5", graph="complete:13", copies="  9>8"))
    step = s.steps[1]
    assert isinstance(step, SStep)
    assert step.vertices == (9, 8, 12, 5)


def test_parse_branch_token():
    s = parse(_script("B9(10) (NC C4)", graph="complete:11", copies="  0>1"))
    step = s.steps[1]
    assert isinstance(step, BStep)
    assert step.edge == (9, 10) and step.new_copy == "C4"


def test_parse_c_and_assume():
    s = parse(_script("C0123, A23 (symmetry)"))
    assert s.steps == (
        MCStep("A"),
        CStep((0, 1, 2, 3)),
        AssumeStep((2, 3), "symmetry"),
    )


def test_parse_label_base():
    s = parse(_script("C1234", copies="  2>3", extra_headers="labels 1\n"))
    assert dict(s.copies)["A"] == ((1, 2),)
    assert s.steps[1] == CStep((0, 1, 2, 3))


@pytest.mark.parametrize(
    "line",
    [
        "X123",            # unknown step kind
        "C012",            # cycle too short
        "S012",            # shortcut too short
        "B01",             # branch without (NC name)
        "B012 (NC Z)",     # branch with three vertices
        "A0",              # assume needs two vertices
        "C0123 trailing",  # junk after vertex run
    ],
)
def test_parse_rejects_bad_steps(line):
    with pytest.raises(ParseError):
        parse(_script(line))


def test_parse_rejects_bad_headers():
    with pytest.raises(ParseError):
        parse("copy A:\n  0>1\nsteps A:\n  C0123\n")  # no graph
    with pytest.raises(ParseError):
        parse("graph cycle:4\ncopy A:\n  0>1\ncopy A:\n  1>2\nsteps A:\n  C0123\n")
    with pytest.raises(ParseError):
        parse("graph cycle:4\ncopy A:\n  0>1\n")  # no steps
    with pytest.raises(ParseError):
        parse(_script("C1234", extra_headers="labels 1\n"))  # token 0 under base 1


def test_parse_error_position():
    try:
        parse("graph cycle:4\ncopy A:\n  0>9x\nsteps A:\n  C0123\n")
    except ParseError as e:
        assert e.line == 3
    else:
        raise AssertionError("expected ParseError")


def test_format_round_trip():
    for name in ("grotzsch", "chvatal"):
        text = bundled_script_text(name)
        script = parse(text)
        canon = format_script(script)
        assert parse(canon) == script
        assert format_script(parse(canon)) == canon


def test_resolve_graph_family_and_file(tmp_path):
    s = parse(_script("C0123"))
    assert resolve_graph(s, ".") == cycle(4)
    path = tmp_path / "square.edges"
    path.write_text("4\n0 1\n0 3\n1 2\n2 3\n", encoding="utf-8")
    s2 = parse(_script("C0123", graph="square.edges"))
    assert resolve_graph(s2, str(tmp_path)) == cycle(4)


def test_replay_c_derives():
    # majority direction on the square forces the last edge backwards;
    # the resulting orientation is fine, so the copy stays open
    text = _script("C0123", copies="  0>1 1>2 0>3")
    report = replay(parse(text))
    assert not report.all_closed
    (outcome,) = report.outcomes
    assert outcome.status == "open"
    assert {arc for _, arc in outcome.derived} == {(3, 2)}
    assert report.assumptions == ()


def test_replay_s_closes():
    text = _script(
        "S0213", copies="  0>2 2>1 1>3 0>3", graph="complete_bipartite:2:3"
    )
    report = replay(parse(text))
    assert report.all_closed
    assert report.outcomes[0].status == "closed-by-S"


def test_replay_contradiction_closes():
    text = _script("C0123", copies="  0>1 1>2 2>3")
    report = replay(parse(text))
    assert report.all_closed
    assert report.outcomes[0].status == "closed-by-contradiction"


def test_replay_branch_and_assume():
    text = (
        "graph complete_bipartite:2:3\n"
        "copy A:\n  0>2 2>1 1>3\n"
        "steps A:\n  A03 (wlog), B04 (NC A2), S0213\n"
        "steps A2:\n  C0214\n"
    )
    report = replay(parse(text))
    assert report.all_closed
    assert {o.name: o.status for o in report.outcomes} == {
        "A": "closed-by-S",
        "A2": "closed-by-contradiction",
    }
    (assumption,) = report.assumptions
    assert assumption.copy == "A" and assumption.arc == (0, 3)
    assert assumption.note == "wlog"


@pytest.mark.parametrize(
    "steps,copies",
    [
        ("C0123", "  0>1"),             # rule fires nothing: no derivation
        ("MC Z, C0123", "  0>1 1>2"),   # unknown copy name
        ("S0123", "  0>1 1>2"),         # S-step arcs not all present
        ("B01 (NC A2)", "  0>1 1>2"),   # branching on an assigned edge
        ("A01 (x)", "  0>1 1>2"),       # assuming an assigned edge
        ("C0123, C0123", "  0>1 1>2 2>3"),  # step after the copy closed
    ],
)
def test_replay_rejects(steps, copies):
    with pytest.raises(StepRejected):
        replay(parse(_script(steps, copies=copies)))


def test_replay_rejects_clique_cycle():
    text = _script("C0123", copies="  0>1 1>2", graph="complete:4")
    with pytest.raises(StepRejected):
        replay(parse(text))


def test_replay_open_copy_reported():
    text = (
        "graph cycle:5\n"
        "copy A:\n  0>1 1>2 2>3\n"
        "steps A:\n  C01234\n"
    )
    report = replay(parse(text))
    assert not report.all_closed
    assert report.outcomes[0].status == "open"
    doc = report.doc()
    assert doc["all_closed"] is False


GROTZSCH_COPIES = {"1", "1a-alt", "1b", "1b-alt", "2", "2a-alt", "2b", "2b-alt"}
CHVATAL_COPIES = set("ABCDEF") | {"B1", "C1", "C2", "C3", "C4", "D1", "E1"}

# the hand proof's 1-based prose assumptions, shifted to generator labels
CHVATAL_ASSUMPTIONS = [
    ("A", (7, 6)),
    ("C", (1, 5)),
    ("C", (1, 8)),
    ("C", (7, 6)),
    ("D", (7, 6)),
    ("E", (1, 5)),
    ("E", (1, 8)),
    ("F", (1, 5)),
    ("F", (1, 8)),
    ("F", (6, 0)),
    ("F", (11, 0)),
    ("F", (7, 2)),
    ("F", (10, 2)),
    ("F", (7, 6)),
]


def test_bundled_grotzsch_closes():
    script = parse(bundled_script_text("grotzsch"))
    assert resolve_graph(script, ".") == grotzsch()
    report = replay(script)
    assert report.all_closed
    assert {o.name for o in report.outcomes} == GROTZSCH_COPIES
    assert report.assumptions == ()


def test_bundled_chvatal_closes():
    script = parse(bundled_script_text("chvatal"))
    assert resolve_graph(script, ".") == chvatal()
    report = replay(script)
    assert report.all_closed
    assert {o.name for o in report.outcomes} == CHVATAL_COPIES
    assert [(a.copy, a.arc) for a in report.assumptions] == CHVATAL_ASSUMPTIONS


def test_replay_trace_mentions_copies():
    report = replay(parse(bundled_script_text("grotzsch")))
    trace = report.trace()
    for name in GROTZSCH_COPIES:
        assert name in trace


def test_kernel_does_not_import_the_search():
    # the replay kernel checks the search's answers, so it must not share its
    # code; semitrans/__init__ imports every module, so sys.modules cannot tell
    with open(proofscript.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
            assert not any(n.split(".")[-1] == "solver" for n in names), names
