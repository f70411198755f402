import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semitrans
from semitrans import (
    DirectedCycle,
    Graph,
    Orientation,
    circulant,
    cycle,
    read_edge_list,
    verify_certificate,
    write_edge_list,
)
from semitrans.cli import export_dot, main
from semitrans.constructions import fig4_orientation
from semitrans.orientation import read_orientation, write_arc_list
from semitrans.proofscript import bundled_script_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_wall(text):
    return "\n".join(ln for ln in text.splitlines() if '"wall_ms"' not in ln)


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "c13.edges"
    code, stdout, _ = run(capsys, "gen", "--family", "circulant:13:1,5",
                          "--out", str(out))
    assert code == 0 and stdout == ""
    assert read_edge_list(out.read_text()) == circulant(13, [1, 5])
    code, stdout, _ = run(capsys, "gen", "--family", "cycle:5")
    assert code == 0
    assert stdout == write_edge_list(cycle(5))
    code, stdout, _ = run(capsys, "gen", "--family", "cycle:5", "--seed", "7")
    assert code == 2 and stdout == ""


def test_props_chvatal(capsys):
    code, out, _ = run(capsys, "props", "--family", "chvatal", "--chromatic")
    assert code == 0
    assert out == "n=12, m=24, girth=4, regular=4, chi=4\n"


def test_props_without_chromatic(capsys):
    code, out, _ = run(capsys, "props", "--family", "cycle:7")
    assert code == 0
    assert out == "n=7, m=7, girth=7, regular=2\n"


def test_props_forest_and_irregular(capsys):
    code, out, _ = run(capsys, "props", "--family", "toeplitz:5:1")
    assert code == 0
    assert out == "n=5, m=4, girth=inf, regular=no\n"


def test_props_from_file(tmp_path, capsys):
    p = tmp_path / "g.edges"
    p.write_text(write_edge_list(cycle(4)), encoding="utf-8")
    code, out, _ = run(capsys, "props", "--graph", str(p))
    assert code == 0 and out.startswith("n=4, m=4, girth=4")


def test_props_needs_input(capsys):
    code, _, err = run(capsys, "props")
    assert code == 2 and "error" in err


def test_verify_semi_transitive(tmp_path, capsys):
    arcs = tmp_path / "fig4.arcs"
    arcs.write_text(write_arc_list(fig4_orientation()), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--family", "circulant:13:1,5",
                       "--orientation", str(arcs))
    assert code == 0
    assert json.loads(out) == {"status": "semi-transitive"}


def test_verify_cyclic(tmp_path, capsys):
    arcs = tmp_path / "spin.arcs"
    o = Orientation(cycle(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    arcs.write_text(write_arc_list(o), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--family", "cycle:4",
                       "--orientation", str(arcs))
    assert code == 1
    assert json.loads(out)["status"] == "cyclic"


def test_verify_cycle_upstream_of_smallest_vertex(tmp_path, capsys):
    # 0 hangs below the cycle 1->2->3->1: the witness must still be the cycle
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    o = Orientation(g, [(1, 2), (2, 3), (3, 1), (1, 0)])
    edges, arcs = tmp_path / "g.edges", tmp_path / "o.arcs"
    edges.write_text(write_edge_list(g), encoding="utf-8")
    arcs.write_text(write_arc_list(o), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--graph", str(edges),
                         "--orientation", str(arcs))
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc == {"status": "cyclic", "cycle": [1, 2, 3]}
    assert verify_certificate(g, o, DirectedCycle(tuple(doc["cycle"])))


def test_verify_rejects_mismatched_file(tmp_path, capsys):
    arcs = tmp_path / "bad.arcs"
    arcs.write_text("3\n0 1\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--family", "cycle:4",
                       "--orientation", str(arcs))
    assert code == 2 and "error" in err


def test_solve_sat(capsys):
    code, out, _ = run(capsys, "solve", "--family", "cycle:5")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "sat" and len(doc["arcs"]) == 5


def test_solve_unsat(capsys):
    code, out, _ = run(capsys, "solve", "--family", "grotzsch")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "unsat"
    assert doc["nodes"] > 0 and "arcs" not in doc


def test_solve_node_limit_flag(capsys):
    code, out, _ = run(capsys, "solve", "--family", "chvatal",
                       "--node-limit", "1")
    assert code == 3
    assert json.loads(out)["verdict"] == "unknown"
    code, out, err = run(capsys, "solve", "--family", "chvatal",
                         "--node-limit", "-1")
    assert code == 2 and out == "" and "node_limit" in err


def test_solve_config_flags(capsys):
    code, out, _ = run(capsys, "solve", "--family", "cycle:5",
                       "--catalog-len", "4", "--heuristic", "static_degree",
                       "--orientation-out", "/dev/null")
    assert code == 0
    cfg = json.loads(out)["config"]
    assert cfg["catalog_max_len"] == 4
    assert cfg["branch_heuristic"] == "static_degree"
    assert "use_peel" not in cfg
    assert run(capsys, "solve", "--family", "cycle:5", "--use-peel")[0] == 2
    assert cfg["symmetry_break"] is True
    assert run(capsys, "solve", "--family", "cycle:5",
               "--no-symmetry-break")[0] == 2


def test_module_entry_point_is_clean():
    # running the cli module must not warn that the package imported it first
    env = dict(os.environ, PYTHONPATH=str(Path(semitrans.__file__).parents[1]))
    r = subprocess.run(
        [sys.executable, "-m", "semitrans.cli", "props", "--family", "cycle:5"],
        capture_output=True, text=True, env=env,
    )
    assert (r.returncode, r.stderr) == (0, "")


def test_solve_rejects_bad_catalog_len(capsys):
    code, _, _ = run(capsys, "solve", "--family", "cycle:5",
                     "--catalog-len", "9")
    assert code == 2


def test_construct_fig4(tmp_path, capsys):
    out = tmp_path / "fig4.arcs"
    code, stdout, _ = run(capsys, "construct", "fig4", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["status"] == "semi-transitive"
    o = read_orientation(out.read_text(), circulant(13, [1, 5]))
    assert o == fig4_orientation()


@pytest.mark.parametrize("name", ["lemma8:7", "toft:5", "coloring:cycle:7:3"])
def test_construct_families(name, capsys):
    code, stdout, _ = run(capsys, "construct", name)
    assert code == 0
    assert '"semi-transitive"' in stdout
    # arc list precedes the certificate
    assert stdout.splitlines()[0].isdigit()


@pytest.mark.parametrize(
    "name",
    ["coloring:grotzsch:3", "lemma8:4", "nosuch", "fig4:9", "toft:6",
     "lemma8:abc", "toft:x", "coloring:cycle:5:x"],
)
def test_construct_rejects(name, capsys):
    code, _, err = run(capsys, "construct", name)
    assert code == 2 and "error" in err


def test_prove_bundled(tmp_path, capsys):
    for name in ("grotzsch", "chvatal"):
        path = tmp_path / f"{name}.proof"
        path.write_text(bundled_script_text(name), encoding="utf-8")
        code, out, err = run(capsys, "prove", "--script", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["all_closed"] is True
        assert err  # the derivation trace goes to stderr


def test_prove_open_script(tmp_path, capsys):
    path = tmp_path / "open.proof"
    path.write_text(
        "graph cycle:5\ncopy A:\n  0>1 1>2 2>3\nsteps A:\n  C01234\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "prove", "--script", str(path))
    assert code == 1
    assert json.loads(out)["all_closed"] is False


def test_prove_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.proof"
    path.write_text("graph cycle:4\ncopy A:\n  0>1\nsteps A:\n  X99\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "prove", "--script", str(path))
    assert code == 2 and "error" in err


def test_export_undirected(capsys):
    code, out, _ = run(capsys, "export", "--family", "cycle:3")
    assert code == 0
    assert out == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n"


def test_export_oriented(tmp_path, capsys):
    arcs = tmp_path / "o.arcs"
    o = Orientation(cycle(3), [(0, 1), (1, 2), (0, 2)])
    arcs.write_text(write_arc_list(o), encoding="utf-8")
    code, out, _ = run(capsys, "export", "--family", "cycle:3",
                       "--orientation", str(arcs))
    assert code == 0
    assert out == "digraph G {\n  0;\n  1;\n  2;\n  0 -> 1;\n  0 -> 2;\n  1 -> 2;\n}\n"


def test_export_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty.edges"
    p.write_text("0\n", encoding="utf-8")
    code, out, _ = run(capsys, "export", "--graph", str(p))
    assert code == 0 and out == "graph G {\n}\n"


def test_export_dot_function():
    text = export_dot(cycle(3))
    assert text.startswith("graph G {") and text.endswith("}\n")


def test_usage_errors(capsys):
    assert run(capsys, "solve", "--family", "nosuch:3")[0] == 2
    assert run(capsys, "props", "--graph", "/nonexistent/file")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


def test_resource_limit_exit_code(capsys):
    code, _, err = run(capsys, "props", "--family", "kneser:8:3", "--chromatic")
    assert code == 3 and "error" in err


def test_solve_output_deterministic(capsys):
    a = run(capsys, "solve", "--family", "circulant:13:1,5")[1]
    b = run(capsys, "solve", "--family", "circulant:13:1,5")[1]
    assert _strip_wall(a) == _strip_wall(b)


def test_construct_output_deterministic(capsys):
    a = run(capsys, "construct", "fig4")[1]
    b = run(capsys, "construct", "fig4")[1]
    assert a == b


@pytest.mark.parametrize("exc,code", [
    (RecursionError("maximum recursion depth exceeded"), 3),
    (MemoryError(), 3),
    (ValueError("unexpected"), 4),
    (AssertionError("solver produced an unverified orientation"), 4),
])
def test_last_resort_exit_codes(monkeypatch, capsys, exc, code):
    # an unexpected failure must never pass for a verdict (0 or 1)
    import semitrans.cli as cli

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "solve", boom)
    got, out, err = run(capsys, "solve", "--family", "cycle:5")
    assert got == code and out == ""
    assert err.startswith("error: ") and type(exc).__name__ in err
