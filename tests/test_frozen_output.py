"""Byte-for-byte pins of the CLI's stdout documents.

Each case runs ``semitrans`` in-process and compares stdout, minus the one
timing line (``wall_ms``), with ``tests/golden/<case>.out``.
"""

import pathlib

import pytest

from semitrans.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# arc lists for the verify cases, over cycle:4
ARC_FILES = {
    "shortcut.arcs": "4\n0 1\n0 3\n1 2\n2 3\n",
    "cyclic.arcs": "4\n0 1\n1 2\n2 3\n3 0\n",
}

CASES = {
    "solve_grotzsch": (1, ["solve", "--family", "grotzsch"]),
    "solve_circulant13": (0, ["solve", "--family", "circulant:13:1,5"]),
    "solve_toft7": (0, ["solve", "--family", "toft:7"]),
    "verify_shortcut": (1, ["verify", "--family", "cycle:4",
                            "--orientation", "shortcut.arcs"]),
    "verify_cyclic": (1, ["verify", "--family", "cycle:4",
                          "--orientation", "cyclic.arcs"]),
    "construct_fig4": (0, ["construct", "fig4"]),
}


def _without_timing(text):
    return "".join(ln for ln in text.splitlines(keepends=True) if '"wall_ms"' not in ln)


@pytest.mark.parametrize("case", sorted(CASES))
def test_frozen_stdout(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in ARC_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    want_code, argv = CASES[case]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == want_code
    assert _without_timing(out) == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
