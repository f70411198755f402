"""The three workloads: their requests, inputs and correctness checks.

* ``refute``: ``solve`` on graphs with no semi-transitive orientation.  No
  leaf is ever reached, so the time goes to the catalog, propagation and
  branching; a leaf-side change should not move this workload.
* ``find``: ``solve`` on graphs that have one.  ``toft:7`` and ``toft:9`` in
  canonical labels are leaf-bound (thousands of failed leaf checks); the
  many small requests exercise the catalog and the search.
* ``certify``: no search.  ``verify``, ``construct`` and ``prove`` through
  ``semitrans.cli.main``: a few full detector scans, many early-exit
  refutations with witnesses, and the proof-replay kernel.

Generated instances use fixed sizes per position in the list, so that the
seed changes the instances but hardly their cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import expected
import generators

WORKLOADS = ("refute", "find", "certify")

# refute: paper instances extended by 8..12 vertices of degree 5, per base.
# Only the two cheap bases are extended, many times: the latency percentiles
# are taken over the extensions, and with fewer samples, or the heavier
# tails of kneser83sub16 and circulant:14 extensions, they depend on the seed.
EXTENSION_BASES = ("grotzsch", "chvatal")
EXTENSIONS_PER_BASE = 120
EXTENSION_DEGREE = 5
# find: random 3-colourable graphs, n = 30..45 with 4.5 n edges.
COLOURABLE_GRAPHS = 30
# certify: sizes of the closed-form and generated orientations.
TOFT_VERIFY = (15, 21, 25)
LEMMA8_VERIFY = 90
COLOURING_VERIFY = 32
# The median latency lies in the shortcut group; with this many of them it
# sits near the group's centre, where the seed hardly moves it.
PLANTED_SHORTCUTS = 240
PLANTED_N, PLANTED_M = 40, 120
# No planted-cycle requests: ``is_acyclic``'s witness walk in
# src/semitrans/orientation.py raises ValueError when the smallest left-over
# vertex lies downstream of the cycle, and most planted cycles hit that, so
# ``verify`` crashes on them.  test_perfbench.py keeps the defect in view;
# add ``generators.planted_cycle`` requests here once it is fixed.
CONSTRUCT = ("fig4", "lemma8:60", "toft:11")


@dataclass
class Request:
    name: str
    source: str
    expect: str  # solve: sat | unsat; verify/construct: a status; prove: closed
    graph: object
    argv: list[str] | None = None  # None: call solve(graph) directly
    arcs: list | None = None  # the orientation a verify request checks
    assumptions: list | None = None


@dataclass
class Outcome:
    ms: float
    verdict: str = "error"
    result: object = None  # solve: the SolveResult; cli: (exit code, stdout)
    error: str = ""
    counters: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def build(workload: str, seed: int, mods: dict, workdir: str) -> list[Request]:
    """Generate the workload's requests and write every input to ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    reqs = {"refute": _refute, "find": _find, "certify": _certify}[workload](seed, mods, workdir)
    # Host noise comes in bursts; spreading the small requests over the pass
    # keeps a burst from shifting all of them, and with them the percentiles.
    _rng(workload, seed, "order").shuffle(reqs)
    write_edge_list = mods["graphs"].write_edge_list
    for i, req in enumerate(reqs):
        if req.argv is not None:  # a cli request's inputs are the files in its argv
            continue
        with open(os.path.join(workdir, f"r{i:03d}.edges"), "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(req.graph))
    return reqs


def _refute(seed: int, mods: dict, workdir: str) -> list[Request]:
    fam = mods["families"]
    reqs = [Request(spec, src, "unsat", fam.parse_family_spec(spec)) for spec, src in expected.UNSAT.items()]
    rng = _rng("refute", seed, "extensions")
    for base in EXTENSION_BASES:
        g = fam.parse_family_spec(base)
        for i in range(EXTENSIONS_PER_BASE):
            extra = 8 + i % 5
            h, _ = generators.induced_extension(rng, g, extra, EXTENSION_DEGREE)
            src = f"induced-subgraph inheritance from {base} ({expected.UNSAT[base]})"
            reqs.append(Request(f"ext:{base}+{extra}#{i}", src, "unsat", h))
    return reqs


def _find(seed: int, mods: dict, workdir: str) -> list[Request]:
    fam = mods["families"]
    specs = ["toft:7", "toft:9"] + expected.four_regular_circulants()
    reqs = [
        Request(spec, expected.SAT.get(spec, expected.CRITERION7_SOURCE), "sat", fam.parse_family_spec(spec))
        for spec in specs
    ]
    rng = _rng("find", seed, "colourable")
    for i in range(COLOURABLE_GRAPHS):
        n = 30 + i % 16
        g, _ = generators.random_three_colourable(rng, n, 9 * n // 2)
        reqs.append(Request(f"3col:{n}#{i}", "3-colourability", "sat", g))
    return reqs


def _certify(seed: int, mods: dict, workdir: str) -> list[Request]:
    fam, cons, ori = mods["families"], mods["constructions"], mods["orientation"]
    reqs: list[Request] = []

    def verify(name, source, status, g, arcs, family=None):
        arc_path = os.path.join(workdir, f"v{len(reqs):03d}.arcs")
        with open(arc_path, "w", encoding="utf-8") as fh:
            fh.write(ori.write_arc_list(ori.Orientation(g, arcs)))
        if family is None:
            edge_path = os.path.join(workdir, f"v{len(reqs):03d}.edges")
            with open(edge_path, "w", encoding="utf-8") as fh:
                fh.write(mods["graphs"].write_edge_list(g))
            where = ["--graph", edge_path]
        else:
            where = ["--family", family]
        argv = ["verify", *where, "--orientation", arc_path]
        reqs.append(Request(name, source, status, g, argv, list(arcs)))

    for n in TOFT_VERIFY:
        o = cons.toft_orientation(n)
        verify(f"verify:toft:{n}", expected.CONSTRUCTION_SOURCES["toft"], "semi-transitive",
               o.graph, o.arcs, f"toft:{n}")
    o = cons.lemma8_orientation(LEMMA8_VERIFY)
    verify(f"verify:lemma8:{LEMMA8_VERIFY}", expected.CONSTRUCTION_SOURCES["lemma8"],
           "semi-transitive", o.graph, o.arcs, f"circulant:{LEMMA8_VERIFY}:1,2")
    o = cons.fig4_orientation()
    verify("verify:fig4", expected.CONSTRUCTION_SOURCES["fig4"], "semi-transitive",
           o.graph, o.arcs, "circulant:13:1,5")

    rng = _rng("certify", seed, "colouring")
    for i in range(COLOURING_VERIFY):
        n = 30 + i % 16
        g, colours = generators.random_three_colourable(rng, n, 9 * n // 2)
        verify(f"verify:3col:{n}#{i}", "3-colourability: colour-ordered orientation",
               "semi-transitive", g, generators.colouring_arcs(g, colours))
    rng = _rng("certify", seed, "planted")
    for i in range(PLANTED_SHORTCUTS):
        g, arcs, _ = generators.planted_shortcut(rng, PLANTED_N, PLANTED_M)
        verify(f"verify:shortcut#{i}", "planted shortcut", "shortcut", g, arcs)

    for name in CONSTRUCT:
        kind, _, arg = name.partition(":")
        g = {"fig4": lambda: fam.circulant(13, [1, 5]),
             "lemma8": lambda: fam.circulant(int(arg), [1, 2]),
             "toft": lambda: fam.toft(int(arg))}[kind]()
        reqs.append(Request(f"construct:{name}", expected.CONSTRUCTION_SOURCES[kind],
                            "semi-transitive", g, ["construct", name]))

    for name, trust in expected.PROOF_ASSUMPTIONS.items():
        path = os.path.join(workdir, f"{name}.proof")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mods["proofscript"].bundled_script_text(name))
        reqs.append(Request(f"prove:{name}", expected.PROOF_SOURCE, "closed",
                            fam.parse_family_spec(name), ["prove", "--script", path],
                            assumptions=trust))
    return reqs


# -- running and checking ----------------------------------------------------


def execute(req: Request, solve, cli_main, clock) -> Outcome:
    """One timed request.  ``solve`` and ``cli_main`` may be traced wrappers."""
    if req.argv is None:
        t0 = clock()
        try:
            res = solve(req.graph)
        except Exception as exc:  # a failed request is counted, not fatal
            return Outcome((clock() - t0) * 1e3, error=f"{type(exc).__name__}: {exc}")
        ms = (clock() - t0) * 1e3
        st = res.stats
        counters = {"nodes": st.nodes, "propagations": st.propagations, "leaf_checks": st.leaf_checks}
        return Outcome(ms, res.verdict, res, counters=counters)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = clock()
        try:
            code = cli_main(req.argv)
        except Exception as exc:
            return Outcome((clock() - t0) * 1e3, error=f"{type(exc).__name__}: {exc}")
        ms = (clock() - t0) * 1e3
    text = out.getvalue()
    return Outcome(ms, f"exit{code}", (code, text), counters={"exit": code})


def _doc_of(text: str) -> tuple[str, dict]:
    """Split cli output into the text before the JSON document and the document."""
    at = text.find("{")
    if at < 0:
        raise ValueError("no JSON document in the output")
    return text[:at], json.loads(text[at:])


def _verdict_from_doc(ori, doc: dict):
    status = doc.get("status")
    if status == "semi-transitive":
        return ori.SemiTransitive()
    if status == "cyclic":
        return ori.DirectedCycle(tuple(doc["cycle"]))
    if status == "shortcut":
        path = tuple(doc["path"])
        i, j = sorted(path.index(v) for v in doc["nonadjacent_pair"])
        return ori.Shortcut(ori.ShortcutCertificate(path, (i, j)))
    raise ValueError(f"unknown status {status!r}")


def check(req: Request, out: Outcome, mods: dict) -> list[str]:
    """Why the outcome is wrong; empty when it is right.  Every certificate is
    audited with ``verify_certificate``."""
    if out.error:
        return [f"error: {out.error}"]
    ori = mods["orientation"]
    if req.argv is None:
        if out.verdict == "unknown":
            return ["hit a limit"]
        if out.verdict != req.expect:
            return [f"verdict {out.verdict}, expected {req.expect}"]
        if out.verdict == "sat" and not ori.verify_certificate(
            req.graph, out.result.orientation, ori.SemiTransitive()
        ):
            return ["sat orientation fails its audit"]
        return []
    code, text = out.result
    want_code = 0 if req.expect in ("semi-transitive", "closed") else 1
    if code != want_code:
        return [f"exit code {code}, expected {want_code}"]
    try:
        head, doc = _doc_of(text)
        if req.argv[0] == "prove":
            trust = [(a["copy"], tuple(a["arc"])) for a in doc["assumptions"]]
            if doc["all_closed"] is not True:
                return ["proof left copies open"]
            if trust != req.assumptions:
                return [f"trust list {trust} differs from {req.assumptions}"]
            return []
        if doc["status"] != req.expect:
            return [f"status {doc['status']}, expected {req.expect}"]
        if req.argv[0] == "construct":
            o = ori.read_orientation(head, req.graph)
        else:
            o = ori.Orientation(req.graph, req.arcs)
        if not ori.verify_certificate(req.graph, o, _verdict_from_doc(ori, doc)):
            return [f"{doc['status']} certificate fails its audit"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    except mods["errors"].SemitransError as exc:
        return [f"output rejected: {type(exc).__name__}: {exc}"]
    return []


def fingerprint(out: Outcome):
    """Identical fingerprints need only one audit."""
    if out.error:
        return ("error", out.error)
    if isinstance(out.result, tuple):
        return out.result
    o = getattr(out.result, "orientation", None)
    return (out.verdict, o.arcs if o is not None else None)
