"""semitrans benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload refute|find|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The run builds the workload's inputs from the seed, then sends the request
list pass after pass (each request waits for the previous one) until
``--seconds`` have gone by, checking and auditing every answer.  stdout gets
one JSON row per request, a summary line, and last the result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, with the
tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
MODULES = ("families", "graphs", "orientation", "solver", "constructions", "proofscript", "cli", "errors")


def _load_package() -> dict:
    """The ``semitrans`` modules of this checkout, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "semitrans", "__init__.py")):
        sys.stderr.write(f"error: no semitrans package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"semitrans.{name}") for name in MODULES}
    if not os.path.abspath(mods["solver"].__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: semitrans was not imported from {SRC}\n")
        sys.exit(2)
    return mods


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _time_setups(args) -> list[float]:
    """Fresh processes from start to the point where the first request would
    be sent: interpreter start, import, and generating and writing inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", _workdir(args, f"setup{i}")]
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _workdir(args, tag: str) -> str:
    return os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}-{tag}")


class Run:
    def __init__(self, args, mods: dict):
        import tracing
        import workloads

        self.args, self.mods = args, mods
        self.tracing, self.workloads = tracing, workloads
        self.tracer = tracing.Tracer() if args.trace else None
        self.rows: list[dict] = []
        self.attempted = self.failed = 0
        self.audits: dict = {}
        self.counts: dict[int, dict] = {}  # request index -> counters of its first pass
        self.unstable: set[str] = set()
        self.pass_s = {False: [], True: []}  # traced? -> pass wall times
        self.latencies: list[float] = []
        self.layers: list[dict] = []  # per traced pass: layer totals
        self.setup_layers: dict = {}

    def setup(self, workdir: str) -> None:
        restore = self.tracing.install(self.tracer, self.mods) if self.tracer else None
        try:
            self.reqs = self.workloads.build(self.args.workload, self.args.seed, self.mods, workdir)
        finally:
            if restore is not None:
                restore()
        if self.tracer:
            self.setup_layers = self.tracing.summarize(self.tracer.take())

    def one_pass(self, traced: bool) -> None:
        mods, wl, clock = self.mods, self.workloads, time.perf_counter
        restore = None
        solve, cli_main = mods["solver"].solve, mods["cli"].main
        if traced:
            restore = self.tracing.install(self.tracer, mods)
            solve = self.tracer.wrap("solver.solve", solve)
            cli_main = self.tracer.wrap("cli", cli_main)
        outcomes, spans = [], []
        t0 = clock()
        try:
            for req in self.reqs:
                outcomes.append(wl.execute(req, solve, cli_main, clock))
                if traced:
                    spans.append(self.tracer.take())
        finally:
            if restore is not None:
                restore()
        self.pass_s[traced].append(clock() - t0)
        layers = [self.tracing.summarize(one) for one in spans]
        npass = len(self.pass_s[False]) + len(self.pass_s[True])
        for i, (req, out) in enumerate(zip(self.reqs, outcomes)):
            key = (i, wl.fingerprint(out))
            if key not in self.audits:
                self.audits[key] = wl.check(req, out, mods)
            problems = self.audits[key]
            self.attempted += 1
            self.failed += bool(problems)
            if not traced:
                self.latencies.append(out.ms)
            first = self.counts.setdefault(i, out.counters)
            if out.counters != first:
                self.unstable.add(req.name)
            row = {"pass": npass, "traced": traced, "req": req.name, "verdict": out.verdict,
                   "ms": round(out.ms, 4), **out.counters, "ok": not problems}
            if problems:
                row["problems"] = problems
                row["expected"] = f"{req.expect} ({req.source})"
            if traced:
                row["layers"] = {k: round(v, 4) for k, v in layers[i].items() if v}
            self.rows.append(row)
        if traced:
            total = {}
            for one in layers:
                for k, v in one.items():
                    total[k] = total.get(k, 0) + v
            self.layers.append(total)

    def baseline(self) -> dict:
        """Counters of canonical requests against the recorded baseline."""
        report = {}
        for i, req in enumerate(self.reqs):
            want = self.workloads.expected.BASELINE_COUNTS.get(req.name)
            if want is not None:
                got = {k: self.counts[i].get(k) for k in want}
                report[req.name] = {"expected": want, "got": got, "match": got == want}
        return report

    def end_to_end(self, setup_s: list[float]) -> dict:
        lat = self.latencies
        return {
            "wall_s": (statistics.median(self.pass_s[False]), "s"),
            "verdict_ms.p50": (statistics.median(lat), "ms"),
            "verdict_ms.p90": (_percentile(lat, 90), "ms"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        med = {k: statistics.median(p.get(k, 0) for p in self.layers) for k in self.layers[0]}
        counts = self.layers[0]
        nodes = sum(c.get("nodes", 0) for c in self.counts.values())
        props = sum(c.get("propagations", 0) for c in self.counts.values())
        leaves = sum(c.get("leaf_checks", 0) for c in self.counts.values())

        def ratio(a, b):
            return a / b if b else 0.0

        ms, count, r = "ms", "count", "ratio"
        return {
            "solver.search.self_ms": (med["solver.search.self_ms"], ms),
            "solver.nodes": (nodes, count),
            "solver.propagations": (props, count),
            "solver.propagations_per_node": (ratio(props, nodes), r),
            "solver.catalog.ms": (med["solver.catalog.ms"], ms),
            "solver.catalog.cycles": (counts["solver.catalog.cycles"], count),
            "solver.leaf.ms": (med["solver.leaf.ms"], ms),
            "solver.leaf_checks": (leaves, count),
            "solver.leaf.accept_ratio": (ratio(counts["solver.leaf.accepted"], leaves), r),
            "solver.recheck.ms": (med["solver.recheck.ms"], ms),
            "orientation.acyclic.ms": (med["orientation.acyclic.ms"], ms),
            "orientation.acyclic.calls": (counts["orientation.acyclic.calls"], count),
            "orientation.closure.ms": (med["orientation.closure.ms"], ms),
            "orientation.closure.calls": (counts["orientation.closure.calls"], count),
            "orientation.pairs.ms": (med["orientation.pairs.ms"], ms),
            "orientation.pairs.calls": (counts["orientation.pairs.calls"], count),
            "orientation.shortcut.self_ms": (med["orientation.shortcut.self_ms"], ms),
            "orientation.shortcut.calls": (counts["orientation.shortcut.calls"], count),
            "orientation.shortcut.found_ratio": (
                ratio(counts["orientation.shortcut.found"], counts["orientation.shortcut.calls"]), r),
            "orientation.parse.ms": (med["orientation.parse.ms"], ms),
            "graphs.parse.ms": (med["graphs.parse.ms"], ms),
            "proofscript.parse.ms": (med["proofscript.parse.ms"], ms),
            "proofscript.replay.ms": (med["proofscript.replay.ms"], ms),
            "proofscript.lemma2.ms": (med["proofscript.lemma2.ms"], ms),
            "proofscript.steps": (counts["proofscript.steps"], count),
            "constructions.ms": (med["constructions.ms"], ms),
            "cli.self_ms": (med["cli.self_ms"], ms),
            "families.ms": (self.setup_layers["families.ms"], ms),
            "families.request_ms": (med["families.ms"], ms),
            "trace.spans": (counts["spans"], count),
            "trace.overhead_pct": (
                100 * (statistics.median(self.pass_s[True]) / statistics.median(self.pass_s[False]) - 1), "%"),
        }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("refute", "find", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    mods = _load_package()
    if args.setup_only:
        import workloads

        try:
            workloads.build(args.workload, args.seed, mods, args.workdir)
        finally:
            shutil.rmtree(args.workdir, ignore_errors=True)
        return 0

    workdir = _workdir(args, "run")
    try:
        setup_s = [] if args.trace else _time_setups(args)
        run = Run(args, mods)
        run.setup(workdir)
        start = time.perf_counter()
        traced = False
        # Whole passes until the time is up, at least two so that wall_s is a
        # median; with tracing, untraced and traced passes alternate.
        while True:
            run.one_pass(traced)
            if args.trace:
                traced = not traced
                if traced:
                    continue
            elif len(run.pass_s[False]) < 2:
                continue
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for row in run.rows:
        print(json.dumps(row, sort_keys=True))
    summary = {
        "workload": args.workload, "seed": args.seed, "requests": len(run.reqs),
        "pass_s": {"untraced": run.pass_s[False], "traced": run.pass_s[True]},
        "verdict_ms.samples": len(run.latencies),
        "failed_frac": run.failed / run.attempted,
        "counts_repeat": not run.unstable, "counts_differ": sorted(run.unstable),
        "baseline": run.baseline(),
    }
    print(json.dumps({"summary": summary}, sort_keys=True))
    metrics = run.per_layer() if args.trace else run.end_to_end(setup_s)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
