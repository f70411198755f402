"""Layer spans taken from outside the package.

``install`` rebinds module attributes of ``semitrans`` to timing wrappers,
so nothing in the package changes.  A rebinding only catches calls that
look the name up in that module, which is why the same function is wrapped
at several sites: ``find_shortcut`` called by the solver's leaf check is
``solver.leaf.shortcut``, called by ``check_semi_transitive`` it is
``orientation.shortcut``.

Each span records its name, start, end, parent and an optional value taken
from the result (a count, or whether a shortcut was found).  Self time is a
span's duration minus that of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

# the generators the workloads reach
FAMILY_FUNCTIONS = (
    "parse_family_spec", "circulant", "mycielski", "grotzsch", "chvatal", "kneser",
    "kneser83_sub16", "toft",
)


def _found(result) -> bool:
    return result is not None


# (module, attribute, span name, value taken from the result)
BINDINGS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("solver", "short_cycles", "solver.catalog", len),
    ("solver", "Orientation", "solver.leaf.build", None),
    ("solver", "is_acyclic", "solver.leaf.acyclic", None),
    ("solver", "find_shortcut", "solver.leaf.shortcut", _found),
    ("solver", "check_semi_transitive", "solver.recheck", None),
    ("orientation", "is_acyclic", "orientation.acyclic", None),
    ("orientation", "reach_closure", "orientation.closure", None),
    ("orientation", "nonadjacent_ordered_pairs", "orientation.pairs", None),
    ("orientation", "find_shortcut", "orientation.shortcut", _found),
    ("proofscript", "lemma2_propagate", "proofscript.lemma2", None),
    ("proofscript", "parse_family_spec", "families", None),
    ("constructions", "circulant", "families", None),
    ("constructions", "toft", "families", None),
    ("cli", "parse_family_spec", "families", None),
    ("cli", "read_edge_list", "graphs.parse", None),
    ("cli", "read_orientation", "orientation.parse", None),
    ("cli", "check_semi_transitive", "orientation.check", None),
    ("cli", "fig4_orientation", "constructions", None),
    ("cli", "lemma8_orientation", "constructions", None),
    ("cli", "toft_orientation", "constructions", None),
    ("cli", "parse_script", "proofscript.parse", lambda script: len(script.steps)),
    ("cli", "resolve_graph", "proofscript.resolve", None),
    ("cli", "replay", "proofscript.replay", None),
) + tuple(("families", name, "families", None) for name in FAMILY_FUNCTIONS)


class Tracer:
    """Spans kept in memory; ``take`` hands over and clears them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, value]
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, value: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[4] = value(result)
            return result

        return traced

    def take(self) -> list[list]:
        if self._stack:
            raise RuntimeError("take() inside an open span")
        out = self.spans[:]
        self.spans.clear()
        return out


def install(tracer: Tracer, modules: dict) -> Callable[[], None]:
    """Rebind every entry of BINDINGS; returns the function that undoes it."""
    saved = []
    for mod_name, attr, span, value in BINDINGS:
        mod = modules[mod_name]
        orig = getattr(mod, attr)
        saved.append((mod, attr, orig))
        setattr(mod, attr, tracer.wrap(span, orig, value))

    def restore() -> None:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)

    return restore


def summarize(spans: list[list]) -> dict[str, float]:
    """Layer totals of one request (or of set-up), in ms and counts."""
    child_ms = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ms[parent] += (t1 - t0) / 1e6
    dur: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    values: dict[str, int] = defaultdict(int)  # True counts 1
    outer_ms: dict[str, float] = defaultdict(float)  # not nested in the same name
    for i, (name, t0, t1, parent, value) in enumerate(spans):
        ms = (t1 - t0) / 1e6
        dur[name] += ms
        self_ms[name] += ms - child_ms[i]
        calls[name] += 1
        if value is not None:
            values[name] += value
        if parent < 0 or spans[parent][0] != name:
            outer_ms[name] += ms

    def total(*names: str, table=dur) -> float:
        return sum(table[n] for n in names)

    leaf_ms = total("solver.leaf.build", "solver.leaf.acyclic", "solver.leaf.shortcut")
    return {
        "solver.solve.ms": dur["solver.solve"],
        "solver.catalog.ms": dur["solver.catalog"],
        "solver.catalog.cycles": values["solver.catalog"],
        "solver.leaf.ms": leaf_ms,
        "solver.leaf.accepted": calls["solver.leaf.shortcut"] - values["solver.leaf.shortcut"],
        "solver.recheck.ms": dur["solver.recheck"],
        "solver.search.self_ms": dur["solver.solve"] - dur["solver.catalog"] - leaf_ms - dur["solver.recheck"],
        "orientation.acyclic.ms": total("orientation.acyclic", "solver.leaf.acyclic"),
        "orientation.acyclic.calls": total("orientation.acyclic", "solver.leaf.acyclic", table=calls),
        "orientation.closure.ms": dur["orientation.closure"],
        "orientation.closure.calls": calls["orientation.closure"],
        "orientation.pairs.ms": dur["orientation.pairs"],
        "orientation.pairs.calls": calls["orientation.pairs"],
        "orientation.shortcut.self_ms": total("orientation.shortcut", "solver.leaf.shortcut", table=self_ms),
        "orientation.shortcut.calls": total("orientation.shortcut", "solver.leaf.shortcut", table=calls),
        "orientation.shortcut.found": total("orientation.shortcut", "solver.leaf.shortcut", table=values),
        "orientation.parse.ms": dur["orientation.parse"],
        "graphs.parse.ms": dur["graphs.parse"],
        "proofscript.parse.ms": dur["proofscript.parse"],
        "proofscript.steps": values["proofscript.parse"],
        "proofscript.replay.ms": dur["proofscript.replay"],
        "proofscript.lemma2.ms": dur["proofscript.lemma2"],
        "constructions.ms": outer_ms["constructions"],
        "families.ms": outer_ms["families"],
        "cli.self_ms": self_ms["cli"],
        "spans": len(spans),
    }
