"""Parser and replay kernel for case-analysis proof scripts.

A script names a graph, declares partially oriented copies, and replays
deduction steps against them:

* ``C<vseq>``  — apply the cycle rule to the listed cycle; it must derive at
  least one new arc or close the copy with a contradiction.
* ``B<u><v> (NC <name>)`` — branch: the current copy continues with u->v, a
  new copy (named) is created with v->u.
* ``S<vseq>`` — the listed vertices form a directed path whose first vertex
  also has the arc to the last, with some pair non-adjacent: a shortcut,
  closing the copy.
* ``MC <name>`` — switch to a pending copy.
* ``A<u><v> [(note)]`` — assume the arc u->v; recorded as an explicit trust
  obligation (these encode prose symmetry arguments, which are not
  mechanized).

A vertex token is one digit, or several digits in parentheses: ``S98(12)5``
reads as the vertex list 9, 8, 12, 5.  The optional ``labels <base>`` header
shifts every vertex token down by ``base``, so scripts can keep 1-based
source labels over 0-based graphs.

File grammar::

    graph <family-spec-or-path>
    labels <base>              # optional, default 0
    copy <NAME>:               # arc lines u>v, several per line allowed
      2>3 3>4
    steps <NAME>:              # implicit "MC <NAME>", then step chunks
      C1234, A87 (wlog)
      S2389

``#`` starts a comment; commas and newlines both separate steps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence, Union

from .errors import BadParameters, ParseError, StepRejected
from .families import parse_family_spec
from .graphs import Graph, is_clique, read_edge_list
from .orientation import PartialOrientation

Arc = tuple[int, int]


@dataclass(frozen=True)
class MCStep:
    name: str


@dataclass(frozen=True)
class CStep:
    cycle: tuple[int, ...]


@dataclass(frozen=True)
class BStep:
    edge: Arc  # current copy keeps edge[0] -> edge[1]
    new_copy: str


@dataclass(frozen=True)
class SStep:
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class AssumeStep:
    arc: Arc
    note: str = ""


Step = Union[MCStep, CStep, BStep, SStep, AssumeStep]


@dataclass(frozen=True)
class Script:
    graph_ref: str
    label_base: int
    copies: tuple[tuple[str, tuple[Arc, ...]], ...]
    steps: tuple[Step, ...]


_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _scan_vertices(
    chunk: str, pos: int, lineno: int, col0: int, base: int
) -> tuple[list[int], int]:
    """Read vertex tokens (digit or parenthesized digits) from chunk[pos:]."""
    out: list[int] = []
    while pos < len(chunk):
        ch = chunk[pos]
        if ch.isdigit():
            out.append(int(ch) - base)
            pos += 1
        elif ch == "(":
            end = chunk.find(")", pos)
            digits = chunk[pos + 1 : end] if end != -1 else ""
            if end == -1 or not digits.isdigit():
                raise ParseError("bad parenthesized vertex", lineno, col0 + pos + 1)
            out.append(int(digits) - base)
            pos = end + 1
        else:
            break
    for v in out:
        if v < 0:
            raise ParseError(
                f"vertex token below label base {base}", lineno, col0 + 1
            )
    return out, pos


def _parse_step_chunk(chunk: str, lineno: int, col0: int, base: int) -> Step:
    body = chunk.strip()
    shift = chunk.index(body[0]) if body else 0
    col0 += shift
    if body.startswith("MC"):
        name = body[2:].strip()
        if not name or not set(name) <= _NAME_CHARS:
            raise ParseError("MC needs a copy name", lineno, col0 + 1)
        return MCStep(name)
    kind = body[0] if body else ""
    if kind not in "CBSA":
        raise ParseError(f"unknown step {body!r}", lineno, col0 + 1)
    vs, pos = _scan_vertices(body, 1, lineno, col0, base)
    rest = body[pos:].strip()
    if kind == "C" or kind == "S":
        if rest:
            raise ParseError(f"trailing text {rest!r}", lineno, col0 + pos + 1)
        if len(vs) < 4:
            raise ParseError(f"{kind}-step needs >= 4 vertices", lineno, col0 + 1)
        return CStep(tuple(vs)) if kind == "C" else SStep(tuple(vs))
    if len(vs) != 2:
        raise ParseError(f"{kind}-step needs exactly 2 vertices", lineno, col0 + 1)
    if kind == "B":
        if not (rest.startswith("(NC") and rest.endswith(")")):
            raise ParseError("branch needs (NC <name>)", lineno, col0 + pos + 1)
        name = rest[3:-1].strip()
        if not name or not set(name) <= _NAME_CHARS:
            raise ParseError("bad branch copy name", lineno, col0 + pos + 1)
        return BStep((vs[0], vs[1]), name)
    note = ""
    if rest:
        if not (rest.startswith("(") and rest.endswith(")")):
            raise ParseError("assume note must be parenthesized", lineno, col0 + pos + 1)
        note = rest[1:-1].strip()
    return AssumeStep((vs[0], vs[1]), note)


def _parse_arc_token(tok: str, lineno: int, col0: int, base: int) -> Arc:
    vs, pos = _scan_vertices(tok, 0, lineno, col0, base)
    if len(vs) == 1 and pos < len(tok) and tok[pos] == ">":
        vs2, pos2 = _scan_vertices(tok, pos + 1, lineno, col0, base)
        if len(vs2) == 1 and pos2 == len(tok):
            return (vs[0], vs2[0])
    raise ParseError(f"expected arc 'u>v', got {tok!r}", lineno, col0 + 1)


def parse(text: str) -> Script:
    graph_ref: str | None = None
    label_base = 0
    copies: list[tuple[str, list[Arc]]] = []
    steps: list[Step] = []
    mode: str | None = None  # None | "copy" | "steps"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(stripped)
        head = stripped.split(None, 1)
        keyword = head[0].lower()
        if keyword in ("graph", "labels") and len(head) == 2:
            if keyword == "graph":
                graph_ref = head[1].strip()
            else:
                try:
                    label_base = int(head[1])
                except ValueError:
                    raise ParseError("labels needs an integer", lineno, indent + 1)
            mode = None
            continue
        if keyword in ("copy", "steps") and stripped.endswith(":"):
            name = stripped[len(keyword) : -1].strip()
            if not name or not set(name) <= _NAME_CHARS:
                raise ParseError(f"bad {keyword} name", lineno, indent + 1)
            if keyword == "copy":
                if any(n == name for n, _ in copies):
                    raise ParseError(f"duplicate copy {name!r}", lineno, indent + 1)
                copies.append((name, []))
                mode = "copy"
            else:
                steps.append(MCStep(name))
                mode = "steps"
            continue
        if mode == "copy":
            col = indent
            for tok in stripped.replace(",", " ").split():
                copies[-1][1].append(_parse_arc_token(tok, lineno, col, label_base))
                col = line.index(tok, col) + len(tok)
            continue
        if mode == "steps":
            col = indent
            for chunk in line.split(","):
                if chunk.strip():
                    steps.append(_parse_step_chunk(chunk, lineno, col, label_base))
                col += len(chunk) + 1
            continue
        raise ParseError(f"unexpected line {stripped!r}", lineno, indent + 1)

    if graph_ref is None:
        raise ParseError("missing 'graph' header", 1, 1)
    if not steps:
        raise ParseError("script has no steps", 1, 1)
    return Script(
        graph_ref,
        label_base,
        tuple((n, tuple(a)) for n, a in copies),
        tuple(steps),
    )


def _fmt_vertex(v: int, base: int) -> str:
    label = v + base
    return str(label) if 0 <= label <= 9 else f"({label})"


def format_script(script: Script) -> str:
    """Canonical text form; parsing it back gives an equal Script."""
    base = script.label_base
    lines = [f"graph {script.graph_ref}"]
    if base:
        lines.append(f"labels {base}")
    for name, arcs in script.copies:
        lines.append(f"copy {name}:")
        for t, h in arcs:
            lines.append(f"  {_fmt_vertex(t, base)}>{_fmt_vertex(h, base)}")
    steps = list(script.steps)
    prev_block: str | None = None
    for step in steps:
        if isinstance(step, MCStep):
            lines.append(f"steps {step.name}:")
            prev_block = step.name
            continue
        if prev_block is None:  # steps before any MC: not produced by format
            raise BadParameters("script steps must start with a copy switch")
        if isinstance(step, CStep):
            lines.append("  C" + "".join(_fmt_vertex(v, base) for v in step.cycle))
        elif isinstance(step, SStep):
            lines.append("  S" + "".join(_fmt_vertex(v, base) for v in step.vertices))
        elif isinstance(step, BStep):
            u, v = step.edge
            lines.append(
                f"  B{_fmt_vertex(u, base)}{_fmt_vertex(v, base)} (NC {step.new_copy})"
            )
        else:
            u, v = step.arc
            note = f" ({step.note})" if step.note else ""
            lines.append(f"  A{_fmt_vertex(u, base)}{_fmt_vertex(v, base)}{note}")
    return "\n".join(lines) + "\n"


def resolve_graph(script: Script, base_dir: str = ".") -> Graph:
    """Family spec first; otherwise the reference is a path to an edge list."""
    try:
        return parse_family_spec(script.graph_ref)
    except BadParameters:
        path = os.path.join(base_dir, script.graph_ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return read_edge_list(fh.read())
        raise


@dataclass(frozen=True)
class Assumption:
    copy: str
    arc: Arc
    note: str


@dataclass
class CopyOutcome:
    name: str
    status: str = "open"  # open | closed-by-S | closed-by-contradiction
    derived: list[tuple[int, Arc]] = field(default_factory=list)


@dataclass(frozen=True)
class ReplayReport:
    outcomes: tuple[CopyOutcome, ...]
    assumptions: tuple[Assumption, ...]
    all_closed: bool

    def doc(self) -> dict:
        return {
            "all_closed": self.all_closed,
            "copies": [
                {
                    "name": c.name,
                    "status": c.status,
                    "derived": [[step, list(arc)] for step, arc in c.derived],
                }
                for c in self.outcomes
            ],
            "assumptions": [
                {"copy": a.copy, "arc": list(a.arc), "note": a.note}
                for a in self.assumptions
            ],
        }

    def trace(self) -> str:
        lines = []
        for c in self.outcomes:
            lines.append(f"copy {c.name}: {c.status}")
            for step, (t, h) in c.derived:
                lines.append(f"  step {step}: derived {t}->{h}")
        for a in self.assumptions:
            t, h = a.arc
            note = f" ({a.note})" if a.note else ""
            lines.append(f"assumed in {a.copy}: {t}->{h}{note}")
        lines.append("verdict: " + ("all branches closed" if self.all_closed else "open branches remain"))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Contradiction:
    reason: str
    cycle: tuple[int, ...] | None = None


def lemma2_propagate(
    g: Graph, p: PartialOrientation, cycles: Sequence[tuple[int, ...]]
) -> tuple[Union[PartialOrientation, Contradiction], list[tuple[int, int]]]:
    """Run the cycle rule to fixpoint over a copy of ``p``.

    Per cycle and traversal direction with f edges assigned along it:
    f >= m-1 is a contradiction; f = m-2 forces every unassigned edge of the
    cycle the opposite way.  Derived arcs are reported in derivation order.
    """
    q = p.copy()
    derived: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for cyc in cycles:
            mlen = len(cyc)
            along = against = 0
            free: list[tuple[int, int]] = []
            for t in range(mlen):
                u, v = cyc[t], cyc[(t + 1) % mlen]
                d = q.direction_of(u, v)
                if d is None:
                    free.append((u, v))
                elif d == (u, v):
                    along += 1
                else:
                    against += 1
            if along >= mlen - 1 or against >= mlen - 1:
                return Contradiction("cycle rule", cyc), derived
            if along == mlen - 2 and free:
                for u, v in free:
                    q.assign(v, u)
                    derived.append((v, u))
                changed = True
            elif against == mlen - 2 and free:
                for u, v in free:
                    q.assign(u, v)
                    derived.append((u, v))
                changed = True
    return q, derived


def check_S_step(p: PartialOrientation, vertices: tuple[int, ...]) -> tuple[bool, str]:
    """True iff the listed vertices witness a shortcut under assigned arcs."""
    vs = list(vertices)
    if len(vs) < 4:
        return False, "a shortcut path needs at least 4 vertices"
    if len(set(vs)) != len(vs):
        return False, "path vertices must be distinct"
    g = p.graph
    if any(not (0 <= v < g.n) for v in vs):
        return False, "vertex out of range"
    for t in range(len(vs) - 1):
        if not p.has_arc(vs[t], vs[t + 1]):
            return False, f"missing path arc {vs[t]}->{vs[t + 1]}"
    if not p.has_arc(vs[0], vs[-1]):
        return False, f"missing shortcutting arc {vs[0]}->{vs[-1]}"
    if is_clique(g, vs):
        return False, "all listed vertices are pairwise adjacent"
    return True, ""


def _state_dump(name: str, p: PartialOrientation) -> str:
    arcs = ", ".join(f"{t}->{h}" for t, h in sorted(p.dirs.values()))
    return f"[copy {name}: {arcs}]"


def replay(script: Script, graph: Graph | None = None, base_dir: str = ".") -> ReplayReport:
    g = graph if graph is not None else resolve_graph(script, base_dir)
    copies: dict[str, PartialOrientation] = {}
    outcomes: dict[str, CopyOutcome] = {}
    assumptions: list[Assumption] = []

    def reject(idx: int, step: Step, why: str, name: str | None = None) -> StepRejected:
        dump = _state_dump(name, copies[name]) if name in copies else ""
        return StepRejected(f"step {idx} {step}: {why} {dump}".rstrip())

    for name, arcs in script.copies:
        po = PartialOrientation(g)
        for t, h in arcs:
            if not (0 <= t < g.n and 0 <= h < g.n) or not g.adjacent(t, h):
                raise StepRejected(f"copy {name}: arc {t}->{h} is not over an edge")
            po.assign(t, h)
        copies[name] = po
        outcomes[name] = CopyOutcome(name)

    current: str | None = None
    for idx, step in enumerate(script.steps):
        if isinstance(step, MCStep):
            if step.name not in copies:
                raise reject(idx, step, f"unknown copy {step.name!r}")
            if outcomes[step.name].status != "open":
                raise reject(idx, step, f"copy {step.name!r} already closed")
            current = step.name
            continue
        if current is None:
            raise reject(idx, step, "no open copy selected")
        po = copies[current]
        out = outcomes[current]

        if isinstance(step, CStep):
            cyc = step.cycle
            if len(set(cyc)) != len(cyc):
                raise reject(idx, step, "cycle vertices must be distinct", current)
            mlen = len(cyc)
            for t in range(mlen):
                u, v = cyc[t], cyc[(t + 1) % mlen]
                if not (0 <= u < g.n and 0 <= v < g.n) or not g.adjacent(u, v):
                    raise reject(idx, step, f"{u}-{v} is not an edge", current)
            if is_clique(g, cyc):
                raise reject(idx, step, "cycle vertex set induces a clique", current)
            result, derived = lemma2_propagate(g, po, (cyc,))
            if isinstance(result, Contradiction):
                out.derived.extend((idx, a) for a in derived)
                out.status = "closed-by-contradiction"
                current = None
                continue
            if not derived:
                raise reject(idx, step, "cycle rule fired no derivation", current)
            copies[current] = result
            out.derived.extend((idx, a) for a in derived)
            continue

        if isinstance(step, BStep):
            u, v = step.edge
            if not (0 <= u < g.n and 0 <= v < g.n) or not g.adjacent(u, v):
                raise reject(idx, step, f"{u}-{v} is not an edge", current)
            if po.direction_of(u, v) is not None:
                raise reject(idx, step, "branch edge already assigned", current)
            if step.new_copy in copies:
                raise reject(idx, step, f"copy {step.new_copy!r} already exists", current)
            twin = po.copy()
            twin.assign(v, u)
            copies[step.new_copy] = twin
            outcomes[step.new_copy] = CopyOutcome(step.new_copy)
            po.assign(u, v)
            continue

        if isinstance(step, SStep):
            ok, why = check_S_step(po, step.vertices)
            if not ok:
                raise reject(idx, step, why, current)
            out.status = "closed-by-S"
            current = None
            continue

        # AssumeStep
        u, v = step.arc
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.adjacent(u, v):
            raise reject(idx, step, f"{u}-{v} is not an edge", current)
        if po.direction_of(u, v) is not None:
            raise reject(idx, step, "assumed edge already assigned", current)
        po.assign(u, v)
        assumptions.append(Assumption(current, (u, v), step.note))

    ordered = tuple(outcomes.values())
    all_closed = all(c.status != "open" for c in ordered)
    return ReplayReport(ordered, tuple(assumptions), all_closed)


def bundled_script_text(name: str) -> str:
    """Text of a proof script shipped with the package (e.g. "chvatal")."""
    from importlib.resources import files

    return (files("semitrans") / "scripts" / f"{name}.proof").read_text("utf-8")
