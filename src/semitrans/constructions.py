"""Explicit semi-transitive orientations for the three families that have
closed-form constructions.  Each returns a full ``Orientation`` over the
matching generator's graph; the test suite re-verifies every output.
"""

from __future__ import annotations

from .errors import BadParameters
from .families import circulant, toft
from .orientation import Arc, Orientation

_FIG4_ARCS: tuple[Arc, ...] = (
    (1, 0),
    (2, 1), (2, 3), (2, 7), (2, 10),
    (3, 4), (3, 8), (3, 11),
    (4, 5), (4, 12),
    (5, 0),
    (6, 1), (6, 5), (6, 7), (6, 11),
    (7, 8), (7, 12),
    (8, 0),
    (9, 1), (9, 4), (9, 8), (9, 10),
    (10, 5), (10, 11),
    (11, 12),
    (12, 0),
)


def fig4_orientation() -> Orientation:
    """The hand-drawn orientation of the 13-vertex, jump-{1,5} circulant."""
    return Orientation(circulant(13, {1, 5}), _FIG4_ARCS)


def lemma8_orientation(n: int) -> Orientation:
    """Orientation of the jump-{1,2} circulant on n >= 5 vertices.

    All edges inside V0 = {0..n-3} run from lower to higher label; the seven
    edges touching n-2 or n-1 get fixed directions.  For n = 5 the result is
    a transitive tournament on K5.
    """
    if n < 5:
        raise BadParameters(f"need n >= 5, got {n}")
    g = circulant(n, {1, 2})
    arcs: list[Arc] = []
    for i in range(n - 3):
        arcs.append((i, i + 1))
        if i + 2 <= n - 3:
            arcs.append((i, i + 2))
    arcs += [
        (1, n - 1),
        (0, n - 1),
        (0, n - 2),
        (n - 2, n - 4),
        (n - 2, n - 3),
        (n - 2, n - 1),
        (n - 1, n - 3),
    ]
    return Orientation(g, arcs)


def toft_orientation(n: int) -> Orientation:
    """Orientation of the four-layer graph: every inter-layer arc points to
    the higher layer, and each n-cycle is two directed paths (lengths 2 and
    n-2) out of its lowest vertex."""
    g = toft(n)  # validates n odd > 3
    arcs: list[Arc] = []
    for base in (0, 3 * n):  # the A1 and A4 cycles
        for i in range(n - 2):
            arcs.append((base + i, base + i + 1))
        arcs.append((base, base + n - 1))
        arcs.append((base + n - 1, base + n - 2))
    for i in range(n):
        arcs.append((i, n + i))              # A1 -> A2 matching
        arcs.append((2 * n + i, 3 * n + i))  # A3 -> A4 matching
        for j in range(n):
            arcs.append((n + i, 2 * n + j))  # all of A2 -> A3
    return Orientation(g, arcs)
