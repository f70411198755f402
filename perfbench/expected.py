"""Expected verdicts, each with a source that does not depend on the solver.

An instance whose verdict only the solver vouches for (``kneser:7:2``, for
example) has no entry and is not benchmarked.  Generated instances carry
their source with them (see ``generators.py``); this table covers the
canonical ones.
"""

from __future__ import annotations

import math

# Canonical instances with no semi-transitive orientation.
UNSAT = {
    "grotzsch": "paper; acceptance criterion 1 (brute force over all 2^20 orientations finds none)",
    "chvatal": "paper; acceptance criterion 2",
    "kneser83sub16": "paper; acceptance criterion 4",
    "circulant:14:1,3,4,5": "paper; acceptance criterion 9",
    "mycielski:grotzsch": "induced-subgraph inheritance: vertices 0..10 induce grotzsch",
    "kneser:8:3": "induced-subgraph inheritance: EMBEDDINGS maps kneser83sub16 onto an induced subgraph",
}

# Induced embeddings behind the inherited entries: spec -> (base, image),
# base vertex v sitting at image[v].  The tests check each one.
EMBEDDINGS = {
    "mycielski:grotzsch": ("grotzsch", tuple(range(11))),
    "kneser:8:3": (
        "kneser83sub16",
        (0, 19, 53, 34, 29, 33, 50, 37, 35, 36, 17, 6, 40, 9, 30, 10),
    ),
}

# Canonical instances with a semi-transitive orientation.
SAT = {
    "toft:7": "closed-form construction toft_orientation; acceptance criterion 8",
    "toft:9": "closed-form construction toft_orientation; acceptance criterion 8",
    "circulant:13:1,5": "paper Fig. 4 orientation; acceptance criterion 5",
}

CRITERION7_SOURCE = "acceptance criterion 7: every connected 4-regular circulant with n = 5..16 is sat"


def four_regular_circulants() -> list[str]:
    """The 103 connected 4-regular circulants of acceptance criterion 7."""
    specs = []
    for n in range(5, 17):
        half = (n - 1) // 2
        for a in range(1, half + 1):
            for b in range(a + 1, half + 1):
                if math.gcd(math.gcd(a, b), n) == 1:
                    specs.append(f"circulant:{n}:{a},{b}")
    return specs


# Closed-form orientations checked by `verify`: spec of the graph -> source.
CONSTRUCTION_SOURCES = {
    "toft": "closed-form construction toft_orientation (all odd n >= 5); acceptance criterion 8",
    "lemma8": "paper Lemma 8 orientation of circulant(n, {1, 2}), n >= 5; acceptance criterion 6",
    "fig4": "paper Fig. 4 orientation; acceptance criterion 5",
}

# Trust lists that `prove` must report (acceptance criterion 11).
PROOF_ASSUMPTIONS = {
    "chvatal": [
        ("A", (7, 6)),
        ("C", (1, 5)), ("C", (1, 8)), ("C", (7, 6)),
        ("D", (7, 6)),
        ("E", (1, 5)), ("E", (1, 8)),
        ("F", (1, 5)), ("F", (1, 8)), ("F", (6, 0)), ("F", (11, 0)),
        ("F", (7, 2)), ("F", (10, 2)), ("F", (7, 6)),
    ],
    "grotzsch": [],
}
PROOF_SOURCE = "acceptance criterion 11: both scripts close with exactly these trust lists"

# Exact search counters of the default configuration on canonical labels
# (ROADMAP item 1 baseline).  A difference is reported, not failed: a search
# change may move them on purpose.
BASELINE_COUNTS = {
    "toft:9": {"nodes": 19736, "leaf_checks": 19682},
    "toft:7": {"nodes": 2228, "leaf_checks": 2186},
    "kneser:8:3": {"nodes": 4170, "propagations": 193500},
}
