"""Seeded inputs of the four workloads.

Each builder imports only the parts of bgkit its workload needs, because a
fresh interpreter running one builder is what ``setup_s`` times.  The same
seed always gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

# criterion-02 style scans: r_max above the acceptance suite's 12; one op
# scans 24 parameter triples, timed in pieces of 3
SCAN_R_MAX = Fraction(16)
SCAN_TRIPLES = 24
SCAN_PIECE = 3

# the criterion-05 set of (r, R) pairs for the packing sandwich
SANDWICH_PAIRS = [(r, R) for r in (1, 2, 3, 4) for R in range(2 * r, 9)]
SANDWICH_CAP = 1000

# free2 closed balls of radius 3 (53 points) and 4 (161 points, above the
# default exhaustive cap of 150, so the cap is passed explicitly)
FREE_RADII = (3, 4)
FREE_BALL_CAP = 200
GRAPH_SIZES = (110, 140)
GRAPH_DENOMINATORS = (1, 2, 3, 4, 6)

CLI_COMMANDS = {
    "reproduce": ["reproduce", "glued-line", "--r0", "1", "--eps", "1/10",
                  "--C", "4", "--K", "1"],
    "certify-bg": ["certify-bg", "--preset", "lattice2", "--r0", "1", "--C",
                   "8", "--K", "1", "--rmax", "10"],
    "entropy": ["entropy", "--preset", "free2", "--rmax", "12"],
    "pack": ["pack", "--preset", "lattice2", "--r", "1", "--R", "5",
             "--exact"],
    "bounds": ["bounds", "generators", "--N", "2", "--K", "0", "--D", "5"],
    "delta": ["delta", "--preset", "free2", "--radius", "3", "--exhaustive"],
    "validate": ["validate", "--preset", "lattice2"],
}


def cli_cold(seed):
    """The seven timed commands, in a seeded order, with --seed set to the
    benchmark seed where the command takes one."""
    import bgkit.cli  # noqa: F401  (set-up of this workload is this import)
    names = sorted(CLI_COMMANDS)
    random.Random(seed).shuffle(names)
    return [(name, CLI_COMMANDS[name]
             + ([] if name == "validate" else ["--seed", str(seed)]))
            for name in names]


def certify_scan(seed):
    """The four analytic-profile presets and seeded (r0, C, K, N) draws with
    the ranges of acceptance criterion 02."""
    from bgkit import actions, groups, measures, presets
    line = actions.LeftTranslationAction(groups.FreeAbelianFamily(1))
    instances = [("lattice2",) + presets.lattice_instance(),
                 ("free2",) + presets.free_instance(),
                 ("atom",) + presets.atom_instance(),
                 ("line", line.space, line,
                  measures.counting_measure(line, (0,)))]
    rng = random.Random(seed)
    triples = []
    for _ in range(SCAN_TRIPLES):
        r0 = Fraction(rng.randint(50, 300), 100)
        C = 1.5 + 10.5 * rng.random()
        K = 0.4 + 1.6 * rng.random()
        N = 0.5 + 5.0 * rng.random()
        triples.append((r0, C, K, N))
    return {"instances": instances, "triples": triples}


def sandwich(seed):
    """line-10 and torus-5 with the vertex measure, at a seeded base point,
    with the fundamental domain at that point as the sup sample."""
    from bgkit import measures, presets
    rng = random.Random(seed)
    lx = (rng.randint(-40, 40),)
    tx = (rng.randint(-40, 40), rng.randint(-40, 40))
    _space, line_action, _mu = presets.line_translation_instance(10)
    _space, torus_action, _mu = presets.torus_instance(5)
    return {
        "measure": measures.VertexMeasure(),
        "setups": [
            ("line", line_action, lx, [(lx[0] + i,) for i in range(10)]),
            ("torus", torus_action, tx,
             [(tx[0] + i, tx[1] + j) for i in range(5) for j in range(5)]),
        ],
    }


def free_ball(radius):
    """Reduced words over the letters +-1, +-2 of length at most radius."""
    words = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in (1, -1, 2, -2):
                if not w or w[-1] != -letter:
                    nxt.append(w + (letter,))
        words.extend(nxt)
        frontier = nxt
    return words


def random_graph_edges(n, rng):
    """A random spanning tree plus n extra edges, positive rational weights."""
    edges = [(rng.randrange(i), i,
              Fraction(rng.randint(1, 12), rng.choice(GRAPH_DENOMINATORS)))
             for i in range(1, n)]
    for _ in range(n):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, Fraction(rng.randint(1, 12),
                                     rng.choice(GRAPH_DENOMINATORS))))
    return edges


def four_point(seed):
    """free2 closed balls and seeded connected weighted graphs."""
    from bgkit import presets, spaces
    rng = random.Random(seed)
    graphs = []
    for n in GRAPH_SIZES:
        edges = random_graph_edges(n, rng)
        graphs.append((n, edges, spaces.WeightedGraph(list(range(n)), edges)))
    return {"free_space": presets.free_instance()[0],
            "balls": [(radius, free_ball(radius)) for radius in FREE_RADII],
            "graphs": graphs}


BUILDERS = {"cli-cold": cli_cold, "certify-scan": certify_scan,
            "sandwich": sandwich, "four-point": four_point}
