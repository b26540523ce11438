"""Shared fixtures, brute-force oracles and retry-run helpers.

The oracles enumerate every simple path and accumulate distance and
probability left-to-right with the same float arithmetic the planners
use, so planner results can be compared bit-for-bit, tie-breaks
included.  The retry-run helpers give the maps on which a still human
makes the robot retry, and play episodes with or without the scan that
reads such a run.
"""

import numpy as np
import pytest

from risknav import (environment_from_dict, load_default_environment,
                     load_default_mission, mission_from_dict, sim)

RISK_CLASSES = ("Low", "Medium", "High", "Severe")


def random_connected_doc(rng, max_nodes=10, max_extra=6):
    """Random connected environment document with random risk classes."""
    n = int(rng.integers(2, max_nodes + 1))
    pairs = set()
    for b in range(1, n):
        pairs.add((int(rng.integers(0, b)), b))
    for _ in range(int(rng.integers(0, max_extra + 1))):
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = []
    for a, b in sorted(pairs):
        dist = float(np.round(rng.uniform(0.5, 9.5), 2))
        edges.append([a, b, dist, RISK_CLASSES[int(rng.integers(4))]])
    return {"nodes": n, "edges": edges}


def still_human_cases():
    """(name, graph, mission) maps of 2 to 4 nodes on which a human that
    starts on the robot's start at u = 0 heats every edge there, and
    path_heat leaves a Low edge's effective success at or above the
    threshold: the robot retries, for about 500 ticks an edge.  On
    "redirect" the heated Medium edge holds the robot instead until the
    human is sent to the safe spot 2, the end, where it stands while the
    robot retries toward it; on "failure mass" a run can end in a crash."""
    def case(name, n, edges, mission, risk=None):
        doc = {"nodes": n, "edges": [[a, b, 1.0, c] for a, b, c in edges]}
        if risk is not None:
            doc["risk_table"] = risk
        g = environment_from_dict(doc)
        return name, g, mission_from_dict(
            {"start": 0, "tasks": [], "end": n - 1, "safe_locations": [],
             **mission}, g)

    return [
        case("two nodes", 2, [(0, 1, "Low")], {}),
        case("line", 3, [(0, 1, "Low"), (1, 2, "Low")], {}),
        case("redirect", 3, [(0, 1, "Medium"), (1, 2, "Low"),
                             (0, 2, "High")],
             {"tasks": [1], "safe_locations": [2]}),
        case("failure mass", 4, [(0, 1, "Low"), (1, 2, "Low"),
                                 (2, 3, "Low")],
             {"start": 1, "tasks": [0]}, {"Low": [0.99, 0.0099]}),
    ]


def co_located_seeds(g, mission, n):
    """The seeds below n whose episode's human starts on the robot's fixed
    start: the first draw, integers(node count), lands on it."""
    return [s for s in range(n)
            if sim._Draws(s).integers(g.node_count) == mission.start]


def replayed(monkeypatch, run):
    """run() with every retry run replayed tick by tick: _Draws.retries
    reads nothing, so each retry is a tick of its own."""
    with monkeypatch.context() as m:
        m.setattr(sim._Draws, "retries", lambda self, lo, hi, limit: 0)
        return run()


def counting_retries(monkeypatch):
    """Record the count of every _Draws.retries scan in the returned
    list."""
    runs, real = [], sim._Draws.retries

    def retries(self, lo, hi, limit):
        runs.append(real(self, lo, hi, limit))
        return runs[-1]

    monkeypatch.setattr(sim._Draws, "retries", retries)
    return runs


def random_environment(rng, max_nodes=10, max_extra=6):
    return environment_from_dict(
        random_connected_doc(rng, max_nodes, max_extra))


def simple_paths(g, start, goal):
    """All simple paths start -> goal, in neighbor-order DFS order."""
    found = []

    def walk(seq, seen):
        node = seq[-1]
        if node == goal:
            found.append(tuple(seq))
            return
        for nbr, _ in g.neighbors(node):
            if nbr not in seen:
                seq.append(nbr)
                seen.add(nbr)
                walk(seq, seen)
                seen.discard(nbr)
                seq.pop()

    walk([start], {start})
    return found


def path_stats(g, nodes):
    """(distance, probability) accumulated left-to-right like the planners."""
    dist = 0.0
    prob = 1.0
    for a, b in zip(nodes, nodes[1:]):
        edge = g.edge(a, b)
        dist = dist + edge.distance
        prob = prob * g.effective(edge)
    return dist, prob


def hop_rows(g, nodes):
    """The OutcomeProbs row of each hop of nodes on g, in path order."""
    return [g.probs(g.edge(a, b)) for a, b in zip(nodes, nodes[1:])]


def oracle_shortest(g, start, goal):
    cands = simple_paths(g, start, goal)
    if not cands:
        return None
    return min(cands, key=lambda nodes: (path_stats(g, nodes)[0], nodes))


def oracle_max_success(g, start, goal):
    cands = simple_paths(g, start, goal)
    if not cands:
        return None

    def key(nodes):
        dist, prob = path_stats(g, nodes)
        return (-prob, dist, nodes)

    return min(cands, key=key)


@pytest.fixture(scope="session")
def default_env():
    return load_default_environment()


@pytest.fixture(scope="session")
def default_mission(default_env):
    return load_default_mission(default_env)
