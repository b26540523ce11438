"""Shared fixtures and brute-force oracles.

The oracles enumerate every simple path and accumulate distance and
probability left-to-right with the same float arithmetic the planners
use, so planner results can be compared bit-for-bit, tie-breaks
included.
"""

import numpy as np
import pytest

from risknav import (environment_from_dict, load_default_environment,
                     load_default_mission)

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
