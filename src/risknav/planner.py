"""Dual-objective path finding and mission-level task ordering.

Two objectives searched by one Dijkstra: minimum travelled distance, and
maximum product of per-edge effective success probabilities.  Ties break
deterministically so repeated runs return byte-identical plans: equal-cost
candidates are ordered by (objective, then distance for the probability
planner, then the node sequence itself).

On a base graph each objective runs one full search per source and
memoizes it as a tree of paths to every reachable node; on a heat overlay
the search stops at the goal.  Task ordering reads its legs from the
max-success trees of its start and of each task.  Every memo lives in the
graph's own table: search trees per objective and source, and mission
plans per (tasks, end node, start).  Heat overlays memoize nothing.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from .env import EnvironmentGraph


@dataclass(frozen=True)
class Path:
    """A concrete node walk with its accumulated objectives.

    total_distance and success_probability are accumulated left-to-right
    along nodes, which keeps recomputation bit-stable.
    """

    nodes: tuple
    total_distance: float
    success_probability: float

    def __len__(self):
        return len(self.nodes)


class UnreachableNodeError(ValueError):
    """A mission references a node no path can reach."""


def path_from_nodes(g, nodes):
    """Build a Path from an explicit node sequence.

    Every consecutive pair must be an edge of g; raises ValueError naming
    the missing pair otherwise.
    """
    nodes = tuple(nodes)
    if not nodes:
        raise ValueError("empty node sequence")
    for n in nodes:
        g.check_node(n)
    dist = 0.0
    prob = 1.0
    for a, b in zip(nodes, nodes[1:]):
        edge = g.edge(a, b)
        if edge is None:
            raise ValueError(f"no edge between {a} and {b}")
        dist = dist + edge.distance
        prob = prob * g.effective(edge)
    return Path(nodes, dist, prob)


def _search(g, start, goal=None, by_distance=False):
    """Dijkstra from start, as {node: (key, dist, seq, prob)}.

    Each node maps to the heap entry that first popped it.  The key is the
    distance, or without by_distance the negated success probability with
    the distance to break its ties.  Distance entries carry 0.0 as dist
    and their success probability as prob; probability entries carry None
    there, which no comparison reaches, since each seq is pushed once.
    The search stops after popping goal, or runs to exhaustion when goal
    is None; the pops before goal are the same either way.  Both
    objectives accumulate in path order, and (-p) * e is exactly
    -(p * e), so entries are bit-identical to a brute-force enumeration
    with the same arithmetic.
    """
    popped = {}
    heap = [(0.0, 0.0, (start,), 1.0) if by_distance
            else (-1.0, 0.0, (start,), None)]
    while heap:
        entry = heapq.heappop(heap)
        key, dist, seq, prob = entry
        node = seq[-1]
        if node in popped:
            continue
        popped[node] = entry
        if node == goal:
            break
        for nbr, edge in g.neighbors(node):
            if nbr not in popped:
                if by_distance:
                    heapq.heappush(heap, (key + edge.distance, 0.0,
                                          seq + (nbr,),
                                          prob * g.effective(edge)))
                else:
                    heapq.heappush(heap, (key * g.effective(edge),
                                          dist + edge.distance, seq + (nbr,),
                                          None))
    return popped


def _to_path(entry, by_distance):
    key, dist, seq, prob = entry
    return Path(seq, key, prob) if by_distance else Path(seq, dist, -key)


def _tree(g, start, by_distance=False):
    """{target: Path} for every node reachable from start.

    Memoized per start and objective on an EnvironmentGraph, whose
    probabilities never change; computed afresh on a heat overlay.
    """
    cache = (g._memo.setdefault("dist" if by_distance else "prob", {})
             if isinstance(g, EnvironmentGraph) else {})
    tree = cache.get(start)
    if tree is None:
        tree = cache[start] = {
            node: _to_path(entry, by_distance)
            for node, entry in _search(g, start, None, by_distance).items()}
    return tree


def _best_path(g, start, goal, by_distance):
    # base graphs read the memoized tree of start; heat overlays stop the
    # search at goal
    g.check_node(start)
    g.check_node(goal)
    if isinstance(g, EnvironmentGraph):
        return _tree(g, start, by_distance).get(goal)
    hit = _search(g, start, goal, by_distance).get(goal)
    return None if hit is None else _to_path(hit, by_distance)


def shortest_distance_path(g, start, goal):
    """Minimum-distance path from start to goal, or None if unreachable.

    Among equal-distance paths the lexicographically smallest node
    sequence wins.
    """
    return _best_path(g, start, goal, by_distance=True)


def max_success_path(g, start, goal):
    """Maximum effective-success path from start to goal, or None.

    Ties on probability break by smaller total distance, then by the
    lexicographically smallest node sequence.
    """
    return _best_path(g, start, goal, by_distance=False)


@dataclass(frozen=True)
class MissionPlan:
    """An ordered visiting plan; ordered_tasks always ends with the
    mission's end node."""

    ordered_tasks: tuple
    legs: tuple
    plan_probability: float
    plan_distance: float


def _compose(legs):
    prob = 1.0
    dist = 0.0
    for leg in legs:
        prob = prob * leg.success_probability
        dist = dist + leg.total_distance
    return prob, dist


def check_reachable(g, mission, starts=None):
    """Raise UnreachableNodeError unless every start reaches every waypoint.

    starts defaults to every start the mission can draw: mission.start, or
    every node when the start is random.  Edges are undirected, so a start
    reaches a waypoint exactly when it lies in the waypoint's search tree.
    """
    if starts is None:
        starts = (g.nodes if mission.start is None
                  else (g.check_node(mission.start),))
    for t in mission.tasks + (mission.end,):
        g.check_node(t)
        tree = _tree(g, t)
        for s in starts:
            if s not in tree:
                kind = "end node" if t == mission.end else "task"
                raise UnreachableNodeError(
                    f"{kind} {t} is unreachable from node {s}")


def order_tasks(g, mission, from_node):
    """Choose the task visiting order that maximises mission success.

    Legs between waypoints are read from one max-success search tree per
    waypoint.  Up to 8 tasks, every permutation is scored at once by
    multiplying and adding the legs left to right, as _compose does, and
    the winner is the smallest (-probability, distance, task order).
    Beyond 8 a greedy nearest-task order is used instead and a warning is
    emitted.  The end node is always appended after the last task.
    Memoized per (tasks, end node, start) on an EnvironmentGraph.
    """
    g.check_node(from_node)
    memo = (g._memo.setdefault("plan", {})
            if isinstance(g, EnvironmentGraph) else {})
    key = (mission.tasks, mission.end, from_node)
    plan = memo.get(key)
    if plan is not None:
        return plan
    check_reachable(g, mission, (from_node,))
    sources = (from_node,) + mission.tasks
    trees = {s: _tree(g, s) for s in sources}
    if len(mission.tasks) > 8:
        order = _greedy_order(g, mission, from_node)
    else:
        order = _best_order([trees[s] for s in sources], mission.tasks,
                            mission.end)

    legs = []
    here = from_node
    for t in order + (mission.end,):
        legs.append(trees[here][t])
        here = t
    prob, dist = _compose(legs)
    plan = memo[key] = MissionPlan(order + (mission.end,), tuple(legs),
                                   prob, dist)
    return plan


def _best_order(trees, tasks, end):
    # row i: legs from source i (0 = from_node, i = task i-1);
    # column j: legs to task j, or to the end node when j == k
    k = len(tasks)
    targets = tasks + (end,)
    prob = np.array([[tree[t].success_probability for t in targets]
                     for tree in trees])
    dist = np.array([[tree[t].total_distance for t in targets]
                     for tree in trees])
    perms = _permutations(k)
    total_prob = np.ones(len(perms))
    total_dist = np.zeros(len(perms))
    here = np.zeros(len(perms), dtype=np.int8)
    for col in [*perms.T, np.full(len(perms), k, dtype=np.int8)]:
        total_prob = total_prob * prob[here, col]
        total_dist = total_dist + dist[here, col]
        here = col + 1
    best = np.flatnonzero(total_prob == total_prob.max())
    best = best[total_dist[best] == total_dist[best].min()]
    return min(tuple(tasks[i] for i in perms[b]) for b in best)


def _permutations(k):
    """Every permutation of range(k), one per row, in no fixed order.

    Built by inserting n at each position of the permutations of range(n),
    which is several times faster than converting itertools.permutations.
    k is at most 8, so int8 entries suffice and keep the array small.
    """
    perms = np.zeros((1, 0), dtype=np.int8)
    for n in range(k):
        m = len(perms)
        grown = np.empty((n + 1, m, n + 1), dtype=np.int8)
        for pos in range(n + 1):
            grown[pos, :, :pos] = perms[:, :pos]
            grown[pos, :, pos] = n
            grown[pos, :, pos + 1:] = perms[:, pos:]
        perms = grown.reshape(-1, n + 1)
    return perms


def _greedy_order(g, mission, from_node):
    # nearest = smallest shortest-path distance from the current node
    warnings.warn(f"{len(mission.tasks)} tasks exceed the exhaustive-search "
                  "limit of 8; falling back to nearest-task greedy ordering")
    remaining = set(mission.tasks)
    here = from_node
    order = []
    while remaining:
        ranked = sorted(
            (shortest_distance_path(g, here, t).total_distance, t)
            for t in remaining)
        _, pick = ranked[0]
        order.append(pick)
        remaining.remove(pick)
        here = pick
    return tuple(order)
