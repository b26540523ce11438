"""Dual-objective path finding and mission-level task ordering.

Two objectives searched by one Dijkstra: minimum travelled distance, and
maximum product of per-edge effective success probabilities.  Ties break
deterministically so repeated runs return byte-identical plans: equal-cost
candidates are ordered by (objective, then distance for the probability
planner, then the node sequence itself).

On a base graph each objective memoizes one full search per source in
g.memo, as a tree of the search's entries for every reachable node; a
search on heated effective successes stops at the goal.  A Path is built
only where a caller returns one.  Task ordering reads its legs from the
max-success trees of its start and of each task, scores every order and
memoizes its plan per (tasks, end node, start) in g.memo; the order
tables of up to 8 tasks are kept per process, not per graph.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass

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


class UnreachableNodeError(ValueError):
    """No solution to a well-formed query: no path joins two nodes, a node
    sequence misses a hop, or a start cannot reach a mission waypoint."""


def path_from_nodes(g, nodes):
    """Build a Path from an explicit node sequence.

    Every node is checked first; then each consecutive pair must be an
    edge of g, or UnreachableNodeError names the first missing one.
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
            raise UnreachableNodeError(f"no edge between {a} and {b}")
        dist = dist + edge.distance
        prob = prob * g.effective(edge)
    return Path(nodes, dist, prob)


def _search(g, effs, start, goal=None, by_distance=False):
    """Dijkstra from start over g's hop rows, with effs the effective
    success by edge number, as {node: (key, dist, seq, prob)}.

    Each node maps to the heap entry that first popped it: the key, then
    the path's distance, node sequence and success probability.  The key
    is the distance, or without by_distance the negated success
    probability, and the distance breaks its ties.  The search stops
    after popping goal, or runs to exhaustion when goal is None; the pops
    before goal are the same either way.  Both objectives accumulate in
    path order.  It is not always the brute-force optimum: floats can
    round a dropped prefix's extension together with a kept one's, and the
    tie rule would then pick the dropped one.  On the 10-node map of
    test_a_path_that_avoids_the_heat_is_not_enough, max_success_path(g, 0,
    6) returns (0, 7, 8, 9, 6) of distance 8, not (0, 4, 5, 3, 6) of equal
    probability and distance 4.
    """
    hops, popped = g._hops, {}
    heap = [(0.0 if by_distance else -1.0, 0.0, (start,), 1.0)]
    while heap:
        entry = heapq.heappop(heap)
        _, dist, seq, prob = entry
        node = seq[-1]
        if node in popped:
            continue
        popped[node] = entry
        if node == goal:
            break
        for nbr, w, i in hops[node]:
            if nbr not in popped:
                d = dist + w
                p = prob * effs[i]
                heapq.heappush(heap, (d if by_distance else -p, d,
                                      seq + (nbr,), p))
    return popped


def _to_path(entry):
    """The Path of a search entry, or None for no entry."""
    return None if entry is None else Path(entry[2], entry[1], entry[3])


def _tree(g, start, by_distance=False):
    """_search's {node: (key, dist, seq, prob)} of every node start reaches.

    Memoized per start and objective in g.memo, kept on a base graph only.
    """
    cache = g.memo("dist" if by_distance else "prob")
    tree = cache.get(start)
    if tree is None:
        tree = cache[start] = _search(g, g._effs, start, None, by_distance)
    return tree


def _heat_proof(g, start, goal, heated):
    """The search entry of max_success_path(g, start, goal) if g already
    holds the tree of start and the search on a heat overlay of g provably
    returns its path too, else None; nothing is searched.

    heated holds the keys of the overlay's heated edges, whose effective
    success it must never raise.  Every path's key is then at least its
    key on g, and equal off heated edges, so the overlay's search pops
    g's entries in order until one crosses a heated edge: it is enough
    that no tree entry up to goal's, in (-probability, distance, nodes)
    order, ends in a heated edge.  Avoiding heated edges alone is not:
    when floats round two probabilities together, a heated edge can let
    the overlay's search keep a walk that g's search dropped.
    """
    tree = g.memo("prob").get(start)
    entry = None if tree is None else tree.get(goal)
    if entry is None:
        return None
    for a, b in heated:
        for src, dst in ((a, b), (b, a)):
            # most entries come after goal's, so compare before reading
            # the hop; start's entry has none
            hit = tree.get(dst)
            if (hit is not None and hit <= entry and dst != start
                    and hit[2][-2] == src):
                return None
    return entry


def _best(g, start, goal, by_distance):
    """_search's entry for the best path from start to goal, or None.

    Base graphs read the memoized tree of start; heat overlays stop the
    search at goal.
    """
    g.check_node(start)
    g.check_node(goal)
    if isinstance(g, EnvironmentGraph):
        return _tree(g, start, by_distance).get(goal)
    return _search(g, g._effs, start, goal, by_distance).get(goal)


def shortest_distance_path(g, start, goal):
    """Minimum-distance path from start to goal, or None if unreachable.

    Among equal-distance paths the lexicographically smallest node
    sequence wins.
    """
    return _to_path(_best(g, start, goal, by_distance=True))


def max_success_path(g, start, goal):
    """Maximum effective-success path from start to goal, or None.

    Ties on probability break by smaller total distance, then by the
    lexicographically smallest node sequence.
    """
    return _to_path(_best(g, start, goal, by_distance=False))


@dataclass(frozen=True)
class MissionPlan:
    """An ordered visiting plan; ordered_tasks always ends with the
    mission's end node."""

    ordered_tasks: tuple
    legs: tuple
    plan_probability: float
    plan_distance: float


def _compose(entries):
    # the legs' search entries folded left to right
    prob = 1.0
    dist = 0.0
    for _, d, _, p in entries:
        prob = prob * p
        dist = dist + d
    return prob, dist


def check_reachable(g, mission, starts=None):
    """Raise UnreachableNodeError unless every start reaches every waypoint.

    starts defaults to every start the mission can draw: mission.start, or
    every node when the start is random.  Edges are undirected, so that
    holds exactly when all starts and waypoints lie in one component, the
    first waypoint's search tree; the first failing waypoint is named.
    """
    drawn = starts is None
    if drawn:
        starts = (g.nodes if mission.start is None
                  else (g.check_node(mission.start),))
    waypoints = mission.tasks + (mission.end,)
    reached = _tree(g, g.check_node(waypoints[0]))
    if drawn and len(reached) == g.node_count:
        starts = ()  # a tree that spans the map reaches every drawn start
    for t in waypoints:
        g.check_node(t)
        for s in starts:
            if s not in reached or t not in reached:
                kind = "end node" if t == mission.end else "task"
                raise UnreachableNodeError(
                    f"{kind} {t} is unreachable from node {s}")


def order_tasks(g, mission, from_node):
    """Choose the task visiting order that maximises mission success.

    Legs between waypoints are read from one max-success search tree per
    waypoint.  Every order of the tasks (at most MAX_TASKS, as MissionSpec
    accepts) is scored by multiplying and adding its legs left to right,
    as _compose does, and the winner is the smallest (-probability,
    distance, task order).  The end node is always appended after the
    last task.  Memoized per (tasks, end node, start) in g.memo.
    """
    g.check_node(from_node)
    memo = g.memo("plan")
    key = (mission.tasks, mission.end, from_node)
    plan = memo.get(key)
    if plan is not None:
        return plan
    check_reachable(g, mission, (from_node,))
    sources = (from_node,) + mission.tasks
    trees = {s: _tree(g, s) for s in sources}
    order = _best_order([trees[s] for s in sources], mission.tasks,
                        mission.end)

    stops = order + (mission.end,)
    legs = [trees[a][b] for a, b in zip((from_node,) + order, stops)]
    prob, dist = _compose(legs)
    plan = memo[key] = MissionPlan(stops, tuple(map(_to_path, legs)),
                                   prob, dist)
    return plan


def _best_order(trees, tasks, end):
    # numpy loads with the first mission ordered, not with the package
    import numpy as np

    # each order of the first k - m tasks (the one empty order up to 8
    # tasks) is folded alone, and the table of the other m scores on from
    # its product and distance; trees[0] is from_node's, trees[j + 1] task j's
    k = len(tasks)
    m = min(k, 8)
    perms, gather = _permutations(m)
    keys = []
    for prefix in itertools.permutations(range(k), k - m):
        here = (0, *(j + 1 for j in prefix))
        p, d = _compose(trees[a][tasks[j]] for a, j in zip(here, prefix))
        rest = [j for j in range(k) if j not in prefix]
        # row i: legs from the prefix's last waypoint (i = 0) or from task
        # rest[i - 1]; column i: legs to task rest[i], or to end when i == m
        sources = [trees[here[-1]]] + [trees[j + 1] for j in rest]
        targets = [tasks[j] for j in rest] + [end]
        prob = np.array([[tree[t][3] for t in targets] for tree in sources])
        dist = np.array([[tree[t][1] for t in targets] for tree in sources])
        # the same products and sums, left to right, as one fold per leg;
        # distances only for the orders of the best probability
        total_prob = p * prob.take(gather[0])
        for ix in gather[1:]:
            total_prob *= prob.take(ix)
        top = np.flatnonzero(total_prob == total_prob.max())
        total_dist = d + dist.take(gather[0, top])
        for ix in gather[1:, top]:
            total_dist += dist.take(ix)
        top = top[total_dist == total_dist.min()]
        head = [tasks[j] for j in prefix]
        keys.append((-float(total_prob[top[0]]), float(total_dist.min()),
                     min(tuple(head + [targets[i] for i in perms[b]])
                         for b in top)))
    return min(keys)[2]


@functools.cache
def _permutations(k):
    """(perms, gather), both read-only: every permutation of range(k), one
    per row, and the flat indices into a (k + 1) x (k + 1) leg table of
    each order's legs, one row per leg.

    Leg i of an order runs from row at (0 for the start, r + 1 after task
    r) to column col (task perms[:, i], or k for the end), at flat index
    at * (k + 1) + col.  Cached in the module rather than in g.memo: the
    tables depend on k alone, not on any graph.  k is at most 8, so int8
    entries suffice for perms.
    """
    import numpy as np

    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int8)
    gather = np.full((k + 1, len(perms)), k, dtype=np.intp)
    gather[:k] = perms.T
    # last row first, so row i - 1 still holds its column
    for i in range(k, 0, -1):
        gather[i] += (k + 1) * (gather[i - 1] + 1)
    for table in (perms, gather):
        table.flags.writeable = False
    return perms, gather
