"""Dual-objective path finding and mission-level task ordering.

Two objectives searched by one Dijkstra: minimum travelled distance, and
maximum product of per-edge effective success probabilities.  Ties break
deterministically so repeated runs return byte-identical plans: equal-cost
candidates are ordered by (objective, then distance for the probability
planner, then the node sequence itself).

On a base graph each objective runs one full search per source and
memoizes it as a tree of paths to every reachable node; on a heat overlay
the search stops at the goal.  Task ordering reads its legs from the
max-success trees of its start and of each task, and one exhaustive
scorer covers every accepted task count.  Every memo is a g.memo
table: search trees per objective and source, and mission plans per
(tasks, end node, start).  A heat overlay's tables are never kept, and
the permutation table of up to 8 tasks is kept per process, not per graph.
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


def _search(g, start, goal=None, by_distance=False):
    """Dijkstra from start, as {node: (key, dist, seq, prob)}.

    Each node maps to the heap entry that first popped it: the key, then
    the path's distance, node sequence and success probability.  The key
    is the distance, or without by_distance the negated success
    probability, and the distance breaks its ties.  The search stops
    after popping goal, or runs to exhaustion when goal is None; the pops
    before goal are the same either way.  Both objectives accumulate in
    path order, so entries are bit-identical to a brute-force enumeration
    with the same arithmetic.
    """
    popped = {}
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
        for nbr, edge in g._adj[node]:
            if nbr not in popped:
                d = dist + edge.distance
                p = prob * g.effective(edge)
                heapq.heappush(heap, (d if by_distance else -p, d,
                                      seq + (nbr,), p))
    return popped


def _to_path(entry):
    _, dist, seq, prob = entry
    return Path(seq, dist, prob)


def _tree(g, start, by_distance=False):
    """{target: Path} for every node reachable from start.

    Memoized per start and objective in g.memo, kept on a base graph only.
    """
    cache = g.memo("dist" if by_distance else "prob")
    tree = cache.get(start)
    if tree is None:
        tree = cache[start] = {
            node: _to_path(entry)
            for node, entry in _search(g, start, None, by_distance).items()}
    return tree


def _heat_proof_path(g, start, goal, heated):
    """max_success_path(g, start, goal) if g already holds the tree of
    start and the search on a heat overlay of g provably returns it too,
    else None; nothing is searched.

    heated holds the keys of the overlay's heated edges, whose effective
    success it must never raise.  Every path's key is then at least its
    key on g, and equal off heated edges, so the overlay's search pops
    g's entries in order until one crosses a heated edge: it is enough
    that no node popped up to goal is reached in the tree through a
    heated edge.  Avoiding heated edges alone is not: when floats round
    two probabilities together, a heated edge can let the overlay's
    search keep a walk that g's search dropped.
    """
    tree = g.memo("prob").get(start)
    path = None if tree is None else tree.get(goal)
    if path is None:
        return None
    bound = (-path.success_probability, path.total_distance, path.nodes)
    for a, b in heated:
        for src, dst in ((a, b), (b, a)):
            hit = tree.get(dst)
            if (hit is not None and hit.nodes[-2:-1] == (src,)
                    and (-hit.success_probability, hit.total_distance,
                         hit.nodes) <= bound):
                return None
    return path


def _best_path(g, start, goal, by_distance):
    # base graphs read the memoized tree of start; heat overlays stop the
    # search at goal
    g.check_node(start)
    g.check_node(goal)
    if isinstance(g, EnvironmentGraph):
        return _tree(g, start, by_distance).get(goal)
    hit = _search(g, start, goal, by_distance).get(goal)
    return None if hit is None else _to_path(hit)


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
    every node when the start is random.  Edges are undirected, so that
    holds exactly when all starts and waypoints lie in one component, the
    first waypoint's search tree; the first failing waypoint is named.
    """
    if starts is None:
        starts = (g.nodes if mission.start is None
                  else (g.check_node(mission.start),))
    waypoints = mission.tasks + (mission.end,)
    reached = _tree(g, g.check_node(waypoints[0]))
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
    # numpy loads with the first mission ordered, not with the package
    import numpy as np

    # each order of the first k - m tasks (the one empty order up to 8
    # tasks) is folded alone, and the table of the other m scores on from
    # its product and distance; trees[0] is from_node's, trees[j + 1] task j's
    k = len(tasks)
    m = min(k, 8)
    perms = _permutations(m)
    cols = [*perms.T, np.full(len(perms), m, dtype=np.int8)]
    keys = []
    for prefix in itertools.permutations(range(k), k - m):
        here = (0, *(j + 1 for j in prefix))
        p, d = _compose(trees[a][tasks[j]] for a, j in zip(here, prefix))
        rest = [j for j in range(k) if j not in prefix]
        # row i: legs from the prefix's last waypoint (i = 0) or from task
        # rest[i - 1]; column i: legs to task rest[i], or to end when i == m
        sources = [trees[here[-1]]] + [trees[j + 1] for j in rest]
        targets = [tasks[j] for j in rest] + [end]
        prob = np.array([[tree[t].success_probability for t in targets]
                         for tree in sources])
        dist = np.array([[tree[t].total_distance for t in targets]
                         for tree in sources])
        total_prob, total_dist, at = p, d, 0
        for col in cols:
            total_prob = total_prob * prob[at, col]
            total_dist = total_dist + dist[at, col]
            at = col + 1
        top = np.flatnonzero(total_prob == total_prob.max())
        top = top[total_dist[top] == total_dist[top].min()]
        head = [tasks[j] for j in prefix]
        keys.append((-float(total_prob[top[0]]), float(total_dist[top[0]]),
                     min(tuple(head + [targets[i] for i in perms[b]])
                         for b in top)))
    return min(keys)[2]


@functools.cache
def _permutations(k):
    """Every permutation of range(k), one per row, as a read-only array.

    Cached in the module rather than in g.memo: the table depends on k
    alone, not on any graph.  k is at most 8, so int8 entries suffice.
    """
    import numpy as np

    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int8)
    perms.flags.writeable = False
    return perms
