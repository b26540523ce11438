"""Human motion prediction and heat-weighted risk updates.

The robot models the human as walking the shortest-distance path toward a
goal, deviating to a uniformly random neighbour with probability equal to
its uncertainty; without a goal it is predicted to stay where it is.
predict_human_path makes every prediction, a tuple of node ids, so
step_human alone is the human's transition rule.  Predicted presence is
projected onto the graph as edge "heat"; heat scales success mass down
(blocked attempts become retries, never catastrophes).  A step's outcome is
a pure function of the state (following) or of its goal, uncertainty and
new position (diverging), so step_human memoizes both on the base graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .env import HeatedGraph, OutcomeProbs, _is_number, _remember
from .planner import shortest_distance_path


@dataclass(frozen=True)
class HumanState:
    position: int
    goal: int | None = None
    uncertainty: float = 0.0
    predicted_path: tuple | None = None

    def __post_init__(self):
        if not (_is_number(self.uncertainty) and 0 <= self.uncertainty <= 1):
            raise ValueError(f"uncertainty {self.uncertainty!r} outside "
                             "[0, 1]")
        nodes = self.predicted_path
        if nodes is not None:
            if not (isinstance(nodes, tuple) and nodes):
                raise ValueError(f"predicted path {nodes!r} must be a "
                                 "non-empty tuple of node ids")
            if nodes[0] != self.position:
                raise ValueError("predicted path does not start at the "
                                 f"human position {self.position}")
            if self.goal is not None and nodes[-1] != self.goal:
                raise ValueError("predicted path does not end at the "
                                 f"human goal {self.goal}")


@dataclass(frozen=True)
class HeatParams:
    """Heat magnitudes; both must stay below 1 so heated edges keep a
    strictly positive success probability.

    path_heat is calibrated so that a two-edge overlap between the human's
    predicted corridor and a High-risk route drops that route's validated
    probability from ~0.98 into the 0.3-0.5 band.  neighbor_heat scales
    with the human's uncertainty and spills onto the edges at the human's
    position, but an edge keeps the larger heat, so the spill counts only
    where neighbor_heat * uncertainty exceeds path_heat or the human has
    no prediction.  With the defaults it never changes a heat: every human
    an episode or plan --human heats has a prediction starting at its
    position, whose edges already carry path_heat.
    """

    path_heat: float = 0.998
    neighbor_heat: float = 0.6

    def __post_init__(self):
        for name in ("path_heat", "neighbor_heat"):
            v = getattr(self, name)
            if not (_is_number(v) and 0.0 <= v < 1.0):
                raise ValueError(f"heat {name!r} {v!r} outside [0, 1)")


def predict_human_path(g, h):
    """The nodes of the shortest-distance path from the human's position
    to its goal, or its position alone (stay put) when it has no goal."""
    if h.goal is None:
        return (g.check_node(h.position),)
    path = shortest_distance_path(g, h.position, h.goal)
    if path is None:
        raise ValueError(f"human goal {h.goal} unreachable from "
                         f"position {h.position}")
    return path.nodes


def build_heat_map(g, h, params):
    """Edge heat induced by the human, as {(a, b): heat}.

    Rule (a): every edge with at least one endpoint on the predicted path
    gets path_heat.  Rule (b): every edge incident to the human's position
    gets at least neighbor_heat * uncertainty.  Overlaps take the maximum;
    zero-valued entries are dropped.
    """
    heat = {}
    if h.predicted_path is not None and params.path_heat > 0.0:
        for node in set(h.predicted_path):
            for _, edge in g.neighbors(node):
                heat[edge.key()] = params.path_heat
    spill = params.neighbor_heat * h.uncertainty
    if spill > 0.0:
        for _, edge in g.neighbors(h.position):
            key = edge.key()
            if heat.get(key, 0.0) < spill:
                heat[key] = spill
    return heat


def heated_probs(p, h):
    """Outcome row of p under a heat h in [0, 1): success scales by
    (1 - h), the removed mass becomes retry, p_fail is untouched."""
    if not (_is_number(h) and 0.0 <= h < 1.0):
        raise ValueError(f"heat {h!r} outside [0, 1)")
    if h == 0.0:
        return p
    scaled = p.p_success * (1.0 - h)
    moved = p.p_success - scaled
    return OutcomeProbs(scaled, p.p_retry + moved, p.p_fail)


def apply_heat(g, heat_map):
    """Heat overlay of g: success mass scales by (1 - heat) per edge.

    The removed mass moves to retry; p_fail is untouched, so heat models
    temporary blockage rather than added danger on a single attempt.
    Each key must name an edge and each heat be a number in [0, 1), on a
    memo hit too; the heated row of each (risk class, heat) is memoized.
    """
    memo = g.memo("heated")
    overrides = {}
    for key, h in heat_map.items():
        try:
            edge = g.edge(*key)
        except TypeError:  # a key that is not a pair of nodes
            edge = None
        if edge is None:
            raise ValueError(f"heat on missing edge {key!r}")
        # build_heat_map yields floats, so they skip the full type check
        if not (type(h) is float or _is_number(h)) or not 0.0 <= h < 1.0:
            raise ValueError(f"heat {h!r} outside [0, 1)")
        if h == 0.0:
            continue
        row = memo.get((edge.risk, h))
        if row is None:
            row = _remember(memo, (edge.risk, h),
                            heated_probs(g.probs(edge), h))
        overrides[edge.key()] = row
    return HeatedGraph(g, overrides)


def step_human(g, h, rng):
    """Advance the human one tick; returns the new state.

    With probability (1 - uncertainty) the human follows its predicted
    path (staying put when there is none or it has arrived); otherwise it
    moves to a uniformly random neighbour, staying put on a node with none,
    and predict_human_path re-predicts it toward the unchanged goal.
    rng is anything with random() and integers(n), such as a numpy
    Generator.
    """
    diverged = h.uncertainty > 0.0 and rng.random() < h.uncertainty
    if not diverged:
        path = h.predicted_path
        if path is None or len(path) < 2:
            return h
        memo = g.memo("follow")
        key = (path, h.goal, h.uncertainty)
        nxt = memo.get(key)
        if nxt is None:
            nxt = _remember(memo, key, HumanState(
                path[1], h.goal, h.uncertainty, path[1:]))
        return nxt
    nbrs = g.neighbors(h.position)
    if not nbrs:
        return h
    memo = g.memo("diverge")
    key = (nbrs[rng.integers(len(nbrs))][0], h.goal, h.uncertainty)
    nxt = memo.get(key)
    if nxt is None:
        h = HumanState(*key)
        nxt = _remember(memo, key, HumanState(*key, predict_human_path(g, h)))
    return nxt
