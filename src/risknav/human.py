"""Human motion prediction and heat-weighted risk updates.

The robot models the human as walking the shortest-distance path toward a
goal, deviating to a uniformly random neighbour with probability equal to
its uncertainty.  Predicted presence is projected onto the graph as edge
"heat"; heat scales success mass down (blocked attempts become retries,
never catastrophes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .env import OutcomeProbs, HeatedGraph
from .planner import Path, path_from_nodes, shortest_distance_path


@dataclass(frozen=True)
class HumanState:
    position: int
    goal: int | None = None
    uncertainty: float = 0.0
    predicted_path: Path | None = None

    def __post_init__(self):
        if not (0.0 <= self.uncertainty <= 1.0):
            raise ValueError(f"uncertainty {self.uncertainty} outside [0, 1]")
        if self.predicted_path is not None:
            nodes = self.predicted_path.nodes
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
    with the human's uncertainty, so edges brushed by an erratic human
    carry a real extra cost while a fully predictable one spills nothing.
    """

    path_heat: float = 0.998
    neighbor_heat: float = 0.6

    def __post_init__(self):
        for name in ("path_heat", "neighbor_heat"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name}={v} outside [0, 1)")


def predict_human_path(g, h):
    """Shortest-distance path from the human's position to its goal."""
    if h.goal is None:
        raise ValueError("human has no goal to predict toward")
    path = shortest_distance_path(g, h.position, h.goal)
    if path is None:
        raise ValueError(f"human goal {h.goal} unreachable from "
                         f"position {h.position}")
    return path


def build_heat_map(g, h, params):
    """Edge heat induced by the human, as {(a, b): heat}.

    Rule (a): every edge with at least one endpoint on the predicted path
    gets path_heat.  Rule (b): every edge incident to the human's position
    gets at least neighbor_heat * uncertainty.  Overlaps take the maximum;
    zero-valued entries are dropped.
    """
    heat = {}
    if h.predicted_path is not None:
        if params.path_heat > 0.0:
            for node in set(h.predicted_path.nodes):
                for _, edge in g.neighbors(node):
                    heat[edge.key()] = params.path_heat
    spill = params.neighbor_heat * h.uncertainty
    if spill > 0.0:
        for _, edge in g.neighbors(h.position):
            key = edge.key()
            if heat.get(key, 0.0) < spill:
                heat[key] = spill
    return heat


# heated rows recur constantly during simulation (few distinct
# (class, heat) combinations), so construction is memoized
_HEATED_MEMO = {}


def heated_probs(p, h):
    """Outcome row of p under heat h: success scales by (1 - h), the
    removed mass becomes retry, p_fail is untouched."""
    if h == 0.0:
        return p
    if not (0.0 <= h < 1.0):
        raise ValueError(f"heat {h} outside [0, 1)")
    key = (p.p_success, p.p_retry, p.p_fail, h)
    hit = _HEATED_MEMO.get(key)
    if hit is None:
        scaled = p.p_success * (1.0 - h)
        moved = p.p_success - scaled
        hit = OutcomeProbs(scaled, p.p_retry + moved, p.p_fail)
        if len(_HEATED_MEMO) > 10_000:
            _HEATED_MEMO.clear()
        _HEATED_MEMO[key] = hit
    return hit


def apply_heat(g, heat_map):
    """Heat overlay of g: success mass scales by (1 - heat) per edge.

    The removed mass moves to retry; p_fail is untouched, so heat models
    temporary blockage rather than added danger on a single attempt.
    """
    overrides = {}
    for key, h in heat_map.items():
        if h == 0.0:
            continue
        edge = g.edge(*key)
        if edge is None:
            raise ValueError(f"heat on missing edge {key}")
        overrides[edge.key()] = heated_probs(g.probs(edge), h)
    return HeatedGraph(g, overrides)


def step_human(g, h, rng):
    """Advance the human one tick; returns the new state.

    With probability (1 - uncertainty) the human follows its predicted
    path (staying put when there is none or it has arrived); otherwise it
    moves to a uniformly random neighbour, staying put on a node with none,
    and the path is re-predicted toward the unchanged goal.
    """
    diverged = h.uncertainty > 0.0 and rng.random() < h.uncertainty
    if not diverged:
        path = h.predicted_path
        if path is None or len(path.nodes) < 2:
            return h
        tail = path_from_nodes(g, path.nodes[1:])
        return replace(h, position=tail.nodes[0], predicted_path=tail)
    nbrs = g.neighbors(h.position)
    if not nbrs:
        return h
    h = HumanState(nbrs[int(rng.integers(len(nbrs)))][0], h.goal,
                   h.uncertainty)
    if h.goal is None:
        return h
    return replace(h, predicted_path=predict_human_path(g, h))
