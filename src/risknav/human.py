"""Human motion prediction and heat-weighted risk updates.

The robot models the human as walking the shortest-distance path toward a
goal, deviating to a uniformly random neighbour with probability equal to
its uncertainty; without a goal it is predicted to stay where it is.
predict_human_path makes every prediction, a tuple of node ids, so the
human's transition rule is one draw rule over pure successors: the follow
successor of a state, and its divergence successor toward each neighbour.
Predicted presence is projected onto the graph as edge "heat"; heat scales
success mass down (blocked attempts become retries, never catastrophes).

A graph's memo holds one table of human states per set of heat parameters,
for one mission's waypoints and safe locations; a table for another
mission replaces it.  Each state reached gets an int id, and stdlib-array
columns indexed by id keep its successors' ids and its heat map's, filled
when first needed.  The table also numbers the robot's steps per heat map,
robot and waypoint, and keeps what asking a human to move at a step gave.
Both episode engines read these columns, and one rule, full, says when
the table is emptied, which happens only between ticks.
step_human is an intern into that table plus one step of it; an episode
carries the id from tick to tick.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .env import (HeatedGraph, OutcomeProbs, _full, _is_number, _remember,
                  effective_success)
from .planner import _best, _heat_proof, _search

# A human table's steps keep one cell per heat, robot node and waypoint;
# past this many cells the table is emptied between ticks, and a loop
# step of a sweep job may not pass it, at one new heat per episode.
_CELLS = 1 << 22


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
    hit = _best(g, h.position, h.goal, by_distance=True)
    if hit is None:
        raise ValueError(f"human goal {h.goal} unreachable from "
                         f"position {h.position}")
    return hit[2]


def build_heat_map(g, h, params):
    """Edge heat induced by the human, as {(a, b): heat}.

    Rule (a): every edge with at least one endpoint on the predicted path
    gets path_heat.  Rule (b): every edge incident to the human's position
    gets at least neighbor_heat * uncertainty.  Overlaps take the maximum;
    zero-valued entries are dropped.
    """
    heat = {}
    hops, keys = g._hops, g._keys
    if h.predicted_path is not None and params.path_heat > 0.0:
        for node in set(h.predicted_path):
            for _, _, i in hops[g.check_node(node)]:
                heat[keys[i]] = params.path_heat
    spill = params.neighbor_heat * h.uncertainty
    if spill > 0.0:
        for _, _, i in hops[g.check_node(h.position)]:
            key = keys[i]
            if heat.get(key, 0.0) < spill:
                heat[key] = spill
    return heat


def apply_heat(g, heat_map):
    """Heat overlay of g: an edge's success mass scales by (1 - heat).

    The removed mass becomes retry and p_fail is untouched, so heat models
    temporary blockage, not added danger; a zero heat leaves a row as is.
    Each key must name an edge, either way round, and each heat be a
    number in [0, 1), on a memo hit too.  A heated row and its effective
    success are memoized per heat and edge number; the overlay gets the
    rows by edge number and one patched copy of g's effective-success list.
    """
    index, keys = g._index, g._keys
    effs, rows, last = g._effs.copy(), {}, None
    for key, h in heat_map.items():
        # only a pair of exact ints is looked up directly: (0, True) or
        # (0.0, 1) would hash like (0, 1); reversed pairs, misses and any
        # other key take the checked path, which names a bad node
        i = (index.get(key) if type(key) is tuple and len(key) == 2
             and type(key[0]) is int and type(key[1]) is int else None)
        if i is None:
            try:
                edge = g.edge(*key)
            except TypeError:  # a key that is not a pair of nodes
                edge = None
            if edge is None:
                raise ValueError(f"heat on missing edge {key!r}")
            i = index[edge.key()]
        # build_heat_map yields floats, so they skip the full type check
        if not (type(h) is float or _is_number(h)) or not 0.0 <= h < 1.0:
            raise ValueError(f"heat {h!r} outside [0, 1)")
        if h == 0.0:
            continue
        if h != last:  # a heat map mostly repeats one heat
            memo = g.memo("heated")
            last, per = h, memo.get(h)
            if per is None:
                per = _remember(memo, h, {})
        hit = per.get(i)
        if hit is None:
            p = g.probs(g.edges[keys[i]])
            scaled = p.p_success * (1.0 - h)
            row = OutcomeProbs(scaled, p.p_retry + (p.p_success - scaled),
                               p.p_fail)
            hit = per[i] = (row, effective_success(row))
        rows[i], effs[i] = hit
    return HeatedGraph(g, rows, effs)


@dataclass(slots=True)
class _Heat:
    """One heat map of a human table, built whole when the table first
    meets it: the map, its heated rows by edge number and patched copy of
    the graph's effective-success list, as apply_heat gives them, and
    lowers, whether no heated edge's effective success is higher in effs
    than on the graph.  It never keeps an overlay, which would refer to
    the graph.
    """

    map: dict
    rows: dict
    effs: list
    lowers: bool


class _HumanTable:
    """Every human state reached on one graph, each under an int id, and
    the robot's steps toward one mission's waypoints under their heats.

    states holds the states by id and ids their ids; the columns are
    stdlib arrays indexed by id, which the scalar tick reads as ints and
    the lockstep engine through numpy views: pos, goal (-1 for none) and
    deg, the position's degree; follow_ids and heat_ids, the id of the
    follow successor and of the heat map in heats; and first, where the
    divergence successors start in divs, one slot per neighbour and at
    least one, so a gather at first of a degree-0 state stays in bounds.
    Successors and heats are filled when first needed, -1 until then.
    heats holds one _Heat per heat map, which heat_keys keys by the
    frozenset of its (edge key, heat) pairs, so states with equal heat
    maps share it; a divergence successor is predicted once per (new
    position, goal, uncertainty), whichever state diverged there.

    The robot's steps, which both engines read, are numbered: cells
    holds one row per heat id, of width cells, one per (robot, index of
    the target in waypoints), holding a step's number, -1 until filled.
    By number, nodes holds the nodes of _plan_step's path, and the
    columns nxt, ps, psr and eff its next node, the heated p_success and
    p_success + p_retry of its first edge and that row's effective
    success.  asks keeps, per (human id, step number), what asking that
    human to move at that step gave (sim._ask), which the mission's safe
    locations, safe, fix.

    The table grows within a tick and is emptied only between ticks, by
    whoever holds ids: once full, reintern drops every state, heat,
    step and answer, since states, steps and answers hold ids, and gives
    the held states new ids.  The graph's memo holds the table, and the
    table never refers to the graph: each call that reads it takes g.
    """

    _COLUMNS = ("pos", "goal", "deg", "follow_ids", "heat_ids", "first",
                "divs")
    _STEPS = ("cells", "nodes", "nxt", "ps", "psr", "eff")
    __slots__ = ("params", "waypoints", "safe", "width", "ids", "states",
                 "heats", "heat_keys", "diverged", "asks") + _COLUMNS + _STEPS

    def __init__(self, params, n, waypoints, safe):
        self.params, self.waypoints, self.safe = params, waypoints, safe
        self.width = n * len(waypoints)
        self.ids, self.states, self.heats = {}, [], []
        self.heat_keys, self.diverged, self.asks = {}, {}, {}
        for name in self._COLUMNS:
            setattr(self, name, array("q"))
        self.cells, self.nodes, self.nxt = array("i"), [], array("q")
        self.ps, self.psr, self.eff = array("d"), array("d"), array("d")

    def clear(self):
        """Drop every state, id, heat, step and answer, keeping the
        containers that callers hold."""
        for table in (self.ids, self.states, self.heats, self.heat_keys,
                      self.diverged, self.asks):
            table.clear()
        for name in self._COLUMNS + self._STEPS:
            del getattr(self, name)[:]

    def full(self):
        """Whether the table is to be emptied before a tick: once it holds
        L states, L being env._STEP_MEMO_LIMIT, or more than L steps or
        answers or _CELLS cells.  A tick of k episodes (1 on the scalar
        loop, the live lanes of a lockstep loop step) adds at most 2k
        states, k steps, k answers and k * width cells to the at most
        max(L - 1, k) states the check leaves (reintern keeps up to k), so
        the table never holds more than max(L - 1, k) + 2k states (L + 1
        on the scalar loop), L + k steps or answers or _CELLS + k * width
        cells, besides each episode's human, interned before its first
        check."""
        return (_full(self.states, 2) or _full(self.nodes)
                or _full(self.asks) or len(self.cells) > _CELLS)

    def intern(self, g, h):
        """The id of state h, given a new row if h is new."""
        hid = self.ids.get(h)
        if hid is None:
            hid = self.ids[h] = len(self.states)
            deg = len(g._hops[g.check_node(h.position)])
            self.states.append(h)
            self.pos.append(h.position)
            self.goal.append(-1 if h.goal is None else h.goal)
            self.deg.append(deg)
            self.follow_ids.append(-1)
            self.heat_ids.append(-1)
            self.first.append(len(self.divs))
            self.divs.extend([-1] * max(deg, 1))
        return hid

    def reintern(self, g, hids):
        """Empty the table but the states of hids; returns a dict from
        each of hids to the id of its state in the emptied table."""
        states = {hid: self.states[hid] for hid in hids}
        self.clear()
        return {hid: self.intern(g, h) for hid, h in states.items()}

    def step(self, g, hid, rng):
        """The id of the human one tick after state hid.

        The draw rule: random() only when the uncertainty u is positive,
        and with probability u the human diverges, drawing integers(deg)
        only on a node with neighbours; otherwise it follows.
        """
        u = self.states[hid].uncertainty
        if u > 0.0 and rng.random() < u:
            deg = self.deg[hid]
            if not deg:
                return hid
            k = rng.integers(deg)
            nxt = self.divs[self.first[hid] + k]
            return self.diverge(g, hid, k) if nxt < 0 else nxt
        nxt = self.follow_ids[hid]
        return self.follow(g, hid) if nxt < 0 else nxt

    def follow(self, g, hid):
        """The id of state hid's follow successor, filled when needed."""
        nxt = self.follow_ids[hid]
        if nxt < 0:
            nxt = self.intern(g, _follow(g, self.states[hid]))
            self.follow_ids[hid] = nxt
        return nxt

    def diverge(self, g, hid, k):
        """The id of state hid's divergence successor toward its k-th
        neighbour, filled when needed."""
        slot = self.first[hid] + k
        nxt = self.divs[slot]
        if nxt < 0:
            h = self.states[hid]
            key = (g._hops[h.position][k][0], h.goal, h.uncertainty)
            nxt = self.diverged.get(key)
            if nxt is None:
                nxt = self.diverged[key] = self.intern(g, _predicted(g, *key))
            self.divs[slot] = nxt
        return nxt

    def heat(self, g, hid):
        """The id in heats of state hid's heat map under params, filled
        when needed; a new heat is built whole and gets its row of
        cells."""
        heat = self.heat_ids[hid]
        if heat < 0:
            heat_map = build_heat_map(g, self.states[hid], self.params)
            heat = self.heat_keys.setdefault(frozenset(heat_map.items()),
                                             len(self.heats))
            if heat == len(self.heats):
                hot = apply_heat(g, heat_map)
                self.heats.append(_Heat(heat_map, hot.rows, hot._effs, all(
                    hot._effs[i] <= g._effs[i] for i in hot.rows)))
                self.cells.extend(array("i", [-1]) * self.width)
            self.heat_ids[hid] = heat
        return heat

    def plan(self, g, heat, robot, way):
        """The number of the step from robot toward the way-th waypoint
        under heats[heat], planned and numbered when new."""
        cell = heat * self.width + robot * len(self.waypoints) + way
        number = self.cells[cell]
        if number < 0:
            nodes, row, eff = _plan_step(g, robot, self.waypoints[way],
                                         self.heats[heat])
            number = self.cells[cell] = len(self.nodes)
            self.nodes.append(nodes)
            self.nxt.append(nodes[1])
            self.ps.append(row.p_success)
            self.psr.append(row.p_success + row.p_retry)
            self.eff.append(eff)
        return number


def _lanes(g, mission):
    """How many episodes of mission on g one loop step of a sweep job may
    advance: each may bring a new heat, of one step cell per node and
    waypoint, and a loop step brings no more than _CELLS cells."""
    return _CELLS // (g.node_count * (len(mission.tasks) + 1))


def _plan_step(g, robot, target, heat):
    """The step toward target under a human table's _Heat: the nodes of
    the max-success path on the heated map, the heated outcome row of its
    first edge and that row's effective success, read by its edge number.
    The path is g's when the heat raises no effective success and the
    planner proves the heated search returns it; else a search to target
    runs on the heat's list."""
    entry = _heat_proof(g, robot, target, heat.map) if heat.lowers else None
    if entry is None:
        entry = _search(g, heat.effs, robot, target).get(target)
        if entry is None:
            raise RuntimeError(f"objective {target} unreachable from {robot}")
    nodes = entry[2]
    key = (robot, nodes[1]) if robot < nodes[1] else (nodes[1], robot)
    i = g._index[key]
    return nodes, heat.rows.get(i) or g.probs(g.edges[key]), heat.effs[i]


def _human_table(g, params, mission=None):
    """g's table of human states whose heat is taken under params, with
    the steps toward mission's waypoints (none without a mission); a
    table for other waypoints or safe locations is replaced by a new one.
    On a heat overlay, whose memo keeps nothing, a new table on each
    call."""
    tables = g.memo("human")
    table = tables.get(params)
    key = ((), ()) if mission is None else (mission.tasks + (mission.end,),
                                            mission.safe_locations)
    if table is None or (table.waypoints, table.safe) != key:
        table = _remember(tables, params,
                          _HumanTable(params, g.node_count, *key))
    return table


def _predicted(g, pos, goal, u):
    """The human at pos with that goal and uncertainty, predicted anew."""
    return HumanState(pos, goal, u,
                      predict_human_path(g, HumanState(pos, goal, u)))


def _follow(g, h):
    """h one step along its prediction, or h itself when it has none or
    has arrived; a hop that is not an edge raises ValueError."""
    path = h.predicted_path
    if path is None or len(path) < 2:
        return h
    if g.edge(path[0], path[1]) is None:
        raise ValueError(f"no edge {path[0]}-{path[1]} to follow")
    return HumanState(path[1], h.goal, h.uncertainty, path[1:])


def step_human(g, h, rng):
    """Advance the human one tick; returns the new state.

    With probability (1 - uncertainty) the human follows its predicted
    path (staying put when there is none or it has arrived; a hop that is
    not an edge raises ValueError); otherwise it moves to a uniformly
    random neighbour, staying put on a node with none, and
    predict_human_path re-predicts it toward the unchanged goal.
    rng is anything with random() and integers(n), such as a numpy
    Generator.  The step is read from g's table of human states.
    """
    table = _human_table(g, None)
    if table.full():
        table.clear()
    return table.states[table.step(g, table.intern(g, h), rng)]
