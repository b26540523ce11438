"""Human motion prediction and heat-weighted risk updates.

The robot models the human as walking the shortest-distance path toward a
goal, deviating to a uniformly random neighbour with probability equal to
its uncertainty; without a goal it is predicted to stay where it is.
predict_human_path makes every prediction, a tuple of node ids, so the
human's transition rule is one draw rule over pure successors: the follow
successor of a state, and its divergence successor toward each neighbour.
Predicted presence is projected onto the graph as edge "heat"; heat scales
success mass down (blocked attempts become retries, never catastrophes).

A graph's memo holds one table of human states per set of heat parameters:
each state reached gets an int id, and its row keeps its successors' ids
and its heat map, filled when first needed.  step_human is an intern into
that table plus one step of it; an episode carries the id from tick to
tick.
"""

from __future__ import annotations

from dataclasses import dataclass

from .env import (HeatedGraph, OutcomeProbs, _full, _is_number, _remember,
                  effective_success)
from .planner import _best


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
    rows and one patched copy of g's effective-success list.
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
        rows[keys[i]], effs[i] = hit
    return HeatedGraph(g, rows, effs)


class _Heat:
    """One heat map of a human table.

    id is its number in the table, which sets it and keys its steps by
    it; items is the frozenset of its (edge key, heat) pairs, which keys
    it in the table; map is the map itself.  Its heated rows by edge key
    and its patched copy of the graph's effective-success list come from
    apply_heat on the first call of effs and are kept, but never an
    overlay, which would refer to the graph.
    """

    __slots__ = ("id", "items", "map", "_rows", "_effs", "_lowers")

    def __init__(self, heat_map):
        self.id = None
        self.items = frozenset(heat_map.items())
        self.map = heat_map
        self._rows = self._effs = self._lowers = None

    def effs(self, g):
        """The effective-success list of apply_heat(g, map), kept with its
        rows and with lowers(g) on the first call."""
        if self._effs is None:
            hot, index = apply_heat(g, self.map), g._index
            self._rows, self._effs = hot.overrides, hot._effs
            self._lowers = all(hot._effs[index[key]] <= g._effs[index[key]]
                               for key in self._rows)
        return self._effs

    def lowers(self, g):
        """Whether no heated edge's effective success is higher in effs(g)
        than on g."""
        self.effs(g)
        return self._lowers


class _HumanTable:
    """Every human state reached on one graph, each under an int id.

    Row i of rows is [state i, the id of its follow successor, the ids of
    its divergence successors by neighbour index, its _Heat under params],
    each filled when first needed; states with equal heat maps share one
    _Heat.  A divergence successor is predicted once per (new position,
    goal, uncertainty), whichever state diverged there.  steps holds the
    robot's steps under each _Heat (a _lockstep._Steps) and cols the
    lockstep engine's int columns of the rows.  Once full, past
    _STEP_MEMO_LIMIT rows or when its heats fill the steps' cells, the
    table drops its ids, rows, heats and steps together, since rows hold
    ids and steps are kept per heat id; only the id that the latest intern
    or step returned stays valid, so a caller keeps that one.  A pinned
    table is never dropped by an intern: its holder keeps many ids and
    calls reintern between its steps instead.

    The graph's memo holds the table, and the table never refers to the
    graph: each call that reads it takes g.
    """

    __slots__ = ("params", "pinned", "ids", "rows", "heats", "diverged",
                 "cols", "steps")

    def __init__(self, params):
        self.params = params
        self.pinned = False
        self.ids = {}
        self.rows = []
        self.heats = {}
        self.diverged = {}
        self.cols = None
        self.steps = None

    def clear(self):
        """Drop every row, id, heat, step and column, keeping the
        containers that callers may hold."""
        for table in (self.ids, self.rows, self.heats, self.diverged):
            table.clear()
        self.cols = None
        if self.steps is not None:
            self.steps.clear()

    def full(self):
        """Whether the table is to be dropped before it takes a row."""
        return _full(self.rows) or (self.steps is not None
                                    and self.steps.full(len(self.heats)))

    def intern(self, h):
        """The id of state h, given a new row if h is new."""
        hid = self.ids.get(h)
        if hid is None:
            if not self.pinned and self.full():
                self.clear()
            hid = self.ids[h] = len(self.rows)
            self.rows.append([h, None, None, None])
        return hid

    def reintern(self, hids):
        """Drop a full table but the states of hids; returns a dict from
        each of hids to the id of its state in the emptied table."""
        states = {hid: self.rows[hid][0] for hid in hids}
        self.clear()
        return {hid: self.intern(h) for hid, h in states.items()}

    def step(self, g, hid, rng):
        """The id of the human one tick after state hid.

        The draw rule: random() only when the uncertainty u is positive,
        and with probability u the human diverges, drawing integers(deg)
        only on a node with neighbours; otherwise it follows.
        """
        row = self.rows[hid]
        u = row[0].uncertainty
        if u > 0.0 and rng.random() < u:
            out = row[2]
            if out is None:
                out = self._out(g, row)
            if not out:
                return hid
            k = rng.integers(len(out))
            nxt = out[k]
            return self.diverge(g, hid, k) if nxt is None else nxt
        nxt = row[1]
        return self.follow(g, hid) if nxt is None else nxt

    def _out(self, g, row):
        """The row's divergence successors by neighbour index, made when
        first needed."""
        if row[2] is None:
            row[2] = [None] * len(g._hops[row[0].position])
        return row[2]

    def follow(self, g, hid):
        """The id of state hid's follow successor, filled when needed."""
        row = self.rows[hid]
        if row[1] is None:
            row[1] = self.intern(_follow(g, row[0]))
        return row[1]

    def diverge(self, g, hid, k):
        """The id of state hid's divergence successor toward its k-th
        neighbour, filled when needed."""
        row = self.rows[hid]
        out = self._out(g, row)
        if out[k] is None:
            h = row[0]
            key = (g._hops[h.position][k][0], h.goal, h.uncertainty)
            nxt = self.diverged.get(key)
            if nxt is None:
                nxt = self.intern(_predicted(g, *key))
                self.diverged[key] = nxt
            out[k] = nxt
        return out[k]

    def heat(self, g, hid):
        """The _Heat of state hid under params."""
        row = self.rows[hid]
        if row[3] is None:
            heat = _Heat(build_heat_map(g, row[0], self.params))
            heat.id = len(self.heats)
            row[3] = self.heats.setdefault(heat.items, heat)
        return row[3]


def _human_table(g, params):
    """g's table of human states whose heat is taken under params; on a
    heat overlay, whose memo keeps nothing, a new table on each call."""
    tables = g.memo("human")
    table = tables.get(params)
    if table is None:
        table = _remember(tables, params, _HumanTable(params))
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
    return table.rows[table.step(g, table.intern(h), rng)][0]
