"""Risk-classed graph environments.

An environment is an undirected graph over integer node ids 0..n-1.  Every
edge carries a physical distance and a risk class name; the risk table maps
each class to the outcome probabilities of a single traversal attempt
(success / retry / catastrophic failure).  Environments and missions are
loaded from plain JSON documents with a fixed schema.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

RISK_CLASS_NAMES = ("Low", "Medium", "High", "Severe")

# class -> (p_success, p_retry); p_fail is the remaining mass
DEFAULT_RISK_TABLE = {
    "Low": (0.999, 0.000975),
    "Medium": (0.99, 0.00975),
    "High": (0.95, 0.04875),
    "Severe": (0.90, 0.0975),
}

PROB_SUM_TOL = 1e-12
MAX_TASKS = 10  # 11 tasks would take order_tasks about 5 s per start
_STEP_MEMO_LIMIT = 200_000  # a per-tick memo table is cleared past this size


@dataclass(frozen=True)
class OutcomeProbs:
    """Outcome distribution of a single edge-traversal attempt."""

    p_success: float
    p_retry: float
    p_fail: float

    def __post_init__(self):
        for name in ("p_success", "p_retry", "p_fail"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name}={p} outside [0, 1]")
        if self.p_success <= 0.0:
            raise ValueError("p_success must be strictly positive")
        total = self.p_success + self.p_retry + self.p_fail
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_pair(cls, p_success, p_retry):
        """Build from (p_success, p_retry); p_fail is the implied remainder."""
        if p_retry == 1.0:
            # admitted by the sum tolerance when p_success <= 1e-12, but
            # an edge that can be neither crossed nor failed has no
            # absorption probability
            raise ValueError("p_retry of 1.0 leaves an edge that can be "
                             "neither crossed nor failed")
        return cls(p_success, p_retry, max(0.0, 1.0 - (p_success + p_retry)))


def effective_success(probs):
    """Probability of eventually crossing an edge under unlimited retries.

    Retries resolve geometrically, so the traversal ends in success with
    probability p_success / (p_success + p_fail), exactly 1 when p_fail == 0
    since p_success > 0.
    """
    return probs.p_success / (probs.p_success + probs.p_fail)


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    distance: float
    risk: str

    def key(self):
        return (self.a, self.b)


def _full(table):
    """Whether a per-tick memo table must be emptied before it grows."""
    return len(table) > _STEP_MEMO_LIMIT


def _remember(table, key, value):
    """Store value under key in a per-tick memo table and return it; the
    table is emptied first once it is _full."""
    if _full(table):
        table.clear()
    table[key] = value
    return value


class EnvironmentGraph:
    """Undirected risk-classed graph; treat as immutable once constructed.

    Adjacency queries return neighbours in ascending node-id order, so every
    traversal of the structure is deterministic.  The constructor checks
    every edge, naming its index, and stores it with a < b and a float
    distance; the node count must be an int of at least 1, and every risk
    table row an OutcomeProbs.
    """

    def __init__(self, node_count, risk_table, edges, labels=None, xy=None):
        if not _is_number(node_count, int):
            raise ValueError(f"node count {node_count!r} must be an integer")
        if node_count < 1:
            raise ValueError(f"node count {node_count} below 1")
        self.node_count = node_count
        self.risk_table = dict(risk_table)
        for name, p in self.risk_table.items():
            if not isinstance(p, OutcomeProbs):
                raise ValueError(f"risk class {name!r}: {p!r} is not an "
                                 "OutcomeProbs")
        self.labels = dict(labels or {})
        self.xy = dict(xy or {})
        self.edges = {}
        for i, e in enumerate(edges):
            e = self._checked_edge(i, e)
            if e.key() in self.edges:
                raise ValueError(f"edge {i}: duplicate edge ({e.a}, {e.b})")
            self.edges[e.key()] = e
        self._adj = [[] for _ in range(node_count)]
        for e in self.edges.values():
            self._adj[e.a].append((e.b, e))
            self._adj[e.b].append((e.a, e))
        for lst in self._adj:
            lst.sort(key=lambda pair: pair[0])
        self._eff = {name: effective_success(p)
                     for name, p in self.risk_table.items()}
        # the one owner of every planning and per-tick cache; each entry
        # is a pure function of the (immutable) graph and its key
        self._memo = {}

    def _checked_edge(self, i, e):
        a, b, dist, risk = e.a, e.b, e.distance, e.risk
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"edge {i}: endpoints must be integers")
        if a == b:
            raise ValueError(f"edge {i}: self-loop at node {a}")
        if not (0 <= min(a, b) and max(a, b) < self.node_count):
            raise ValueError(f"edge {i}: endpoint outside "
                             f"0..{self.node_count - 1}")
        # an int beyond the float range is refused as not finite, as a
        # JSON 1e400 (which loads as inf) is
        if not (_is_number(dist) or _is_number(dist, int)) or not dist > 0:
            raise ValueError(f"edge {i}: distance {dist!r} not positive")
        if not (_is_number(dist) and math.isfinite(dist)):
            raise ValueError(f"edge {i}: distance {dist!r} not finite")
        if not isinstance(risk, str):
            raise ValueError(f"edge {i}: risk class {risk!r} must be a name")
        if risk not in self.risk_table:
            raise ValueError(f"edge {i}: risk class {risk!r} not declared")
        return Edge(min(a, b), max(a, b), float(dist), risk)

    def __getstate__(self):
        # memo entries are derived data, so a pickled graph starts cold
        return {**self.__dict__, "_memo": {}}

    def memo(self, table):
        """The graph's shared memo table of that name, created empty."""
        return self._memo.setdefault(table, {})

    @property
    def nodes(self):
        return range(self.node_count)

    def check_node(self, node):
        if type(node) is not int:
            raise ValueError(f"node {node!r} must be an int, not "
                             f"{type(node).__name__}")
        if not (0 <= node < self.node_count):
            raise ValueError(f"node {node!r} outside 0..{self.node_count - 1}")
        return node

    def neighbors(self, node):
        """Sorted list of (neighbour_id, Edge) pairs incident to node."""
        self.check_node(node)
        return self._adj[node]

    def edge(self, a, b):
        """The edge between a and b, or None."""
        self.check_node(a)
        self.check_node(b)
        if a > b:
            a, b = b, a
        return self.edges.get((a, b))

    def probs(self, edge):
        return self.risk_table[edge.risk]

    def effective(self, edge):
        return self._eff[edge.risk]

    def __eq__(self, other):
        if not isinstance(other, EnvironmentGraph):
            return NotImplemented
        return (self.node_count == other.node_count
                and self.risk_table == other.risk_table
                and self.edges == other.edges
                and self.labels == other.labels
                and self.xy == other.xy)


class HeatedGraph:
    """Read-only overlay replacing outcome probabilities on selected edges.

    Takes its topology (node_count, nodes, check_node, neighbors, edge and
    the adjacency) from the base graph and keeps only the heated rows;
    effective() reads a heated edge's value off its row.  Planner and
    validator code accepts either graph type.  An overlay shares no memo:
    its probabilities are not its base's.
    """

    def __init__(self, base, overrides):
        self.base = base
        self._adj = base._adj
        self.node_count = base.node_count
        self.nodes = base.nodes
        self.check_node = base.check_node
        self.neighbors = base.neighbors
        self.edge = base.edge
        self.overrides = dict(overrides)

    def memo(self, table):
        """A fresh table each call, so nothing derived here is kept."""
        return {}

    def probs(self, edge):
        hit = self.overrides.get(edge.key())
        return hit if hit is not None else self.base.probs(edge)

    def effective(self, edge):
        hit = self.overrides.get(edge.key())
        return (effective_success(hit) if hit is not None
                else self.base.effective(edge))


@dataclass(frozen=True)
class MissionSpec:
    """A task set, a mandatory final node, and the safety parameters.

    start is None when the robot's start node is drawn uniformly at random
    per episode.  tasks holds at most MAX_TASKS nodes, since order_tasks
    scores every visiting order.
    """

    start: int | None
    tasks: tuple
    end: int
    safe_locations: tuple
    threshold: float = 0.9
    hold_limit: int = 10

    def __post_init__(self):
        for name in ("tasks", "safe_locations"):
            if not isinstance(getattr(self, name), tuple):
                raise ValueError(f"{name} must be a tuple of node ids")
        if len(self.tasks) > MAX_TASKS:
            raise ValueError(f"{len(self.tasks)} tasks exceed the limit of "
                             f"{MAX_TASKS}")
        if not (_is_number(self.threshold) and 0.0 < self.threshold <= 1.0):
            raise ValueError(f"threshold {self.threshold!r} outside (0, 1]")
        if not _is_number(self.hold_limit, int):
            raise ValueError(f"hold_limit {self.hold_limit!r} must be an "
                             "integer")
        if self.hold_limit < 1:
            raise ValueError(f"hold_limit {self.hold_limit} below 1")
        if self.end in self.tasks:
            raise ValueError(f"end node {self.end} also listed as a task")
        if len(set(self.tasks)) != len(self.tasks):
            raise ValueError("duplicate task nodes")


# ---------------------------------------------------------------------------
# JSON schemas

_ENV_FIELDS = {"nodes", "risk_table", "edges"}
_NODE_FIELDS = {"label", "xy"}
_MISSION_FIELDS = {"start", "tasks", "end", "safe_locations",
                   "threshold", "hold_limit"}


def _is_number(v, kinds=(int, float)):
    """isinstance for a JSON value; true and false load as bools, not ints,
    and where a float is accepted an int beyond the float range is not."""
    return (isinstance(v, kinds) and not isinstance(v, bool)
            and not (type(v) is int and isinstance(0.0, kinds)
                     and abs(v) > sys.float_info.max))


def _reject_unknown(doc, allowed, what):
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"{what}: unknown field(s) {sorted(unknown)}")


def _parse_risk_table(doc):
    if not isinstance(doc, dict):
        raise ValueError("'risk_table' must be an object")
    table = {}
    for name, pair in doc.items():
        if name not in RISK_CLASS_NAMES:
            raise ValueError(f"risk class {name!r} not one of "
                             f"{list(RISK_CLASS_NAMES)}")
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(_is_number(p) for p in pair)):
            raise ValueError(f"risk class {name!r}: expected "
                             "[p_success, p_retry]")
        try:
            table[name] = OutcomeProbs.from_pair(float(pair[0]),
                                                 float(pair[1]))
        except ValueError as exc:
            raise ValueError(f"risk class {name!r}: {exc}") from exc
    if not table:
        raise ValueError("risk_table declares no classes")
    return table


def environment_from_dict(doc):
    """Build an EnvironmentGraph from a schema-checked JSON document."""
    if not isinstance(doc, dict):
        raise ValueError("environment document must be an object")
    _reject_unknown(doc, _ENV_FIELDS, "environment")
    if "nodes" not in doc or "edges" not in doc:
        raise ValueError("environment requires 'nodes' and 'edges'")

    nodes = doc["nodes"]
    labels, xy = {}, {}
    if _is_number(nodes, int):
        count = nodes
    elif isinstance(nodes, list):
        count = len(nodes)
        for i, entry in enumerate(nodes):
            if entry is None:
                continue
            if not isinstance(entry, dict):
                raise ValueError(f"node {i}: expected an object")
            _reject_unknown(entry, _NODE_FIELDS, f"node {i}")
            if "label" in entry:
                labels[i] = str(entry["label"])
            if "xy" in entry:
                pt = entry["xy"]
                if (not isinstance(pt, (list, tuple)) or len(pt) != 2
                        or not all(_is_number(v) for v in pt)):
                    raise ValueError(f"node {i}: xy must be [x, y]")
                xy[i] = (float(pt[0]), float(pt[1]))
    else:
        raise ValueError("'nodes' must be an integer count or a list")

    table = _parse_risk_table(doc.get("risk_table", DEFAULT_RISK_TABLE))

    if not isinstance(doc["edges"], list):
        raise ValueError("'edges' must be a list")
    edges = []
    for i, row in enumerate(doc["edges"]):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise ValueError(f"edge {i}: expected [a, b, distance, class]")
        edges.append(Edge(*row))

    return EnvironmentGraph(count, table, edges, labels, xy)


def environment_to_dict(g):
    """Inverse of environment_from_dict (canonical edge order)."""
    if g.labels or g.xy:
        nodes = []
        for i in range(g.node_count):
            entry = {}
            if i in g.labels:
                entry["label"] = g.labels[i]
            if i in g.xy:
                entry["xy"] = list(g.xy[i])
            nodes.append(entry)
    else:
        nodes = g.node_count
    table = {name: [p.p_success, p.p_retry]
             for name, p in g.risk_table.items()}
    edges = [[e.a, e.b, e.distance, e.risk]
             for e in sorted(g.edges.values(), key=Edge.key)]
    return {"nodes": nodes, "risk_table": table, "edges": edges}


def mission_from_dict(doc, env=None):
    """Build a MissionSpec; node ids are range-checked when env is given."""
    if not isinstance(doc, dict):
        raise ValueError("mission document must be an object")
    _reject_unknown(doc, _MISSION_FIELDS, "mission")
    for req in ("start", "tasks", "end", "safe_locations"):
        if req not in doc:
            raise ValueError(f"mission requires field {req!r}")

    start = doc["start"]
    if start == "random":
        start = None
    elif not _is_number(start, int):
        raise ValueError(f"start {start!r} must be a node id or \"random\"")

    def int_list(name):
        val = doc[name]
        if (not isinstance(val, list)
                or not all(_is_number(v, int) for v in val)):
            raise ValueError(f"mission field {name!r} must be a list of "
                             "node ids")
        return tuple(val)

    tasks = int_list("tasks")
    safe = int_list("safe_locations")
    end = doc["end"]
    if not _is_number(end, int):
        raise ValueError(f"end {end!r} must be a node id")
    m = MissionSpec(start, tasks, end, safe, doc.get("threshold", 0.9),
                    doc.get("hold_limit", 10))
    if env is not None:
        referenced = list(tasks) + list(safe) + [end]
        if m.start is not None:
            referenced.append(m.start)
        for node in referenced:
            env.check_node(node)
    return m


def mission_to_dict(m):
    return {
        "start": "random" if m.start is None else m.start,
        "tasks": list(m.tasks),
        "end": m.end,
        "safe_locations": list(m.safe_locations),
        "threshold": m.threshold,
        "hold_limit": m.hold_limit,
    }


def _read_json(source):
    if isinstance(source, dict):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}: not valid JSON ({exc})") from exc


def load_environment(source):
    """Load an environment from a JSON file path or a parsed document."""
    return environment_from_dict(_read_json(source))


def save_environment(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(environment_to_dict(g), fh, indent=2)
        fh.write("\n")


def load_mission(source, env=None):
    """Load a mission from a JSON file path or a parsed document."""
    return mission_from_dict(_read_json(source), env)


def save_mission(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mission_to_dict(m), fh, indent=2)
        fh.write("\n")


def _bundled(name):
    return json.loads(
        resources.files("risknav").joinpath(f"data/{name}").read_text())


def load_default_environment():
    """The bundled 30-node apartment-like environment."""
    return environment_from_dict(_bundled("default_environment.json"))


def load_default_mission(env=None):
    """The bundled surveillance mission over the default environment."""
    return mission_from_dict(_bundled("default_mission.json"), env)


# no file means the bundled map or mission, for the CLI and sweep configs
def _environment_or_default(path):
    return load_default_environment() if path is None else \
        load_environment(path)


def _mission_or_default(path, env):
    return load_default_mission(env) if path is None else \
        load_mission(path, env)
