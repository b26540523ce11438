"""Mission episodes and Monte-Carlo uncertainty sweeps.

An episode runs one robot mission against one simulated human.  Each tick
the human moves first, the robot rebuilds the heat overlay and replans,
and the next edge is traversed only while its heated effective success
stays at or above the mission threshold; persistent blockage triggers a
single redirect request per hold episode and eventually a hold timeout.

Sweeps repeat episodes across uncertainty levels with per-episode seeds
derived from (base seed, level index, episode index), so results are
independent of worker count and chunking.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .env import (EnvironmentGraph, MissionSpec, _is_number, _read_json,
                  load_default_environment, load_default_mission,
                  load_environment, load_mission)
from .human import (HeatParams, HumanState, apply_heat, build_heat_map,
                    step_human)
from .planner import (Path, check_reachable, max_success_path, order_tasks,
                      shortest_distance_path)

HOLD_TIMEOUT = "hold_timeout"
CATASTROPHIC = "catastrophic"

# Consecutive hold ticks required before a redirect request is issued.
REDIRECT_PATIENCE = 2

_TICK_GUARD = 100_000  # sanity bound; a legitimate episode never gets close
_STEP_MEMO_LIMIT = 200_000  # the graph's step memo is cleared past this size

_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed, level_index, episode_index):
    """Per-episode seed stream: splitmix64 over (base, level, episode)."""
    z = _splitmix64(base_seed & _MASK64)
    z = _splitmix64(z ^ ((level_index * 0x9E3779B97F4A7C15) & _MASK64))
    z = _splitmix64(z ^ ((episode_index * 0xBF58476D1CE4E5B9) & _MASK64))
    return z


@dataclass(frozen=True)
class EpisodeConfig:
    environment: EnvironmentGraph
    mission: MissionSpec
    heat: HeatParams
    uncertainty: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.uncertainty <= 1.0):
            raise ValueError(
                f"uncertainty {self.uncertainty} outside [0, 1]")
        if not _is_number(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed {self.seed!r} must be a non-negative "
                             "integer")


@dataclass(frozen=True)
class EpisodeOutcome:
    success: bool
    failure_cause: str | None
    steps: int
    redirects: int
    final_robot_node: int


def _ensure_prediction(h):
    # an idle human (no goal) is predicted to stay in place, so its
    # presence still heats the edges around it; a human with a goal
    # always carries its prediction
    if h.predicted_path is not None:
        return h
    return replace(h, predicted_path=Path((h.position,), 0.0, 1.0))


def _redirect_target(g, mission, human_pos, robot_path_nodes):
    """The human's leg to the nearest safe location by distance that is
    off the robot's path (ties to the smaller node id), or None."""
    legs = [shortest_distance_path(g, human_pos, s)
            for s in mission.safe_locations if s not in robot_path_nodes]
    return min((leg for leg in legs if leg is not None), default=None,
               key=lambda leg: (leg.total_distance, leg.nodes[-1]))


def _conflicts(human, a, b):
    # the prediction is never missing here, and starts at the position
    nodes = human.predicted_path.nodes
    return a in nodes or b in nodes


def run_episode(cfg):
    """Run one mission episode; deterministic for a given config.

    Each tick's step (the max-success path on the heated map, the heated
    outcome row of its first edge and that row's effective success)
    depends only on the robot, the objective and the heat map, so it is
    memoized on the environment graph and shared by every episode that
    graph runs.  The robot moves only while that effective success is at
    least the mission threshold.
    """
    g = cfg.environment
    mission = cfg.mission
    rng = np.random.default_rng(cfg.seed)

    if mission.start is not None:
        robot = g.check_node(mission.start)
    else:
        robot = int(rng.integers(g.node_count))
    human = HumanState(position=int(rng.integers(g.node_count)),
                       uncertainty=cfg.uncertainty)
    human = _ensure_prediction(human)

    route = order_tasks(g, mission, robot).ordered_tasks
    step_memo = g._memo.setdefault("step", {})
    idx = 0
    while idx < len(route) and robot == route[idx]:
        idx += 1

    steps = 0
    redirects = 0
    holds = 0
    redirect_tried = False
    outstanding = None
    settled = 0

    while idx < len(route):
        if steps >= _TICK_GUARD:
            raise RuntimeError("episode exceeded the tick guard")
        steps += 1

        human = step_human(g, human, rng)
        human = _ensure_prediction(human)
        if outstanding is not None:
            settled = settled + 1 if human.position == outstanding else 0
        heat = build_heat_map(g, human, cfg.heat)

        target = route[idx]
        key = (robot, target, tuple(sorted(heat.items())))
        step = step_memo.get(key)
        if step is None:
            heated = apply_heat(g, heat)
            path = max_success_path(heated, robot, target)
            if path is None:
                raise RuntimeError(
                    f"objective {target} unreachable from {robot}")
            edge = g.edge(robot, path.nodes[1])
            step = (path, heated.probs(edge), heated.effective(edge))
            if len(step_memo) > _STEP_MEMO_LIMIT:
                step_memo.clear()
            step_memo[key] = step
        path, probs, eff = step
        nxt = path.nodes[1]

        if eff < mission.threshold:
            holds += 1
            # A single hold tick is often a human passing through; only a
            # blockage that survives into a second consecutive tick earns a
            # redirect request.  A human with an unmet earlier request is
            # not asked again until it has settled at the assigned spot.
            if (holds >= REDIRECT_PATIENCE and not redirect_tried
                    and (outstanding is None or settled >= 2)
                    and _conflicts(human, robot, nxt)):
                leg = _redirect_target(g, mission, human.position,
                                       path.nodes)
                if leg is not None:
                    outstanding = leg.nodes[-1]
                    human = replace(human, goal=outstanding,
                                    predicted_path=leg)
                    redirects += 1
                    settled = 0
                redirect_tried = True
            if holds >= mission.hold_limit:
                return EpisodeOutcome(False, HOLD_TIMEOUT, steps,
                                      redirects, robot)
            continue

        # the hold counter survives retry ticks; only actual movement
        # clears it
        draw = rng.random()
        if draw < probs.p_success:
            holds = 0
            redirect_tried = False
            robot = nxt
            while idx < len(route) and robot == route[idx]:
                idx += 1
        elif draw >= probs.p_success + probs.p_retry:
            return EpisodeOutcome(False, CATASTROPHIC, steps, redirects,
                                  robot)

    return EpisodeOutcome(True, None, steps, redirects, robot)


@dataclass(frozen=True)
class SweepRow:
    uncertainty: float
    success_percent: float
    success_count: int
    fail_count: int
    total_redirects: int
    redirect_episode_percent: float
    max_redirects_per_episode: int


@dataclass(frozen=True)
class SweepReport:
    rows: tuple


# per-process state for sweep workers
_WORKER = {}


def _sweep_worker_init(base, levels):
    _WORKER["base"] = base
    _WORKER["levels"] = levels


def _sweep_chunk(job):
    return _run_chunk(_WORKER["base"], _WORKER["levels"], *job)


def _run_chunk(base, levels, level_index, lo, hi):
    succ = fail = total_rd = rd_episodes = max_rd = 0
    for j in range(lo, hi):
        cfg = replace(base, uncertainty=levels[level_index],
                      seed=derive_seed(base.seed, level_index, j))
        out = run_episode(cfg)
        if out.success:
            succ += 1
        else:
            fail += 1
        total_rd += out.redirects
        if out.redirects > 0:
            rd_episodes += 1
        if out.redirects > max_rd:
            max_rd = out.redirects
    return level_index, succ, fail, total_rd, rd_episodes, max_rd


def run_sweep(base, levels, episodes_per_level, workers=1):
    """Sweep uncertainty levels; returns one SweepRow per level.

    Seeds are fixed by (base.seed, level index, episode index) alone and
    the per-level aggregates are order-independent sums/maxima, so the
    report is identical for any worker count.  Raises
    UnreachableNodeError before the first episode when some possible
    start cannot reach a task or the end node.
    """
    levels = [float(u) for u in levels]
    for u in levels:
        if not (0.0 <= u <= 1.0):
            raise ValueError(f"uncertainty level {u} outside [0, 1]")
    if not levels:
        raise ValueError("no uncertainty levels given")
    if episodes_per_level < 1:
        raise ValueError("episodes_per_level must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    check_reachable(base.environment, base.mission)

    chunk = 250
    jobs = []
    for i in range(len(levels)):
        for lo in range(0, episodes_per_level, chunk):
            jobs.append((i, lo, min(lo + chunk, episodes_per_level)))

    # a fork pool starts every worker at the first submit, so never ask
    # for more processes than there are jobs
    workers = min(workers, len(jobs))
    agg = {i: [0, 0, 0, 0, 0] for i in range(len(levels))}

    def fold(part):
        i, succ, fail, total_rd, rd_episodes, max_rd = part
        a = agg[i]
        a[0] += succ
        a[1] += fail
        a[2] += total_rd
        a[3] += rd_episodes
        a[4] = max(a[4], max_rd)

    if workers == 1:
        for i, lo, hi in jobs:
            fold(_run_chunk(base, levels, i, lo, hi))
    else:
        with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_sweep_worker_init,
                initargs=(base, levels)) as pool:
            for part in pool.map(_sweep_chunk, jobs):
                fold(part)

    rows = []
    for i, u in enumerate(levels):
        succ, fail, total_rd, rd_episodes, max_rd = agg[i]
        n = succ + fail
        rows.append(SweepRow(u, 100.0 * succ / n, succ, fail, total_rd,
                             100.0 * rd_episodes / n, max_rd))
    return SweepReport(tuple(rows))


CSV_HEADER = ("uncertainty,success_pct,success,fail,"
              "total_redirects,redirect_pct,max_redirects")


def summarize(report):
    """Render a sweep report as a CSV table (percentages to 2 decimals)."""
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(f"{r.uncertainty:g},{r.success_percent:.2f},"
                     f"{r.success_count},{r.fail_count},"
                     f"{r.total_redirects},"
                     f"{r.redirect_episode_percent:.2f},"
                     f"{r.max_redirects_per_episode}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep configuration files

_SWEEP_FIELDS = {"environment", "mission", "heat", "levels",
                 "episodes_per_level", "seed", "workers"}
_HEAT_FIELDS = {"path_heat", "neighbor_heat"}

DEFAULT_LEVELS = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_EPISODES_PER_LEVEL = 25000


@dataclass(frozen=True)
class SweepSettings:
    base: EpisodeConfig
    levels: tuple
    episodes_per_level: int
    workers: int


def read_sweep_config(path):
    """Parse a sweep configuration file into a document.

    Relative environment and mission references are joined to the file's
    directory, so the document resolves from the working directory.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be an object")
    base_dir = os.path.dirname(os.fspath(path))
    for name in ("environment", "mission"):
        if isinstance(doc.get(name), str):
            doc[name] = os.path.join(base_dir, doc[name])
    return doc


def load_sweep_config(source):
    """Load sweep settings from a JSON file path or parsed document.

    This is the one place sweep defaults are resolved: an omitted field
    takes the bundled environment or mission, HeatParams(), DEFAULT_LEVELS,
    DEFAULT_EPISODES_PER_LEVEL, seed 0 or 1 worker.  A file's relative
    references resolve against its directory, a document's against the
    working directory.
    """
    doc = source if isinstance(source, dict) else read_sweep_config(source)
    unknown = set(doc) - _SWEEP_FIELDS
    if unknown:
        raise ValueError(f"sweep config: unknown field(s) {sorted(unknown)}")
    for name in ("environment", "mission"):
        if not isinstance(doc.get(name, ""), str):
            raise ValueError(f"sweep config: {name!r} must be a file name")

    if "environment" in doc:
        env = load_environment(doc["environment"])
    else:
        env = load_default_environment()
    if "mission" in doc:
        mission = load_mission(doc["mission"], env)
    else:
        mission = load_default_mission(env)

    heat_doc = doc.get("heat", {})
    if not isinstance(heat_doc, dict):
        raise ValueError("sweep config: 'heat' must be an object")
    unknown = set(heat_doc) - _HEAT_FIELDS
    if unknown:
        raise ValueError(f"sweep config heat: unknown field(s) "
                         f"{sorted(unknown)}")
    for name, v in heat_doc.items():
        if not _is_number(v):
            raise ValueError(f"sweep config heat: {name!r} must be a number")
    heat = HeatParams(**{k: float(v) for k, v in heat_doc.items()})

    levels = doc.get("levels", DEFAULT_LEVELS)
    if (not isinstance(levels, (list, tuple))
            or not all(_is_number(u) for u in levels)):
        raise ValueError("sweep config: 'levels' must be a list of numbers")
    levels = tuple(float(u) for u in levels)
    episodes = doc.get("episodes_per_level", DEFAULT_EPISODES_PER_LEVEL)
    seed = doc.get("seed", 0)
    workers = doc.get("workers", 1)
    if not _is_number(episodes, int) or not _is_number(workers, int):
        raise ValueError("episodes_per_level and workers must be integers")
    if not _is_number(seed, int):
        raise ValueError("seed must be an integer")

    base = EpisodeConfig(env, mission, heat, levels[0] if levels else 0.0,
                         seed)
    return SweepSettings(base, levels, episodes, workers)
