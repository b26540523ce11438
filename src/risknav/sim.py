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

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .env import (EnvironmentGraph, MissionSpec, effective_success,
                  load_default_environment, load_default_mission,
                  load_environment, load_mission)
from .human import (HeatParams, HumanState, apply_heat, build_heat_map,
                    heated_probs, step_human)
from .planner import (Path, check_reachable, order_tasks,
                      shortest_distance_path)
from .verify import plan_validated_path

HOLD_TIMEOUT = "hold_timeout"
CATASTROPHIC = "catastrophic"

# Consecutive hold ticks required before a redirect request is issued.
REDIRECT_PATIENCE = 2

_TICK_GUARD = 100_000  # sanity bound; a legitimate episode never gets close

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
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed {self.seed!r} must be a non-negative "
                             "integer")


@dataclass(frozen=True)
class EpisodeOutcome:
    success: bool
    failure_cause: str | None
    steps: int
    redirects: int
    final_robot_node: int


def _single_node_path(pos):
    return Path((pos,), 0.0, 1.0)


def _ensure_prediction(g, h):
    # an idle human (no goal) is predicted to stay in place, so its
    # presence still heats the edges around it
    p = h.predicted_path
    if p is not None and p.nodes[0] == h.position:
        return h
    if h.goal is None:
        return replace(h, predicted_path=_single_node_path(h.position))
    return replace(h, predicted_path=shortest_distance_path(
        g, h.position, h.goal))


def _redirect_target(g, mission, human_pos, robot_path_nodes):
    # nearest safe location by distance that is off the robot's path
    best = None
    for s in mission.safe_locations:
        if s in robot_path_nodes:
            continue
        leg = shortest_distance_path(g, human_pos, s)
        if leg is None:
            continue
        key = (leg.total_distance, s)
        if best is None or key < best:
            best = key
    return best[1] if best is not None else None


def _conflicts(human, a, b):
    if human.position == a or human.position == b:
        return True
    p = human.predicted_path
    return p is not None and (a in p.nodes or b in p.nodes)


def run_episode(cfg, plan_cache=None, path_cache=None):
    """Run one mission episode; deterministic for a given config.

    plan_cache ({start: MissionPlan}) and path_cache (validated plans
    keyed by robot, objective and heat signature) may be shared across
    episodes on the same environment/mission to amortise planning work.
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
    human = _ensure_prediction(g, human)

    if plan_cache is not None and robot in plan_cache:
        plan = plan_cache[robot]
    else:
        plan = order_tasks(g, mission, robot)
        if plan_cache is not None:
            plan_cache[robot] = plan

    route = plan.ordered_tasks
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
        human = _ensure_prediction(g, human)
        if outstanding is not None:
            settled = settled + 1 if human.position == outstanding else 0
        heat = build_heat_map(g, human, cfg.heat)

        target = route[idx]
        key = (robot, target, tuple(sorted(heat.items())))
        cached = path_cache.get(key) if path_cache is not None else None
        if cached is not None:
            path = cached
        else:
            heated = apply_heat(g, heat)
            path, _ = plan_validated_path(g, robot, target, heated=heated)
            if path is None:
                raise RuntimeError(
                    f"objective {target} unreachable from {robot}")
            if path_cache is not None:
                if len(path_cache) > 200_000:
                    path_cache.clear()
                path_cache[key] = path

        nxt = path.nodes[1]
        edge = g.edge(robot, nxt)
        probs = heated_probs(g.probs(edge), heat.get(edge.key(), 0.0))
        eff = effective_success(probs)

        if eff < mission.threshold:
            holds += 1
            # A single hold tick is often a human passing through; only a
            # blockage that survives into a second consecutive tick earns a
            # redirect request.  A human with an unmet earlier request is
            # not asked again until it has settled at the assigned spot.
            if (holds >= REDIRECT_PATIENCE and not redirect_tried
                    and (outstanding is None or settled >= 2)
                    and _conflicts(human, robot, nxt)):
                safe = _redirect_target(g, mission, human.position,
                                        path.nodes)
                if safe is not None:
                    human = replace(
                        human, goal=safe,
                        predicted_path=shortest_distance_path(
                            g, human.position, safe))
                    redirects += 1
                    outstanding = safe
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
    _WORKER["plan_cache"] = {}
    _WORKER["path_cache"] = {}


def _sweep_chunk(job):
    level_index, lo, hi = job
    base = _WORKER["base"]
    u = _WORKER["levels"][level_index]
    return _run_chunk(base, u, level_index, lo, hi,
                      _WORKER["plan_cache"], _WORKER["path_cache"])


def _run_chunk(base, u, level_index, lo, hi, plan_cache, path_cache):
    succ = fail = total_rd = rd_episodes = max_rd = 0
    for j in range(lo, hi):
        cfg = replace(base, uncertainty=u,
                      seed=derive_seed(base.seed, level_index, j))
        out = run_episode(cfg, plan_cache, path_cache)
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
        plan_cache, path_cache = {}, {}
        for i, lo, hi in jobs:
            fold(_run_chunk(base, levels[i], i, lo, hi,
                            plan_cache, path_cache))
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


def load_sweep_config(source):
    """Load sweep settings from a JSON file path or parsed document.

    Omitted environment/mission fall back to the bundled defaults;
    relative file references resolve against the config file's directory.
    """
    base_dir = "."
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{source}: not valid JSON ({exc})") from exc
        base_dir = os.path.dirname(os.fspath(source)) or "."
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be an object")
    unknown = set(doc) - _SWEEP_FIELDS
    if unknown:
        raise ValueError(f"sweep config: unknown field(s) {sorted(unknown)}")

    def resolve(ref):
        return ref if os.path.isabs(ref) else os.path.join(base_dir, ref)

    if "environment" in doc:
        env = load_environment(resolve(doc["environment"]))
    else:
        env = load_default_environment()
    if "mission" in doc:
        mission = load_mission(resolve(doc["mission"]), env)
    else:
        mission = load_default_mission(env)

    heat_doc = doc.get("heat", {})
    if not isinstance(heat_doc, dict):
        raise ValueError("sweep config: 'heat' must be an object")
    unknown = set(heat_doc) - _HEAT_FIELDS
    if unknown:
        raise ValueError(f"sweep config heat: unknown field(s) "
                         f"{sorted(unknown)}")
    heat = HeatParams(**{k: float(v) for k, v in heat_doc.items()})

    levels = tuple(float(u) for u in doc.get("levels", DEFAULT_LEVELS))
    episodes = doc.get("episodes_per_level", DEFAULT_EPISODES_PER_LEVEL)
    seed = doc.get("seed", 0)
    workers = doc.get("workers", 1)
    if not isinstance(episodes, int) or not isinstance(workers, int):
        raise ValueError("episodes_per_level and workers must be integers")
    if not isinstance(seed, int):
        raise ValueError("seed must be an integer")

    base = EpisodeConfig(env, mission, heat, levels[0] if levels else 0.0,
                         seed)
    return SweepSettings(base, levels, episodes, workers)
