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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .env import (EnvironmentGraph, HeatedGraph, MissionSpec,
                  _environment_or_default, _is_number, _mission_or_default,
                  _read_json, _reject_unknown, _remember)
from .human import (HeatParams, HumanState, apply_heat, build_heat_map,
                    predict_human_path, step_human)
from .planner import (check_reachable, max_success_path, order_tasks,
                      shortest_distance_path)

HOLD_TIMEOUT = "hold_timeout"
CATASTROPHIC = "catastrophic"

# Consecutive hold ticks required before a redirect request is issued.
REDIRECT_PATIENCE = 2

_TICK_GUARD = 100_000  # sanity bound; a legitimate episode never gets close

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


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


class _Draws:
    """numpy's Generator(PCG64(seed)) stream, read in blocks of raw words.

    random() and integers(n) return exactly what np.random.default_rng(seed)
    would, for 1 <= n <= 2**32: random() is the top 53 bits of a word, and
    integers(n) is Lemire's bounded method on 32-bit draws.  A 32-bit draw
    takes the low half of a word and keeps the high half for the next one;
    random() does not touch the kept half, as in numpy's PCG64.
    """

    __slots__ = ("_bits", "_words", "_half")

    def __init__(self, seed):
        self._bits = np.random.PCG64(seed)
        self._words = []  # the current block, reversed
        self._half = None

    def _word(self):
        if not self._words:
            self._words = self._bits.random_raw(64)[::-1].tolist()
        return self._words.pop()

    def _uint32(self):
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _MASK32

    def random(self):
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, n):
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & _MASK32 < n:
            threshold = (_MASK32 + 1 - n) % n
            while m & _MASK32 < threshold:
                m = self._uint32() * n
        return m >> 32


@dataclass(frozen=True)
class EpisodeConfig:
    environment: EnvironmentGraph | HeatedGraph
    mission: MissionSpec
    heat: HeatParams
    uncertainty: float
    seed: int

    def __post_init__(self):
        if not isinstance(self.environment, (EnvironmentGraph, HeatedGraph)):
            raise ValueError(f"environment {self.environment!r} must be an "
                             "EnvironmentGraph or a HeatedGraph")
        if not isinstance(self.mission, MissionSpec):
            raise ValueError(f"mission {self.mission!r} must be a MissionSpec")
        if not (_is_number(self.uncertainty) and 0 <= self.uncertainty <= 1):
            raise ValueError(
                f"uncertainty {self.uncertainty!r} outside [0, 1]")
        if not isinstance(self.heat, HeatParams):
            raise ValueError(f"heat {self.heat!r} must be a HeatParams")
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


def _redirect_target(g, mission, human_pos, robot_path_nodes):
    """The human's leg to the nearest safe location by distance that is
    off the robot's path (ties to the smaller node id), or None."""
    legs = [shortest_distance_path(g, human_pos, s)
            for s in mission.safe_locations if s not in robot_path_nodes]
    return min((leg for leg in legs if leg is not None), default=None,
               key=lambda leg: (leg.total_distance, leg.nodes[-1]))


def run_episode(cfg):
    """Run one mission episode; deterministic for a given config.

    What a tick derives is memoized in g.memo, which a base graph shares
    with every episode it runs: the human's sorted heat map per (predicted
    nodes, which start at its position, uncertainty, heat parameters), and
    the step (the max-success path on the heated map, the heated outcome
    row of its first edge and that row's effective success) per robot,
    objective and heat map.  The robot moves only while that effective
    success is at least the mission threshold.  The human has no goal
    (so it is predicted to stay put) until a redirect; step_human moves it.
    Draws come from _Draws(cfg.seed), which gives what
    np.random.default_rng(cfg.seed) would; the episode and step_human
    call only its random() and integers(n).
    """
    g = cfg.environment
    mission = cfg.mission
    rng = _Draws(cfg.seed)

    if mission.start is not None:
        robot = g.check_node(mission.start)
    else:
        robot = rng.integers(g.node_count)
    human = HumanState(rng.integers(g.node_count), None, cfg.uncertainty)
    human = HumanState(human.position, None, cfg.uncertainty,
                       predict_human_path(g, human))

    route = order_tasks(g, mission, robot).ordered_tasks
    heat_memo = g.memo("heat")
    step_memo = g.memo("step")
    heat_params = (cfg.heat.path_heat, cfg.heat.neighbor_heat)
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
        if outstanding is not None:
            settled = settled + 1 if human.position == outstanding else 0
        hkey = (human.predicted_path, human.uncertainty, heat_params)
        heat = heat_memo.get(hkey)
        if heat is None:
            heat = _remember(heat_memo, hkey, tuple(sorted(
                build_heat_map(g, human, cfg.heat).items())))

        target = route[idx]
        key = (robot, target, heat)
        step = step_memo.get(key)
        if step is None:
            heated = apply_heat(g, dict(heat))
            path = max_success_path(heated, robot, target)
            if path is None:
                raise RuntimeError(
                    f"objective {target} unreachable from {robot}")
            edge = g.edge(robot, path.nodes[1])
            step = _remember(step_memo, key, (path, heated.probs(edge),
                                              heated.effective(edge)))
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
                    and (robot in human.predicted_path
                         or nxt in human.predicted_path)):
                leg = _redirect_target(g, mission, human.position,
                                       path.nodes)
                if leg is not None:
                    outstanding = leg.nodes[-1]
                    human = HumanState(human.position, outstanding,
                                       human.uncertainty, leg.nodes)
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


def _sweep_worker_init(levels):
    _WORKER["levels"] = levels


def _sweep_chunk(job):
    return _run_chunk(_WORKER["levels"], *job)


def _run_chunk(levels, level_index, lo, hi):
    level = levels[level_index]
    tally = Counter()
    for j in range(lo, hi):
        out = run_episode(replace(
            level, seed=derive_seed(level.seed, level_index, j)))
        tally[out.failure_cause, out.redirects] += 1
    return level_index, tally


def _sweep_row(u, tally):
    """The SweepRow of a level from its Counter of (failure cause,
    redirects) episodes."""
    n = tally.total()
    succ = sum(c for (cause, _), c in tally.items() if cause is None)
    redirected = sum(c for (_, rd), c in tally.items() if rd > 0)
    return SweepRow(u, 100.0 * succ / n, succ, n - succ,
                    sum(rd * c for (_, rd), c in tally.items()),
                    100.0 * redirected / n, max(rd for _, rd in tally))


def run_sweep(base, levels, episodes_per_level, workers=1):
    """Sweep uncertainty levels; returns one SweepRow per level.

    Level u runs as the EpisodeConfig replace(base, uncertainty=u), with seeds
    fixed by (base.seed, level index, episode index) alone.  Each chunk of
    episodes returns a Counter of (failure cause, redirects); a level's chunks
    add up to one Counter, from which its row is derived, so the report is
    identical for any worker count.  Raises UnreachableNodeError before the
    first episode when some possible start cannot reach a task or the end node.
    """
    if not isinstance(base, EpisodeConfig):
        raise ValueError(f"base {base!r} must be an EpisodeConfig")
    levels = tuple(replace(base, uncertainty=u) for u in levels)
    if not levels:
        raise ValueError("no uncertainty levels given")
    if not _is_number(episodes_per_level, int) or episodes_per_level < 1:
        raise ValueError("episodes_per_level must be an integer of at least 1")
    if not _is_number(workers, int) or workers < 1:
        raise ValueError("workers must be an integer of at least 1")
    check_reachable(base.environment, base.mission)

    chunk = 250
    jobs = []
    for i in range(len(levels)):
        for lo in range(0, episodes_per_level, chunk):
            jobs.append((i, lo, min(lo + chunk, episodes_per_level)))

    # a fork pool starts every worker at the first submit, so never ask
    # for more processes than there are jobs
    workers = min(workers, len(jobs))
    if workers == 1:
        parts = [_run_chunk(levels, *job) for job in jobs]
    else:
        with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_sweep_worker_init,
                initargs=(levels,)) as pool:
            parts = list(pool.map(_sweep_chunk, jobs))

    tallies = [Counter() for _ in levels]
    for i, tally in parts:
        tallies[i] += tally
    return SweepReport(tuple(_sweep_row(level.uncertainty, tally)
                             for level, tally in zip(levels, tallies)))


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
    DEFAULT_EPISODES_PER_LEVEL, seed 0 or 1 worker; the base's uncertainty
    is 0.0, as run_sweep sets each level's.  Relative references resolve
    against a file's directory, or for a document the working directory.
    """
    doc = source if isinstance(source, dict) else read_sweep_config(source)
    _reject_unknown(doc, _SWEEP_FIELDS, "sweep config")
    for name in ("environment", "mission"):
        if not isinstance(doc.get(name, ""), str):
            raise ValueError(f"sweep config: {name!r} must be a file name")

    env = _environment_or_default(doc.get("environment"))
    mission = _mission_or_default(doc.get("mission"), env)

    heat_doc = doc.get("heat", {})
    if not isinstance(heat_doc, dict):
        raise ValueError("sweep config: 'heat' must be an object")
    _reject_unknown(heat_doc, _HEAT_FIELDS, "sweep config heat")
    heat = HeatParams(**heat_doc)

    levels = doc.get("levels", DEFAULT_LEVELS)
    if (not isinstance(levels, (list, tuple))
            or not all(_is_number(u) for u in levels)):
        raise ValueError("sweep config: 'levels' must be a list of numbers")
    levels = tuple(levels)
    episodes = doc.get("episodes_per_level", DEFAULT_EPISODES_PER_LEVEL)
    workers = doc.get("workers", 1)
    if not _is_number(episodes, int) or not _is_number(workers, int):
        raise ValueError("episodes_per_level and workers must be integers")

    base = EpisodeConfig(env, mission, heat, 0.0, doc.get("seed", 0))
    return SweepSettings(base, levels, episodes, workers)
