"""Mission episodes and Monte-Carlo uncertainty sweeps.

An episode runs one robot mission against one simulated human.  Each tick
the human moves first, the robot replans on the human's heat, and the
next edge is traversed only while its heated effective success stays at
or above the mission threshold; persistent blockage triggers a single
redirect request per hold episode and eventually a hold timeout.

Sweeps repeat episodes across uncertainty levels with per-episode seeds
derived from (base seed, level index, episode index), so results are
independent of worker count and batching.  run_episode runs the scalar
tick loop, _ticks; _lockstep steps a sweep job's episodes together, one
numpy step per tick for every live episode, with exactly the draws of
the scalar loop, so both engines give the same CSV byte for byte.  Both
read the human table of human.py for the heat and mission, whose columns
hold the human's successors, heats and the robot's steps, and empty it
only at the top of a tick, when it is full, keeping the ids they hold.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass, replace

from .env import (EnvironmentGraph, HeatedGraph, MissionSpec,
                  _environment_or_default, _is_number, _mission_or_default,
                  _read_json, _reject_unknown)
from .human import HeatParams, HumanState, _human_table, _lanes, _predicted
from .planner import _best, check_reachable, order_tasks

HOLD_TIMEOUT = "hold_timeout"
CATASTROPHIC = "catastrophic"

# Consecutive hold ticks required before a redirect request is issued.
REDIRECT_PATIENCE = 2
# _ask's answer when the human is not in the robot's way, so no request is
# made; -1 answers that every safe spot is on the robot's path.
_NOT_ASKED = -2

_TICK_GUARD = 100_000  # sanity bound; a legitimate episode never gets close

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed, level_index, episode_index):
    """Per-episode seed stream: splitmix64 over (base, level, episode).

    Seeds are below 2**64; base seeds congruent mod 2**64 share a stream.
    level_index and episode_index may also be numpy uint64 arrays, which
    give the array of their episodes' seeds.
    """
    z = _splitmix64(base_seed & _MASK64)
    z = _splitmix64(z ^ ((level_index * 0x9E3779B97F4A7C15) & _MASK64))
    z = _splitmix64(z ^ ((episode_index * 0xBF58476D1CE4E5B9) & _MASK64))
    return z


def _pcg64_states(seeds):
    """PCG64(s).state["state"] for every seed s below 2**64 of seeds, as
    four uint64 arrays: the high and low words of the states, then of the
    increments.

    SeedSequence(s).generate_state(4, uint64), numpy's NEP 19 hash of a
    4-word pool holding s's two little-endian 32-bit words (one-word seeds
    hash as [s, 0]), runs as uint32 array operations over all the seeds;
    PCG's srandom step, inc = 2 * initseq + 1 and state = (initstate + inc)
    stepped once, then runs on the words as 128-bit multiply-adds.
    """
    import numpy as np

    def hasher(mult, step):
        def hash(value):
            nonlocal mult
            value = value ^ mult
            mult = mult * step & _MASK32
            value = value * mult
            return value ^ value >> 16
        return hash

    seeds = np.array(seeds, dtype=np.uint64)
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word.astype(np.uint32))
            for word in (seeds & _MASK32, seeds >> 32, seeds & 0, seeds & 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value = (pool[dst] * 0xCA01F9DD
                         - hashmix(pool[src]) * 0x4973F715)
                pool[dst] = value ^ value >> 16
    out = hasher(0x8B51F9DD, 0x58F38DED)
    words = [out(pool[k % 4]).astype(np.uint64) for k in range(8)]
    s0, s1, i0, i1 = (lo | hi << 32
                      for lo, hi in zip(words[::2], words[1::2]))
    inc_hi, inc_lo = i0 << 1 | i1 >> 63, i1 << 1 | 1
    lo = s1 + inc_lo
    return (*_pcg64_step(s0 + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo),
            inc_hi, inc_lo)


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """state * _PCG64_MULT + inc mod 2**128, on uint64 arrays of the high
    and low words of the states and increments.  numpy has no 128-bit
    product, so the high word of lo times the multiplier's low word is
    summed from 32-bit limbs."""
    m_hi, m_lo = _PCG64_MULT >> 64, _PCG64_MULT & _MASK64
    b0, b1 = m_lo & _MASK32, m_lo >> 32
    a0, a1 = lo & _MASK32, lo >> 32
    t, u = a0 * b0, a1 * b0
    mid = (t >> 32) + (u & _MASK32) + a0 * b1
    hi = a1 * b1 + (u >> 32) + (mid >> 32) + lo * m_hi + hi * m_lo
    lo = lo * m_lo + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def _pcg64_words(states, n):
    """The first n raw words of PCG64(s) for every seed s whose
    _pcg64_states entry is in states, as a (seeds, n) uint64 array.  A
    word is the XSL-RR output of the state after one more step: its high
    word xor its low word, rotated right by its top 6 bits."""
    import numpy as np

    hi, lo, inc_hi, inc_lo = states
    words = np.empty((len(hi), n), np.uint64)
    for k in range(n):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        x, r = hi ^ lo, hi >> 58
        words[:, k] = x >> r | x << (64 - r & 63)
    return words


class _Draws:
    """numpy's Generator(PCG64(seed)) stream, read in blocks of raw words.

    random() and integers(n) return exactly what np.random.default_rng(seed)
    would, for 1 <= n <= 2**32: random() is the top 53 bits of a word, and
    integers(n) is Lemire's bounded method on 32-bit draws.  A 32-bit draw
    takes the low half of a word and keeps the high half for the next one;
    random() does not touch the kept half, as in numpy's PCG64, and
    neither does retries, which reads a run of random() draws in one scan.
    A sweep job reads the first block of every episode's stream from
    _pcg64_words; for an episode it hands to the scalar loop, reseed
    restarts the stream from the episode's _pcg64_states entry and resume
    goes on past what the job read.
    """

    __slots__ = ("_bits", "_words", "_half")

    def __init__(self, seed):
        # numpy loads with the first episode, not with the package
        from numpy.random import PCG64

        self._bits = PCG64(seed)
        self._words = []  # the current block, reversed
        self._half = None

    def reseed(self, states, i):
        """Restart as _Draws(s), for the seed s at index i of the arrays
        that _pcg64_states gave."""
        s_hi, s_lo, inc_hi, inc_lo = (int(a[i]) for a in states)
        self._bits.state = {"bit_generator": "PCG64",
                            "state": {"state": s_hi << 64 | s_lo,
                                      "inc": inc_hi << 64 | inc_lo},
                            "has_uint32": 0, "uinteger": 0}
        self._words, self._half = [], None

    def resume(self, read, unread, half):
        """Go on from a block of read raw words taken after the last
        reseed, with unread the words not read yet and half the kept
        32-bit half or None."""
        self._bits.advance(read)
        self._words, self._half = unread[::-1], half

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

    def retries(self, lo, hi, limit):
        """Read random() while it falls in [lo, hi), at most limit times,
        and return how many it read; the first draw outside is left
        unread, and the kept 32-bit half is untouched.  Past the current
        block the stream is scanned in numpy blocks of 1,024 words, whose
        unread tail becomes the current block."""
        words, run = self._words, 0
        while words and run < limit:
            if not lo <= (words[-1] >> 11) * 2.0 ** -53 < hi:
                return run
            words.pop()
            run += 1
        while run < limit:
            block = self._bits.random_raw(1024)
            unit = (block >> 11) * 2.0 ** -53
            out = (unit < lo) | (unit >= hi)
            stop = min(int(out.argmax()) if out.any() else 1024,
                       limit - run)
            run += stop
            if stop < 1024:
                self._words = block[stop:][::-1].tolist()
                break
        return run

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
    """The nodes of the human's leg to the nearest safe location by
    distance that is off the robot's path (ties to the smaller node id),
    or None."""
    legs = [_best(g, human_pos, s, by_distance=True)
            for s in mission.safe_locations if s not in robot_path_nodes]
    leg = min((leg for leg in legs if leg is not None), default=None,
              key=lambda leg: (leg[1], leg[2][-1]))
    return None if leg is None else leg[2]


def _ask(g, mission, table, hid, s):
    """What asking human hid of table to move, while the robot holds at
    step s of table, gives: _NOT_ASKED when the human's prediction holds
    neither end of the step's first edge, -1 when it does but no safe
    spot is off the step's path, else the id of the human sent to the
    nearest one.  The answer is kept in table.asks, since hid fixes the
    human, s the robot's node and path, and table.safe the safe spots."""
    key = (hid, s)
    asked = table.asks.get(key)
    if asked is None:
        human, nodes = table.states[hid], table.nodes[s]
        if (nodes[0] in human.predicted_path
                or nodes[1] in human.predicted_path):
            leg = _redirect_target(g, mission, human.position, nodes)
            asked = -1 if leg is None else table.intern(g, HumanState(
                human.position, leg[-1], human.uncertainty, leg))
        else:
            asked = _NOT_ASKED
        table.asks[key] = asked
    return asked


def run_episode(cfg):
    """Run one mission episode; deterministic for a given config.

    The human is an id in g's table of human states for cfg.heat and
    cfg.mission, whose columns hold each state's successors and heat map,
    and the robot's steps (human._plan_step's) per heat map, robot and
    objective; the table is emptied at the top of a tick once full, another
    mission's waypoints or safe locations get a new one, and a heat overlay
    keeps it for one episode.  The robot moves only while the step's
    effective success is at least the mission threshold.  Only a redirect
    gives the human a goal, a safe spot.  Draws come from _Draws(cfg.seed),
    which gives what np.random.default_rng(cfg.seed) would; the human
    table calls only its random() and integers(n), and the episode those
    and retries, which reads a run of retry draws as that many random()
    calls would.
    """
    return _episode(cfg, _Draws(cfg.seed))


def _episode(cfg, rng):
    """run_episode's body, drawing from rng; cfg.seed is not read."""
    g = cfg.environment
    mission = cfg.mission

    if mission.start is not None:
        robot = g.check_node(mission.start)
    else:
        robot = rng.integers(g.node_count)
    table = _human_table(g, cfg.heat, mission)
    hid = table.intern(g, _predicted(g, rng.integers(g.node_count), None,
                                     cfg.uncertainty))
    route = order_tasks(g, mission, robot).ordered_tasks
    return _ticks(g, mission, table, rng, route, robot, hid)


def _ticks(g, mission, table, rng, route, robot, hid, idx=0, steps=0,
           redirects=0, holds=0, redirect_tried=False, settled=0):
    """The rest of an episode from the start of a tick, given its state:
    the robot, its route and the index of its objective, the human's id
    in table, and the counters.  This scalar loop is the reference that
    the lockstep engine of a sweep reproduces, and it finishes the
    episodes that engine hands off.

    A retry beside a human at uncertainty 0 that follows itself repeats,
    tick after tick, until a draw leaves [ps, psr): one rng.retries scan
    reads that run, up to the tick guard, and steps, and settled while
    the human stands at its goal, advance by its length, so the draws,
    the outcome and a tick-guard stop are those of playing every tick."""
    states, follows, heat_ids = table.states, table.follow_ids, table.heat_ids
    nxts, ps, psr, effs = table.nxt, table.ps, table.psr, table.eff
    ways = [table.waypoints.index(t) for t in route]
    while True:
        if table.full():
            hid = table.reintern(g, (hid,))[hid]
        while idx < len(route) and robot == route[idx]:
            idx += 1
        if idx == len(route):
            return EpisodeOutcome(True, None, steps, redirects, robot)
        if steps >= _TICK_GUARD:
            raise RuntimeError("episode exceeded the tick guard")
        steps += 1

        hid = table.step(g, hid, rng)
        human = states[hid]
        # ticks at the goal a redirect gave; 0 while the human has none
        settled = settled + 1 if human.position == human.goal else 0
        heat = heat_ids[hid]
        if heat < 0:
            heat = table.heat(g, hid)

        s = table.plan(g, heat, robot, ways[idx])

        if effs[s] < mission.threshold:
            holds += 1
            # A hold tick is often a human passing through, so only a second
            # consecutive one earns a request, once until the robot moves,
            # and only of a human in the robot's way; a human already sent
            # to a safe spot is asked again only after it has stood there
            # for two consecutive ticks.
            if (holds >= REDIRECT_PATIENCE and not redirect_tried
                    and (human.goal is None or settled >= 2)):
                asked = _ask(g, mission, table, hid, s)
                if asked >= 0:
                    hid = asked
                    redirects += 1
                redirect_tried = asked != _NOT_ASKED
            if holds >= mission.hold_limit:
                return EpisodeOutcome(False, HOLD_TIMEOUT, steps,
                                      redirects, robot)
            continue

        # the hold counter survives retry ticks; only actual movement
        # clears it
        draw = rng.random()
        if draw < ps[s]:
            holds = 0
            redirect_tried = False
            robot = nxts[s]
        elif draw >= psr[s]:
            return EpisodeOutcome(False, CATASTROPHIC, steps, redirects,
                                  robot)
        elif human.uncertainty == 0.0 and follows[hid] == hid:
            # a retry run beside a still human, read in one scan
            run = rng.retries(ps[s], psr[s], _TICK_GUARD - steps)
            steps += run
            if human.position == human.goal:
                settled += run


# A sweep job steps at most this many episodes in lockstep: 2.1 MB of
# word blocks.
_BATCH = 2750


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


def _sweep_worker_init(levels, episodes):
    _WORKER["levels"], _WORKER["episodes"] = levels, episodes


def _sweep_chunk(job):
    return _run_chunk(_WORKER["levels"], _WORKER["episodes"], *job)


def _run_chunk(levels, episodes, lo, hi):
    """Run the episodes lo to hi - 1 of a sweep, numbered level by level
    (level index times episodes, plus episode index), as one lockstep
    job; returns a Counter of (level index, failure cause, redirects),
    counted from the job's outcome arrays by one np.unique."""
    # numpy and the lockstep engine load with the first job
    import numpy as np

    from . import _lockstep

    flat = np.arange(lo, hi, dtype=np.uint64)
    level = flat // episodes
    seeds = derive_seed(levels[0].seed, level, flat % episodes)
    level = level.astype(np.intp)
    why, _, redirects, _ = _lockstep.outcomes(levels, level, seeds)
    # one key per (level, why, redirects), why being below 4
    span = int(redirects.max()) + 1
    keys, counts = np.unique((level * 4 + why) * span + redirects,
                             return_counts=True)
    return Counter({(k // span >> 2, _lockstep._CAUSES[k // span & 3],
                     k % span): c
                    for k, c in zip(keys.tolist(), counts.tolist())})


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
    fixed by (base.seed, level index, episode index) alone.  The sweep's
    episodes are numbered level by level, and a job is a range of up to
    _BATCH of them, whatever their levels, stepped in lockstep; no job has
    more episodes than human._lanes allows, unless the map passes it at
    one episode and runs on the scalar loop.  A sweep of one job runs in
    process; a larger one gives every worker a job, with jobs of as few as
    a quarter of the largest.  A job returns a Counter of (level index,
    failure cause, redirects); jobs are made as they are run, with at most
    two per worker in flight, and each level's counts add up to the
    Counter from which its row is derived, so the report is identical for
    any worker count.  Raises UnreachableNodeError before the first
    episode when some possible start cannot reach a task or the end node.
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

    total = len(levels) * episodes_per_level
    limit = min(_BATCH, _lanes(base.environment, base.mission) or _BATCH)
    # a job holds no more episodes than it takes to give every worker one,
    # but at least a quarter of the limit, below which lockstep gains
    # little, and a sweep of one job runs in process
    size = (limit if total <= limit
            else min(limit, max(limit // 4, -(-total // workers))))
    jobs = ((lo, min(lo + size, total)) for lo in range(0, total, size))
    tallies = [Counter() for _ in levels]

    def fold(part):
        for (i, cause, redirects), count in part.items():
            tallies[i][cause, redirects] += count

    # a fork pool starts every worker at the first submit, so never ask
    # for more processes than there are jobs
    workers = min(workers, -(-total // size))
    if workers == 1:
        for job in jobs:
            fold(_run_chunk(levels, episodes_per_level, *job))
    else:
        # the pool's modules load only when a sweep forks
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_sweep_worker_init,
                initargs=(levels, episodes_per_level)) as pool:
            pending = deque()
            for job in jobs:
                if len(pending) == 2 * workers:
                    fold(pending.popleft().result())
                pending.append(pool.submit(_sweep_chunk, job))
            for future in pending:
                fold(future.result())
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
