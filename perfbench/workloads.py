"""The benchmark's four workloads: inputs from a seed, one operation, and
the check every output must pass.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  Operation ``i`` depends only on the seed
and ``i``.  The first ``warmup`` operations run untimed (they are still
checked), so the program's own caches are warm before timing starts.

Each workload also lists ``corruptions``: functions that spoil one good
output.  Every run feeds them to ``check`` and fails if one is accepted,
so a check that has stopped rejecting anything shows up at once.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import math
import re

import numpy as np

from risknav import cli, env, human, sim, verify

# Inputs are fixed here rather than read from the package, so a change to
# a package default changes results, not the benchmark's inputs.
LEVELS = tuple(round(0.1 * i, 1) for i in range(11))
EPISODES_PER_LEVEL = 1000
REF_SEED = 7
CSV_HEADER = ("uncertainty,success_pct,success,fail,"
              "total_redirects,redirect_pct,max_redirects")
EPISODE_HEADER = "success,failure_cause,steps,redirects,final_node"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _flip_digit(text, line):
    """Change the last digit on one line, keeping the text well-formed."""
    lines = text.split("\n")
    row = lines[line]
    d = row[-1]
    lines[line] = row[:-1] + ("1" if d == "0" else "0")
    return "\n".join(lines)


class Workload:
    """Defaults shared by the workloads below."""

    workers = 1  # processes the program may add
    long_ops = False  # ops last seconds, so speed is sampled during them
    warmup = 0  # untimed ops before timing starts
    min_ops = 1  # timed ops a run makes even past its time
    weight = 1  # episodes or queries per op

    def finish(self):
        """Checks that need the whole run; returns error messages."""
        return []


class Sweep(Workload):
    """One ``run_sweep`` over the bundled map and mission: 11 levels x
    1000 episodes, base seed = workload seed.  Each operation loads the
    map and mission afresh, as ``risknav sweep`` does."""

    name = "sweep"
    long_ops = True
    trace_ops = 1
    op_name = "episodes"
    weight = len(LEVELS) * EPISODES_PER_LEVEL

    def __init__(self, seed, reference):
        self.seed = seed
        self.ref_digest = reference["sweep_csv_sha256"]
        self.expected = None
        self.corruptions = (
            # success + fail no longer adds up to the episodes of a level
            _bump_success,
            # max_redirects changed: well-formed, but not the expected bytes
            lambda csv: _flip_digit(csv, 11),
        )

    def input(self, i):
        return self.seed

    def run_sweep(self, workers):
        g = env.load_default_environment()
        mission = env.load_default_mission(g)
        base = sim.EpisodeConfig(g, mission, human.HeatParams(), 0.0,
                                 self.seed)
        return sim.summarize(sim.run_sweep(base, LEVELS, EPISODES_PER_LEVEL,
                                           workers=workers))

    def op(self, seed):
        return self.run_sweep(self.workers)

    def digest(self, out):
        return out

    def check(self, i, csv):
        err = _check_sweep_rows(csv)
        if err:
            return err
        if self.seed == REF_SEED and sha256(csv) != self.ref_digest:
            return "CSV differs from the reference at the reference seed"
        if self.expected is None:
            self.expected = csv
        elif csv != self.expected:
            return "CSV differs from the first sweep of this run"
        return None


def _bump_success(csv):
    lines = csv.split("\n")
    f = lines[1].split(",")
    f[2] = str(int(f[2]) + 1)
    lines[1] = ",".join(f)
    return "\n".join(lines)


def _check_sweep_rows(csv):
    lines = csv.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return "CSV header or final newline missing"
    rows = lines[1:-1]
    if len(rows) != len(LEVELS):
        return f"{len(rows)} CSV rows, expected {len(LEVELS)}"
    for level, row in zip(LEVELS, rows):
        f = row.split(",")
        try:
            succ, fail, total_rd, max_rd = (int(f[2]), int(f[3]), int(f[4]),
                                            int(f[6]))
        except (ValueError, IndexError):
            return f"malformed CSV row {row!r}"
        if len(f) != 7 or f[0] != f"{level:g}":
            return f"malformed CSV row {row!r}"
        if succ + fail != EPISODES_PER_LEVEL or min(succ, fail) < 0:
            return f"success + fail != {EPISODES_PER_LEVEL} in row {row!r}"
        if f[1] != f"{100.0 * succ / EPISODES_PER_LEVEL:.2f}":
            return f"success_pct disagrees with the counts in row {row!r}"
        if max_rd > total_rd:
            return f"max_redirects above total_redirects in row {row!r}"
    return None


class Sweep2w(Sweep):
    """The same sweep through the process pool with 2 workers; its CSV must
    be byte-identical to a 1-worker sweep of the same seed."""

    name = "sweep-2w"
    workers = 2

    def finish(self):
        if self.expected is None:
            return []
        if self.run_sweep(1) != self.expected:
            return ["2-worker CSV differs from the 1-worker CSV"]
        return []


_ROW = re.compile(r"([01]),(|hold_timeout|catastrophic),(\d+),(\d+),(\d+)")


class Simulate(Workload):
    """Back-to-back ``risknav simulate --seed S --uncertainty U`` calls
    through ``cli.main`` in this process, stdout captured.  S is drawn from
    the workload seed; U cycles through the 11 levels.  Each call loads the
    map afresh, so nothing is cached across episodes."""

    name = "simulate"
    warmup = 2
    trace_ops = 110
    op_name = "episodes"

    def __init__(self, seed, reference):
        self.seed = seed
        self.ref_rows = reference["simulate_rows"]
        self.min_ops = len(self.ref_rows)
        self._seeds = np.random.default_rng(seed).integers(
            0, 2**31, size=1 << 16).tolist()
        g = env.load_default_environment()
        self.end = env.load_default_mission(g).end
        self.nodes = g.node_count
        self.corruptions = (
            lambda out: (1, out[1]),
            lambda out: (0, out[1].replace(",", "", 1)),
            # success flag flipped, contradicting the failure cause
            lambda out: (0, re.sub(r"\n([01]),",
                                   lambda m: f"\n{1 - int(m[1])},",
                                   out[1], count=1)),
        )

    def input(self, i):
        return ["simulate", "--seed", str(self._seeds[i % len(self._seeds)]),
                "--uncertainty", f"{LEVELS[i % len(LEVELS)]:g}"]

    def op(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def digest(self, out):
        return f"{out[0]}\n{out[1]}"

    def check(self, i, out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        lines = text.split("\n")
        if len(lines) != 3 or lines[0] != EPISODE_HEADER or lines[2]:
            return "output is not one header and one row"
        m = _ROW.fullmatch(lines[1])
        if m is None:
            return f"malformed row {lines[1]!r}"
        success, cause, final = m.group(1) == "1", m.group(2), int(m.group(5))
        if success == bool(cause):
            return f"success flag and failure cause disagree in {lines[1]!r}"
        if final >= self.nodes or (success and final != self.end):
            return f"final node {final} impossible in {lines[1]!r}"
        if (self.seed == REF_SEED and i < len(self.ref_rows)
                and lines[1] != self.ref_rows[i]):
            return f"row {i} differs from the reference at the reference seed"
        return None


class Replan(Workload):
    """A seeded stream of heated planning queries on one loaded map.  A
    query draws a robot node, a target among the mission's tasks and end
    node, and a human position, goal and uncertainty; it then predicts the
    human, heats the map and plans a validated path."""

    name = "replan"
    warmup = 1000
    min_ops = 0
    trace_ops = 20000
    op_name = "queries"

    def __init__(self, seed, reference):
        self.seed = seed
        self.ref_digest = reference["replan_warmup_sha256"]
        self._warm = hashlib.sha256()
        self.g = env.load_default_environment()
        mission = env.load_default_mission(self.g)
        self.targets = tuple(mission.tasks) + (mission.end,)
        self.params = human.HeatParams()
        self.base = {k: self.g.risk_table[e.risk]
                     for k, e in self.g.edges.items()}
        self.adj = {}
        for (a, b), e in self.g.edges.items():
            self.adj.setdefault(a, []).append((b, e.distance))
            self.adj.setdefault(b, []).append((a, e.distance))
        self._dist = {}
        self._rng = np.random.default_rng(seed)
        # ops run in order, so only the current batch of queries is kept
        self._first, self._queries = 0, []
        self.corruptions = (
            # skipping a node leaves a hop that is no edge of the map
            lambda o: o[:3] + (o[3][:1] + o[3][2:], o[4]),
            lambda o: o[:4] + (math.nextafter(o[4], 2.0),),
            self._detour,
        )

    def input(self, i):
        while i >= self._first + len(self._queries):
            self._first += len(self._queries)
            self._queries = self._draw(4096)
        return self._queries[i - self._first]

    def _draw(self, n):
        rng, count = self._rng, self.g.node_count
        out = []
        cols = zip(rng.integers(count, size=n).tolist(),
                   rng.integers(len(self.targets), size=n).tolist(),
                   rng.integers(count, size=n).tolist(),
                   rng.integers(count, size=n).tolist(),
                   rng.integers(len(LEVELS), size=n).tolist())
        for robot, t, pos, goal, u in cols:
            target = self.targets[t]
            if robot != target and pos != goal:
                out.append((robot, target, pos, goal, LEVELS[u]))
        return out

    def op(self, q):
        robot, target, pos, goal, u = q
        g = self.g
        h = human.HumanState(pos, goal, u)
        h = human.HumanState(pos, goal, u, human.predict_human_path(g, h))
        heat = human.build_heat_map(g, h, self.params)
        path, prob = verify.plan_validated_path(
            g, robot, target, heated=human.apply_heat(g, heat))
        return robot, target, heat, path and path.nodes, prob

    def digest(self, out):
        return repr(out)

    def _value(self, nodes, heat):
        """Validated probability recomputed here: left-to-right product of
        each edge's effective success under its heat."""
        v = 1.0
        for a, b in zip(nodes, nodes[1:]):
            key = (a, b) if a < b else (b, a)
            p = self.base[key]
            h = heat.get(key, 0.0)
            ps = p.p_success * (1.0 - h) if h else p.p_success
            v = v * (1.0 if p.p_fail == 0.0 else ps / (ps + p.p_fail))
        return v

    def _distance_path(self, start, goal):
        """Some minimum-distance walk, found here by Dijkstra on the base
        distances (heat never changes a distance)."""
        hit = self._dist.get((start, goal))
        if hit is None:
            best = {start: (0.0, None)}
            done = set()
            heap = [(0.0, start)]
            while heap:
                d, node = heapq.heappop(heap)
                if node in done:
                    continue
                done.add(node)
                if node == goal:
                    break
                for nbr, w in self.adj[node]:
                    if nbr not in best or d + w < best[nbr][0]:
                        best[nbr] = (d + w, node)
                        heapq.heappush(heap, (d + w, nbr))
            hit = [goal]
            while hit[-1] != start:
                hit.append(best[hit[-1]][1])
            hit = tuple(reversed(hit))
            self._dist[(start, goal)] = hit
        return hit

    def _detour(self, out):
        # a valid walk, correctly scored, but worse than the distance path
        robot, target, heat = out[:3]
        nbr = self.adj[robot][0][0]
        nodes = (robot, nbr) + self._distance_path(robot, target)
        return robot, target, heat, nodes, self._value(nodes, heat)

    def check(self, i, out):
        robot, target, heat, nodes, prob = out
        if i < self.warmup:
            self._warm.update(repr(out).encode())
            if (i == self.warmup - 1 and self.seed == REF_SEED
                    and self._warm.hexdigest() != self.ref_digest):
                return "warm-up outputs differ from the reference"
        if not nodes or nodes[0] != robot or nodes[-1] != target:
            return f"path {nodes} does not lead from {robot} to {target}"
        for a, b in zip(nodes, nodes[1:]):
            if ((a, b) if a < b else (b, a)) not in self.base:
                return f"hop {a}-{b} of path {nodes} is not an edge"
        for key, h in heat.items():
            if key not in self.base or not 0.0 < h < 1.0:
                return f"heat {h!r} on {key} is invalid"
        own = self._value(nodes, heat)
        if prob != own:
            return f"validated {prob!r} differs from the product {own!r}"
        if prob < self._value(self._distance_path(robot, target), heat):
            return f"path {nodes} is less likely than the distance path"
        return None


WORKLOADS = {w.name: w for w in (Sweep, Sweep2w, Simulate, Replan)}
