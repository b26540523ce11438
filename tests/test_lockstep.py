"""The lockstep sweep engine against the scalar episode loop.

risknav._lockstep steps a batch of episodes together as numpy operations
and must give, episode by episode, the outcome sim._episode gives on the
same draws.  Its vectorized draws are checked against sim._Draws on synthetic
words, and the sweep around it for its memory and its human table.
"""

import tracemalloc
from collections import Counter
from concurrent.futures import Future
from dataclasses import astuple, replace

import numpy as np
import pytest

from risknav import (EpisodeConfig, HeatParams, env, environment_from_dict,
                     human, load_default_environment, load_default_mission,
                     mission_from_dict, run_episode, run_sweep, sim,
                     summarize)
from risknav import _lockstep
from risknav.sim import derive_seed

from conftest import random_connected_doc

# the default engine, and a block so small that most episodes run out of
# words and go on on the scalar loop
ENGINES = {"default": {}, "small blocks": {"_BLOCK": 8}}


@pytest.fixture(params=sorted(ENGINES))
def engine(request, monkeypatch):
    for name, value in ENGINES[request.param].items():
        monkeypatch.setattr(_lockstep, name, value)
    return request.param


def scalar(cfg, seeds):
    return [astuple(run_episode(replace(cfg, seed=s)))
            for s in seeds.tolist()]


def tuples(ends):
    """_lockstep.outcomes' arrays as one EpisodeOutcome tuple an episode."""
    return [(why == _lockstep._WON, _lockstep._CAUSES[why], steps,
             redirects, node) for why, steps, redirects, node
            in zip(*ends.tolist())]


def one_level(cfg, seeds):
    """_lockstep.outcomes for seeds all at cfg, as EpisodeOutcome tuples."""
    return tuples(_lockstep.outcomes((cfg,), np.zeros(len(seeds), np.intp),
                                     seeds))


def episode_seeds(base, level, n):
    return derive_seed(base, level, np.arange(n, dtype=np.uint64))


class Counted(sim._Draws):
    """_Draws that counts its 32-bit draws."""

    __slots__ = ("calls",)

    def __init__(self, words, half):
        super().__init__(0)
        self._words, self._half, self.calls = words[::-1], half, 0

    def _uint32(self):
        self.calls += 1
        return super()._uint32()


class TestDraws:
    def test_unit_is_random(self):
        words = np.random.default_rng(3).integers(
            0, 2 ** 64, size=2000, dtype=np.uint64)
        words[:3] = (0, 2 ** 64 - 1, 2 ** 11)
        for w, got in zip(words.tolist(), _lockstep._unit(words).tolist()):
            assert got == Counted([w], None).random()

    @pytest.mark.parametrize("bound", [2, 3, 5, 30, 2 ** 31 + 1,
                                       3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32])
    def test_bounded_is_integers_or_a_named_rejection(self, bound):
        # up to half of all 32-bit draws are rejected below 2**32; a lane
        # starts with or without a kept half, two words into its block
        rng = np.random.default_rng(bound % 1000)
        lanes, block = 400, 2
        words = rng.integers(0, 2 ** 64, size=lanes * block, dtype=np.uint64)
        has = rng.integers(2, size=lanes).astype(bool)
        half = rng.integers(0, 2 ** 32, size=lanes, dtype=np.uint64)
        start = np.arange(lanes) * block
        wp, kept, held = start.copy(), has.copy(), half.copy()
        sel = np.flatnonzero(rng.integers(4, size=lanes) > 0)
        bounds = np.full(sel.size, bound, np.uint64)
        draws, rejected = _lockstep._bounded(words, wp, held, kept, sel,
                                             bounds)
        assert draws.dtype == np.intp
        rejections = 0
        for j, i in enumerate(sel.tolist()):
            ref = Counted(words[i * block:(i + 1) * block].tolist(),
                          int(half[i]) if has[i] else None)
            value = ref.integers(bound)
            if rejected[j]:
                rejections += 1
                assert ref.calls > 1
                continue
            assert ref.calls == 1 and draws[j] == value
            assert wp[i] - start[i] == block - len(ref._words)
            assert kept[i] == (ref._half is not None)
            if kept[i]:
                assert held[i] == ref._half
        untouched = np.setdiff1d(np.arange(lanes), sel)
        assert (wp[untouched] == start[untouched]).all()
        assert (kept[untouched] == has[untouched]).all()
        # a power of two rejects nothing; just above 2**31 about half
        if bound in (2, 2 ** 32):
            assert rejections == 0
        if bound in (2 ** 31 + 1, 3 * 2 ** 30):
            assert rejections > sel.size // 8

    @pytest.mark.parametrize("read", [0, 5, 95, 96])
    @pytest.mark.parametrize("keep", [False, True])
    def test_resume_after_a_block_goes_on_with_the_stream(self, read, keep):
        # a lane handed to the scalar loop: its block of 96 words partly
        # read, perhaps with a kept half, then the rest of its stream
        sizes = (1, 2, 5, 30, 2 ** 31 + 1)
        plan = np.random.default_rng(read + keep)
        for seed in (0, 7, 2 ** 64 - 1, derive_seed(7, 3, 11)):
            ref = sim._Draws(seed)
            taken = max(0, read - keep)
            for _ in range(taken):
                ref._word()
            if keep and read:
                ref._uint32()
            block = np.random.PCG64(seed).random_raw(96)
            again = sim._Draws(0)
            again.reseed(sim._pcg64_states([seed]), 0)
            again.resume(96, block[read:].tolist(), ref._half)
            for k in plan.integers(len(sizes) + 1, size=300).tolist():
                if k == len(sizes):
                    assert again.random() == ref.random()
                else:
                    assert again.integers(sizes[k]) == ref.integers(
                        sizes[k])


def corridor(edges, nodes, **mission):
    g = environment_from_dict({"nodes": nodes, "edges": edges,
                               **mission.pop("doc", {})})
    doc = {"start": 0, "tasks": [], "end": nodes - 1, "safe_locations": []}
    doc.update(mission)
    return g, mission_from_dict(doc, g)


def hand_built():
    """(graph, mission, heat, uncertainty) cases that force each rule."""
    cases = []
    # a safe pocket off the corridor: redirects, then a free run
    g, m = corridor([[0, 1, 1.0, "Low"], [1, 2, 1.0, "Low"],
                     [2, 3, 1.0, "Low"], [0, 4, 1.0, "Low"]], 5,
                    tasks=[2], end=3, safe_locations=[4],
                    doc={"risk_table": {"Low": [0.999, 0.001]}})
    cases += [(g, m, HeatParams(), u) for u in (0.0, 0.5)]
    # no safe spot on a Medium corridor: hold timeouts
    g, m = corridor([[0, 1, 1.0, "Medium"], [1, 2, 1.0, "Medium"]], 3)
    cases += [(g, m, HeatParams(), u) for u in (0.0, 0.3)]
    # a move allows a second request
    g, m = corridor([[0, 1, 1.0, "Medium"], [1, 2, 1.0, "Medium"],
                     [2, 3, 1.0, "Low"]], 4, tasks=[1], end=2,
                    safe_locations=[3, 2])
    cases += [(g, m, HeatParams(), u) for u in (0.0, 0.4)]
    # a star whose second request waits two settled ticks
    g, m = corridor([[0, 1, 1.0, "Low"], [0, 2, 1.0, "High"],
                     [0, 3, 1.0, "High"]], 4, start=3, tasks=[0], end=2,
                    safe_locations=[3, 2])
    cases += [(g, m, HeatParams(), u) for u in (0.2, 1.0)]
    # a third of each attempt fails: catastrophes, and retries that keep
    # the holds
    g, m = corridor([[0, 1, 1.0, "Severe"], [1, 2, 1.0, "Severe"],
                     [2, 3, 1.0, "Severe"]], 4, threshold=0.5, hold_limit=3,
                    safe_locations=[1],
                    doc={"risk_table": {"Severe": [0.6, 0.1]}})
    cases += [(g, m, HeatParams(0.5, 0.3), u) for u in (0.0, 0.7)]
    # node 4 has no neighbour and nodes 0 and 3 one each; the human may
    # start on any of them, and the robot's fixed start leaves the kept
    # half of the human's draw to its first divergence
    g, m = corridor([[0, 1, 1.0, "Medium"], [1, 2, 1.0, "Low"],
                     [2, 3, 1.0, "High"], [1, 3, 2.0, "Low"]], 5, end=3,
                    safe_locations=[2])
    cases += [(g, m, HeatParams(), u) for u in (0.5, 1.0)]
    # no failure mass: the effective success is 1.0 at a threshold of 1.0,
    # heated or not, so the robot never holds
    g, m = corridor([[0, 1, 1.0, "Low"], [1, 2, 1.0, "Low"]], 3,
                    threshold=1.0, doc={"risk_table": {"Low": [1.0, 0.0]}})
    cases += [(g, m, HeatParams(0.5, 0.5), u) for u in (0.0, 0.5)]
    # one node: the robot starts at the end, and integers(1) draws nothing
    g, m = corridor([], 1, start="random")
    cases.append((g, m, HeatParams(), 1.0))
    # random maps with random starts
    rng = np.random.default_rng(17)
    for _ in range(4):
        doc = random_connected_doc(rng, max_nodes=9)
        g = environment_from_dict(doc)
        nodes = [int(v) for v in rng.permutation(doc["nodes"])]
        k = min(2, len(nodes) - 1)
        m = mission_from_dict({"start": "random", "tasks": nodes[:k],
                               "end": nodes[k],
                               "safe_locations": nodes[k + 1:k + 3],
                               "threshold": 0.95}, g)
        cases.append((g, m, HeatParams(), float(rng.choice([0.3, 1.0]))))
    return cases


class TestParity:
    def test_bundled_map_episode_by_episode(self, engine, monkeypatch):
        tails = []
        real = _lockstep._march

        def march(*args):
            out = real(*args)
            tails.extend(state is not None for _, state in out)
            return out

        monkeypatch.setattr(_lockstep, "_march", march)
        g = load_default_environment()
        mission = load_default_mission(g)
        for base, level, u in ((7, 0, 0.0), (7, 4, 0.4), (3, 10, 1.0),
                               (11, 7, 0.7)):
            cfg = EpisodeConfig(g, mission, HeatParams(), u, 0)
            seeds = episode_seeds(base, level, 200)
            assert one_level(cfg, seeds) == scalar(cfg, seeds)
        # the small blocks hand most episodes to the scalar loop mid-run;
        # otherwise only the longest episodes go
        assert (sum(tails) > 400) == (engine == "small blocks")
        assert any(tails)

    def test_hand_built_maps_episode_by_episode(self, engine, monkeypatch):
        kept = []
        real = _lockstep._bounded

        def bounded(words, wp, half, has, sel, n):
            kept.append(bool(has[sel].any()))
            return real(words, wp, half, has, sel, n)

        monkeypatch.setattr(_lockstep, "_bounded", bounded)
        seeds = np.arange(60, dtype=np.uint64)
        seen = Counter()
        for g, mission, heat, u in hand_built():
            cfg = EpisodeConfig(g, mission, heat, u, 0)
            got = one_level(cfg, seeds)
            assert got == scalar(cfg, seeds)
            seen.update((cause, min(redirects, 2))
                        for _, cause, _, redirects, _ in got)
        assert any(kept)
        for cause in (None, "hold_timeout", "catastrophic"):
            assert seen[cause, 0] > 0
        assert seen[None, 1] > 0 and seen[None, 2] > 0

    def test_a_job_spans_levels(self, engine, monkeypatch):
        # lanes at u = 0, which draw nothing for their human, step beside
        # lanes that diverge, each lane on its own level's config; on the
        # bundled map and on a corridor that allows a second request
        tails = []
        real = _lockstep._march

        def march(*args):
            out = real(*args)
            tails.extend(state is not None for _, state in out)
            return out

        monkeypatch.setattr(_lockstep, "_march", march)
        g = load_default_environment()
        maps = [(g, load_default_mission(g))]
        maps.append(corridor([[0, 1, 1.0, "Medium"], [1, 2, 1.0, "Medium"],
                              [2, 3, 1.0, "Low"]], 4, tasks=[1], end=2,
                             safe_locations=[3, 2]))
        us = (0.0, 0.3, 1.0)
        pick = np.random.default_rng(5)
        seen = Counter()
        for g, mission in maps:
            levels = tuple(EpisodeConfig(g, mission, HeatParams(), u, 0)
                           for u in us)
            level = pick.integers(len(us), size=240)
            seeds = derive_seed(9, level.astype(np.uint64),
                                np.arange(240, dtype=np.uint64))
            got = tuples(_lockstep.outcomes(levels, level, seeds))
            assert got == [astuple(run_episode(replace(levels[i], seed=s)))
                           for i, s in zip(level.tolist(), seeds.tolist())]
            seen.update((us[i], min(o[3], 2))
                        for i, o in zip(level.tolist(), got))
        assert any(tails)
        assert all(seen[u, 1] > 0 for u in us)
        assert seen[0.0, 2] > 0 and seen[0.3, 2] > 0

    def test_a_job_tallies_its_episodes(self, engine, monkeypatch):
        # a job of three levels that starts and ends inside a level, on the
        # corridor that allows a second request: its Counter of (level,
        # cause, redirects) is the tally of its episodes on the scalar loop
        tails = []
        real = _lockstep._march

        def march(*args):
            out = real(*args)
            tails.extend(state is not None for _, state in out)
            return out

        monkeypatch.setattr(_lockstep, "_march", march)
        g, mission = corridor([[0, 1, 1.0, "Medium"], [1, 2, 1.0, "Medium"],
                               [2, 3, 1.0, "Low"]], 4, tasks=[1], end=2,
                              safe_locations=[3, 2])
        levels = tuple(EpisodeConfig(g, mission, HeatParams(), u, 9)
                       for u in (0.0, 0.3, 1.0))
        episodes, lo, hi = 100, 40, 260
        tally = Counter()
        for i in range(lo, hi):
            level, episode = divmod(i, episodes)
            out = run_episode(replace(levels[level],
                                      seed=derive_seed(9, level, episode)))
            tally[level, out.failure_cause, out.redirects] += 1
        assert sim._run_chunk(levels, episodes, lo, hi) == tally
        assert {level for level, _, _ in tally} == {0, 1, 2}
        assert max(redirects for _, _, redirects in tally) >= 2
        assert any(tails) == (engine == "small blocks")

    def test_a_sweep_is_its_episodes(self):
        # two batches of one level, a level of one batch, and a partial
        # batch: each row is the tally of its episodes on the scalar loop
        g = load_default_environment()
        mission = load_default_mission(g)
        base = EpisodeConfig(g, mission, HeatParams(), 0.0, 5)
        n = sim._BATCH + 30
        report = run_sweep(base, [0.6], n)
        outs = scalar(replace(base, uncertainty=0.6),
                      episode_seeds(5, 0, n))
        succ = sum(o[0] for o in outs)
        assert report.rows[0].success_count == succ
        assert report.rows[0].total_redirects == sum(o[3] for o in outs)

    def test_a_last_interned_state_of_degree_0_is_gathered_in_bounds(self):
        # node 4 has no neighbour; a batch that interns a human there last
        # gathers at that state's first divergence slot, which must exist
        g, m = corridor([[0, 1, 1.0, "Low"], [1, 2, 1.0, "Low"],
                         [2, 3, 1.0, "Low"]], 5, tasks=[3], end=2,
                        safe_locations=[1])
        cfg = EpisodeConfig(g, m, HeatParams(), 0.5, 0)
        for seed in range(200):
            seeds = episode_seeds(seed, 0, 3)
            g._memo.clear()
            assert one_level(cfg, seeds) == scalar(cfg, seeds)

    def test_a_map_past_the_cell_budget_runs_on_the_scalar_loop(
            self, monkeypatch):
        # 30 nodes x 8 waypoints x 20 episodes is 4,800 cells
        monkeypatch.setattr(human, "_CELLS", 4_799)
        monkeypatch.setattr(_lockstep, "_march", None)
        g = load_default_environment()
        cfg = EpisodeConfig(g, load_default_mission(g), HeatParams(), 0.5, 0)
        seeds = episode_seeds(2, 5, 20)
        assert one_level(cfg, seeds) == scalar(cfg, seeds)

    def test_a_map_past_the_cell_budget_steps_smaller_jobs(
            self, monkeypatch):
        # at 240 cells an episode, a budget of 700 episodes' cells would
        # send jobs of 2,750 to the scalar loop; the sweep cuts its jobs to
        # 700 instead, and they all step in lockstep
        g = load_default_environment()
        base = EpisodeConfig(g, load_default_mission(g), HeatParams(), 0.0,
                             3)
        fresh = run_sweep(base, (0.0, 0.5), 900)
        monkeypatch.setattr(human, "_CELLS", 240 * 700)
        lanes = []
        real = _lockstep._march

        def march(levels, level, states, ends):
            lanes.append(ends.shape[1])
            return real(levels, level, states, ends)

        monkeypatch.setattr(_lockstep, "_march", march)
        g._memo.clear()
        assert run_sweep(base, (0.0, 0.5), 900) == fresh
        assert lanes == [700, 700, 400]

    def test_the_tick_guard_stops_a_batch(self, engine, monkeypatch):
        monkeypatch.setattr(sim, "_TICK_GUARD", 3)
        g, mission = corridor([[0, 1, 1.0, "Medium"],
                               [1, 2, 1.0, "Medium"]], 3)
        cfg = EpisodeConfig(g, mission, HeatParams(), 0.0, 0)
        with pytest.raises(RuntimeError, match="tick guard"):
            one_level(cfg, np.arange(40, dtype=np.uint64))


class TestSweepTables:
    def test_a_used_graph_sweeps_like_fresh_graphs(self, monkeypatch):
        levels = (0.0, 0.5, 1.0)

        def sweep(g):
            base = EpisodeConfig(g, load_default_mission(g), HeatParams(),
                                 0.0, 4)
            return run_sweep(base, levels, 150)

        fresh = sweep(load_default_environment())
        cfg = EpisodeConfig(load_default_environment(),
                            load_default_mission(), HeatParams(), 0.5, 0)
        seeds = episode_seeds(4, 1, 150)
        fresh_episodes = one_level(cfg, seeds)

        # another mission (same end node, other tasks) and other heat fill
        # the graph's memo first
        g = load_default_environment()
        other = mission_from_dict({"start": "random", "tasks": [3, 9],
                                   "end": 22, "safe_locations": [13, 20]}, g)
        run_sweep(EpisodeConfig(g, other, HeatParams(0.9, 0.3), 0.0, 4),
                  [0.0, 0.7], 20)

        # a low bound makes the human table empty itself between the loop
        # steps of a batch, only when full, keeping the states of the live
        # episodes
        limit = 8
        monkeypatch.setattr(env, "_STEP_MEMO_LIMIT", limit)
        kept = []
        real = human._HumanTable.reintern

        def reintern(table, g, hids):
            assert table.full()
            kept.append(len(hids))
            return real(table, g, hids)

        monkeypatch.setattr(human._HumanTable, "reintern", reintern)
        assert sweep(g) == fresh
        assert len(kept) > 3 * len(levels) and max(kept) > limit
        table = g._memo["human"][HeatParams()]
        n = len(table.states)
        assert n == len(table.ids)
        assert [len(getattr(table, c)) for c in table._COLUMNS[:-1]] \
            == [n] * 6
        assert len(table.divs) == sum(max(d, 1) for d in table.deg)
        assert one_level(replace(cfg, environment=g), seeds) \
            == fresh_episodes

    def test_a_loop_step_grows_the_table_by_its_lanes(self, monkeypatch):
        # the table is checked at the top of every loop step, and a loop
        # step of k lanes adds at most 2k states, k steps, k answers and k
        # rows of cells to the at most max(L - 1, k) states the check
        # leaves: each later check sees at most max(L - 1, k) + 2k states,
        # L + k steps or answers and _CELLS + k * width cells, k being the
        # lanes of the loop step before, which numpy gathers for (_at);
        # with many lanes that is well past L + 1
        levels, episodes = (0.3, 1.0), 500

        def sweep(g):
            base = EpisodeConfig(g, load_default_mission(g), HeatParams(),
                                 0.0, 7)
            return run_sweep(base, levels, episodes)

        fresh = sweep(load_default_environment())
        limit = 50
        monkeypatch.setattr(env, "_STEP_MEMO_LIMIT", limit)
        lanes, seen = [None], []
        real_at, real_full = _lockstep._at, human._HumanTable.full
        real_march = _lockstep._march

        def at(column, index):
            lanes[0] = len(index)
            return real_at(column, index)

        def march(*args):
            lanes[0] = 0
            try:
                return real_march(*args)
            finally:
                lanes[0] = None

        def full(table):
            k = lanes[0]
            if k:
                seen.append(len(table.states))
                assert len(table.states) <= max(limit - 1, k) + 2 * k
                assert len(table.nodes) <= limit + k
                assert len(table.asks) <= limit + k
                assert len(table.cells) <= human._CELLS + k * table.width
            return real_full(table)

        monkeypatch.setattr(_lockstep, "_at", at)
        monkeypatch.setattr(_lockstep, "_march", march)
        monkeypatch.setattr(human._HumanTable, "full", full)
        assert sweep(load_default_environment()) == fresh
        assert len(seen) > 30 and max(seen) > 2 * limit

    def test_a_diverged_state_is_predicted_once(self, monkeypatch):
        # divergence successors are filled per (new position, goal,
        # uncertainty), so humans that diverge to the same node toward the
        # same goal share one prediction, in either engine
        calls = []
        real = human.predict_human_path

        def counted(g, h):
            if h.goal is not None:
                calls.append((h.position, h.goal, h.uncertainty))
            return real(g, h)

        monkeypatch.setattr(human, "predict_human_path", counted)
        g = load_default_environment()
        mission = load_default_mission(g)
        run_sweep(EpisodeConfig(g, mission, HeatParams(), 0.0, 3),
                  [0.3, 1.0], 400)
        for seed in range(40):
            run_episode(EpisodeConfig(g, mission, HeatParams(), 0.6, seed))
        assert len(calls) > 50
        assert len(calls) == len(set(calls))

    def test_steps_past_the_cell_budget_empty_the_table(self, monkeypatch):
        # 30 nodes x 8 waypoints is 240 cells a heat: with a budget of
        # 2,400 cells the table is emptied past 10 heats, at the top of the
        # tick after the one that made the 11th, so its cells never pass the
        # budget by more than one heat's; episodes stay those of a fresh
        # graph
        g = load_default_environment()
        mission = load_default_mission(g)
        configs = [(u, seed) for u in (0.5, 1.0) for seed in range(12)]

        def outcomes(graph):
            return [run_episode(EpisodeConfig(graph, mission, HeatParams(),
                                              u, seed))
                    for u, seed in configs]

        fresh = outcomes(load_default_environment())
        monkeypatch.setattr(human, "_CELLS", 2_400)
        clears, sizes = [], []
        real = human._HumanTable.clear

        def clear(table):
            clears.append(len(table.heats))
            sizes.append(len(table.cells))
            real(table)

        monkeypatch.setattr(human._HumanTable, "clear", clear)
        assert outcomes(g) == fresh
        table = g._memo["human"][HeatParams()]
        sizes.append(len(table.cells))
        assert len(clears) > 3 and max(clears) == 11
        assert max(sizes) == 2_400 + 240

    def test_a_redirect_is_asked_once_per_human_and_step(self,
                                                         monkeypatch):
        # both engines keep each answer in the human table, so only a new
        # (human id, step number) looks for a leg; a mission with the same
        # waypoints but other safe locations gets a table of its own
        legs = []
        real = sim._redirect_target

        def counted(*args):
            legs.append(args)
            return real(*args)

        def sweep(g, m):
            base = EpisodeConfig(g, m, HeatParams(), 0.0, 7)
            return run_sweep(base, (0.2, 0.9), 300)

        g = load_default_environment()
        mission = load_default_mission(g)
        other = replace(mission, safe_locations=(13,))
        fresh = [sweep(load_default_environment(), m)
                 for m in (mission, other)]
        assert fresh[0] != fresh[1]

        monkeypatch.setattr(sim, "_redirect_target", counted)
        assert sweep(g, mission) == fresh[0]
        asks = g._memo["human"][HeatParams()].asks
        assert len(legs) == sum(a != sim._NOT_ASKED for a in asks.values())
        assert sum(r.total_redirects for r in fresh[0].rows) > len(legs)
        assert sweep(g, other) == fresh[1]
        assert sweep(g, mission) == fresh[0]

    def test_every_worker_gets_a_job(self, monkeypatch):
        # jobs of 2,750 episodes of any levels, or smaller ones, down to
        # 687, when that gives a worker a job it would not have; a sweep
        # of one job stays in process
        jobs = []

        def record(levels, episodes, lo, hi):
            jobs.append((lo, hi))
            return Counter((i // episodes, None, 0) for i in range(lo, hi))

        class InProcess:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                done = Future()
                done.set_result(fn(job))
                return done

        monkeypatch.setattr(sim, "_run_chunk", record)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            InProcess)
        monkeypatch.setattr(sim, "_WORKER", {})
        g = load_default_environment()
        base = EpisodeConfig(g, load_default_mission(g), HeatParams(), 0.0,
                             1)
        for levels, episodes, workers, sizes in (
                (1, 1000, 1, [1000]), (1, 1000, 2, [1000]),
                (2, 1375, 3, [2750]), (1, 3000, 2, [1500, 1500]),
                (1, 3000, 3, [1000] * 3), (1, 3000, 8, [687] * 4 + [252]),
                (2, 1500, 2, [1500, 1500]), (11, 1000, 2, [2750] * 4),
                (3, 4000, 4, [2750] * 4 + [1000])):
            del jobs[:]
            run_sweep(base, [0.5] * levels, episodes, workers)
            assert [hi - lo for lo, hi in jobs] == sizes
            assert jobs[-1][1] == levels * episodes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_memory_does_not_grow_with_its_episodes(
            self, monkeypatch, workers):
        class Stop(Exception):
            pass

        runs = []

        def first_batches(levels, episodes, lo, hi):
            runs.append(hi - lo)
            if len(runs) == 3:
                raise Stop
            return Counter({(lo // episodes, None, 0): hi - lo})

        class InProcess:
            # runs each job when it is submitted
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                done = Future()
                done.set_result(fn(job))
                return done

        monkeypatch.setattr(sim, "_run_chunk", first_batches)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            InProcess)
        monkeypatch.setattr(sim, "_WORKER", {})
        g = load_default_environment()
        base = EpisodeConfig(g, load_default_mission(g), HeatParams(), 0.0,
                             1)
        peaks = []
        for episodes in (10 ** 4, 10 ** 9, 10 ** 4, 10 ** 9):
            del runs[:]
            tracemalloc.start()
            try:
                with pytest.raises(Stop):
                    run_sweep(base, [0.0, 0.5, 1.0], episodes, workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert runs == [sim._BATCH] * 3
        # the second pair runs warm; a job list would take gigabytes
        assert peaks[3] < peaks[2] + 20_000


def test_the_bundled_sweep_csv_at_every_engine_setting(engine):
    # the README's seed-7 sweep, cut to 300 episodes a level
    g = load_default_environment()
    base = EpisodeConfig(g, load_default_mission(g), HeatParams(), 0.0, 7)
    report = run_sweep(base, (0.0, 0.5, 1.0), 300)
    rows = []
    for i, u in enumerate((0.0, 0.5, 1.0)):
        outs = scalar(replace(base, uncertainty=u), episode_seeds(7, i, 300))
        rows.append(sim._sweep_row(u, Counter((o[1], o[3]) for o in outs)))
    assert summarize(report) == summarize(sim.SweepReport(tuple(rows)))
