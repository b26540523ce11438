"""Episode mechanics, sweep aggregation, configuration loading."""

import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from risknav import (EpisodeConfig, EpisodeOutcome, HeatedGraph, HeatParams,
                     HumanState, apply_heat, build_heat_map, env,
                     environment_from_dict, human, load_default_environment,
                     load_default_mission, max_success_path,
                     mission_from_dict, order_tasks, predict_human_path,
                     run_episode, run_sweep, shortest_distance_path, sim,
                     step_human, summarize)
from risknav.sim import (CSV_HEADER, DEFAULT_EPISODES_PER_LEVEL,
                         DEFAULT_LEVELS, derive_seed, load_sweep_config)

from conftest import random_connected_doc


def pocket_doc():
    # a corridor 0-1-2-3 with a safe pocket 4 hanging off the start;
    # Low with p_retry 0.001 leaves no failure mass at all
    return {
        "nodes": 5,
        "risk_table": {"Low": [0.999, 0.001]},
        "edges": [[0, 1, 1.0, "Low"], [1, 2, 1.0, "Low"],
                  [2, 3, 1.0, "Low"], [0, 4, 1.0, "Low"]],
    }


def pocket_mission():
    return mission_from_dict({"start": 0, "tasks": [2], "end": 3,
                              "safe_locations": [4]})


def blocked_doc():
    return {"nodes": 3,
            "edges": [[0, 1, 1.0, "Medium"], [1, 2, 1.0, "Medium"]]}


def blocked_mission():
    return mission_from_dict({"start": 0, "tasks": [], "end": 2,
                              "safe_locations": []})


class TestDeriveSeed:
    def test_frozen_stream_values(self):
        # frozen once; a change here would silently reshuffle every
        # recorded sweep
        assert derive_seed(0, 0, 0) == 2558736989570252433
        assert derive_seed(7, 0, 0) == 11241344834629033336
        assert derive_seed(7, 3, 11) == 9312780925294522765

    def test_distinct_over_indices(self):
        seen = {derive_seed(3, lvl, ep)
                for lvl in range(11) for ep in range(200)}
        assert len(seen) == 11 * 200


class TestDraws:
    """sim._Draws against np.random.Generator on one PCG64 stream."""

    def test_mixed_calls_match_the_numpy_generator(self):
        # n = 1 draws nothing, 5 is the bundled map's largest degree and
        # 30 its node count; 200 calls read past one 64-word block
        sizes = (1, 2, 3, 4, 5, 6, 30)
        plan = np.random.default_rng(99)
        for seed in range(3000):
            draws = sim._Draws(seed)
            ref = np.random.default_rng(seed)
            picks = plan.integers(len(sizes) + 1, size=200).tolist()
            for k in picks:
                if k == len(sizes):
                    assert draws.random() == ref.random()
                else:
                    n = sizes[k]
                    assert draws.integers(n) == ref.integers(n)
            assert draws.random() == ref.random()
            one_block = np.random.PCG64(seed)
            one_block.random_raw(64)
            assert draws._bits.state != one_block.state

    def test_rejection_heavy_bounds_match_the_numpy_generator(self):
        # up to half of all 32-bit draws are rejected below 2**32, and
        # 2**32 takes every draw as it is
        sizes = (2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32)
        plan = np.random.default_rng(98)
        for seed in range(200):
            draws = sim._Draws(seed)
            ref = np.random.default_rng(seed)
            for k in plan.integers(len(sizes) + 1, size=300).tolist():
                if k == len(sizes):
                    assert draws.random() == ref.random()
                else:
                    n = sizes[k]
                    assert draws.integers(n) == ref.integers(n)

    def test_draws_return_python_numbers(self):
        draws = sim._Draws(7)
        assert type(draws.random()) is float
        assert type(draws.integers(30)) is int
        assert draws.integers(1) == 0


class TestEpisodeConfig:
    def test_uncertainty_range_enforced(self, default_env, default_mission):
        for u in (1.5, True, "0.5"):
            with pytest.raises(ValueError, match="uncertainty"):
                EpisodeConfig(default_env, default_mission, HeatParams(),
                              u, 0)

    def test_seed_must_be_a_nonnegative_int(self, default_env,
                                            default_mission):
        for seed in (-3, True):
            with pytest.raises(ValueError, match="seed"):
                EpisodeConfig(default_env, default_mission, HeatParams(),
                              0.0, seed)

    def test_heat_must_be_heat_params(self, default_env, default_mission):
        for heat in ({"path_heat": 0.5}, None, (0.5, 0.3)):
            with pytest.raises(ValueError, match="heat .* HeatParams"):
                EpisodeConfig(default_env, default_mission, heat, 0.3, 1)

    def test_mission_must_be_a_mission_spec(self, default_env,
                                            default_mission):
        for mission in (env.mission_to_dict(default_mission), None):
            with pytest.raises(ValueError, match="mission .* MissionSpec"):
                EpisodeConfig(default_env, mission, HeatParams(), 0.3, 1)

    def test_environment_must_be_a_graph(self, default_env,
                                         default_mission):
        for graph in (env.environment_to_dict(default_env), None):
            with pytest.raises(ValueError, match="environment .* "
                               "EnvironmentGraph or a HeatedGraph"):
                EpisodeConfig(graph, default_mission, HeatParams(), 0.3, 1)


class TestRunEpisode:
    def test_same_seed_same_outcome(self, default_env, default_mission):
        cfg = EpisodeConfig(default_env, default_mission, HeatParams(),
                            0.4, 123)
        assert run_episode(cfg) == run_episode(cfg)

    def test_success_excludes_failure_cause(self, default_env,
                                            default_mission):
        for seed in range(30):
            out = run_episode(EpisodeConfig(
                default_env, default_mission, HeatParams(), 0.7, seed))
            assert out.success == (out.failure_cause is None)
            assert out.redirects >= 0
            assert out.steps >= 1

    def test_parked_human_at_safe_location_never_interferes(self):
        # seed 0 places the human at the pocket node 4, off the
        # corridor; with no failure mass the mission must succeed
        # untouched
        g = environment_from_dict(pocket_doc())
        cfg = EpisodeConfig(g, pocket_mission(), HeatParams(), 0.0, 0)
        out = run_episode(cfg)
        assert out.success
        assert out.redirects == 0
        assert out.final_robot_node == 3

    def test_human_parked_on_a_task_forces_a_redirect(self, default_env,
                                                      default_mission):
        # seeds chosen so the human's start lands on a task node and the
        # robot starts elsewhere; completing that task then requires the
        # blockage to clear, so a redirect must precede completion
        for seed in (5, 6, 8, 11, 19):
            cfg = EpisodeConfig(default_env, default_mission, HeatParams(),
                                0.0, seed)
            out = run_episode(cfg)
            assert out.success
            assert out.redirects >= 1

    def test_blocked_corridor_times_out_without_a_safe_location(self):
        # seed 1 parks the human mid-corridor; with no safe location to
        # redirect to, the hold counter must run out
        g = environment_from_dict(blocked_doc())
        cfg = EpisodeConfig(g, blocked_mission(), HeatParams(), 0.0, 1)
        out = run_episode(cfg)
        assert not out.success
        assert out.failure_cause == "hold_timeout"
        assert out.steps == blocked_mission().hold_limit
        assert out.redirects == 0

    def test_effective_success_at_the_threshold_moves(self):
        # README: the robot moves while the effective success is "at
        # least" the threshold.  A row with no failure mass has effective
        # success exactly 1.0, heated or not, so the robot never holds
        g = environment_from_dict({
            "nodes": 3, "risk_table": {"Low": [1.0, 0.0]},
            "edges": [[0, 1, 1.0, "Low"], [1, 2, 1.0, "Low"]]})
        mission = mission_from_dict({"start": 0, "tasks": [], "end": 2,
                                     "safe_locations": [],
                                     "threshold": 1.0}, g)
        for seed in range(5):
            cfg = EpisodeConfig(g, mission, HeatParams(0.0, 0.0), 0.5, seed)
            assert run_episode(cfg) == EpisodeOutcome(True, None, 2, 0, 2)
            out = run_episode(replace(cfg, heat=HeatParams(0.5, 0.5)))
            assert (out.success, out.redirects) == (True, 0)

    def test_redirected_human_goes_to_a_safe_location(self, default_env,
                                                      default_mission):
        # outcome-level proxy: redirects only ever target safe
        # locations, and with uncertainty 0 the human then stays there
        hp = HeatParams()
        seen = 0
        for seed in range(40):
            cfg = EpisodeConfig(default_env, default_mission, hp, 0.0, seed)
            out = run_episode(cfg)
            if out.redirects:
                seen += 1
        assert seen > 0


class TestRedirectTarget:
    def doc(self):
        # from the human at 0: safe spots 1 (1.0, on the robot's path),
        # 2 (1.5 over two hops), 3 (2.0), 4 (1.5 in one hop) and the
        # isolated 5
        return {"nodes": 8,
                "edges": [[0, 1, 1.0, "Low"], [0, 3, 2.0, "Low"],
                          [0, 4, 1.5, "Low"], [0, 7, 0.5, "Low"],
                          [2, 7, 1.0, "Low"], [1, 6, 1.0, "Low"]]}

    def mission(self, safe):
        return mission_from_dict({"start": 0, "tasks": [], "end": 6,
                                  "safe_locations": safe})

    def test_nearest_off_path_safe_location_by_distance(self):
        g = environment_from_dict(self.doc())
        leg = sim._redirect_target(g, self.mission([5, 1, 4, 3, 2]), 0,
                                   (1, 6))
        # 2 and 4 tie at 1.5 and the smaller id wins, whatever the list order
        assert leg == shortest_distance_path(g, 0, 2)
        assert leg.nodes == (0, 7, 2)
        leg = sim._redirect_target(g, self.mission([5, 3, 4]), 0, (1, 6))
        assert leg.nodes == (0, 4)

    def test_no_reachable_off_path_candidate_means_no_redirect(self):
        g = environment_from_dict(self.doc())
        assert sim._redirect_target(g, self.mission([5, 1]), 0,
                                    (1, 6)) is None
        assert sim._redirect_target(g, self.mission([]), 0, (1, 6)) is None


class TestGraphMemo:
    def test_a_used_graph_gives_the_outcomes_of_fresh_graphs(self,
                                                             monkeypatch):
        configs = [(u, seed) for u in (0.0, 0.5, 1.0) for seed in range(15)]

        def outcome(g, u, seed):
            return run_episode(EpisodeConfig(
                g, load_default_mission(g), HeatParams(), u, seed))

        fresh = [outcome(load_default_environment(), u, seed)
                 for u, seed in configs]

        # another mission (same end node, other tasks) and other heat fill
        # the graph's memo first
        g = load_default_environment()
        other = mission_from_dict({"start": "random", "tasks": [3, 9],
                                   "end": 22, "safe_locations": [13, 20]}, g)
        run_sweep(EpisodeConfig(g, other, HeatParams(0.9, 0.3), 0.0, 4),
                  [0.0, 0.7], 20)
        assert g._memo["plan"] and g._memo["step"]

        # a low bound makes every per-tick memo clear itself inside
        # episodes
        limit = 8
        monkeypatch.setattr(env, "_STEP_MEMO_LIMIT", limit)
        misses = {"step": [], "heat": [], "follow": [], "diverge": []}
        for name, mod, attr in (("step", sim, "max_success_path"),
                                ("heat", sim, "build_heat_map"),
                                ("diverge", human, "predict_human_path")):
            def counted(*args, _real=getattr(mod, attr), _log=misses[name],
                        **kwargs):
                _log.append(None)
                return _real(*args, **kwargs)
            monkeypatch.setattr(mod, attr, counted)

        # a follow miss computes nothing but the tail, so it is counted
        # where step_human stores it
        def remembered(table, key, value, _real=human._remember,
                       _follow=g.memo("follow")):
            if table is _follow:
                misses["follow"].append(None)
            return _real(table, key, value)
        monkeypatch.setattr(human, "_remember", remembered)
        used, most = [], 0
        for u, seed in configs:
            before = len(misses["step"])
            used.append(outcome(g, u, seed))
            most = max(most, len(misses["step"]) - before)
        assert most > limit + 1
        for name, log in misses.items():
            assert len(log) > limit + 1
            assert len(g._memo[name]) <= limit + 1
        assert used == fresh

    def test_a_pickled_graph_carries_no_memo(self):
        g = load_default_environment()
        run_episode(EpisodeConfig(g, load_default_mission(g), HeatParams(),
                                  0.5, 1))
        clone = pickle.loads(pickle.dumps(g))
        for name in ("plan", "step", "heat", "follow", "diverge", "heated"):
            assert g._memo[name]
        assert clone._memo == {}
        assert clone == g

    def test_random_maps_match_graphs_without_memos(self):
        # episodes and a goal-seeking human on a graph with warm memos
        # behave exactly as on a graph whose memos are emptied first;
        # comparing the generator state after every step pins the draws
        rng = np.random.default_rng(23)
        for _ in range(30):
            doc = random_connected_doc(rng, max_nodes=9)
            used, fresh = (environment_from_dict(doc),
                           environment_from_dict(doc))
            nodes = [int(v) for v in rng.permutation(doc["nodes"])]
            k = int(rng.integers(0, min(3, len(nodes) - 1) + 1))
            mission = mission_from_dict({
                "start": "random", "tasks": nodes[:k], "end": nodes[k],
                "safe_locations": nodes[k + 1:k + 3],
                "threshold": float(rng.uniform(0.5, 0.99))}, used)
            heat = HeatParams(float(rng.uniform(0.0, 0.999)),
                              float(rng.uniform(0.0, 0.999)))
            for seed in range(6):
                u = float(rng.choice([0.0, 0.3, 1.0]))
                fresh._memo.clear()
                assert (run_episode(EpisodeConfig(used, mission, heat, u,
                                                  seed))
                        == run_episode(EpisodeConfig(fresh, mission, heat, u,
                                                     seed)))

            # one walk with and without a goal and at each uncertainty, so
            # no memo entry may stand in for another; each runs twice, so
            # the second reads the memos the first filled
            pos, goal = (int(v) for v in rng.integers(used.node_count,
                                                      size=2))
            path = predict_human_path(used, HumanState(pos, goal))
            seed = int(rng.integers(1 << 30))
            for start in [HumanState(pos, aim, u, path)
                          for aim in (goal, None)
                          for u in (0.0, 0.3, 1.0)] * 2:
                a = b = start
                ra = np.random.default_rng(seed)
                rb = np.random.default_rng(seed)
                for _ in range(12):
                    fresh._memo.clear()
                    a, b = step_human(used, a, ra), step_human(fresh, b, rb)
                    assert a == b
                    assert ra.bit_generator.state == rb.bit_generator.state

            assert used._memo["heat"]
            for key, heat_tuple in used._memo["heat"].items():
                nodes, u, params = key
                h = HumanState(nodes[0], None, u, nodes)
                assert heat_tuple == tuple(sorted(build_heat_map(
                    used, h, HeatParams(*params)).items()))

    def test_every_stepped_human_has_a_prediction_at_its_position(
            self, monkeypatch):
        # predict_human_path alone predicts: the episode hands step_human
        # predicted humans and uses what it returns without patching it
        seen = []
        real = sim.step_human

        def checked(g, h, rng):
            nxt = real(g, h, rng)
            seen.extend((h, nxt))
            return nxt

        monkeypatch.setattr(sim, "step_human", checked)
        rng = np.random.default_rng(29)
        for _ in range(20):
            doc = random_connected_doc(rng, max_nodes=8)
            g = environment_from_dict(doc)
            nodes = [int(v) for v in rng.permutation(doc["nodes"])]
            k = int(rng.integers(0, min(2, len(nodes) - 1) + 1))
            mission = mission_from_dict({
                "start": "random", "tasks": nodes[:k], "end": nodes[k],
                "safe_locations": nodes[k + 1:k + 3]}, g)
            for seed in range(5):
                u = float(rng.choice([0.0, 0.5, 1.0]))
                run_episode(EpisodeConfig(g, mission, HeatParams(), u,
                                          seed))
        assert seen
        for h in seen:
            assert h.predicted_path is not None
            assert h.predicted_path[0] == h.position

    def test_an_empty_overlay_runs_the_episodes_of_its_base(self,
                                                             monkeypatch):
        # an overlay without heat has its base's probabilities, so each
        # episode on it must end alike after the same draws
        made = []

        class Recorded(sim._Draws):
            __slots__ = ()

            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(sim, "_Draws", Recorded)
        g = load_default_environment()
        mission = load_default_mission(g)
        for u in (0.0, 0.4, 1.0):
            for seed in range(6):
                runs = []
                for graph in (g, apply_heat(g, {})):
                    out = run_episode(EpisodeConfig(graph, mission,
                                                    HeatParams(), u, seed))
                    # how far the episode read: the bit generator's state
                    # (blocks drawn), the words left and the kept half
                    d = made[-1]
                    runs.append((out, d._bits.state, len(d._words), d._half))
                assert runs[0] == runs[1]

    def test_an_overlay_leaves_its_base_memo_empty(self):
        g = load_default_environment()
        mission = load_default_mission(g)
        hot = HeatedGraph(g, {})
        max_success_path(hot, 25, 17)
        shortest_distance_path(hot, 25, 17)
        order_tasks(hot, mission, 25)
        apply_heat(hot, {next(iter(g.edges)): 0.5})
        rng = np.random.default_rng(3)
        path = predict_human_path(hot, HumanState(15, 6))
        for u in (0.0, 1.0):
            step_human(hot, HumanState(15, 6, u, path), rng)
        run_episode(EpisodeConfig(hot, mission, HeatParams(), 0.5, 1))
        assert g._memo == {}


class TestRunSweep:
    def test_counts_add_up(self, default_env, default_mission):
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 3)
        report = run_sweep(base, [0.0, 0.5, 1.0], 40)
        for row in report.rows:
            assert row.success_count + row.fail_count == 40
            assert row.success_percent \
                == pytest.approx(100.0 * row.success_count / 40)
            assert row.redirect_episode_percent <= 100.0
            assert row.max_redirects_per_episode >= 0

    def test_rows_match_individual_episodes(self, default_env,
                                            default_mission):
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 9)
        levels = [0.0, 1.0]
        # more than one 250-episode chunk, so each row merges two tallies
        n = 260
        report = run_sweep(base, levels, n)
        for i, u in enumerate(levels):
            outs = [run_episode(EpisodeConfig(
                default_env, default_mission, HeatParams(), u,
                derive_seed(9, i, j))) for j in range(n)]
            succ = sum(o.success for o in outs)
            redirected = sum(o.redirects > 0 for o in outs)
            assert report.rows[i] == sim.SweepRow(
                u, 100.0 * succ / n, succ, n - succ,
                sum(o.redirects for o in outs), 100.0 * redirected / n,
                max(o.redirects for o in outs))

    def test_worker_count_cannot_change_the_report(self, default_env,
                                                   default_mission):
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 5)
        one = run_sweep(base, [0.0, 0.6], 60, workers=1)
        two = run_sweep(base, [0.0, 0.6], 60, workers=2)
        assert summarize(one) == summarize(two)

    def test_no_more_processes_than_jobs(self, default_env, default_mission,
                                         monkeypatch):
        pools = []

        class RecordingPool:
            # runs the jobs in this process and records its size
            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sim, "_WORKER", {})
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 5)
        # one level of 50 episodes is one job: the sweep stays in process
        run_sweep(base, [0.0], 50, workers=2)
        assert pools == []
        # two levels are two jobs, so a third process would sit idle
        run_sweep(base, [0.0, 0.6], 50, workers=3)
        assert pools == [2]

    def test_level_outside_unit_interval_rejected(self, default_env,
                                                  default_mission):
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 0)
        with pytest.raises(ValueError, match="outside"):
            run_sweep(base, [0.0, 1.2], 5)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_level_refused_before_any_episode(
            self, default_env, default_mission, monkeypatch, workers):
        # every level becomes an EpisodeConfig before the first job, so a
        # bad last level stops the sweep before a process or episode starts
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(sim, "run_episode", refuse)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", refuse)
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 0)
        with pytest.raises(ValueError,
                           match=r"uncertainty 1\.2 outside \[0, 1\]"):
            run_sweep(base, [0.0, 0.5, 1.2], 300, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_integer_levels_run_as_their_floats(
            self, default_env, default_mission, workers):
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 4)
        ints = run_sweep(base, [0, 1], 40, workers=workers)
        floats = run_sweep(base, [0.0, 1.0], 40, workers=workers)
        assert ints == floats
        assert summarize(ints) == summarize(floats)

    def test_integer_levels_of_a_config_document_run_as_their_floats(self):
        # the loader passes levels on as given; an int runs as its float
        reports = []
        for levels in ([0, 1], [0.0, 1.0]):
            cfg = load_sweep_config({"levels": levels, "seed": 4,
                                     "episodes_per_level": 40})
            reports.append(run_sweep(cfg.base, cfg.levels,
                                     cfg.episodes_per_level))
        assert reports[0] == reports[1]
        assert summarize(reports[0]) == summarize(reports[1])

    def test_empty_levels_rejected(self, default_env, default_mission):
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 0)
        with pytest.raises(ValueError, match="levels"):
            run_sweep(base, [], 5)

    def test_bad_counts_rejected(self, default_env, default_mission):
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 0)
        with pytest.raises(ValueError, match="episodes_per_level"):
            run_sweep(base, [0.0], 0)
        with pytest.raises(ValueError, match="workers"):
            run_sweep(base, [0.0], 5, workers=0)

    def test_wrongly_typed_numbers_rejected(self, default_env,
                                            default_mission):
        # a bool would run as 1 and a float count fails inside range()
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 0)
        for args, field in [(([0.0], 2.5), "episodes_per_level"),
                            (([0.0], True), "episodes_per_level"),
                            (([0.0], 5, True), "workers"),
                            (([0.0], 5, 2.0), "workers"),
                            (([True], 5), "uncertainty"),
                            ((["0.5"], 5), "uncertainty"),
                            (([None], 5), "uncertainty")]:
            with pytest.raises(ValueError, match=field):
                run_sweep(base, *args)
        with pytest.raises(ValueError, match="'x' must be an EpisodeConfig"):
            run_sweep("x", [0.0], 5)


class TestSummarize:
    def test_header_is_frozen(self):
        assert CSV_HEADER == ("uncertainty,success_pct,success,fail,"
                              "total_redirects,redirect_pct,max_redirects")

    def test_round_trip_of_numeric_fields(self, default_env,
                                          default_mission):
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, 2)
        report = run_sweep(base, [0.0, 0.3, 1.0], 30)
        lines = summarize(report).strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.rows)
        for line, row in zip(lines[1:], report.rows):
            u, spct, succ, fail, rd, rdpct, mx = line.split(",")
            assert float(u) == row.uncertainty
            assert float(spct) == round(row.success_percent, 2)
            assert int(succ) == row.success_count
            assert int(fail) == row.fail_count
            assert int(rd) == row.total_redirects
            assert float(rdpct) == round(row.redirect_episode_percent, 2)
            assert int(mx) == row.max_redirects_per_episode


class TestSweepConfig:
    def test_defaults_mirror_the_reference_setup(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text("{}")
        settings = load_sweep_config(str(cfg))
        assert settings.levels == DEFAULT_LEVELS
        assert settings.episodes_per_level == DEFAULT_EPISODES_PER_LEVEL
        assert settings.workers == 1
        assert settings.base.seed == 0
        assert settings.base.mission.threshold == 0.9
        assert settings.base.mission.hold_limit == 10

    def test_relative_references_resolve_against_the_config(self, tmp_path):
        (tmp_path / "env.json").write_text(json.dumps(pocket_doc()))
        (tmp_path / "mission.json").write_text(json.dumps(
            {"start": 0, "tasks": [2], "end": 3, "safe_locations": [4]}))
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "environment": "env.json", "mission": "mission.json",
            "levels": [0, 0.5], "episodes_per_level": 4, "seed": 17,
            "heat": {"path_heat": 0.5},
        }))
        settings = load_sweep_config(str(cfg))
        assert settings.base.environment.node_count == 5
        assert settings.base.mission.start == 0
        assert settings.levels == (0.0, 0.5)
        assert settings.episodes_per_level == 4
        assert settings.base.seed == 17
        assert settings.base.heat == HeatParams(path_heat=0.5)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            load_sweep_config({"episodes": 5})
        with pytest.raises(ValueError, match="heat"):
            load_sweep_config({"heat": {"spice": 1.0}})

    def test_types_checked(self):
        with pytest.raises(ValueError, match="integers"):
            load_sweep_config({"episodes_per_level": "many"})
        with pytest.raises(ValueError, match="seed"):
            load_sweep_config({"seed": 1.5})
        # JSON true and false load as bools, which Python counts as ints
        for doc, field in [({"levels": 0.5}, "levels"),
                           ({"levels": "0"}, "levels"),
                           ({"levels": [None]}, "levels"),
                           ({"levels": [True]}, "levels"),
                           ({"seed": True}, "seed"),
                           ({"episodes_per_level": True}, "integers"),
                           ({"workers": False}, "integers"),
                           ({"heat": {"path_heat": None}}, "path_heat"),
                           ({"heat": {"neighbor_heat": False}},
                            "neighbor_heat"),
                           ({"environment": 5}, "environment")]:
            with pytest.raises(ValueError, match=field):
                load_sweep_config(doc)

    def test_invalid_json_names_the_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        with pytest.raises(ValueError, match="broken.json"):
            load_sweep_config(str(bad))
