"""Command-line surface: output shapes and exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import risknav
from risknav import cli, sim
from risknav.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_env(tmp_path, doc):
    target = tmp_path / "env.json"
    target.write_text(json.dumps(doc))
    return str(target)


split_doc = {"nodes": 4,
             "edges": [[0, 1, 1.0, "Low"], [2, 3, 1.0, "Low"]]}


def write_stranded_start(tmp_path):
    # node 3 has no edges, and the random start can draw it
    env = write_env(tmp_path, {
        "nodes": 4, "edges": [[0, 1, 1.0, "Low"], [1, 2, 1.0, "Low"]]})
    mission = tmp_path / "mission.json"
    mission.write_text(json.dumps(
        {"start": "random", "tasks": [1], "end": 2, "safe_locations": [0]}))
    return env, str(mission)


def count_episodes(monkeypatch, module):
    calls = []
    real = module.run_episode

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "run_episode", counted)
    return calls


class TestPlan:
    def test_start_equals_goal(self, capsys):
        code, out, _ = run(capsys, "plan", "5", "5")
        assert code == 0
        assert "r_dist 1.000000" in out
        assert "r_prob 1.000000" in out
        assert out.strip().endswith("selected:         5")

    def test_conflicted_corridor_replans_around_the_human(self, capsys):
        code, out, _ = run(capsys, "plan", "25", "17", "--human", "15,6")
        assert code == 0
        assert "human predicted: 15 -> 11 -> 8 -> 4 -> 6" in out
        selected = out.strip().split("\n")[-1]
        assert selected.startswith("selected:")
        nodes = selected.split(":")[1].strip().split(" -> ")
        assert set(nodes).isdisjoint({"15", "11", "8", "4", "6"})

    def test_human_uncertainty_leaves_the_plan_unchanged(self, capsys):
        # the spill (neighbor_heat * u = 0.6 u) reaches only edges at the
        # human's position, which its prediction already heats at 0.998
        outs = {run(capsys, "plan", "25", "17", "--human", f"15,6,{u}")
                for u in ("0", "0.2", "1")}
        assert len(outs) == 1
        code, out, _ = outs.pop()
        assert code == 0
        assert out.startswith("human predicted: 15 -> 11 -> 8 -> 4 -> 6\n")

    def test_unheated_corridor_goes_straight_through(self, capsys):
        code, out, _ = run(capsys, "plan", "25", "17")
        assert code == 0
        assert "selected:         25 -> 10 -> 11 -> 14 -> 17" in out

    def test_no_path_exits_two(self, capsys, tmp_path):
        env = write_env(tmp_path, split_doc)
        code, out, err = run(capsys, "plan", "0", "3", "--env", env)
        assert code == 2
        assert (out, err) == ("", "error: no path from 0 to 3\n")

    def test_missing_file_exits_one_and_names_it(self, capsys):
        code, _, err = run(capsys, "plan", "0", "1",
                           "--env", "/no/such/env.json")
        assert code == 1
        assert "/no/such/env.json" in err

    def test_bad_human_argument_exits_one(self, capsys):
        # a field that is not a number, and the wrong number of fields
        for text in ("fifteen,6", "1"):
            code, _, err = run(capsys, "plan", "25", "17", "--human", text)
            assert code == 1
            assert f"--human {text!r}" in err

    def test_unreachable_human_goal_exits_one(self, capsys, tmp_path):
        env = write_env(tmp_path, split_doc)
        code, out, err = run(capsys, "plan", "0", "1", "--env", env,
                             "--human", "0,3")
        assert code == 1
        assert out == ""
        assert err == "error: human goal 3 unreachable from position 0\n"

    def test_out_of_range_node_exits_one(self, capsys):
        code, _, err = run(capsys, "plan", "25", "99")
        assert code == 1
        assert "99" in err


class TestValidate:
    def test_prints_the_validated_probability(self, capsys):
        code, out, _ = run(capsys, "validate", "25", "10", "11")
        assert code == 0
        assert "path:      25 -> 10 -> 11" in out
        assert "validated: 0.9986609480380032" in out

    def test_broken_sequence_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "0", "7")
        assert code == 2
        assert "no edge between 0 and 7" in err

    def test_near_pure_retry_row_is_solved(self, capsys, tmp_path):
        # well-formed, and from_pair leaves no failure mass, so the path
        # succeeds with probability exactly 1 although 1 - p_retry is not
        # exactly p_success
        env = write_env(tmp_path, {"risk_table": {"Low": [1e-06, 0.999999]},
                                   "nodes": 2,
                                   "edges": [[0, 1, 1.0, "Low"]]})
        code, out, err = run(capsys, "validate", "0", "1", "--env", env)
        assert (code, err) == (0, "")
        assert out == "path:      0 -> 1\nvalidated: 1.0\n"
        code, out, _ = run(capsys, "plan", "0", "1", "--env", env)
        assert code == 0
        assert "r_prob 1.000000" in out
        prefix = tmp_path / "chain"
        code, out, _ = run(capsys, "export-prism", "0", "1", "--env", env,
                           "--out", str(prefix))
        assert (code, out) == (0, "1.0\n")
        assert prefix.with_suffix(".nm").exists()
        assert prefix.with_suffix(".props").exists()


class TestExportPrism:
    def test_files_match_the_goldens(self, capsys, tmp_path):
        prefix = tmp_path / "out"
        code, out, err = run(capsys, "export-prism", "25", "10", "11",
                             "--out", str(prefix))
        assert code == 0
        assert prefix.with_suffix(".nm").read_text() \
            == (GOLDEN_DIR / "chain_25_10_11.nm").read_text()
        assert prefix.with_suffix(".props").read_text() \
            == (GOLDEN_DIR / "chain_25_10_11.props").read_text()
        # the in-process probability goes to stdout for comparison
        assert float(out.strip()) == pytest.approx(0.9986609480380032)
        assert "wrote" in err

    def test_single_node_model(self, capsys, tmp_path):
        prefix = tmp_path / "solo"
        code, out, _ = run(capsys, "export-prism", "5",
                           "--out", str(prefix))
        assert code == 0
        assert float(out.strip()) == 1.0
        model = prefix.with_suffix(".nm").read_text()
        assert "const int final = 0;" in model

    def test_broken_sequence_exits_two_without_files(self, capsys,
                                                     tmp_path):
        prefix = tmp_path / "broken"
        code, _, _ = run(capsys, "export-prism", "0", "7",
                         "--out", str(prefix))
        assert code == 2
        assert not prefix.with_suffix(".nm").exists()
        assert not prefix.with_suffix(".props").exists()


class TestSimulate:
    def test_emits_csv(self, capsys):
        code, out, _ = run(capsys, "simulate", "--seed", "11")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "success,failure_cause,steps,redirects,final_node"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] in ("0", "1")
        assert int(fields[2]) >= 1

    def test_deterministic_per_seed(self, capsys):
        _, first, _ = run(capsys, "simulate", "--seed", "42",
                          "--uncertainty", "0.5")
        _, second, _ = run(capsys, "simulate", "--seed", "42",
                           "--uncertainty", "0.5")
        assert first == second

    def test_tick_guard_exits_two(self, capsys, tmp_path, monkeypatch):
        # one success in 2**20 attempts and no failure mass: the episode
        # outlasts the tick guard, lowered here to keep the test fast.
        # Seed 0 starts the human on the far component; under seed 1 the
        # human heats the robot's edge, which the tick still only plans.
        monkeypatch.setattr(sim, "_TICK_GUARD", 50)
        env = write_env(tmp_path, {
            "risk_table": {"Low": [9.5367431640625e-07, 0.9999990463256836]},
            "nodes": 4, "edges": [[0, 1, 1.0, "Low"], [2, 3, 1.0, "Low"]]})
        mission = tmp_path / "mission.json"
        mission.write_text(json.dumps(
            {"start": 0, "tasks": [1], "end": 0, "safe_locations": [1],
             "threshold": 0.9, "hold_limit": 10}))
        for seed in ("0", "1"):
            code, out, err = run(capsys, "simulate", "--env", env,
                                 "--mission", str(mission), "--seed", seed)
            assert code == 2
            assert out == ""
            assert err == "error: episode exceeded the tick guard\n"

    def test_erratic_human_on_isolated_node(self, capsys, tmp_path):
        env = write_env(tmp_path, {
            "nodes": 4, "edges": [[0, 1, 1.0, "Low"], [1, 2, 1.0, "Low"]]})
        mission = tmp_path / "mission.json"
        mission.write_text(json.dumps(
            {"start": 0, "tasks": [2], "end": 0, "safe_locations": [1],
             "threshold": 0.9, "hold_limit": 10}))
        for seed in ("0", "2", "3", "7"):
            code, out, err = run(capsys, "simulate", "--env", env,
                                 "--mission", str(mission),
                                 "--uncertainty", "1", "--seed", seed)
            assert code == 0, err
            assert out.startswith("success,")

    def test_unreachable_possible_start_exits_two(self, capsys, tmp_path,
                                                  monkeypatch):
        env, mission = write_stranded_start(tmp_path)
        episodes = count_episodes(monkeypatch, cli)
        for seed in ("0", "1", "2", "3"):
            code, out, err = run(capsys, "simulate", "--env", env,
                                 "--mission", mission, "--seed", seed)
            assert code == 2
            assert out == ""
            assert err == "error: task 1 is unreachable from node 3\n"
        assert episodes == []


class TestTaskLimit:
    # the bundled map with 11 tasks, one more than MissionSpec accepts
    def write_mission(self, tmp_path):
        target = tmp_path / "mission.json"
        target.write_text(json.dumps(
            {"start": "random", "tasks": list(range(11)), "end": 22,
             "safe_locations": [13]}))
        return str(target)

    COMMANDS = (("simulate",),
                ("sweep", "--workers", "2", "--episodes", "500",
                 "--levels", "0"))
    ERROR = "error: 11 tasks exceed the limit of 10\n"

    def test_refused_before_any_episode_or_process(self, capsys, tmp_path,
                                                   monkeypatch):
        mission = self.write_mission(tmp_path)
        started = []
        monkeypatch.setattr(sim, "_episode",
                            lambda *args: started.append(args))
        monkeypatch.setattr(sim, "ProcessPoolExecutor",
                            lambda *args, **kw: started.append(kw))
        for argv in self.COMMANDS:
            code, out, err = run(capsys, *argv, "--mission", mission)
            assert (code, out, err) == (1, "", self.ERROR)
        assert started == []

    def test_a_real_process_prints_one_error_line(self, tmp_path):
        mission = self.write_mission(tmp_path)
        src = pathlib.Path(risknav.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        for argv in self.COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "risknav.cli", *argv,
                 "--mission", mission],
                capture_output=True, text=True, env=env, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                1, "", self.ERROR)


# an integer too large for a float, where a float is expected
HUGE = 10 ** 400

# (flag, JSON document, text the error line must hold)
WRONGLY_SHAPED = [
    ("--env", {"nodes": 2, "edges": 5}, "'edges'"),
    ("--env", {"nodes": 2, "edges": [[0, 1, 1.0, ["Low"]]]}, "risk class"),
    ("--env", {"nodes": 2, "risk_table": [1], "edges": []}, "'risk_table'"),
    ("--env", {"nodes": 2, "risk_table": {}, "edges": []}, "risk_table"),
    ("--env", [1], "environment document must be an object"),
    ("--env", {"nodes": [5], "edges": []}, "node 0: expected an object"),
    ("--env", {"nodes": 2, "edges": [[0, 1, 1.0]]}, "edge 0: expected"),
    ("--mission", [1], "mission document must be an object"),
    ("--config", [1], "sweep config must be an object"),
    ("--config", {"heat": 5}, "'heat' must be an object"),
    ("--config", {"levels": 0.5}, "'levels'"),
    ("--config", {"levels": [None]}, "'levels'"),
    ("--config", {"heat": {"path_heat": None}}, "'path_heat'"),
    ("--config", {"environment": 5}, "'environment'"),
    ("--config", {"levels": [0.5, HUGE]}, "'levels'"),
    ("--config", {"heat": {"path_heat": HUGE}}, "'path_heat'"),
    ("--env", {"nodes": 2, "edges": [[0, 1, HUGE, "Low"]]},
     f"distance {HUGE} not finite"),
    ("--env", {"nodes": 2, "risk_table": {"Low": [HUGE, 0.0]}, "edges": []},
     "risk class 'Low'"),
    ("--mission", {"start": 0, "tasks": [1], "end": 2, "safe_locations": [],
                   "threshold": HUGE}, "threshold"),
]


class TestSweep:
    def test_unreachable_possible_start_exits_two(self, capsys, tmp_path,
                                                  monkeypatch):
        env, mission = write_stranded_start(tmp_path)
        episodes = count_episodes(monkeypatch, sim)
        code, out, err = run(capsys, "sweep", "--env", env,
                             "--mission", mission, "--levels", "0,1",
                             "--episodes", "20", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: task 1 is unreachable from node 3\n"
        assert episodes == []

    def test_one_level_emits_two_lines(self, capsys):
        code, out, _ = run(capsys, "sweep", "--levels", "0",
                           "--episodes", "10", "--seed", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("uncertainty,")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(capsys, "sweep", "--levels", "0,1",
                           "--episodes", "5", "--seed", "3",
                           "--out", str(target))
        assert code == 0
        assert target.read_text() == out

    def test_repeat_runs_are_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--levels", "0,0.5", "--episodes", "6",
            "--seed", "9", "--out", str(a))
        run(capsys, "sweep", "--levels", "0,0.5", "--episodes", "6",
            "--seed", "9", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_seeds_congruent_mod_two_to_the_64_give_one_csv(self, capsys):
        outs = [run(capsys, "sweep", "--levels", "0,1", "--episodes", "30",
                    "--seed", str(seed))[1]
                for seed in (9, 9 + 2 ** 64, 9 + 5 * 2 ** 64)]
        assert outs[0].startswith("uncertainty,")
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_config_file_drives_the_run(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"levels": [0.0], "episodes_per_level": 4,
                                   "seed": 8}))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_flags_override_the_config(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "cfg").mkdir()
        cfg = tmp_path / "cfg" / "sweep.json"
        cfg.write_text(json.dumps({"levels": [0.0], "episodes_per_level": 4,
                                   "seed": 8}))
        _, flagged, _ = run(capsys, "sweep", "--config", str(cfg),
                            "--levels", "0,1", "--episodes", "3")
        lines = flagged.strip().split("\n")
        assert len(lines) == 3
        assert int(lines[1].split(",")[2]) + int(lines[1].split(",")[3]) == 3

        # a 1-task mission whose threshold no edge meets: every episode
        # times out on its first hold; the flag path is relative to the
        # working directory, not to the config file
        (tmp_path / "stuck.json").write_text(json.dumps(
            {"start": 0, "tasks": [1], "end": 2, "safe_locations": [],
             "threshold": 1.0, "hold_limit": 1}))
        monkeypatch.chdir(tmp_path)
        _, flagged, _ = run(capsys, "sweep", "--config", str(cfg),
                            "--mission", "stuck.json")
        _, bare, _ = run(capsys, "sweep", "--mission", "stuck.json",
                         "--levels", "0", "--episodes", "4", "--seed", "8")
        assert flagged == bare
        assert flagged.split("\n")[1] == "0,0.00,0,4,0,0.00,0"

    def test_out_directory_exits_one_without_output(self, capsys,
                                                     tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        code, out, err = run(capsys, "sweep", "--levels", "0",
                             "--episodes", "2", "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        # the temporary file is removed along with the failed rename
        assert list(tmp_path.rglob("*")) == [target]

    def test_wrongly_shaped_input_exits_one_without_a_traceback(self, capsys,
                                                                tmp_path):
        # JSON that parses but has the wrong shape, run through cli.main
        for i, (flag, doc, field) in enumerate(WRONGLY_SHAPED):
            target = tmp_path / f"case{i}.json"
            target.write_text(json.dumps(doc))
            code, out, err = run(capsys, "sweep", flag, str(target),
                                 "--episodes", "1")
            assert (code, out) == (1, ""), doc
            assert err.startswith("error: "), doc
            assert err.count("\n") == 1, doc
            assert field in err, doc

    def test_module_entry_point_exits_one_without_a_traceback(self,
                                                              tmp_path):
        # one wrongly shaped case as a real `python -m risknav.cli` process
        src = pathlib.Path(risknav.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        flag, doc, field = WRONGLY_SHAPED[0]
        target = tmp_path / "case.json"
        target.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "risknav.cli", "sweep", flag,
             str(target), "--episodes", "1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert field in proc.stderr

    def test_bad_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"episodes_per_level": -2}))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "episodes_per_level" in err


class TestParserErrors:
    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 1

    def test_missing_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "0", "1", "--frobnicate"])
        assert exc.value.code == 1

    def test_non_integer_node_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "zero", "1"])
        assert exc.value.code == 1

    def test_bad_levels_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--levels", "0,abc"])
        assert exc.value.code == 1


class TestParserReuse:
    def test_the_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or real())
        cli._parser.cache_clear()
        for _ in range(3):
            assert run(capsys, "validate", "25", "10")[0] == 0
        assert built == [1]

    def test_successive_calls_share_no_state(self, capsys, monkeypatch):
        seeds = []
        real = cli.run_sweep
        monkeypatch.setattr(cli, "run_sweep",
                            lambda base, *rest: seeds.append(base.seed)
                            or real(base, *rest))
        for argv in (["--seed", "3"], [], ["--seed", "5"], []):
            code, _, _ = run(capsys, "sweep", "--levels", "0",
                             "--episodes", "2", *argv)
            assert code == 0
        assert seeds == [3, 0, 5, 0]
        run(capsys, "simulate", "--seed", "4", "--uncertainty", "0.5")
        _, fresh, _ = run(capsys, "simulate")
        _, explicit, _ = run(capsys, "simulate", "--seed", "0",
                             "--uncertainty", "0")
        assert fresh == explicit
