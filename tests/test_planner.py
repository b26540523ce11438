"""Dual planners and mission task ordering against brute-force oracles."""

import itertools
import json
import pathlib

import numpy as np
import pytest

from risknav import (MissionPlan, MissionSpec, UnreachableNodeError,
                     environment_from_dict, max_success_path, order_tasks,
                     path_from_nodes, shortest_distance_path)
from risknav.human import apply_heat

from conftest import (oracle_max_success, oracle_shortest, path_stats,
                      random_connected_doc, random_environment)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def grid_doc():
    # a diamond with a longer but safer southern detour
    return {
        "nodes": 5,
        "edges": [
            [0, 1, 1.0, "Severe"],
            [1, 2, 1.0, "Severe"],
            [0, 3, 2.0, "Low"],
            [3, 4, 2.0, "Low"],
            [4, 2, 2.0, "Low"],
        ],
    }


class TestPathFromNodes:
    def test_accumulates_left_to_right(self):
        g = environment_from_dict(grid_doc())
        p = path_from_nodes(g, (0, 3, 4, 2))
        assert p.nodes == (0, 3, 4, 2)
        assert p.total_distance == pytest.approx(6.0)
        eff = g.effective(g.edge(0, 3))
        assert p.success_probability == ((1.0 * eff) * eff) * eff

    def test_single_node_is_identity(self):
        g = environment_from_dict(grid_doc())
        p = path_from_nodes(g, (3,))
        assert p.total_distance == 0.0
        assert p.success_probability == 1.0

    def test_missing_edge_named(self):
        g = environment_from_dict(grid_doc())
        with pytest.raises(ValueError, match="no edge between 0 and 4"):
            path_from_nodes(g, (0, 4))

    def test_empty_sequence_rejected(self):
        g = environment_from_dict(grid_doc())
        with pytest.raises(ValueError, match="empty"):
            path_from_nodes(g, ())


class TestShortestDistancePath:
    def test_prefers_shorter_despite_risk(self):
        g = environment_from_dict(grid_doc())
        assert shortest_distance_path(g, 0, 2).nodes == (0, 1, 2)

    def test_start_equals_goal(self):
        g = environment_from_dict(grid_doc())
        p = shortest_distance_path(g, 3, 3)
        assert p.nodes == (3,)
        assert p.total_distance == 0.0

    def test_unreachable_returns_none(self):
        g = environment_from_dict(
            {"nodes": 4, "edges": [[0, 1, 1.0, "Low"], [2, 3, 1.0, "Low"]]})
        assert shortest_distance_path(g, 0, 3) is None

    def test_equal_distance_breaks_lexicographically(self):
        doc = {"nodes": 4,
               "edges": [[0, 1, 1.0, "Low"], [1, 3, 1.0, "Low"],
                         [0, 2, 1.0, "Low"], [2, 3, 1.0, "Low"]]}
        g = environment_from_dict(doc)
        assert shortest_distance_path(g, 0, 3).nodes == (0, 1, 3)

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            g = random_environment(rng, max_nodes=8)
            s = int(rng.integers(g.node_count))
            t = int(rng.integers(g.node_count))
            found = shortest_distance_path(g, s, t)
            expect = oracle_shortest(g, s, t)
            assert found.nodes == expect
            assert (found.total_distance, found.success_probability) \
                == path_stats(g, expect)


class TestMaxSuccessPath:
    def test_prefers_safer_despite_distance(self):
        g = environment_from_dict(grid_doc())
        assert max_success_path(g, 0, 2).nodes == (0, 3, 4, 2)

    def test_probability_tie_breaks_by_distance(self):
        doc = {"nodes": 4,
               "edges": [[0, 1, 5.0, "High"], [1, 3, 5.0, "Low"],
                         [0, 2, 1.0, "Low"], [2, 3, 1.0, "High"]]}
        g = environment_from_dict(doc)
        p = max_success_path(g, 0, 3)
        assert p.nodes == (0, 2, 3)

    def test_full_tie_breaks_lexicographically(self):
        doc = {"nodes": 4,
               "edges": [[0, 1, 1.0, "Medium"], [1, 3, 1.0, "Medium"],
                         [0, 2, 1.0, "Medium"], [2, 3, 1.0, "Medium"]]}
        g = environment_from_dict(doc)
        assert max_success_path(g, 0, 3).nodes == (0, 1, 3)

    def test_unreachable_returns_none(self):
        g = environment_from_dict(
            {"nodes": 3, "edges": [[0, 1, 1.0, "Low"]]})
        assert max_success_path(g, 0, 2) is None

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            g = random_environment(rng, max_nodes=8)
            s = int(rng.integers(g.node_count))
            t = int(rng.integers(g.node_count))
            found = max_success_path(g, s, t)
            expect = oracle_max_success(g, s, t)
            assert found.nodes == expect
            assert (found.total_distance, found.success_probability) \
                == path_stats(g, expect)

    def test_heated_overlay_changes_the_winner(self, default_env):
        g = default_env
        cold = max_success_path(g, 25, 17)
        heat = {(10, 11): 0.998, (11, 14): 0.998}
        hot = apply_heat(g, heat)
        reheated = max_success_path(hot, 25, 17)
        assert cold.nodes == (25, 10, 11, 14, 17)
        assert reheated.nodes != cold.nodes
        assert reheated.success_probability > 0.9

    def test_heated_overlay_matches_oracle(self):
        # every pair on the base map and its overlay: base queries after
        # the first per source read a warm memoized tree, overlay queries
        # run the search that stops at the goal
        rng = np.random.default_rng(13)
        for _ in range(40):
            g = random_environment(rng, max_nodes=7)
            keys = list(g.edges)
            heat = {k: float(rng.uniform(0.0, 0.99)) for k in keys
                    if rng.random() < 0.4}
            hot = apply_heat(g, heat)
            for graph, s, t in itertools.product((g, hot), g.nodes, g.nodes):
                for plan, oracle in ((shortest_distance_path, oracle_shortest),
                                     (max_success_path, oracle_max_success)):
                    found = plan(graph, s, t)
                    expect = oracle(graph, s, t)
                    assert found.nodes == expect
                    assert (found.total_distance, found.success_probability) \
                        == path_stats(graph, expect)


def oracle_plan(legs, tasks, end, start):
    """Exhaustive MissionPlan over every task order, composed left to right
    like order_tasks, plus the first order (in permutation order) that ties
    with the winner on probability and distance."""
    best = None
    scored = []
    for perm in itertools.permutations(tasks):
        chosen = []
        prob, dist = 1.0, 0.0
        here = start
        for t in perm + (end,):
            leg = legs[here, t]
            chosen.append(leg)
            prob = prob * leg.success_probability
            dist = dist + leg.total_distance
            here = t
        scored.append((prob, dist, perm))
        key = (-prob, dist, perm)
        if best is None or key < best[0]:
            best = (key, chosen)
    (neg_prob, dist, perm), chosen = best
    first_tied = next(p for q, d, p in scored if (q, d) == (-neg_prob, dist))
    return (MissionPlan(perm + (end,), tuple(chosen), -neg_prob, dist),
            first_tied + (end,))


def docs_for_every_task_count(rng, per_count):
    """(document, k) pairs: per_count random maps for each k in 0..6, each
    with more than k nodes."""
    for k in range(7):
        for _ in range(per_count):
            doc = random_connected_doc(rng, max_nodes=8)
            while doc["nodes"] <= k:
                doc = random_connected_doc(rng, max_nodes=8)
            yield doc, k


class TestOrderTasks:
    def mission(self, tasks, end, start=0):
        return MissionSpec(start, tuple(tasks), end, ())

    def test_plan_ends_with_end_node(self, default_env, default_mission):
        plan = order_tasks(default_env, default_mission, 25)
        assert plan.ordered_tasks[-1] == default_mission.end
        assert set(plan.ordered_tasks[:-1]) == set(default_mission.tasks)
        assert len(plan.legs) == len(default_mission.tasks) + 1

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(14)
        for doc, k in docs_for_every_task_count(rng, 6):
            self.check_every_start(environment_from_dict(doc), rng, k)

    def test_ties_fall_through_to_the_task_order(self):
        # uniform Low edges of unit length: many orders tie on probability
        # and distance, and only the task tuple separates them
        rng = np.random.default_rng(15)
        reordered = 0
        for doc, k in docs_for_every_task_count(rng, 4):
            doc["edges"] = [[a, b, 1.0, "Low"] for a, b, _, _ in doc["edges"]]
            reordered += self.check_every_start(
                environment_from_dict(doc), rng, k)
        assert reordered > 20

    def check_every_start(self, g, rng, k):
        """Compare order_tasks with the oracle from every start node;
        returns how often the task-tuple tie-break picked a different
        order than permutation order would have."""
        nodes = [int(v) for v in rng.permutation(g.node_count)]
        tasks, end = tuple(nodes[:k]), nodes[k]
        legs = {(a, b): path_from_nodes(g, oracle_max_success(g, a, b))
                for a in g.nodes for b in g.nodes}
        reordered = 0
        for start in g.nodes:
            plan = order_tasks(g, self.mission(tasks, end), start)
            expect, first_tied = oracle_plan(legs, tasks, end, start)
            assert plan == expect
            reordered += first_tied != expect.ordered_tasks
        return reordered

    def test_bundled_plans_match_the_golden_file(self, default_env,
                                                 default_mission):
        rows = json.loads((GOLDEN_DIR / "order_tasks_default.json")
                          .read_text())
        assert [row["start"] for row in rows] == list(default_env.nodes)
        for row in rows:
            plan = order_tasks(default_env, default_mission, row["start"])
            assert list(plan.ordered_tasks) == row["ordered_tasks"]
            assert repr(plan.plan_probability) == row["plan_probability"]
            assert repr(plan.plan_distance) == row["plan_distance"]

    def test_unreachable_task_raises(self):
        g = environment_from_dict(
            {"nodes": 3, "edges": [[0, 1, 1.0, "Low"]]})
        with pytest.raises(UnreachableNodeError, match="task 2"):
            order_tasks(g, self.mission([2], 1), 0)

    def test_unreachable_end_raises(self):
        g = environment_from_dict(
            {"nodes": 3, "edges": [[0, 1, 1.0, "Low"]]})
        with pytest.raises(UnreachableNodeError, match="end node 2"):
            order_tasks(g, self.mission([1], 2), 0)

    def test_many_tasks_fall_back_to_greedy_with_warning(self):
        doc = {"nodes": 11,
               "edges": [[i, i + 1, 1.0, "Low"] for i in range(10)]}
        g = environment_from_dict(doc)
        mission = self.mission(list(range(1, 10)), 10)
        with pytest.warns(UserWarning, match="greedy"):
            plan = order_tasks(g, mission, 0)
        # nearest-first on a line is simply the line order
        assert plan.ordered_tasks == tuple(range(1, 11))
