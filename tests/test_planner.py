"""Dual planners and mission task ordering against brute-force oracles."""

import functools
import itertools
import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from risknav import (MissionPlan, MissionSpec, UnreachableNodeError,
                     environment_from_dict, max_success_path, order_tasks,
                     path_from_nodes, shortest_distance_path)
from risknav.human import (HeatParams, HumanState, apply_heat,
                           build_heat_map, predict_human_path)
from risknav.planner import _heat_proof_path, _permutations, check_reachable

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
        with pytest.raises(UnreachableNodeError,
                           match="no edge between 0 and 4"):
            path_from_nodes(g, (0, 4))
        # every node is checked before any hop, and a bad node is
        # malformed input rather than a missing solution
        with pytest.raises(ValueError, match="99") as exc:
            path_from_nodes(g, (0, 4, 99))
        assert not isinstance(exc.value, UnreachableNodeError)

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



def crosses(nodes, heat):
    return any(((a, b) if a < b else (b, a)) in heat
               for a, b in zip(nodes, nodes[1:]))


class TestHeatProofPath:
    def test_a_proved_path_is_what_the_heated_search_returns(self):
        # heats drawn through apply_heat, tiny ones included, and heats of
        # predicted humans whose spill counts; wherever the planner proves
        # the base path, the heated search returns that Path, and its
        # first edge keeps its row and effective success
        rng = np.random.default_rng(41)
        spill = HeatParams(0.3, 0.9)
        proved = avoided = 0
        for _ in range(60):
            g = random_environment(rng, max_nodes=8)
            keys = list(g.edges)
            pos, goal = (int(v) for v in rng.integers(g.node_count, size=2))
            u = float(rng.choice([0.4, 0.7, 1.0]))
            walker = HumanState(pos, goal, u, predict_human_path(
                g, HumanState(pos, goal)))
            heats = [build_heat_map(g, walker, spill)]
            for _ in range(3):
                heats.append({k: float(rng.choice(
                    [1e-12, 0.998, rng.uniform(0.0, 0.99)]))
                    for k in keys if rng.random() < 0.3})
            for heat in heats:
                hot = apply_heat(g, heat)
                edges = [g.edge(*k) for k in heat]
                assert all(hot.effective(e) <= g.effective(e)
                           for e in edges)
                for s, t in itertools.permutations(g.nodes, 2):
                    base = max_success_path(g, s, t)
                    avoided += not crosses(base.nodes, heat)
                    path = _heat_proof_path(g, s, t, heat)
                    if path is None:
                        continue
                    proved += 1
                    assert path == base
                    assert not crosses(path.nodes, heat)
                    assert max_success_path(hot, s, t) == base
                    edge = g.edge(s, base.nodes[1])
                    assert hot.probs(edge) == g.probs(edge)
                    assert hot.effective(edge) == g.effective(edge)
        assert proved > 0.5 * avoided > 0

    def test_nothing_is_searched_without_a_held_tree(self):
        g = environment_from_dict(grid_doc())
        assert _heat_proof_path(g, 0, 2, {}) is None
        assert not g.memo("prob")
        max_success_path(g, 0, 2)
        assert _heat_proof_path(g, 0, 2, {}) == max_success_path(g, 0, 2)

    def test_a_path_that_avoids_the_heat_is_not_enough(self):
        # (0.65 * 0.84) * 0.36 rounds above (0.65 * 0.36) * 0.84, so the
        # search reaches 3 by the long walk 0-1-2-3 and drops 0-4-5-3;
        # times 0.7 the two round together, and the 8-long 0-7-8-9-6 wins
        # at 6 over 0-1-2-3-6, of length 10.  Heating 1-2 lets the search
        # keep 0-4-5-3, and 0-4-5-3-6, of length 4, wins with the same
        # probability, though the base path crosses no heated edge
        g = environment_from_dict({
            "nodes": 10,
            "risk_table": {"Low": [0.65, 0.0], "Medium": [0.84, 0.0],
                           "High": [0.36, 0.0], "Severe": [0.7, 0.0]},
            "edges": [[0, 1, 3.0, "Low"], [1, 2, 3.0, "Medium"],
                      [2, 3, 3.0, "High"], [0, 4, 1.0, "Low"],
                      [4, 5, 1.0, "High"], [3, 5, 1.0, "Medium"],
                      [3, 6, 1.0, "Severe"], [0, 7, 2.0, "Low"],
                      [7, 8, 2.0, "Medium"], [8, 9, 2.0, "High"],
                      [6, 9, 2.0, "Severe"]]})
        heat = {(1, 2): 0.5}
        hot = apply_heat(g, heat)
        edge = g.edge(1, 2)
        assert hot.effective(edge) < g.effective(edge)
        base = max_success_path(g, 0, 6)
        assert base.nodes == (0, 7, 8, 9, 6)
        assert not crosses(base.nodes, heat)
        found = max_success_path(hot, 0, 6)
        assert found.nodes == (0, 4, 5, 3, 6)
        assert found.success_probability == base.success_probability
        assert _heat_proof_path(g, 0, 6, heat) is None


@functools.cache
def every_order(k):
    """Every permutation of range(k), one per row, in itertools order."""
    return np.array(list(itertools.permutations(range(k))), dtype=np.int8)


def oracle_plan(legs, tasks, end, start):
    """Exhaustive MissionPlan over every task order, composed left to right
    like order_tasks, plus the first order (in permutation order) that ties
    with the winner on probability and distance.  legs maps every node
    pair to its leg; the orders are folded side by side in numpy, whose
    float64 products and sums round as Python floats do."""
    walks = np.array(tasks, dtype=np.intp)[every_order(len(tasks))]
    stops = [np.full(len(walks), start), *walks.T, np.full(len(walks), end)]
    size = max(map(max, legs)) + 1
    leg_prob, leg_dist = np.zeros((size, size)), np.zeros((size, size))
    for (a, b), leg in legs.items():
        leg_prob[a, b] = leg.success_probability
        leg_dist[a, b] = leg.total_distance
    prob, dist = np.ones(len(walks)), np.zeros(len(walks))
    for a, b in zip(stops, stops[1:]):
        prob = prob * leg_prob[a, b]
        dist = dist + leg_dist[a, b]
    tied = np.flatnonzero(prob == prob.max())
    tied = tied[dist[tied] == dist[tied].min()]
    perm = min(map(tuple, walks[tied].tolist()))
    chosen = tuple(legs[a, b] for a, b in zip((start,) + perm, perm + (end,)))
    return (MissionPlan(perm + (end,), chosen, float(prob[tied[0]]),
                        float(dist[tied[0]])),
            tuple(walks[tied[0]].tolist()) + (end,))


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

    def test_nine_tasks_match_the_oracle_from_every_start(self):
        # beyond 8 tasks each first task is scored apart; on a tie-prone
        # map of unit-length Low edges the winner must still be the least
        # (-probability, distance, task order) over every order, and the
        # task order must break a tie from some start
        rng = np.random.default_rng(17)
        doc = random_connected_doc(rng, max_nodes=10)
        while doc["nodes"] < 10:
            doc = random_connected_doc(rng, max_nodes=10)
        doc["edges"] = [[a, b, 1.0, "Low"] for a, b, _, _ in doc["edges"]]
        assert self.check_every_start(environment_from_dict(doc), rng, 9) > 0

    def test_ten_tasks_find_an_order_past_the_first_prefix(self):
        # a Low line 0-1-...-11 and a short Severe edge 0-10: only the line
        # order crosses no Severe edge and no Low edge twice, so it is the
        # one best order, and the tasks are listed so that it begins with
        # neither of the first two
        doc = {"nodes": 12,
               "edges": [[i, i + 1, 1.0, "Low"] for i in range(11)]
               + [[0, 10, 0.5, "Severe"]]}
        g = environment_from_dict(doc)
        plan = order_tasks(g, self.mission(range(10, 0, -1), 11), 0)
        assert plan.ordered_tasks == tuple(range(1, 12))
        assert [leg.nodes for leg in plan.legs] == [
            (i, i + 1) for i in range(11)]
        assert plan.plan_distance == 11.0

    def test_bundled_map_with_nine_tasks(self, default_env, default_mission):
        mission = replace(default_mission,
                          tasks=default_mission.tasks + (1, 2))
        plan = order_tasks(default_env, mission, 0)
        assert plan.ordered_tasks == (2, 1, 3, 6, 9, 24, 12, 16, 29, 22)
        assert repr(plan.plan_probability) == "0.9906443478573668"
        assert repr(plan.plan_distance) == "36.3"


def per_waypoint_reachable(g, mission, starts=None):
    """check_reachable's rule with one reachable set per waypoint, found by
    a breadth-first walk from that waypoint."""
    if starts is None:
        starts = (g.nodes if mission.start is None
                  else (g.check_node(mission.start),))
    for t in mission.tasks + (mission.end,):
        g.check_node(t)
        reached, frontier = {t}, [t]
        while frontier:
            frontier = [n for m in frontier for n, _ in g.neighbors(m)
                        if n not in reached]
            reached.update(frontier)
        for s in starts:
            if s not in reached:
                kind = "end node" if t == mission.end else "task"
                raise UnreachableNodeError(
                    f"{kind} {t} is unreachable from node {s}")


def outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestCheckReachable:
    def test_matches_one_tree_per_waypoint(self):
        # maps of 1-7 nodes with random, often disconnected edges; ids are
        # drawn from -1..n, so some are out of range, and starts may be
        # None, empty or a random tuple
        rng = np.random.default_rng(16)
        raised = set()
        for _ in range(1_000):
            n = int(rng.integers(1, 8))
            pairs = {(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.3}
            g = environment_from_dict(
                {"nodes": n, "edges": [[a, b, 1.0, "Low"] for a, b in pairs]})

            def node():
                return int(rng.integers(-1, n + 1))

            for _ in range(10):
                ids = [int(v) for v in rng.permutation(np.arange(-1, n + 1))]
                k = int(rng.integers(0, len(ids)))
                tasks, end = tuple(ids[:k]), ids[k]
                start = None if rng.random() < 0.5 else node()
                mission = MissionSpec(start, tasks, end, ())
                starts = (None if rng.random() < 0.5 else
                          tuple(node() for _ in range(rng.integers(0, 4))))
                found = outcome(check_reachable, g, mission, starts)
                assert found == outcome(per_waypoint_reachable, g, mission,
                                        starts)
                raised.add(found and found[0])
        # every branch was reached: passes, bad ids and unreachable nodes
        assert raised == {None, ValueError, UnreachableNodeError}


class TestPermutations:
    def test_every_order_once_and_read_only(self):
        for k in range(9):
            perms = _permutations(k)
            rows = {tuple(row) for row in perms.tolist()}
            assert perms.shape == (math.factorial(k), k)
            assert len(rows) == math.factorial(k)
            assert all(sorted(row) == list(range(k)) for row in rows)
            with pytest.raises(ValueError, match="read-only"):
                perms[...] = 0
            assert _permutations(k) is perms
