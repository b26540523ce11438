"""Human prediction, heat maps, heated probability overlays, stepping."""

import numpy as np
import pytest

from risknav import (HeatParams, HumanState, OutcomeProbs, apply_heat,
                     build_heat_map, environment_from_dict,
                     predict_human_path, step_human)
from risknav.human import heated_probs
from risknav.planner import Path, path_from_nodes, shortest_distance_path

from conftest import random_environment


def line_doc():
    return {"nodes": 5,
            "edges": [[0, 1, 1.0, "Low"], [1, 2, 1.0, "Medium"],
                      [2, 3, 1.0, "High"], [3, 4, 1.0, "Severe"],
                      [1, 4, 9.0, "Low"]]}


class TestHumanState:
    def test_prediction_must_start_at_position(self):
        g = environment_from_dict(line_doc())
        path = path_from_nodes(g, (1, 2))
        with pytest.raises(ValueError, match="start at the"):
            HumanState(0, 2, 0.0, path)

    def test_prediction_must_end_at_goal(self):
        g = environment_from_dict(line_doc())
        path = path_from_nodes(g, (1, 2))
        with pytest.raises(ValueError, match="end at the"):
            HumanState(1, 3, 0.0, path)

    def test_uncertainty_range_enforced(self):
        # a bool is not an uncertainty, though Python counts it as an int
        for u in (1.5, True, "0.5", None):
            with pytest.raises(ValueError, match="uncertainty"):
                HumanState(0, uncertainty=u)

    def test_goalless_prediction_allowed(self):
        g = environment_from_dict(line_doc())
        h = HumanState(2, None, 0.0, path_from_nodes(g, (2,)))
        assert h.predicted_path.nodes == (2,)


class TestHeatParams:
    def test_defaults_valid(self):
        p = HeatParams()
        assert 0.0 <= p.path_heat < 1.0
        assert 0.0 <= p.neighbor_heat < 1.0

    def test_full_blockage_rejected(self):
        # heat 1 would zero an edge's success probability
        with pytest.raises(ValueError, match="path_heat"):
            HeatParams(path_heat=1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="neighbor_heat"):
            HeatParams(neighbor_heat=-0.1)

    def test_wrongly_typed_numbers_rejected(self):
        for name in ("path_heat", "neighbor_heat"):
            for value in (True, "0.5", None):
                with pytest.raises(ValueError, match=name):
                    HeatParams(**{name: value})


class TestPredictHumanPath:
    def test_follows_shortest_distance(self, default_env):
        h = HumanState(15, goal=6)
        assert predict_human_path(default_env, h).nodes == (15, 11, 8, 4, 6)

    def test_goalless_human_is_predicted_to_stay_put(self, default_env):
        for p in default_env.nodes:
            stay = predict_human_path(default_env, HumanState(p, None, 0.5))
            assert stay == Path((p,), 0.0, 1.0)
            assert stay == shortest_distance_path(default_env, p, p)
        with pytest.raises(ValueError, match="outside"):
            predict_human_path(default_env, HumanState(30))

    def test_unreachable_goal_rejected(self):
        g = environment_from_dict(
            {"nodes": 3, "edges": [[0, 1, 1.0, "Low"]]})
        with pytest.raises(ValueError, match="unreachable"):
            predict_human_path(g, HumanState(0, goal=2))


class TestBuildHeatMap:
    def test_path_rule_heats_all_incident_edges(self):
        g = environment_from_dict(line_doc())
        h = HumanState(0, 2, 0.0, path_from_nodes(g, (0, 1, 2)))
        params = HeatParams(path_heat=0.7, neighbor_heat=0.0)
        heat = build_heat_map(g, h, params)
        # nodes 0,1,2 touch edges 0-1, 1-2, 1-4 and 2-3
        assert heat == {(0, 1): 0.7, (1, 2): 0.7, (1, 4): 0.7, (2, 3): 0.7}

    def test_neighbor_rule_scales_with_uncertainty(self):
        g = environment_from_dict(line_doc())
        h = HumanState(3, None, 0.5, path_from_nodes(g, (3,)))
        params = HeatParams(path_heat=0.0, neighbor_heat=0.6)
        heat = build_heat_map(g, h, params)
        assert heat == {(2, 3): 0.3, (3, 4): 0.3}

    def test_overlap_takes_the_maximum(self):
        g = environment_from_dict(line_doc())
        h = HumanState(1, 2, 1.0, path_from_nodes(g, (1, 2)))
        strong = HeatParams(path_heat=0.9, neighbor_heat=0.4)
        heat = build_heat_map(g, h, strong)
        assert heat[(0, 1)] == 0.9
        weak_path = HeatParams(path_heat=0.1, neighbor_heat=0.4)
        heat = build_heat_map(g, h, weak_path)
        assert heat[(0, 1)] == 0.4

    def test_zero_heat_produces_empty_map(self):
        g = environment_from_dict(line_doc())
        h = HumanState(1, 2, 0.0, path_from_nodes(g, (1, 2)))
        params = HeatParams(path_heat=0.0, neighbor_heat=0.0)
        assert build_heat_map(g, h, params) == {}

    def test_no_prediction_leaves_only_spill(self):
        g = environment_from_dict(line_doc())
        h = HumanState(2, uncertainty=1.0)
        params = HeatParams(path_heat=0.9, neighbor_heat=0.5)
        assert build_heat_map(g, h, params) == {(1, 2): 0.5, (2, 3): 0.5}


class TestHeatedProbs:
    def test_success_mass_moves_to_retry(self):
        p = OutcomeProbs(0.9, 0.05, 0.05)
        q = heated_probs(p, 0.4)
        assert q.p_success == pytest.approx(0.54)
        assert q.p_retry == pytest.approx(0.05 + 0.36)
        assert q.p_fail == p.p_fail
        assert q.p_success + q.p_retry + q.p_fail == pytest.approx(1.0)

    def test_zero_heat_returns_the_same_object(self):
        p = OutcomeProbs(0.9, 0.05, 0.05)
        assert heated_probs(p, 0.0) is p

    def test_heat_of_one_rejected(self):
        with pytest.raises(ValueError, match="heat"):
            heated_probs(OutcomeProbs(0.9, 0.05, 0.05), 1.0)
        for h in ("0.5", None):
            with pytest.raises(ValueError, match="heat"):
                heated_probs(OutcomeProbs(0.9, 0.05, 0.05), h)


class TestApplyHeat:
    def test_only_listed_edges_change(self):
        g = environment_from_dict(line_doc())
        hot = apply_heat(g, {(1, 2): 0.5})
        assert hot.probs(g.edge(1, 2)).p_success \
            == pytest.approx(0.99 * 0.5)
        assert hot.probs(g.edge(0, 1)) is g.probs(g.edge(0, 1))
        assert hot.effective(g.edge(0, 1)) == g.effective(g.edge(0, 1))
        assert hot.effective(g.edge(1, 2)) < g.effective(g.edge(1, 2))

    def test_overlay_of_an_overlay_heats_twice(self):
        # heated rows are memoized per (risk class, heat) on the base
        # graph only, so a second layer starts from the first one's rows
        g = environment_from_dict(line_doc())
        once = apply_heat(g, {(1, 2): 0.5})
        twice = apply_heat(once, {(1, 2): 0.5})
        assert twice.probs(g.edge(1, 2)) \
            == heated_probs(once.probs(g.edge(1, 2)), 0.5)
        assert twice.probs(g.edge(1, 2)).p_success \
            == pytest.approx(0.99 * 0.25)

    def test_base_graph_untouched(self):
        g = environment_from_dict(line_doc())
        before = g.probs(g.edge(1, 2))
        apply_heat(g, {(1, 2): 0.5})
        assert g.probs(g.edge(1, 2)) is before

    def test_unknown_edge_rejected(self, default_env):
        g = environment_from_dict(line_doc())
        with pytest.raises(ValueError, match="missing edge"):
            apply_heat(g, {(0, 4): 0.5})
        # the bundled map has no edge (0, 29): its key is refused even at
        # zero heat, and a key that is not a pair of nodes is refused too
        for heat in ({(0, 29): 0.0}, {(0, 1, 2): 0.5}):
            with pytest.raises(ValueError, match="missing edge"):
                apply_heat(default_env, heat)
        with pytest.raises(ValueError, match="heat '0.5' outside"):
            apply_heat(default_env, {(0, 1): "0.5"})

    def test_zero_entries_skipped(self):
        g = environment_from_dict(line_doc())
        hot = apply_heat(g, {(1, 2): 0.0})
        assert hot.overrides == {}

    def test_every_heat_is_checked_before_the_memo(self):
        # a float32 heat equals and hashes like the Python float, so a
        # memo lookup first would accept it once 0.5 had been applied
        g = environment_from_dict(line_doc())
        for warm in (False, True):
            if warm:
                apply_heat(g, {(1, 2): 0.5})
            with pytest.raises(ValueError, match="heat .*0.5.* outside"):
                apply_heat(g, {(1, 2): np.float32(0.5)})
        with pytest.raises(ValueError, match=r"heat \[0.5\] outside"):
            apply_heat(g, {(1, 2): [0.5]})


class TestStepHuman:
    def test_certain_human_walks_the_prediction(self):
        g = environment_from_dict(line_doc())
        h = HumanState(0, 2, 0.0, path_from_nodes(g, (0, 1, 2)))
        rng = np.random.default_rng(1)
        h = step_human(g, h, rng)
        assert h.position == 1
        assert h.predicted_path.nodes == (1, 2)
        h = step_human(g, h, rng)
        assert h.position == 2
        assert h.predicted_path.nodes == (2,)

    def test_heated_overlay_keeps_its_own_probabilities(self):
        # only a base graph memoizes the follow step, so an overlay's
        # tail carries the heated success probability
        g = environment_from_dict(line_doc())
        heated = apply_heat(g, {(1, 2): 0.5})
        h = HumanState(0, 2, 0.0, path_from_nodes(g, (0, 1, 2)))
        rng = np.random.default_rng(1)
        assert step_human(g, h, rng).predicted_path \
            == path_from_nodes(g, (1, 2))
        assert step_human(heated, h, rng).predicted_path \
            == path_from_nodes(heated, (1, 2))
        assert (path_from_nodes(heated, (1, 2)).success_probability
                < path_from_nodes(g, (1, 2)).success_probability)

    def test_arrived_human_stays_put(self):
        g = environment_from_dict(line_doc())
        h = HumanState(2, 2, 0.0, path_from_nodes(g, (2,)))
        assert step_human(g, h, np.random.default_rng(2)) == h

    def test_goalless_human_stays_put(self):
        g = environment_from_dict(line_doc())
        h = HumanState(2)
        assert step_human(g, h, np.random.default_rng(3)) == h

    def test_diverging_goalless_human_is_predicted_to_stay_put(self):
        g = environment_from_dict(line_doc())
        rng = np.random.default_rng(3)
        h = HumanState(2, None, 1.0, Path((2,), 0.0, 1.0))
        for _ in range(20):
            nxt = step_human(g, h, rng)
            assert g.edge(h.position, nxt.position) is not None
            assert nxt == HumanState(nxt.position, None, 1.0,
                                     Path((nxt.position,), 0.0, 1.0))
            h = nxt

    def test_erratic_human_on_isolated_node_stays_put(self):
        g = environment_from_dict(
            {"nodes": 4, "edges": [[0, 1, 1.0, "Low"], [1, 2, 1.0, "Low"]]})
        h = HumanState(3, None, 1.0)
        rng = np.random.default_rng(8)
        assert step_human(g, h, rng) == h
        # the divergence draw is the only one: no neighbour index is drawn
        ref = np.random.default_rng(8)
        ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_fully_erratic_human_moves_to_a_neighbor(self):
        g = environment_from_dict(line_doc())
        h = HumanState(2, 4, 1.0, path_from_nodes(g, (2, 3, 4)))
        rng = np.random.default_rng(4)
        for _ in range(20):
            nxt = step_human(g, h, rng)
            assert g.edge(h.position, nxt.position) is not None
            assert nxt.predicted_path.nodes[0] == nxt.position
            assert nxt.predicted_path.nodes[-1] == 4
            h = nxt

    def test_divergence_rate_tracks_uncertainty(self):
        g = environment_from_dict(line_doc())
        rng = np.random.default_rng(5)
        diverged = 0
        trials = 4000
        for _ in range(trials):
            h = HumanState(0, 2, 0.3, path_from_nodes(g, (0, 1, 2)))
            if step_human(g, h, rng).position != 1:
                diverged += 1
        # divergence picks a uniform neighbor, which may coincide with
        # the predicted next node; position 0 has neighbor 1 only, so
        # every diverged step is invisible and this stays a smoke bound
        assert diverged == 0

    def test_divergence_visible_with_multiple_neighbors(self):
        g = environment_from_dict(line_doc())
        rng = np.random.default_rng(6)
        off_path = 0
        trials = 4000
        for _ in range(trials):
            h = HumanState(1, 2, 0.3, path_from_nodes(g, (1, 2)))
            if step_human(g, h, rng).position != 2:
                off_path += 1
        # diverged steps land on 0, 2 or 4 uniformly: expect 0.3 * 2/3
        rate = off_path / trials
        assert abs(rate - 0.2) < 0.02

    def test_random_graph_stepping_never_leaves_the_graph(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_environment(rng, max_nodes=6)
            goal = int(rng.integers(g.node_count))
            pos = int(rng.integers(g.node_count))
            h = HumanState(pos, goal, 0.8,
                           shortest_distance_path(g, pos, goal))
            for _ in range(10):
                h = step_human(g, h, rng)
                g.check_node(h.position)
