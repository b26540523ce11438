"""Environment model: probabilities, graphs, JSON schemas."""

import json
import math

import numpy as np
import pytest

from risknav import (DEFAULT_RISK_TABLE, Edge, EnvironmentGraph, MissionSpec,
                     OutcomeProbs, effective_success, environment_from_dict,
                     environment_to_dict, load_default_environment,
                     load_default_mission, load_environment, load_mission,
                     max_success_path, mission_from_dict, mission_to_dict,
                     path_from_nodes, save_environment, save_mission)

from conftest import random_connected_doc


class TestOutcomeProbs:
    def test_from_pair_fills_failure_remainder(self):
        p = OutcomeProbs.from_pair(0.95, 0.045)
        assert p.p_success == 0.95
        assert p.p_retry == 0.045
        assert abs(p.p_fail - 0.005) < 1e-15

    def test_exhaustive_pair_leaves_no_failure(self):
        p = OutcomeProbs.from_pair(0.999, 0.001)
        assert p.p_fail == 0.0

    def test_rejects_mass_exceeding_one(self):
        with pytest.raises(ValueError):
            OutcomeProbs.from_pair(0.9, 0.2)

    def test_rejects_zero_success(self):
        with pytest.raises(ValueError):
            OutcomeProbs.from_pair(0.0, 0.5)

    def test_rejects_negative_component(self):
        with pytest.raises(ValueError):
            OutcomeProbs(0.9, -0.1, 0.2)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            OutcomeProbs(0.5, 0.1, 0.1)


class TestEffectiveSuccess:
    def test_no_failure_means_certainty(self):
        assert effective_success(OutcomeProbs(0.5, 0.5, 0.0)) == 1.0

    def test_medium_class_value(self):
        # 0.99 / (0.99 + 0.00025), retries resolved geometrically
        p = OutcomeProbs.from_pair(*DEFAULT_RISK_TABLE["Medium"])
        assert effective_success(p) == pytest.approx(0.9997475385003787,
                                                     abs=1e-15)

    def test_all_default_classes_ordered_by_risk(self):
        effs = [effective_success(OutcomeProbs.from_pair(*pair))
                for pair in DEFAULT_RISK_TABLE.values()]
        assert effs == sorted(effs, reverse=True)


class TestEnvironmentGraph:
    def doc(self):
        return {
            "nodes": 4,
            "edges": [[0, 1, 1.0, "Low"], [1, 2, 2.0, "High"],
                      [0, 2, 2.5, "Medium"], [2, 3, 1.5, "Severe"]],
        }

    def test_neighbors_sorted_by_node_id(self):
        g = environment_from_dict(self.doc())
        assert [n for n, _ in g.neighbors(2)] == [0, 1, 3]

    def test_edge_lookup_is_order_insensitive(self):
        g = environment_from_dict(self.doc())
        assert g.edge(2, 1) is g.edge(1, 2)
        assert g.edge(0, 3) is None

    def test_check_node_rejects_out_of_range(self):
        g = environment_from_dict(self.doc())
        with pytest.raises(ValueError, match="outside 0..3"):
            g.check_node(4)
        with pytest.raises(ValueError):
            g.check_node(-1)

    def test_check_node_names_a_type_that_is_not_int(self):
        g = environment_from_dict(self.doc())
        for node in (True, np.int64(3), 1.0):
            with pytest.raises(ValueError, match="must be an int, not "
                               f"{type(node).__name__}$"):
                g.check_node(node)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            EnvironmentGraph(2, {"Low": OutcomeProbs.from_pair(0.999, 0.0009)},
                             [Edge(0, 1, 1.0, "Low"), Edge(0, 1, 2.0, "Low")])

    def test_constructor_orders_reversed_edges(self):
        table = {"Low": OutcomeProbs.from_pair(0.999, 0.0009)}
        g = EnvironmentGraph(3, table, [Edge(1, 0, 2, "Low"),
                                        Edge(2, 1, 1.5, "Low")])
        assert g.edge(0, 1) == Edge(0, 1, 2.0, "Low")
        assert list(g.edges) == [(0, 1), (1, 2)]
        path = max_success_path(g, 0, 2)
        assert path_from_nodes(g, path.nodes) == path

    @pytest.mark.parametrize("edges, message", [
        ([Edge(0, 1, 1.0, "Low"), Edge(1, 0, 1.0, "Low")],
         "edge 1: duplicate edge \\(0, 1\\)"),
        ([Edge(-1, 0, 1.0, "Low")], "edge 0: endpoint outside 0..2"),
        ([Edge(0, 5, 1.0, "Low")], "edge 0: endpoint outside 0..2"),
        ([Edge(0, 1, 1.0, "Low"), Edge(2, 2, 1.0, "Low")],
         "edge 1: self-loop at node 2"),
        ([Edge(0, True, 1.0, "Low")], "edge 0: endpoints must be integers"),
        ([Edge(0, 1, 0.0, "Low")], "edge 0: distance 0.0 not positive"),
        ([Edge(0, 1, "1", "Low")], "edge 0: distance '1' not positive"),
        ([Edge(0, 1, math.nan, "Low")], "edge 0: distance nan not positive"),
        ([Edge(0, 1, math.inf, "Low")], "edge 0: distance inf not finite"),
        ([Edge(0, 1, 1.0, ["Low"])], "edge 0: risk class .* must be a name"),
        ([Edge(0, 1, 1.0, "High")], "edge 0: risk class 'High' not declared"),
        ([Edge(0, 1, 10 ** 400, "Low")], "edge 0: distance 1(0)+ not finite"),
        ([Edge(0, 1, -10 ** 400, "Low")],
         "edge 0: distance -1(0)+ not positive"),
    ])
    def test_constructor_checks_every_edge(self, edges, message):
        table = {"Low": OutcomeProbs.from_pair(0.999, 0.0009)}
        with pytest.raises(ValueError, match=message):
            EnvironmentGraph(3, table, edges)

    @pytest.mark.parametrize("count, message", [
        (2.5, "node count 2.5 must be an integer"),
        (True, "node count True must be an integer"),
        ("3", "node count '3' must be an integer"),
        (0, "node count 0 below 1"),
        (-2, "node count -2 below 1"),
    ])
    def test_constructor_checks_the_node_count(self, count, message):
        table = {"Low": OutcomeProbs.from_pair(0.999, 0.0009)}
        with pytest.raises(ValueError, match=f"^{message}$"):
            EnvironmentGraph(count, table, [])

    def test_constructor_refuses_a_row_that_is_not_outcome_probs(self):
        with pytest.raises(ValueError, match="^risk class 'Low': "
                           r"\(0.9, 0.1\) is not an OutcomeProbs$"):
            EnvironmentGraph(2, {"Low": (0.9, 0.1)}, [])

    def test_effective_matches_probability_table(self):
        g = environment_from_dict(self.doc())
        e = g.edge(1, 2)
        assert g.effective(e) == effective_success(g.probs(e))


class TestEnvironmentSchema:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            environment_from_dict({"nodes": 2, "edges": [], "extra": 1})

    def test_missing_edges_rejected(self):
        with pytest.raises(ValueError, match="'nodes' and 'edges'"):
            environment_from_dict({"nodes": 2})
        with pytest.raises(ValueError, match="'edges' must be a list"):
            environment_from_dict({"nodes": 2, "edges": 5})
        # JSON true loads as a bool, which Python counts as the int 1
        with pytest.raises(ValueError, match="'nodes' must be an integer"):
            environment_from_dict({"nodes": True, "edges": []})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            environment_from_dict(
                {"nodes": 2, "edges": [[1, 1, 1.0, "Low"]]})

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="edge 0"):
            environment_from_dict(
                {"nodes": 2, "edges": [[0, 5, 1.0, "Low"]]})
        with pytest.raises(ValueError, match="edge 0: endpoints"):
            environment_from_dict(
                {"nodes": 2, "edges": [[False, True, 1.0, "Low"]]})

    def test_nonpositive_distance_rejected(self):
        for dist in (0.0, True):
            with pytest.raises(ValueError, match="not positive"):
                environment_from_dict(
                    {"nodes": 2, "edges": [[0, 1, dist, "Low"]]})

    def test_infinite_distance_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            environment_from_dict(
                {"nodes": 2, "edges": [[0, 1, math.inf, "Low"]]})

    def test_undeclared_risk_class_rejected(self):
        with pytest.raises(ValueError, match="'Lava'"):
            environment_from_dict(
                {"nodes": 2, "edges": [[0, 1, 1.0, "Lava"]]})
        with pytest.raises(ValueError, match="edge 0: risk class"):
            environment_from_dict(
                {"nodes": 2, "edges": [[0, 1, 1.0, ["Low"]]]})

    def test_unknown_risk_class_name_rejected(self):
        doc = {"nodes": 2, "risk_table": {"Weird": [0.9, 0.05]},
               "edges": []}
        with pytest.raises(ValueError, match="'Weird'"):
            environment_from_dict(doc)

    def test_bad_risk_pair_rejected(self):
        for pair in ([0.9], [True, 0.0]):
            doc = {"nodes": 2, "risk_table": {"Low": pair}, "edges": []}
            with pytest.raises(ValueError, match="p_success, p_retry"):
                environment_from_dict(doc)
        doc = {"nodes": 2, "risk_table": [1], "edges": []}
        with pytest.raises(ValueError, match="'risk_table' must be"):
            environment_from_dict(doc)

    def test_pure_retry_row_rejected(self):
        # p_success = 1e-13 keeps the row within the sum tolerance, yet an
        # edge of this class could be neither crossed nor failed
        doc = {"nodes": 2, "risk_table": {"Low": [1e-13, 1.0]},
               "edges": [[0, 1, 1.0, "Low"]]}
        with pytest.raises(ValueError,
                           match="risk class 'Low': p_retry of 1.0"):
            environment_from_dict(doc)

    def test_node_objects_carry_labels_and_xy(self):
        doc = {"nodes": [{"label": "hall", "xy": [1, 2]}, None, {}],
               "edges": [[0, 1, 1.0, "Low"], [1, 2, 1.0, "Low"]]}
        g = environment_from_dict(doc)
        assert g.node_count == 3
        assert g.labels == {0: "hall"}
        assert g.xy == {0: (1.0, 2.0)}

    def test_bad_xy_rejected(self):
        for pt in ([1], [True, 2]):
            doc = {"nodes": [{"xy": pt}], "edges": []}
            with pytest.raises(ValueError, match="xy"):
                environment_from_dict(doc)

    def test_round_trip_preserves_graph(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = environment_from_dict(random_connected_doc(rng))
            assert environment_from_dict(environment_to_dict(g)) == g

    def test_file_round_trip(self, tmp_path):
        g = environment_from_dict(self_doc())
        target = tmp_path / "env.json"
        save_environment(g, target)
        assert load_environment(str(target)) == g

    def test_invalid_json_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="bad.json"):
            load_environment(str(bad))


class TestOneAdjacency:
    """The graph keeps one adjacency, its hop rows; neighbors() reads them,
    and the loader checks every row's shape, then the node count, then
    each row's contents in order."""

    def graphs(self):
        rng = np.random.default_rng(27)
        yield load_default_environment()
        for _ in range(40):
            yield environment_from_dict(random_connected_doc(rng))

    def test_neighbors_are_each_nodes_edges_sorted_by_neighbour(self):
        for g in self.graphs():
            for n in g.nodes:
                pairs = sorted((nbr, g.edge(n, nbr)) for nbr in g.nodes
                               if nbr != n and g.edge(n, nbr) is not None)
                assert g.neighbors(n) == pairs
                assert list(g._hops[n]) == [
                    (nbr, e.distance, g._index[e.key()]) for nbr, e in pairs]
            doc = environment_to_dict(g)
            assert environment_from_dict(doc) == g
            assert environment_to_dict(environment_from_dict(doc)) == doc

    def test_nodes_without_edges_share_the_empty_row(self):
        g = environment_from_dict({"nodes": 4, "edges": [[1, 0, 2, "Low"]]})
        assert g._hops[2] is g._hops[3] == ()
        assert g.neighbors(3) == []
        assert g.neighbors(1) == [(0, Edge(0, 1, 2.0, "Low"))]

    @pytest.mark.parametrize("doc, message", [
        ({"nodes": 0, "edges": [[1, 2]]},
         "edge 0: expected [a, b, distance, class]"),
        ({"nodes": 2, "edges": [[0, 0, 1.0, "Low"], [1]]},
         "edge 1: expected [a, b, distance, class]"),
        ({"nodes": 2, "edges": [[0, 1, -1.0, "Low"], [0, 1, 1.0, "Low"]]},
         "edge 0: distance -1.0 not positive"),
        ({"nodes": 0, "edges": [[0, 1, -1.0, "Low"]]},
         "node count 0 below 1"),
    ])
    def test_a_document_with_two_faults_names_the_first(self, doc, message):
        with pytest.raises(ValueError) as caught:
            environment_from_dict(doc)
        assert str(caught.value) == message


def self_doc():
    return {"nodes": 3,
            "edges": [[0, 1, 1.0, "Low"], [1, 2, 2.0, "High"]]}


class TestMissionSpec:
    def doc(self):
        return {"start": "random", "tasks": [1, 2], "end": 3,
                "safe_locations": [0], "threshold": 0.9, "hold_limit": 10}

    def test_random_start_becomes_none(self):
        m = mission_from_dict(self.doc())
        assert m.start is None

    def test_fixed_start_kept(self):
        doc = self.doc()
        doc["start"] = 2
        assert mission_from_dict(doc).start == 2

    def test_end_in_tasks_rejected(self):
        doc = self.doc()
        doc["end"] = 1
        with pytest.raises(ValueError, match="also listed as a task"):
            mission_from_dict(doc)

    def test_duplicate_tasks_rejected(self):
        doc = self.doc()
        doc["tasks"] = [1, 1]
        with pytest.raises(ValueError, match="duplicate task"):
            mission_from_dict(doc)

    def test_more_than_max_tasks_rejected(self):
        # order_tasks scores every visiting order, so the count is capped
        assert len(MissionSpec(None, tuple(range(10)), 10, ()).tasks) == 10
        with pytest.raises(ValueError,
                           match="^11 tasks exceed the limit of 10$"):
            MissionSpec(None, tuple(range(11)), 11, ())

    def test_missing_field_rejected(self):
        doc = self.doc()
        del doc["end"]
        with pytest.raises(ValueError, match="'end'"):
            mission_from_dict(doc)

    def test_field_types_checked(self):
        # JSON true and false load as bools, which Python counts as ints
        for name, value, message in [("start", True, "start"),
                                     ("tasks", [False], "'tasks'"),
                                     ("safe_locations", [True],
                                      "'safe_locations'"),
                                     ("end", True, "end"),
                                     ("threshold", True, "threshold"),
                                     ("hold_limit", True, "hold_limit")]:
            doc = self.doc()
            doc[name] = value
            with pytest.raises(ValueError, match=message):
                mission_from_dict(doc)

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError, match="threshold"):
            MissionSpec(None, (1,), 2, (), threshold=0.0)

    def test_hold_limit_floor_enforced(self):
        with pytest.raises(ValueError, match="hold_limit"):
            MissionSpec(None, (1,), 2, (), hold_limit=0)

    def test_wrongly_typed_numbers_rejected(self):
        for name, value in [("threshold", True), ("threshold", "0.5"),
                            ("threshold", None), ("hold_limit", True),
                            ("hold_limit", 2.5), ("hold_limit", "3")]:
            with pytest.raises(ValueError, match=name):
                MissionSpec(25, (3,), 22, (13,), **{name: value})

    def test_node_lists_must_be_tuples(self):
        # planning and episodes hash both fields
        with pytest.raises(ValueError, match="tasks must be a tuple"):
            MissionSpec(25, [3, 6], 22, (13,))
        with pytest.raises(ValueError, match="safe_locations must be a"):
            MissionSpec(25, (3, 6), 22, [13])

    def test_node_ids_checked_against_environment(self):
        env = environment_from_dict(self_doc())
        doc = self.doc()
        with pytest.raises(ValueError, match="outside"):
            mission_from_dict(doc, env)

    def test_round_trip(self, tmp_path):
        m = mission_from_dict(self.doc())
        target = tmp_path / "mission.json"
        save_mission(m, target)
        assert load_mission(str(target)) == m
        assert mission_from_dict(mission_to_dict(m)) == m


class TestBundledDefaults:
    def test_environment_shape(self, default_env):
        assert default_env.node_count == 30
        assert len(default_env.edges) == 42
        assert set(default_env.risk_table) == set(DEFAULT_RISK_TABLE)

    def test_environment_is_connected(self, default_env):
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nbr, _ in default_env.neighbors(node):
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        assert seen == set(default_env.nodes)

    def test_mission_references_resolve(self, default_env, default_mission):
        m = default_mission
        assert m.start is None
        assert m.threshold == 0.9
        assert m.hold_limit == 10
        for node in list(m.tasks) + list(m.safe_locations) + [m.end]:
            default_env.check_node(node)

    def test_default_mission_checks_against_given_environment(self):
        small = environment_from_dict(self_doc())
        with pytest.raises(ValueError):
            load_default_mission(small)
