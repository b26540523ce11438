"""Human prediction, heat maps, heated probability overlays, stepping."""

import numpy as np
import pytest

from risknav import (Edge, EnvironmentGraph, HeatParams, HumanState,
                     OutcomeProbs, apply_heat, build_heat_map,
                     effective_success, env, environment_from_dict, human,
                     load_default_environment, max_success_path,
                     predict_human_path, step_human)
from risknav.planner import Path, shortest_distance_path

from conftest import path_stats, random_environment


def line_doc():
    return {"nodes": 5,
            "edges": [[0, 1, 1.0, "Low"], [1, 2, 1.0, "Medium"],
                      [2, 3, 1.0, "High"], [3, 4, 1.0, "Severe"],
                      [1, 4, 9.0, "Low"]]}


class TestHumanState:
    def test_prediction_must_start_at_position(self):
        with pytest.raises(ValueError, match="start at the"):
            HumanState(0, 2, 0.0, (1, 2))

    def test_prediction_must_end_at_goal(self):
        with pytest.raises(ValueError, match="end at the"):
            HumanState(1, 3, 0.0, (1, 2))

    def test_prediction_must_be_a_non_empty_tuple(self):
        # a planner Path is refused like a list: a prediction is node ids
        for nodes in (Path((1, 2), 1.0, 0.9), [1, 2], ()):
            with pytest.raises(ValueError,
                               match=r"predicted path .* non-empty tuple"):
                HumanState(1, 2, 0.0, nodes)

    def test_uncertainty_range_enforced(self):
        # a bool is not an uncertainty, though Python counts it as an int
        for u in (1.5, True, "0.5", None):
            with pytest.raises(ValueError, match="uncertainty"):
                HumanState(0, uncertainty=u)

    def test_goalless_prediction_allowed(self):
        h = HumanState(2, None, 0.0, (2,))
        assert h.predicted_path == (2,)


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
        assert predict_human_path(default_env, h) == (15, 11, 8, 4, 6)

    def test_goalless_human_is_predicted_to_stay_put(self, default_env):
        for p in default_env.nodes:
            stay = predict_human_path(default_env, HumanState(p, None, 0.5))
            assert stay == (p,)
            assert stay == shortest_distance_path(default_env, p, p).nodes
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
        h = HumanState(0, 2, 0.0, (0, 1, 2))
        params = HeatParams(path_heat=0.7, neighbor_heat=0.0)
        heat = build_heat_map(g, h, params)
        # nodes 0,1,2 touch edges 0-1, 1-2, 1-4 and 2-3
        assert heat == {(0, 1): 0.7, (1, 2): 0.7, (1, 4): 0.7, (2, 3): 0.7}

    def test_neighbor_rule_scales_with_uncertainty(self):
        g = environment_from_dict(line_doc())
        h = HumanState(3, None, 0.5, (3,))
        params = HeatParams(path_heat=0.0, neighbor_heat=0.6)
        heat = build_heat_map(g, h, params)
        assert heat == {(2, 3): 0.3, (3, 4): 0.3}

    def test_overlap_takes_the_maximum(self):
        g = environment_from_dict(line_doc())
        h = HumanState(1, 2, 1.0, (1, 2))
        strong = HeatParams(path_heat=0.9, neighbor_heat=0.4)
        heat = build_heat_map(g, h, strong)
        assert heat[(0, 1)] == 0.9
        weak_path = HeatParams(path_heat=0.1, neighbor_heat=0.4)
        heat = build_heat_map(g, h, weak_path)
        assert heat[(0, 1)] == 0.4

    def test_zero_heat_produces_empty_map(self):
        g = environment_from_dict(line_doc())
        h = HumanState(1, 2, 0.0, (1, 2))
        params = HeatParams(path_heat=0.0, neighbor_heat=0.0)
        assert build_heat_map(g, h, params) == {}

    def test_no_prediction_leaves_only_spill(self):
        g = environment_from_dict(line_doc())
        h = HumanState(2, uncertainty=1.0)
        params = HeatParams(path_heat=0.9, neighbor_heat=0.5)
        assert build_heat_map(g, h, params) == {(1, 2): 0.5, (2, 3): 0.5}


    @staticmethod
    def rule(g, h, params):
        # the heat rule over g.neighbors and each edge's key
        heat = {}
        if h.predicted_path is not None and params.path_heat > 0.0:
            for node in set(h.predicted_path):
                for _, edge in g.neighbors(node):
                    heat[edge.key()] = params.path_heat
        spill = params.neighbor_heat * h.uncertainty
        if spill > 0.0:
            for _, edge in g.neighbors(h.position):
                if heat.get(edge.key(), 0.0) < spill:
                    heat[edge.key()] = spill
        return heat

    def test_random_maps_follow_the_rule_in_its_order(self):
        # list(items) pins the insertion order too, which repr shows
        rng = np.random.default_rng(24)
        heats = (0.0, 1e-16, 0.3, 0.6, 0.998)
        for _ in range(80):
            g = random_environment(rng, max_nodes=12)
            walk = [int(rng.integers(g.node_count))]
            for _ in range(int(rng.integers(0, 6))):
                walk.append(int(rng.integers(g.node_count)))
            u = float(rng.choice([0.0, 0.2, 1.0]))
            h = HumanState(walk[0], None, u, tuple(walk)
                           if rng.random() < 0.8 else None)
            params = HeatParams(float(rng.choice(heats)),
                                float(rng.choice(heats)))
            hot = apply_heat(g, {next(iter(g.edges)): 0.5})
            for graph in (g, hot):
                assert list(build_heat_map(graph, h, params).items()) \
                    == list(self.rule(g, h, params).items())

    def test_a_bad_node_keeps_its_error_and_no_row_is_read_for_it(self):
        class NonNegative(list):
            def __getitem__(self, i):
                assert i >= 0, f"hop rows read at {i!r}"
                return super().__getitem__(i)

        g = load_default_environment()
        g._hops = NonNegative(g._hops)
        errors = ((-1, "node -1 outside 0..29"),
                  (30, "node 30 outside 0..29"),
                  (True, "node True must be an int, not bool"),
                  (np.int64(1), "node np.int64(1) must be an int, not int64"))
        for bad, message in errors:
            humans = ((HumanState(0, None, 0.5, (0, bad)), HeatParams()),
                      (HumanState(bad, None, 0.5), HeatParams()),
                      (HumanState(bad, None, 0.5, (bad,)),
                       HeatParams(0.0, 0.6)))
            for h, params in humans:
                with pytest.raises(ValueError) as err:
                    build_heat_map(g, h, params)
                assert str(err.value) == message
            # without path heat only the position is checked, as the rule
            # reads no predicted node then
            assert build_heat_map(g, HumanState(0, None, 0.5, (0, bad)),
                                  HeatParams(0.0, 0.6)) \
                == {(0, 1): 0.3, (0, 2): 0.3}


class TestHeatedProbs:
    def test_success_mass_moves_to_retry(self):
        p = OutcomeProbs(0.9, 0.05, 0.05)
        g = EnvironmentGraph(2, {"Low": p}, [Edge(0, 1, 1.0, "Low")])
        q = apply_heat(g, {(0, 1): 0.4}).probs(g.edge(0, 1))
        assert q.p_success == pytest.approx(0.54)
        assert q.p_retry == pytest.approx(0.05 + 0.36)
        assert q.p_fail == p.p_fail
        assert q.p_success + q.p_retry + q.p_fail == pytest.approx(1.0)

    def test_heat_of_one_rejected(self):
        g = environment_from_dict(line_doc())
        with pytest.raises(ValueError, match="heat 1.0 outside"):
            apply_heat(g, {(1, 2): 1.0})


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
        # heated rows are memoized per heat and edge number on the base
        # graph only, so a second layer starts from the first one's rows
        g = environment_from_dict(line_doc())
        once = apply_heat(g, {(1, 2): 0.5})
        twice = apply_heat(once, {(1, 2): 0.5})
        p = once.probs(g.edge(1, 2))
        scaled = p.p_success * (1.0 - 0.5)
        assert twice.probs(g.edge(1, 2)) == OutcomeProbs(
            scaled, p.p_retry + (p.p_success - scaled), p.p_fail)
        assert twice.probs(g.edge(1, 2)).p_success \
            == pytest.approx(0.99 * 0.25)

    def test_probs_reads_the_base_row_off_the_heated_edges(self,
                                                          default_env):
        # an unheated edge, and an Edge whose key is no edge of the map
        # (the bundled map has no (0, 29)), read the base's row, on a
        # stacked overlay too
        g = default_env
        once = apply_heat(g, {(0, 1): 0.5})
        twice = apply_heat(once, {(1, 3): 0.5})
        unheated = next(e for key, e in g.edges.items()
                        if key not in ((0, 1), (1, 3)))
        for edge in (unheated, Edge(0, 29, 1.0, "High")):
            for hot in (once, twice):
                assert hot.probs(edge) is g.probs(edge)
        assert once.probs(g.edge(0, 1)) != g.probs(g.edge(0, 1))
        assert twice.probs(g.edge(0, 1)) is once.probs(g.edge(0, 1))

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
        assert hot.rows == {}

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
        # False and a float32 zero equal 0.0, but no heat skips the check
        for h in ("0.5", None, False, np.float32(0.0)):
            with pytest.raises(ValueError, match="heat .* outside"):
                apply_heat(g, {(1, 2): h})


    # the error each key raised before pairs of ints were looked up in
    # the edge dict directly; (0, 29) is no edge of the bundled map
    KEY_ERRORS = (
        ((0, True), "node True must be an int, not bool"),
        ((0.0, 1), "node 0.0 must be an int, not float"),
        ((np.int64(0), 1), "node np.int64(0) must be an int, not int64"),
        ((0, 1, 2), "heat on missing edge (0, 1, 2)"),
        ((0,), "heat on missing edge (0,)"),
        ("ab", "node 'a' must be an int, not str"),
        ((0, 30), "node 30 outside 0..29"),
        ((0, 29), "heat on missing edge (0, 29)"),
    )

    def test_bad_keys_keep_their_errors_with_a_cold_and_a_warm_memo(self):
        g = load_default_environment()
        for warm in (False, True):
            if warm:  # the row of edge (0, 1) at heat 0.5 is now memoized
                apply_heat(g, {(0, 1): 0.5})
            for key, message in self.KEY_ERRORS:
                with pytest.raises(ValueError) as err:
                    apply_heat(g, {key: 0.5})
                assert str(err.value) == message

    def test_a_reversed_pair_heats_the_same_edge(self):
        g = load_default_environment()
        for warm in (False, True):
            hot = apply_heat(g, {(1, 0): 0.5})
            assert hot.rows == apply_heat(g, {(0, 1): 0.5}).rows
            assert list(hot.rows) == [g._index[(0, 1)]]
            assert hot.effective(g.edge(0, 1)) < g.effective(g.edge(0, 1))


class TestOverlayTable:
    """An overlay's effective-success list is a patched copy of its
    base's, and the planner reads it."""

    def random_heat(self, rng, g):
        # zero heats are skipped, and 1e-16 moves a row by at most an ulp
        keys = list(g.edges)
        picked = rng.choice(len(keys), size=int(rng.integers(0, len(keys)
                                                               + 1)),
                            replace=False)
        values = (0.0, 1e-16, 0.5, 0.998)
        return {keys[i]: (values[int(rng.integers(4))]
                          if rng.random() < 0.5 else float(rng.random()))
                for i in picked}

    def test_effective_reads_each_row_and_overlays_never_alias(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            g = random_environment(rng)
            edges = list(g.edges.values())
            before = [g.effective(e) for e in edges]
            once = apply_heat(g, self.random_heat(rng, g))
            first = [once.effective(e) for e in edges]
            twice = apply_heat(once, self.random_heat(rng, g))
            for graph in (g, once, twice):
                for e in edges:
                    assert graph.effective(e) == effective_success(
                        graph.probs(e))
            assert [g.effective(e) for e in edges] == before
            assert [once.effective(e) for e in edges] == first
            for hot in (once, twice):
                for s in g.nodes:
                    for t in g.nodes:
                        for plan in (max_success_path,
                                     shortest_distance_path):
                            path = plan(hot, s, t)
                            assert path is not None
                            assert (path.total_distance,
                                    path.success_probability) == \
                                path_stats(hot, path.nodes)


class TestHeatedRowMemo:
    """apply_heat memoizes each heated row with its effective success per
    heat and edge number; a human table builds each _Heat once, whole."""

    HEATS = (0.0, 1e-16, 0.25, 0.5, 0.998)

    def random_heat(self, rng, g):
        # a few heat values per map, keys either way round
        out = {}
        for a, b in g.edges:
            if rng.random() < 0.6:
                key = (b, a) if rng.random() < 0.3 else (a, b)
                out[key] = self.HEATS[int(rng.integers(len(self.HEATS)))]
        return out

    @staticmethod
    def rule(g, heat_map):
        # each heated row by the rule, keyed by its edge number, and
        # every edge's effective success
        rows = {}
        for key, h in heat_map.items():
            edge = g.edge(*key)
            if h:
                p = g.probs(edge)
                scaled = p.p_success * (1.0 - h)
                rows[g._index[edge.key()]] = OutcomeProbs(
                    scaled, p.p_retry + (p.p_success - scaled), p.p_fail)
        return rows, [effective_success(rows.get(i, g.probs(e)))
                      for i, e in enumerate(g.edges.values())]

    def test_rows_and_lists_match_the_rule_cold_warm_and_stacked(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            g = random_environment(rng)
            cold = EnvironmentGraph(g.node_count, g.risk_table,
                                    list(g.edges.values()))
            base = list(g._effs)
            maps = [self.random_heat(rng, g) for _ in range(4)]
            for heat_map in maps + maps:  # heats repeat across calls
                hot = apply_heat(g, heat_map)
                rows, effs = self.rule(g, heat_map)
                assert (hot.rows, hot._effs) == (rows, effs)
                for e in g.edges.values():
                    assert hot.effective(e) == effective_success(hot.probs(e))
                twice = apply_heat(hot, maps[0])
                assert (twice.rows, twice._effs) == \
                    self.rule(hot, maps[0])
                assert hot._effs == effs and g._effs == base
                # a graph whose memo is cold builds the same overlay
                cold._memo.clear()
                fresh = apply_heat(cold, heat_map)
                assert (fresh.rows, fresh._effs) == (rows, effs)

    def test_a_heat_keeps_its_lists_and_its_lowers_matches_the_rule(
            self, monkeypatch):
        # the table meets each random map through a new state; a second
        # state of an equal map shares the heat its first state built
        rng = np.random.default_rng(42)
        for _ in range(40):
            g = random_environment(rng)
            base = list(g._effs)
            table = human._human_table(g, HeatParams())
            for k in range(3):
                heat_map = self.random_heat(rng, g)
                monkeypatch.setattr(human, "build_heat_map",
                                    lambda *args: dict(heat_map))
                first, again = (
                    table.heat(g, table.intern(g, HumanState(0, None, u)))
                    for u in (2 * k / 8, (2 * k + 1) / 8))
                heat = table.heats[first]
                assert again == first and table.heats[again] is heat
                rows, effs, kept = heat.rows, heat.effs, list(heat.effs)
                assert heat.map == heat_map
                hot = apply_heat(g, heat_map)
                assert (rows, effs) == (hot.rows, hot._effs)
                apply_heat(hot, self.random_heat(rng, g))
                assert heat.lowers == all(
                    hot.effective(g.edge(*key)) <= g.effective(g.edge(*key))
                    for key in heat_map)
                assert heat.effs == kept and g._effs == base
                assert heat.rows is rows and heat.effs is effs

    def test_the_memo_stays_bounded(self, monkeypatch):
        limit = 5
        monkeypatch.setattr(env, "_STEP_MEMO_LIMIT", limit)
        g = load_default_environment()
        rng = np.random.default_rng(5)
        for _ in range(40):
            h = float(rng.random()) * 0.99
            hot = apply_heat(g, {(0, 1): h, (1, 3): h, (0, 2): 0.5})
            assert hot.rows == self.rule(g, {(0, 1): h, (1, 3): h,
                                             (0, 2): 0.5})[0]
            assert len(g._memo["heated"]) <= limit + 1


class TestStepHuman:
    def test_certain_human_walks_the_prediction(self):
        g = environment_from_dict(line_doc())
        h = HumanState(0, 2, 0.0, (0, 1, 2))
        rng = np.random.default_rng(1)
        h = step_human(g, h, rng)
        assert h.position == 1
        assert h.predicted_path == (1, 2)
        h = step_human(g, h, rng)
        assert h.position == 2
        assert h.predicted_path == (2,)

    def test_follower_walks_the_tail_not_a_new_prediction(self):
        # from 9 the walk through node 2 is the shorter by rounding, but
        # from 10 both walks measure 7.14 and the tie-break takes node 1;
        # a follower keeps the tail of the walk it was predicted
        g = load_default_environment()
        h = HumanState(9, 0, 0.0)
        h = HumanState(9, 0, 0.0, predict_human_path(g, h))
        assert h.predicted_path == (9, 10, 11, 8, 7, 3, 2, 0)
        h = step_human(g, h, np.random.default_rng(0))
        assert h.position == 10
        assert h.predicted_path == (10, 11, 8, 7, 3, 2, 0)
        assert shortest_distance_path(g, 10, 0).nodes \
            == (10, 11, 8, 7, 3, 1, 0)

    def test_an_overlay_steps_a_human_exactly_as_its_base(self):
        # a prediction is node ids only, so heat cannot change a state:
        # the same draws give equal states whether the human follows or
        # diverges, on a base graph that memoizes and an overlay that
        # does not
        g = environment_from_dict(line_doc())
        heated = apply_heat(g, {(1, 2): 0.5, (1, 4): 0.3})
        for u in (0.0, 0.5, 1.0):
            for seed in range(8):
                a = b = HumanState(0, 3, u, (0, 1, 2, 3))
                ra = np.random.default_rng(seed)
                rb = np.random.default_rng(seed)
                for _ in range(6):
                    a, b = step_human(g, a, ra), step_human(heated, b, rb)
                    assert a == b
                    assert ra.bit_generator.state == rb.bit_generator.state

    def test_a_predicted_hop_that_is_not_an_edge_is_refused(self):
        # the bundled map has no edge 0-5, so the human cannot follow it
        g = load_default_environment()
        assert g.edge(0, 5) is None
        with pytest.raises(ValueError, match="no edge 0-5"):
            step_human(g, HumanState(0, 5, 0.0, (0, 5)),
                       np.random.default_rng(0))

    def test_a_position_that_is_not_a_node_is_refused(self):
        # a negative position once read another node's neighbours
        g = environment_from_dict(line_doc())
        for pos in (5, -1):
            for u in (0.0, 1.0):
                with pytest.raises(ValueError, match=f"node {pos} outside"):
                    step_human(g, HumanState(pos, None, u),
                               np.random.default_rng(0))

    def test_arrived_human_stays_put(self):
        g = environment_from_dict(line_doc())
        h = HumanState(2, 2, 0.0, (2,))
        assert step_human(g, h, np.random.default_rng(2)) == h

    def test_goalless_human_stays_put(self):
        g = environment_from_dict(line_doc())
        h = HumanState(2)
        assert step_human(g, h, np.random.default_rng(3)) == h

    def test_diverging_goalless_human_is_predicted_to_stay_put(self):
        g = environment_from_dict(line_doc())
        rng = np.random.default_rng(3)
        h = HumanState(2, None, 1.0, (2,))
        for _ in range(20):
            nxt = step_human(g, h, rng)
            assert g.edge(h.position, nxt.position) is not None
            assert nxt == HumanState(nxt.position, None, 1.0, (nxt.position,))
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
        h = HumanState(2, 4, 1.0, (2, 3, 4))
        rng = np.random.default_rng(4)
        for _ in range(20):
            nxt = step_human(g, h, rng)
            assert g.edge(h.position, nxt.position) is not None
            assert nxt.predicted_path[0] == nxt.position
            assert nxt.predicted_path[-1] == 4
            h = nxt

    def test_divergence_rate_tracks_uncertainty(self):
        g = environment_from_dict(line_doc())
        rng = np.random.default_rng(5)
        diverged = 0
        trials = 4000
        for _ in range(trials):
            h = HumanState(0, 2, 0.3, (0, 1, 2))
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
            h = HumanState(1, 2, 0.3, (1, 2))
            if step_human(g, h, rng).position != 2:
                off_path += 1
        # diverged steps land on 0, 2 or 4 uniformly: expect 0.3 * 2/3
        rate = off_path / trials
        assert abs(rate - 0.2) < 0.02

    def test_random_graph_stepping_never_leaves_the_graph(self):
        # a step moves along an edge or stays, and never changes the goal:
        # the episode relies on a human keeping the goal a redirect gave it
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_environment(rng, max_nodes=6)
            goal = int(rng.integers(g.node_count))
            pos = int(rng.integers(g.node_count))
            for aim, nodes in ((goal, shortest_distance_path(g, pos,
                                                             goal).nodes),
                               (None, (pos,))):
                h = HumanState(pos, aim, 0.8, nodes)
                for _ in range(10):
                    nxt = step_human(g, h, rng)
                    assert (nxt.position == h.position
                            or g.edge(h.position, nxt.position) is not None)
                    assert nxt.goal == aim
                    h = nxt

    def test_the_table_of_a_stepped_human_stays_bounded(self, monkeypatch):
        # step_human empties a full table before its intern and step, which
        # add at most two states, and intern never empties it: the states
        # and draws stay those of a graph whose memo is emptied every step
        limit = 8
        monkeypatch.setattr(env, "_STEP_MEMO_LIMIT", limit)
        g, fresh = load_default_environment(), load_default_environment()
        sizes = []
        for u in (0.3, 1.0):
            for seed in range(6):
                path = predict_human_path(g, HumanState(9, 0))
                a = b = HumanState(9, 0, u, path)
                ra = np.random.default_rng(seed)
                rb = np.random.default_rng(seed)
                for _ in range(15):
                    fresh._memo.clear()
                    a, b = step_human(g, a, ra), step_human(fresh, b, rb)
                    assert a == b
                    assert ra.bit_generator.state == rb.bit_generator.state
                    table = g._memo["human"][None]
                    sizes.append(len(table.states))
                    assert len(table.ids) == sizes[-1]
        assert max(sizes) == limit + 1
        assert sum(b < a for a, b in zip(sizes, sizes[1:])) > 5
