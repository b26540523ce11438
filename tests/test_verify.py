"""Fixed-policy validation: a path's closed form, PRISM export, validated
planning."""

import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest

from risknav import (EnvironmentGraph, OutcomeProbs, environment_from_dict,
                     export_prism, path_from_nodes, plan_validated_path)
from risknav.human import HeatParams, HumanState, apply_heat, build_heat_map
from risknav.planner import shortest_distance_path

from conftest import hop_rows, random_environment, simple_paths

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDEN_PATHS = [
    (25, 10),
    (25, 10, 11),
    (15, 11, 12),
    (25, 10, 11, 14, 17),
    (9, 26, 25, 24, 22, 21),
]

# one transient command: state i moves on to i + 1, stays, or dies
PRISM_ROW = re.compile(
    r"\[\] state=(\d+) -> ([0-9.e-]+):\(state'=\d+\)"
    r" \+ ([0-9.e-]+):\(state'=\d+\)"
    r" \+ ([0-9.e-]+):\(state'=\d+\);")


def prism_rows(model):
    """(p_success, p_retry, p_fail) of each transient command, in state
    order, read back from the model's shortest round-trip reprs."""
    found = PRISM_ROW.findall(model)
    assert [int(m[0]) for m in found] == list(range(len(found)))
    return [tuple(float(v) for v in m[1:]) for m in found]


class TestBuildChain:
    def test_probs_follow_the_risk_table(self, default_env):
        g = default_env
        model, _ = export_prism(g, (25, 10, 11), "x")
        assert path_from_nodes(g, (25, 10, 11)).nodes == (25, 10, 11)
        table = [g.risk_table[g.edge(a, b).risk]
                 for a, b in ((25, 10), (10, 11))]
        assert prism_rows(model) == [(p.p_success, p.p_retry, p.p_fail)
                                     for p in table]
        assert "const int final = 2;" in model
        assert "    state : [0..3] init 0;" in model

    def test_disconnected_hop_rejected(self, default_env):
        with pytest.raises(ValueError, match="no edge"):
            export_prism(default_env, (0, 7), "x")

    def test_single_node_chain_is_empty(self, default_env):
        model, _ = export_prism(default_env, (5,), "x")
        assert hop_rows(default_env, (5,)) == []
        assert prism_rows(model) == []


class TestEvaluateChain:
    def test_empty_chain_is_certain(self, default_env):
        assert path_from_nodes(default_env, (5,)).success_probability == 1.0

    def test_matches_manual_product(self, default_env):
        nodes = (25, 10, 11, 14, 17)
        manual = 1.0
        for p in hop_rows(default_env, nodes):
            manual = manual * (p.p_success / (p.p_success + p.p_fail))
        assert path_from_nodes(default_env, nodes).success_probability \
            == manual

    def test_product_is_within_rounding_of_the_exact_value(self):
        # the exact rational prod p_s / (p_s + p_f) of the rows' floats:
        # per edge the sum, the division and the product each round at
        # most once (the first product is exact), so a k-edge chain is
        # within 3k relative rounding errors of 2**-53 of it.  Every
        # odd-numbered chain runs on a heat overlay.
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 1000:
            g = random_environment(rng, max_nodes=8)
            if checked % 2:
                g = apply_heat(g, {key: float(rng.uniform(0.0, 1.0))
                                   for key in g.edges})
            s = int(rng.integers(g.node_count))
            t = int(rng.integers(g.node_count))
            cands = simple_paths(g, s, t)
            if not cands:
                continue
            nodes = cands[int(rng.integers(len(cands)))]
            rows = hop_rows(g, nodes)
            exact = Fraction(1)
            for p in rows:
                ps, pf = Fraction(p.p_success), Fraction(p.p_fail)
                exact *= ps / (ps + pf)
            bound = 3 * len(rows) * Fraction(1, 2**53) * exact
            r = path_from_nodes(g, nodes).success_probability
            assert abs(Fraction(r) - exact) <= bound
            checked += 1

    def test_pure_retry_edge_is_certain(self):
        # the loader refuses this row, but OutcomeProbs admits it within
        # its sum tolerance when built directly; with no failure mass the
        # closed form is exactly 1, and p_retry is never read
        g = EnvironmentGraph(2, {"retry": OutcomeProbs(1e-13, 1.0, 0.0)},
                             [[0, 1, 1.0, "retry"]])
        assert path_from_nodes(g, (0, 1)).success_probability == 1.0


class TestExportPrism:
    def test_golden_files_are_stable(self, default_env):
        for nodes in GOLDEN_PATHS:
            label = "path " + "-".join(str(n) for n in nodes)
            model, props = export_prism(default_env, nodes, label)
            stem = "chain_" + "_".join(str(n) for n in nodes)
            assert model == (GOLDEN_DIR / f"{stem}.nm").read_text()
            assert props == (GOLDEN_DIR / f"{stem}.props").read_text()

    def test_repeated_export_is_byte_identical(self, default_env):
        nodes = (15, 11, 12)
        assert export_prism(default_env, nodes, "x") \
            == export_prism(default_env, nodes, "x")

    def test_model_structure(self, default_env):
        model, props = export_prism(default_env, (25, 10, 11),
                                    "structure check")
        assert model.startswith("// structure check\n")
        assert "\nmdp\n" in model
        commands = re.findall(r"\[\] state=(\d+) ->", model)
        # one command per transient state plus the two absorbing loops
        assert commands == ["0", "1", "2", "3"]
        assert "const int final = 2;" in model
        assert f"1:(state'=3);" in model
        assert 'label "end" = state=final;' in model
        assert props.endswith('Pmax=? [ F ("end" & state=final) ]\n')

    def test_branch_probabilities_round_trip(self, default_env):
        nodes = (15, 11, 12)
        model, _ = export_prism(default_env, nodes, "x")
        rows = prism_rows(model)
        probs = hop_rows(default_env, nodes)
        assert len(rows) == len(probs)
        for row, p in zip(rows, probs):
            assert row == (p.p_success, p.p_retry, p.p_fail)

    def test_model_agrees_with_the_path_probability(self):
        # folding p_s / (p_s + p_f) over the exported rows, left to right
        # from 1.0, gives the path's own success_probability bit for bit;
        # every odd-numbered path runs on a heat overlay, which the
        # base-graph goldens do not cover
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 1000:
            g = random_environment(rng, max_nodes=8)
            if checked % 2:
                g = apply_heat(g, {key: float(rng.uniform(0.0, 1.0))
                                   for key in g.edges})
            s = int(rng.integers(g.node_count))
            t = int(rng.integers(g.node_count))
            cands = simple_paths(g, s, t)
            if not cands:
                continue
            nodes = cands[int(rng.integers(len(cands)))]
            model, _ = export_prism(g, nodes, "x")
            folded = 1.0
            for ps, _, pf in prism_rows(model):
                folded = folded * (ps / (ps + pf))
            assert folded == path_from_nodes(g, nodes).success_probability
            checked += 1


class TestPlanValidatedPath:
    def test_unreachable_goal(self):
        g = environment_from_dict(
            {"nodes": 3, "edges": [[0, 1, 1.0, "Low"]]})
        assert plan_validated_path(g, 0, 2) == (None, None)

    def test_coincident_candidates_validated_once(self, default_env):
        path, r = plan_validated_path(default_env, 25, 17)
        assert path.nodes == (25, 10, 11, 14, 17)
        assert r == path_from_nodes(default_env, path.nodes) \
            .success_probability

    def test_heated_replan_avoids_the_conflict(self, default_env):
        g = default_env
        human = HumanState(15, 6, 0.0,
                           shortest_distance_path(g, 15, 6).nodes)
        heated = apply_heat(g, build_heat_map(g, human, HeatParams()))
        path, r = plan_validated_path(g, 25, 17, heated=heated)
        assert set(path.nodes).isdisjoint(human.predicted_path)
        assert r >= 0.9

    def test_returned_probability_matches_selection(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            g = random_environment(rng, max_nodes=8)
            s = int(rng.integers(g.node_count))
            t = int(rng.integers(g.node_count))
            path, r = plan_validated_path(g, s, t)
            assert path is not None
            assert r == path_from_nodes(g, path.nodes).success_probability
