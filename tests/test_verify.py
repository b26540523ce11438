"""Fixed-policy chain validation, PRISM export, validated planning."""

import pathlib
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from risknav import (OutcomeProbs, build_chain, environment_from_dict,
                     evaluate_chain, export_prism, plan_validated_path)
from risknav.human import HeatParams, HumanState, apply_heat, build_heat_map
from risknav.planner import shortest_distance_path
from risknav.verify import FixedPolicyChain

from conftest import random_environment, simple_paths

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDEN_PATHS = [
    (25, 10),
    (25, 10, 11),
    (15, 11, 12),
    (25, 10, 11, 14, 17),
    (9, 26, 25, 24, 22, 21),
]


class TestBuildChain:
    def test_probs_follow_the_risk_table(self, default_env):
        chain = build_chain(default_env, (25, 10, 11))
        assert chain.path == (25, 10, 11)
        assert chain.probs == (
            default_env.probs(default_env.edge(25, 10)),
            default_env.probs(default_env.edge(10, 11)),
        )
        assert chain.done_index == 2
        assert chain.dead_index == 3

    def test_disconnected_hop_rejected(self, default_env):
        with pytest.raises(ValueError, match="no edge"):
            build_chain(default_env, (0, 7))

    def test_single_node_chain_is_empty(self, default_env):
        chain = build_chain(default_env, (5,))
        assert chain.probs == ()


class TestEvaluateChain:
    def test_empty_chain_is_certain(self, default_env):
        assert evaluate_chain(build_chain(default_env, (5,))) == 1.0

    def test_matches_manual_product(self, default_env):
        chain = build_chain(default_env, (25, 10, 11, 14, 17))
        manual = 1.0
        for p in chain.probs:
            manual = manual * (p.p_success / (p.p_success + p.p_fail))
        assert evaluate_chain(chain) == manual

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
            chain = build_chain(g, cands[int(rng.integers(len(cands)))])
            exact = Fraction(1)
            for p in chain.probs:
                ps, pf = Fraction(p.p_success), Fraction(p.p_fail)
                exact *= ps / (ps + pf)
            bound = 3 * len(chain.probs) * Fraction(1, 2**53) * exact
            assert abs(Fraction(evaluate_chain(chain)) - exact) <= bound
            checked += 1

    def test_pure_retry_edge_is_certain(self):
        # the loader refuses this row, but OutcomeProbs admits it within
        # its sum tolerance when built directly; with no failure mass the
        # closed form is exactly 1, and p_retry is never read
        chain = FixedPolicyChain((0, 1), (OutcomeProbs(1e-13, 1.0, 0.0),))
        assert evaluate_chain(chain) == 1.0

    def test_row_that_is_not_outcome_probs_rejected(self):
        # a duck-typed row would otherwise be read without its sum check
        for row in (SimpleNamespace(p_success=0.5, p_retry=0.5, p_fail=0.5),
                    (0.5, 0.25, 0.25)):
            with pytest.raises(ValueError, match="must be an OutcomeProbs"):
                FixedPolicyChain((0, 1), (row,))

    def test_corrupt_chain_raises(self):
        # a hand-built chain whose probabilities were tampered with after
        # construction fails on the first row it cannot read
        bad = FixedPolicyChain((0, 1), (OutcomeProbs(0.5, 0.25, 0.25),))
        object.__setattr__(bad, "probs",
                           (OutcomeProbs(0.5, 0.25, 0.25), "junk"))
        with pytest.raises(AttributeError):
            evaluate_chain(bad)


class TestExportPrism:
    def test_golden_files_are_stable(self, default_env):
        for nodes in GOLDEN_PATHS:
            chain = build_chain(default_env, nodes)
            label = "path " + "-".join(str(n) for n in nodes)
            model, props = export_prism(chain, label)
            stem = "chain_" + "_".join(str(n) for n in nodes)
            assert model == (GOLDEN_DIR / f"{stem}.nm").read_text()
            assert props == (GOLDEN_DIR / f"{stem}.props").read_text()

    def test_repeated_export_is_byte_identical(self, default_env):
        chain = build_chain(default_env, (15, 11, 12))
        assert export_prism(chain, "x") == export_prism(chain, "x")

    def test_model_structure(self, default_env):
        chain = build_chain(default_env, (25, 10, 11))
        model, props = export_prism(chain, "structure check")
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
        chain = build_chain(default_env, (15, 11, 12))
        model, _ = export_prism(chain, "x")
        rows = re.findall(
            r"\[\] state=\d+ -> ([0-9.e-]+):\(state'=\d+\)"
            r" \+ ([0-9.e-]+):\(state'=\d+\)"
            r" \+ ([0-9.e-]+):\(state'=\d+\);", model)
        assert len(rows) == len(chain.probs)
        for row, p in zip(rows, chain.probs):
            assert tuple(float(v) for v in row) \
                == (p.p_success, p.p_retry, p.p_fail)


class TestPlanValidatedPath:
    def test_unreachable_goal(self):
        g = environment_from_dict(
            {"nodes": 3, "edges": [[0, 1, 1.0, "Low"]]})
        assert plan_validated_path(g, 0, 2) == (None, None)

    def test_coincident_candidates_validated_once(self, default_env):
        path, r = plan_validated_path(default_env, 25, 17)
        assert path.nodes == (25, 10, 11, 14, 17)
        assert r == evaluate_chain(build_chain(default_env, path.nodes))

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
            assert r == evaluate_chain(build_chain(g, path.nodes))
