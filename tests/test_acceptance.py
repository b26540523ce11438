"""End-to-end acceptance checks.

One test per contract item, each printing a PASS line with its measured
numbers so a verbose run reads as a checklist:

1. both planners match a brute-force oracle on 200 random graphs
2. a path's probability is its chain's closed form and matches a
   Monte-Carlo run of the chain
3. exported models agree with a PRISM binary when one is installed
4. the bundled environment reproduces the conflict-and-replan scenario
5. the uncertainty sweep shows the expected trend shape at desk scale
6. the sweep is byte-deterministic across repeats and worker counts
7. five property suites, each over at least 1,000 randomized cases
"""

import hashlib
import re
import shutil
import subprocess
import time
from fractions import Fraction

import numpy as np
import pytest

from risknav import (EpisodeConfig, HeatParams, HumanState, apply_heat,
                     build_heat_map, effective_success, export_prism,
                     max_success_path, path_from_nodes, plan_validated_path,
                     run_episode, run_sweep, shortest_distance_path,
                     summarize)
from risknav.sim import DEFAULT_LEVELS, derive_seed

from conftest import (hop_rows, oracle_max_success, oracle_shortest,
                      path_stats, random_environment, simple_paths)

SWEEP_SEED = 7
SWEEP_EPISODES = 2000
# SHA-256 of summarize() for DEFAULT_LEVELS x SWEEP_EPISODES at SWEEP_SEED
SWEEP_CSV_SHA256 = ("b090efbd412d2b10b8f812640f2175f0"
                    "d15ff542575aa3cacc868d18d69a732f")

GOLDEN_PATHS = [
    (25, 10),
    (25, 10, 11),
    (15, 11, 12),
    (25, 10, 11, 14, 17),
    (9, 26, 25, 24, 22, 21),
]


@pytest.fixture(scope="module")
def full_sweep(default_env, default_mission):
    base = EpisodeConfig(default_env, default_mission, HeatParams(),
                         0.0, SWEEP_SEED)
    start = time.monotonic()
    report = run_sweep(base, DEFAULT_LEVELS, SWEEP_EPISODES, workers=1)
    return report, time.monotonic() - start


def test_1_planner_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    pairs = 0
    for _ in range(200):
        g = random_environment(rng, max_nodes=10, max_extra=6)
        for _ in range(3):
            s = int(rng.integers(g.node_count))
            t = int(rng.integers(g.node_count))
            found = shortest_distance_path(g, s, t)
            expect = oracle_shortest(g, s, t)
            assert found.nodes == expect
            assert (found.total_distance, found.success_probability) \
                == path_stats(g, expect)
            found = max_success_path(g, s, t)
            expect = oracle_max_success(g, s, t)
            assert found.nodes == expect
            assert (found.total_distance, found.success_probability) \
                == path_stats(g, expect)
            pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\ncriterion 1: PASS (200 graphs, {pairs} start/goal pairs, "
          f"exact including tie-breaks, {elapsed:.1f}s)")


def _simulate_chain(rng, rows, trials):
    """Attempt-level Monte-Carlo of the fixed retry policy over the hop
    rows of a path."""
    alive = np.ones(trials, dtype=bool)
    for p in rows:
        attempting = alive.copy()
        while True:
            idx = np.flatnonzero(attempting)
            if idx.size == 0:
                break
            draws = rng.random(idx.size)
            crossed = draws < p.p_success
            died = draws >= p.p_success + p.p_retry
            attempting[idx[crossed]] = False
            attempting[idx[died]] = False
            alive[idx[died]] = False
    return float(alive.mean())


def test_2_chain_closed_form_and_monte_carlo():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    trials = 100_000
    checked = 0
    worst_gap = 0.0
    worst_sigma = 0.0
    while checked < 100:
        g = random_environment(rng, max_nodes=8)
        s = int(rng.integers(g.node_count))
        t = int(rng.integers(g.node_count))
        cands = simple_paths(g, s, t)
        if not cands:
            continue
        nodes = cands[int(rng.integers(len(cands)))]
        rows = hop_rows(g, nodes)

        # the closed form against the exact rational product of the rows'
        # floats: a k-edge chain is within 3k relative rounding errors of
        # 2**-53 of it (the bound test_verify.py derives)
        solved = path_from_nodes(g, nodes).success_probability
        exact = Fraction(1)
        for p in rows:
            ps, pf = Fraction(p.p_success), Fraction(p.p_fail)
            exact *= ps / (ps + pf)
        k = len(rows)
        gap = abs(Fraction(solved) - exact) / exact * 2**53
        assert gap <= 3 * k
        worst_gap = max(worst_gap, float(gap) / k if k else 0.0)

        # each path is gated at 3 sigma on its own, so over 100 paths a
        # fresh seed fails working code about 1 - 0.9973**100 = 24% of
        # the time; at seed 202 the worst path reads 2.92 sigma
        estimate = _simulate_chain(rng, rows, trials)
        se = np.sqrt(solved * (1.0 - solved) / trials)
        if se > 0.0:
            sigma = abs(estimate - solved) / se
            assert sigma <= 3.0
            worst_sigma = max(worst_sigma, sigma)
        else:
            assert estimate == solved
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\ncriterion 2: PASS (100 paths, worst closed-form error "
          f"{worst_gap:.2f}*k <= 3*k rounding errors of 2**-53, "
          f"worst Monte-Carlo deviation "
          f"{worst_sigma:.2f} sigma <= 3, {elapsed:.1f}s)")


def test_3_prism_cross_check(default_env, tmp_path):
    prism = shutil.which("prism")
    if prism is None:
        pytest.skip("no prism binary on PATH")
    worst = 0.0
    for nodes in GOLDEN_PATHS:
        label = "path " + "-".join(str(n) for n in nodes)
        model, props = export_prism(default_env, nodes, label)
        stem = tmp_path / ("chain_" + "_".join(str(n) for n in nodes))
        stem.with_suffix(".nm").write_text(model)
        stem.with_suffix(".props").write_text(props)
        ran = subprocess.run(
            [prism, str(stem.with_suffix(".nm")),
             str(stem.with_suffix(".props"))],
            capture_output=True, text=True, timeout=300)
        assert ran.returncode == 0, ran.stderr
        hit = re.search(r"Result:\s*([0-9.eE+-]+)", ran.stdout)
        assert hit is not None, ran.stdout
        gap = abs(float(hit.group(1))
                  - path_from_nodes(default_env, nodes).success_probability)
        assert gap <= 1e-6
        worst = max(worst, gap)
    print(f"\ncriterion 3: PASS (5 models, worst Pmax gap {worst:.2e} "
          f"<= 1e-6)")


def test_4_conflict_and_replan_scenario(default_env):
    g = default_env
    human = HumanState(15, 6, 0.0, shortest_distance_path(g, 15, 6).nodes)
    predicted = human.predicted_path
    assert predicted == (15, 11, 8, 4, 6)

    unheated, r_unheated = plan_validated_path(g, 25, 17)
    assert unheated.nodes == (25, 10, 11, 14, 17)
    assert 11 in unheated.nodes and 11 in predicted

    heated = apply_heat(g, build_heat_map(g, human, HeatParams()))
    r_original = path_from_nodes(heated, unheated.nodes).success_probability
    assert 0.30 <= r_original <= 0.50

    replanned, r_replanned = plan_validated_path(g, 25, 17, heated=heated)
    assert set(replanned.nodes).isdisjoint(predicted)
    assert r_replanned >= 0.90
    print(f"\ncriterion 4: PASS (conflict at node 11; original "
          f"{r_unheated:.4f} -> heated {r_original:.4f} in [0.30, 0.50]; "
          f"replanned {' -> '.join(map(str, replanned.nodes))} at "
          f"{r_replanned:.4f} >= 0.90)")


def test_5_sweep_trend_shape(full_sweep):
    report, elapsed = full_sweep
    assert elapsed < 600.0
    rows = report.rows
    assert len(rows) == 11
    assert [r.uncertainty for r in rows] == list(DEFAULT_LEVELS)
    for row in rows:
        assert row.success_count + row.fail_count == SWEEP_EPISODES

    s0 = rows[0].success_percent
    s1 = rows[-1].success_percent
    assert s0 >= 95.0
    assert s1 <= s0 - 5.0

    rd = [r.redirect_episode_percent for r in rows]
    peak = max(rd)
    peak_levels = [rows[i].uncertainty for i, v in enumerate(rd)
                   if v == peak]
    assert any(0.1 <= u <= 0.5 for u in peak_levels)
    assert peak > rd[0] and peak > rd[-1]
    assert rd[-1] < rd[0]

    assert rows[-1].max_redirects_per_episode \
        <= rows[3].max_redirects_per_episode
    print(f"\ncriterion 5: PASS (success {s0:.2f}% -> {s1:.2f}%, "
          f"redirect% {rd[0]:.2f} -> peak {peak:.2f} at "
          f"u={peak_levels[0]:g} -> {rd[-1]:.2f}, max redirects "
          f"{rows[3].max_redirects_per_episode} -> "
          f"{rows[-1].max_redirects_per_episode}, "
          f"{SWEEP_EPISODES}x11 in {elapsed:.1f}s < 600s)")


def test_6_sweep_determinism(full_sweep, default_env, default_mission):
    report, _ = full_sweep
    text = summarize(report)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_CSV_SHA256
    base = EpisodeConfig(default_env, default_mission, HeatParams(),
                         0.0, SWEEP_SEED)
    again = summarize(run_sweep(base, DEFAULT_LEVELS, SWEEP_EPISODES,
                                workers=1))
    assert again == text
    parallel = summarize(run_sweep(base, DEFAULT_LEVELS, SWEEP_EPISODES,
                                   workers=2))
    assert parallel == text
    print(f"\ncriterion 6: PASS (CSV SHA-256 pinned, byte-identical "
          f"across a repeat run and worker counts 1 vs 2, {len(text)} bytes)")


def test_7a_heat_preserves_the_probability_simplex():
    rng = np.random.default_rng(701)
    # the second layer draws apart, so the first layers stay as they were
    layer_rng = np.random.default_rng(7011)
    for _ in range(1000):
        g = random_environment(rng, max_nodes=6)
        heat = {key: float(rng.uniform(0.0, 0.999))
                for key in g.edges if rng.random() < 0.5}
        hot = apply_heat(g, heat)
        again = {key: float(layer_rng.uniform(0.0, 0.999))
                 for key in g.edges if layer_rng.random() < 0.5}
        # an overlay keeps only rows, so its effective success must be
        # the one its row gives, and an unheated edge its base's
        for below, over, layer in ((g, hot, heat),
                                   (hot, apply_heat(hot, again), again)):
            for key, edge in g.edges.items():
                now = over.probs(edge)
                assert over.effective(edge) == effective_success(now)
                if not layer.get(key):
                    assert over.effective(edge) == below.effective(edge)
                    continue
                base = below.probs(edge)
                assert abs(now.p_success + now.p_retry + now.p_fail - 1.0) \
                    <= 1e-12
                assert now.p_fail == base.p_fail
                assert 0.0 < now.p_success <= base.p_success
    print("\ncriterion 7a: PASS (simplex preserved and effective success "
          "read off the rows under one and two heat layers, 1000 cases)")


def test_7b_heat_monotonicity_of_chain_validation():
    rng = np.random.default_rng(702)
    cases = 0
    while cases < 1000:
        g = random_environment(rng, max_nodes=6)
        s = int(rng.integers(g.node_count))
        t = int(rng.integers(g.node_count))
        cands = simple_paths(g, s, t)
        if not cands or len(cands[0]) < 2:
            continue
        nodes = cands[int(rng.integers(len(cands)))]
        low = {key: float(rng.uniform(0.0, 0.9)) for key in g.edges}
        high = {key: h + float(rng.uniform(0.0, 0.999 - h))
                for key, h in low.items()}
        p_low = path_from_nodes(apply_heat(g, low), nodes) \
            .success_probability
        p_high = path_from_nodes(apply_heat(g, high), nodes) \
            .success_probability
        assert p_high <= p_low + 1e-12
        cases += 1
    print("\ncriterion 7b: PASS (more heat never raises a chain's "
          "probability, 1000 cases)")


def test_7c_zero_heat_identity():
    rng = np.random.default_rng(703)
    cases = 0
    while cases < 1000:
        g = random_environment(rng, max_nodes=6)
        s = int(rng.integers(g.node_count))
        t = int(rng.integers(g.node_count))
        cands = simple_paths(g, s, t)
        if not cands:
            continue
        nodes = cands[int(rng.integers(len(cands)))]
        hot = apply_heat(g, {key: 0.0 for key in g.edges})
        assert hot.rows == {}
        for edge in g.edges.values():
            assert hot.probs(edge) is g.probs(edge)
        assert path_from_nodes(hot, nodes).success_probability \
            == path_from_nodes(g, nodes).success_probability
        cases += 1
    print("\ncriterion 7c: PASS (zero heat is the identity, 1000 cases)")


def test_7d_probability_path_is_never_beaten():
    # plan_validated_path validates only the maximum-success path; on
    # random heated graphs the distance path, wherever it differs, never
    # validates higher
    rng = np.random.default_rng(704)
    cases = 0
    differing = 0
    while cases < 1000:
        g = random_environment(rng, max_nodes=8)
        hot = apply_heat(g, {key: float(rng.uniform(0.0, 1.0))
                             for key in g.edges if rng.random() < 0.5})
        s = int(rng.integers(g.node_count))
        t = int(rng.integers(g.node_count))
        dist_path = shortest_distance_path(hot, s, t)
        prob_path = max_success_path(hot, s, t)
        r_prob = path_from_nodes(hot, prob_path.nodes).success_probability
        if dist_path.nodes != prob_path.nodes:
            r_dist = path_from_nodes(hot, dist_path.nodes) \
                .success_probability
            assert r_dist <= r_prob
            differing += 1
        path, r = plan_validated_path(g, s, t, heated=hot)
        assert path.nodes == prob_path.nodes
        assert r == r_prob
        cases += 1
    assert differing >= 100
    print(f"\ncriterion 7d: PASS (the distance path never validates above "
          f"the probability path, {differing} of {cases} heated cases "
          f"differ)")


def test_7e_episode_accounting(default_env, default_mission):
    rng = np.random.default_rng(705)
    episodes = 0
    batch = 0
    while episodes < 1000:
        levels = sorted(float(np.round(rng.uniform(0.0, 1.0), 2))
                        for _ in range(2))
        base = EpisodeConfig(default_env, default_mission, HeatParams(),
                             0.0, int(rng.integers(1 << 32)))
        per_level = 125
        report = run_sweep(base, levels, per_level)
        for i, row in enumerate(report.rows):
            assert row.success_count + row.fail_count == per_level
            sample = run_episode(EpisodeConfig(
                default_env, default_mission, HeatParams(),
                levels[i], derive_seed(base.seed, i, 0)))
            assert sample.success == (sample.failure_cause is None)
            episodes += per_level
        batch += 1
    print(f"\ncriterion 7e: PASS (success + fail = episodes over "
          f"{episodes} episodes in {batch} sweeps)")
