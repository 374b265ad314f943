"""Acceptance suite: one test per exit criterion, stated tolerances pinned.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines (they are printed after the asserts succeed).
"""

import json
import math
import time

import numpy as np

from fuzzymetrics import (
    compactness_conditions_report,
    d_infty_parametric,
    dgn_bound,
    exact_H_profile,
    family_modulus_oracle,
    hausdorff_interval,
    hausdorff_support_2d,
    alpha_cut,
    level_convergence_report,
    level_distance_profile,
    lift_segment,
    make_limit,
    make_un,
    random_family,
)
from fuzzymetrics.cli import run
from fuzzymetrics.counterexample import member_sequence
from fuzzymetrics.serialize import dumps

ONE_THIRD = 1.0 / 3.0


def test_criterion_1_counterexample_distance_exactly_one():
    start = time.perf_counter()
    lim = make_limit()
    for n in range(1, 101):
        enc = d_infty_parametric(make_un(n), lim, tol=1e-9)
        assert enc.lower <= 1.0 <= enc.upper
        assert enc.width <= 1e-9
        assert enc.attained is False
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: d_infty(u_n, u) = 1 exactly for n = 1..100, "
          f"enclosure width <= 1e-9, never attained ({elapsed:.2f} s)")


def test_criterion_2_level_convergence_everywhere():
    start = time.perf_counter()
    grid = np.union1d(np.linspace(0.0, 1.0, 101), [ONE_THIRD + 10.0 ** -k for k in range(2, 7)])
    report = level_convergence_report(member_sequence(), make_limit(), grid, eps=1e-3, n_max=100_000)
    assert report.converged
    assert all(e.first_index is not None for e in report.entries)

    # N grows without bound as the level drops toward 1/3: the closed form
    # inverts to N ~ |ln(3a/2 - 1/2)| / eps, strictly increasing per decade
    by_alpha = {e.alpha: e.first_index for e in report.entries}
    cluster = [by_alpha[ONE_THIRD + 10.0 ** -k] for k in range(2, 7)]
    assert all(n1 < n2 for n1, n2 in zip(cluster, cluster[1:]))
    for k, n_found in zip(range(2, 7), cluster):
        t = 1.5 * (ONE_THIRD + 10.0 ** -k) - 0.5
        predicted = math.ceil(math.log(t) / math.log1p(-1e-3))
        assert abs(n_found - predicted) <= 1

    spot = level_convergence_report(
        member_sequence(), make_limit(), [0.0, 2 / 3, 1.0], eps=0.1, n_max=1000
    )
    n_at_two_thirds = {e.alpha: e.first_index for e in spot.entries}[2 / 3]
    assert n_at_two_thirds == 7  # closed-form inversion: ceil(ln .5 / ln .9)
    assert math.ceil(math.log(0.5) / math.log(0.9)) == 7

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 PASS: level convergence reached at all "
          f"{len(report.entries)} levels, N(2/3, 0.1) = 7 ({elapsed:.2f} s)")


def test_criterion_3_modulus_bound_domination():
    start = time.perf_counter()
    alphas = np.linspace(ONE_THIRD + 1e-3, 7.0 / 9.0, 50)
    deltas = [2.0 ** -k for k in range(2, 21)]
    checked = 0
    for alpha in alphas.tolist():
        for delta in deltas:
            if alpha - delta <= ONE_THIRD:
                continue
            beta = alpha - delta
            oracle = family_modulus_oracle(alpha, beta, n_max=2000)
            bound = dgn_bound(alpha, delta, beta)
            assert oracle <= bound + 1e-12, (alpha, delta, oracle, bound)
            checked += 1
    assert checked >= 500
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3 PASS: worst-member modulus dominated by the quotient "
          f"bound at {checked} admissible lattice nodes ({elapsed:.2f} s)")


def test_criterion_4_closed_form_generic_agreement():
    start = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 10_000)
    lim = make_limit()
    worst = 0.0
    for n in range(1, 101):
        generic = level_distance_profile(make_un(n), lim, grid)
        closed = exact_H_profile(n, grid)
        worst = max(worst, float(np.max(np.abs(generic.h - closed))))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 PASS: closed-form and generic profiles agree to "
          f"{worst:.1e} over 10^4 levels x 100 members ({elapsed:.2f} s)")


def test_criterion_5_refutation_cli(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "refutation.json"
    code = run(["counterexample", "--n-max", "100", "--strict", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        doc = json.load(fh)
    report = doc["report"]
    conclusion = report["conclusion"]
    assert conclusion["support_bounded"] is True
    assert conclusion["equi_left_continuous"] is True
    assert conclusion["level_convergent"] is True
    assert conclusion["supremum_distance_to_limit"] == 1.0
    assert conclusion["compact_in_supremum_metric"] is False
    assert conclusion["criterion_refuted"] is True
    assert report["supremum_distance"]["all_equal_one"] is True
    assert len(report["supremum_distance"]["entries"]) == 100
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 5 PASS: strict refutation run exits 0 with all "
          f"conditions verified and the non-compactness flagged ({elapsed:.2f} s)")


def test_criterion_6_metric_axioms_random_triples():
    start = time.perf_counter()
    for seed in range(10_000):
        a, b, c = random_family(seed=seed, count=3, levels=6)
        dab = d_infty_parametric(a, b).upper
        dba = d_infty_parametric(b, a).upper
        assert dab == dba
        assert dab >= 0.0
        assert d_infty_parametric(a, c).upper <= dab + d_infty_parametric(b, c).upper + 1e-12
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 6 PASS: exact symmetry and triangle inequality within "
          f"1e-12 on 10^4 random triples ({elapsed:.2f} s)")


def test_criterion_7_uniform_grid_underestimates():
    start = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 100)  # step 1/99, about 0.01
    u5, lim = make_un(5), make_limit()
    grid_value = level_distance_profile(u5, lim, grid).max()

    inner = 1.5 * grid + np.full_like(grid, -0.5)
    pos = inner > 0
    oracle = float(np.max(1.0 - inner[pos] ** (1.0 / 5.0)))
    assert grid_value == oracle
    assert grid_value <= 0.6
    assert abs(grid_value - 0.5673953205154456) <= 1e-12

    enc = d_infty_parametric(u5, lim, tol=1e-9)
    assert enc.lower <= 1.0 <= enc.upper and enc.width <= 1e-9
    assert enc.lower - grid_value >= 0.4  # the gap the enclosure is for
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 7 PASS: uniform grid reports {grid_value:.4f} <= 0.6 "
          f"while the enclosure certifies 1 ({elapsed:.2f} s)")


def test_criterion_8_condition_overlap_identical_objects():
    start = time.perf_counter()
    for seed in range(100):
        diag = compactness_conditions_report(random_family(seed=seed, count=5, levels=6))
        level_topology = diag.condition_verdicts["level_topology_criterion"]
        supremum = diag.condition_verdicts["supremum_metric_criterion"]
        assert level_topology["support_bounded"] is supremum["support_bounded"]
        assert level_topology["equi_continuity"]["left"] is supremum["equi_left_continuity"]
        assert dumps(level_topology["support_bounded"]) == dumps(supremum["support_bounded"])
        assert dumps(level_topology["equi_continuity"]["left"]) == dumps(
            supremum["equi_left_continuity"]
        )
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 8 PASS: shared sub-verdicts are the same objects for "
          f"100 random families ({elapsed:.2f} s)")


def test_criterion_9_planar_lift_consistency():
    start = time.perf_counter()
    numbers = random_family(seed=77, count=100, levels=5)
    bodies = [lift_segment(u) for u in numbers]
    for (u, bu), (v, bv) in zip(zip(numbers, bodies), zip(numbers[1:], bodies[1:])):
        for i, a in enumerate(u.grid.levels.tolist()):
            expected = hausdorff_interval(alpha_cut(u, a), alpha_cut(v, a))
            assert hausdorff_support_2d(bu.body(i), bv.body(i)) == expected
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 9 PASS: support-sample Hausdorff equals interval "
          f"Hausdorff exactly on 100 lifted numbers ({elapsed:.2f} s)")
