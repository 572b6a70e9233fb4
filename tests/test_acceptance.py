"""Acceptance suite: one test per criterion, one printed verdict line each.

Verdict lines print inside each test and are replayed in an
"acceptance criteria" section at the end of the run, so they stay
visible under pytest's output capture; every criterion carries its
tolerance inline.
"""

import time

import numpy as np
from scipy import stats

from alohagame import (
    Game,
    best_response,
    bifurcation_sweep,
    chain_matrix,
    density_sweep,
    fit_power_law,
    is_fixed_point,
    iterate_game,
    kleene_lfp,
    krasovskii_matrix,
    krasovskii_verdict,
    leading_minors,
    max_demand_scale,
    max_probability_scale,
    multistart_fixed_points,
    residual_jacobian,
    size_sweep,
    stability_consistency,
)
from alohagame.game import success_product

import conftest
from conftest import P_SADDLE, Q_STAR, instance_rng, random_game

CHAIN = chain_matrix(3)


def _report(criterion, checks):
    ok = all(passed for passed, _ in checks)
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} | " + "; ".join(
        msg for _, msg in checks
    )
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_chain_fixed_points(chain3):
    start = time.perf_counter()
    solved = kleene_lfp(chain3)
    fps = multistart_fixed_points(chain3)
    elapsed = time.perf_counter() - start

    lfp_err = np.abs(solved.point - Q_STAR).max()
    oracle_has_saddle = any(np.abs(p - P_SADDLE).max() <= 5e-4 for p in fps.points)
    oracle_has_lfp = any(np.abs(p - Q_STAR).max() <= 5e-4 for p in fps.points)
    _report(
        1,
        [
            (solved.converged and lfp_err <= 5e-4, f"iterative NE err={lfp_err:.1e} (tol 5e-4)"),
            (oracle_has_lfp and oracle_has_saddle, f"oracle found both feasible roots ({fps.n_points} points)"),
            (elapsed < 1.0, f"runtime {elapsed:.2f}s < 1s"),
        ],
    )


def test_criterion_2_stability_and_dynamics(chain3):
    fps = multistart_fixed_points(chain3)
    v_star = krasovskii_verdict(fps.points[0], chain3)
    v_saddle = krasovskii_verdict(fps.points[1], chain3)

    from_rates = iterate_game(chain3.rates, chain3, tol=1e-3)
    fast = (
        from_rates.outcome == "converged"
        and len(from_rates.states) - 1 <= 10
        and np.abs(from_rates.final - Q_STAR).max() <= 1e-3
    )

    perturbed = iterate_game(P_SADDLE, chain3, perturb=1e-6)
    cycle_a = np.array([0.1952, 1.0, 0.1952])
    cycle_b = np.array([1.0, 0.2316, 1.0])
    cycle_ok = False
    if perturbed.outcome == "cycle" and perturbed.period == 2:
        pts = perturbed.cycle_points
        cycle_ok = (
            min(
                max(np.abs(pts[0] - cycle_a).max(), np.abs(pts[1] - cycle_b).max()),
                max(np.abs(pts[0] - cycle_b).max(), np.abs(pts[1] - cycle_a).max()),
            )
            <= 1e-3
        )
    _report(
        2,
        [
            (v_star.stable, "least point certified stable"),
            (not v_saddle.stable, "second point certified unstable"),
            (fast, f"from rates: {from_rates.outcome} in {len(from_rates.states) - 1} steps (<=10 at 1e-3)"),
            (cycle_ok, "perturbed saddle run locks into the reported 2-cycle (tol 1e-3)"),
        ],
    )


def test_criterion_3_fold_bifurcation():
    start = time.perf_counter()
    branch = bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], 1, (0.0, 0.30), 0.001)
    elapsed = time.perf_counter() - start

    value_err = abs(branch.critical_value - 0.246)
    point_err = np.abs(branch.critical_point - [0.3138, 0.5223, 0.3138]).max()
    critical_game = Game(CHAIN, [0.15, branch.critical_value, 0.15])
    minors = leading_minors(krasovskii_matrix(branch.critical_point, critical_game))
    smallest = np.abs(minors).min()
    _report(
        3,
        [
            (value_err <= 0.001 + 1e-9, f"critical value {branch.critical_value:.3f} (0.246 +-0.001)"),
            (point_err <= 1e-3, f"critical point err={point_err:.1e} (tol 1e-3)"),
            (smallest < 0.05, f"smallest |minor| {smallest:.3f} < 0.05 (vanishing eigenvalue)"),
            (elapsed < 60.0, f"runtime {elapsed:.1f}s < 60s"),
        ],
    )


def test_criterion_4_sum_rate_scaling(chain3):
    demand = max_demand_scale(chain3)
    q_star = kleene_lfp(chain3).point
    prob = max_probability_scale(chain3, q_star)

    _report(
        4,
        [
            (abs(demand.factor - 1.27) <= 0.01, f"demand factor {demand.factor:.2f} (1.27 +-0.01)"),
            (abs(demand.sum_rate - 0.5715) <= 0.002, f"demand sum rate {demand.sum_rate:.4f} (0.5715 +-0.002)"),
            (
                np.abs(demand.point - [0.3336, 0.4290, 0.3336]).max() <= 1e-3,
                "demand-scaled equilibrium within 1e-3",
            ),
            (abs(prob.factor - 1.94) <= 0.01, f"probability factor {prob.factor:.2f} (1.94 +-0.01)"),
            (abs(prob.sum_rate - 0.5905) <= 0.002, f"probability sum rate {prob.sum_rate:.4f} (0.5905 +-0.002)"),
            (
                np.abs(prob.point - [0.3787, 0.4493, 0.3787]).max() <= 1e-3,
                "probability-scaled point within 1e-3",
            ),
        ],
    )


def test_criterion_5_fully_connected_baseline():
    _, baselines, _ = size_sweep(
        0.1, [10, 20, 30, 40, 50], trials=1, seed=1, include_fully_connected=True
    )
    totals = {r.n: r.total_throughput for r in baselines}
    worst = max(abs(t - 0.37) for t in totals.values())
    _report(
        5,
        [
            (sorted(totals) == [10, 20, 30, 40, 50], f"baselines for n={sorted(totals)}"),
            (
                all(abs(t - 0.37) <= 0.05 for t in totals.values()),
                f"totals {[round(t, 3) for n, t in sorted(totals.items())]} within 0.37 +-0.05 "
                f"(worst dev {worst:.3f})",
            ),
        ],
    )


def test_criterion_6_connectivity_power_law():
    start = time.perf_counter()
    drecs, dsummary = density_sweep(
        20, [0.008, 0.02, 0.05, 0.15, 0.5, 2.0], trials=30, seed=2024
    )
    srecs, _, _ = size_sweep(
        0.1, [10, 20, 30, 40, 60], trials=30, seed=4025, include_fully_connected=False
    )
    xrecs, _, _ = size_sweep(
        0.03, [20, 40, 60], trials=30, seed=77, include_fully_connected=False
    )
    elapsed = time.perf_counter() - start

    pool = drecs + srecs + xrecs
    x = np.array([r.connectivity for r in pool])
    y = np.array([r.total_throughput for r in pool])
    keep = (x > 0.0) & (y > 0.0)
    fit = fit_power_law(x[keep], y[keep], break_x=0.1)
    rho = stats.spearmanr(x[keep], y[keep]).statistic

    densities = [row["mean_total_throughput"] for row in dsummary]
    monotone = all(a >= b - 0.05 for a, b in zip(densities, densities[1:]))

    _report(
        6,
        [
            (rho < -0.8, f"hard gate: Spearman rho={rho:.3f} < -0.8"),
            (abs(fit.e_low - (-0.47)) <= 0.15, f"low exponent {fit.e_low:.3f} (-0.47 +-0.15)"),
            (abs(fit.e_high - (-0.82)) <= 0.15, f"high exponent {fit.e_high:.3f} (-0.82 +-0.15)"),
            (abs(fit.c_high - 0.37) <= 0.1, f"high coefficient {fit.c_high:.3f} (0.37 +-0.1)"),
            (monotone, "mean throughput nonincreasing in density"),
            (elapsed < 600.0, f"runtime {elapsed:.0f}s < 600s ({keep.sum()} records)"),
        ],
    )


def test_criterion_7_property_suites():
    master = 20240
    n_instances = 1000
    fails = {
        "containment": 0,
        "dominance": 0,
        "monotone": 0,
        "ascending": 0,
        "lfp_below_roots": 0,
        "init_independent": 0,
        "consistency_violation": 0,
        "jacobian_fd": 0,
        "dominance_implies_pd": 0,
        "root_certificate": 0,
    }
    init_skipped = 0
    jacobian_tested = 0

    for i in range(n_instances):
        rng = instance_rng(master, i)
        game = random_game(rng)
        n = game.n

        for _ in range(3):
            q = rng.uniform(0.0, 1.0, n)
            f = best_response(q, game)
            if not ((f >= 0.0).all() and (f <= 1.0).all()):
                fails["containment"] += 1
            if not (f >= game.rates).all():
                fails["dominance"] += 1
            higher = np.minimum(q + rng.uniform(0.0, 1.0, n), 1.0)
            if not (best_response(q, game) <= best_response(higher, game)).all():
                fails["monotone"] += 1

        q = np.zeros(n)
        for _ in range(5000):
            f = best_response(q, game)
            if not (f >= q).all():
                fails["ascending"] += 1
                break
            if np.abs(f - q).max() <= 1e-12:
                break
            q = f

        from_zero = kleene_lfp(game, tol=1e-12, max_iter=200_000)
        from_inside = kleene_lfp(game, rng.uniform(0.0, game.rates), tol=1e-12, max_iter=200_000)
        if from_zero.converged and from_inside.converged:
            if np.abs(from_zero.point - from_inside.point).max() > 1e-8:
                fails["init_independent"] += 1
        else:
            init_skipped += 1

        fps = multistart_fixed_points(game, starts_per_axis=4, max_iter=50)
        for root in fps.points:
            if not is_fixed_point(root, game, tol=1e-9):
                fails["root_certificate"] += 1
            try:
                verdict = krasovskii_verdict(root, game, fp_tol=1e-6)
            except ValueError:
                continue
            if verdict.diag_dominant and not verdict.positive_definite:
                fails["dominance_implies_pd"] += 1
        if from_zero.converged:
            for root in fps.interior_points():
                if not (from_zero.point <= root + 1e-8).all():
                    fails["lfp_below_roots"] += 1
        if stability_consistency(fps, game).violation:
            fails["consistency_violation"] += 1

        q = rng.uniform(0.02, 0.6, n)
        unclipped = (success_product(q, game.matrix) > game.rates / 0.98).all()
        if unclipped:
            jacobian_tested += 1
            analytic = residual_jacobian(q, game) + np.eye(n)
            h = 1e-5
            fd = np.zeros((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd[:, j] = (best_response(q + e, game) - best_response(q - e, game)) / (2 * h)
            if not (np.abs(fd - analytic) <= 1e-6 * np.maximum(1.0, np.abs(analytic))).all():
                fails["jacobian_fd"] += 1

    checks = [(count == 0, f"{name}: {count} failures") for name, count in fails.items()]
    checks.append((init_skipped <= 10, f"{init_skipped} unconverged init comparisons (<=10)"))
    checks.append((jacobian_tested >= 500, f"{jacobian_tested} unclipped Jacobian samples (>=500)"))
    _report(7, checks)
