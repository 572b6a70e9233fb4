import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
from scipy import ndimage

import alohagame
from alohagame import (
    PD_TOL,
    Game,
    StabilityVerdict,
    FixedPointSet,
    best_response,
    bifurcation_sweep,
    chain_matrix,
    diag_dominant,
    kleene_lfp,
    krasovskii_matrix,
    krasovskii_verdict,
    leading_minors,
    lyapunov_value,
    multistart_fixed_points,
    residual,
    residual_jacobian,
    roa_estimate,
    stability_consistency,
    sylvester_pd,
)
from alohagame.game import is_fixed_point, success_product
from alohagame.stability import _component
from conftest import P_SADDLE, Q_STAR, random_game

CHAIN = chain_matrix(3)


class TestJacobian:
    def test_single_player(self):
        g = Game(np.zeros((1, 1)), [0.4])
        assert np.array_equal(residual_jacobian([0.2], g), [[-1.0]])

    def test_edgeless_is_negative_identity(self):
        g = Game(np.zeros((3, 3)), [0.1, 0.2, 0.3])
        assert np.array_equal(residual_jacobian([0.3, 0.5, 0.7], g), -np.eye(3))

    def test_chain_entry_at_equilibrium(self, chain3):
        # at a fixed point the response equals the point itself, so
        # J_12 = q*_1 / (1 - q*_2), which is 0.2540 at the chain NE
        point = kleene_lfp(chain3, tol=1e-13).point
        jac = residual_jacobian(point, chain3)
        assert jac[0, 1] == pytest.approx(point[0] / (1.0 - point[1]), abs=1e-10)
        assert jac[0, 1] == pytest.approx(0.2540, abs=1e-4)
        assert jac[0, 2] == 0.0
        assert np.array_equal(np.diag(jac), [-1.0, -1.0, -1.0])

    def test_matches_central_differences(self, chain3):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            q = rng.uniform(0.02, 0.55, 3)
            analytic = residual_jacobian(q, chain3) + np.eye(3)
            fd = np.zeros((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (best_response(q + e, chain3) - best_response(q - e, chain3)) / (2 * h)
            assert np.abs(fd - analytic).max() <= 1e-6 * max(1.0, np.abs(analytic).max())

    def test_saturated_row_is_flat(self, chain3):
        # player 1's quotient is 0.15/0.05 = 3, clipped: its row derivative is 0
        jac = residual_jacobian([0.1, 0.95, 0.1], chain3)
        assert jac[0, 1] == 0.0
        assert jac[1, 0] != 0.0

    def test_neighbour_at_one_rejected(self, chain3):
        with pytest.raises(ValueError, match="singular"):
            residual_jacobian([0.1, 1.0, 0.1], chain3)


class TestKrasovskiiMatrix:
    def test_edgeless_gives_twice_identity(self):
        g = Game(np.zeros((3, 3)), [0.1, 0.2, 0.3])
        assert np.array_equal(krasovskii_matrix([0.4, 0.4, 0.4], g), 2.0 * np.eye(3))

    def test_chain_entries_at_equilibrium(self, chain3):
        point = kleene_lfp(chain3, tol=1e-13).point
        c = krasovskii_matrix(point, chain3)
        expected_12 = -(point[0] / (1 - point[1]) + point[1] / (1 - point[0]))
        assert c[0, 1] == pytest.approx(expected_12, abs=1e-10)
        assert c[0, 1] == pytest.approx(-0.5418, abs=1e-4)
        assert c[0, 2] == 0.0

    def test_symmetric_with_diagonal_two(self, chain3):
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = rng.uniform(0.0, 0.9, 3)
            c = krasovskii_matrix(q, chain3)
            assert np.array_equal(c, c.T)
            assert np.array_equal(np.diag(c), [2.0, 2.0, 2.0])

    def test_saddle_off_diagonals_exceed_two(self, chain3):
        c = krasovskii_matrix(P_SADDLE, chain3)
        assert np.abs(c[0, 1]) > 2.0


class TestSylvester:
    def test_scaled_identity(self):
        pd, minors = sylvester_pd(2.0 * np.eye(3))
        assert pd
        assert np.allclose(minors, [2.0, 4.0, 8.0])

    def test_chain_equilibria_classified(self, chain3):
        assert sylvester_pd(krasovskii_matrix(Q_STAR, chain3))[0]
        assert not sylvester_pd(krasovskii_matrix(P_SADDLE, chain3))[0]

    def test_agrees_with_eigenvalues_on_random_symmetric_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = rng.normal(size=(n, n))
            c = (m + m.T) / 2
            by_minors = sylvester_pd(c)[0]
            by_eigs = bool(np.linalg.eigvalsh(c).min() > 1e-12)
            assert by_minors == by_eigs

    def test_minor_count(self):
        minors = leading_minors(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(minors, [1.0, 2.0, 6.0, 24.0])


def _stacks():
    """Random games with rate-0 players and stacks of points of shape (3, 4, n).

    The points reach 0.95, so many responses saturate; one hand-built
    stack also sits exactly on the saturation boundary rate == product.
    """
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = (rng.random((n, n)) < 0.6).astype(int)
        np.fill_diagonal(a, 0)
        y = rng.uniform(0.0, 0.6, n)
        y[rng.random(n) < 0.25] = 0.0
        yield Game(a, y), rng.uniform(0.0, 0.95, (3, 4, n))
    edge = np.array([[0.3, 0.5], [0.5, 0.5], [0.0, 0.2], [0.9, 0.5]])
    yield Game(chain_matrix(2), [0.5, 0.0]), edge.reshape(2, 2, 2)


class TestStackedInput:
    def test_stacks_cover_saturated_and_silent_rows(self):
        saturated = silent = 0
        for game, q in _stacks():
            raw = game.rates / success_product(q, game.matrix)
            saturated += int(((raw >= 1.0) & (game.rates > 0.0)).sum())
            silent += int((game.rates == 0.0).sum())
        assert saturated > 50 and silent > 10

    def test_matches_per_point_loop(self):
        for game, q in _stacks():
            n = game.n
            points = q.reshape(-1, n)
            jac = residual_jacobian(q, game)
            assert jac.shape == q.shape + (n,)
            loop = np.stack([residual_jacobian(p, game) for p in points])
            assert np.array_equal(jac.reshape(-1, n, n), loop)

            c = krasovskii_matrix(q, game)
            loop = np.stack([krasovskii_matrix(p, game) for p in points])
            assert np.array_equal(c.reshape(-1, n, n), loop)

            minors = leading_minors(c)
            assert minors.shape == q.shape
            loop = np.stack([leading_minors(m) for m in c.reshape(-1, n, n)])
            assert np.array_equal(minors.reshape(-1, n), loop)

            pd, pd_minors = sylvester_pd(c)
            assert pd.shape == q.shape[:-1]
            loop = [sylvester_pd(m) for m in c.reshape(-1, n, n)]
            assert all(type(ok) is bool for ok, _ in loop)
            assert np.array_equal(pd.ravel(), [ok for ok, _ in loop])
            assert np.array_equal(pd_minors.reshape(-1, n), np.stack([m for _, m in loop]))


class TestDiagDominance:
    def test_edgeless(self):
        g = Game(np.zeros((3, 3)), [0.1, 0.1, 0.1])
        assert diag_dominant([0.1, 0.1, 0.1], g)

    def test_chain_equilibrium_rows_under_two(self, chain3):
        # middle row carries both couplings: 2 * 0.5418 < 2
        assert diag_dominant(Q_STAR, chain3)

    def test_saddle_violates(self, chain3):
        assert not diag_dominant(P_SADDLE, chain3)

    def test_dominance_implies_positive_definite(self, chain3):
        for point in multistart_fixed_points(chain3).points:
            if diag_dominant(point, chain3):
                assert sylvester_pd(krasovskii_matrix(point, chain3))[0]


class TestVerdict:
    def test_equilibrium_stable(self, chain3):
        v = krasovskii_verdict(Q_STAR, chain3, fp_tol=1e-3)
        assert v.stable and v.classification == "stable" and not v.clipped
        assert v.diag_dominant

    def test_saddle_unstable(self, chain3):
        v = krasovskii_verdict(P_SADDLE, chain3, fp_tol=1e-3)
        assert not v.stable and v.classification == "unstable"

    def test_near_fold_minor_vanishes(self):
        # at the merge point of the two equilibria the certificate sits on
        # the definiteness boundary; compare with the order-one minors at
        # interior stable points
        g = Game(CHAIN, [0.15, 0.246, 0.15])
        v = krasovskii_verdict([0.3138, 0.5223, 0.3138], g, fp_tol=1e-3)
        assert np.abs(v.leading_minors).min() < 0.06

    def test_non_fixed_point_rejected(self, chain3):
        with pytest.raises(ValueError, match="fixed point"):
            krasovskii_verdict([0.5, 0.5, 0.5], chain3)

    def test_saturated_boundary_point_flagged_clipped(self):
        g = Game(np.zeros((1, 1)), [1.0])
        v = krasovskii_verdict([1.0], g, fp_tol=1e-12)
        assert v.clipped and v.stable

    def test_all_ones_is_singular_for_the_certificate(self, chain3):
        with pytest.raises(ValueError, match="singular"):
            krasovskii_verdict(np.ones(3), chain3, fp_tol=1e-9)


def _count_best_response(monkeypatch) -> list:
    """Rebind ``best_response`` in every package module to a counting wrapper; returns the counter."""
    calls = [0]

    def counted(q, game):
        calls[0] += 1
        return best_response(q, game)

    for info in pkgutil.iter_modules(alohagame.__path__):
        module = importlib.import_module(f"alohagame.{info.name}")
        if getattr(module, "best_response", None) is best_response:
            monkeypatch.setattr(module, "best_response", counted)
    return calls


class TestVerdictEvaluations:
    def test_one_response_evaluation_per_verdict(self, monkeypatch, chain3):
        calls = _count_best_response(monkeypatch)
        verdict = krasovskii_verdict(multistart_fixed_points(chain3).points[0], chain3)
        calls[0] = 0
        krasovskii_verdict(verdict.point, chain3)
        assert calls[0] == 1

    def test_fold_sweep_response_evaluations(self, monkeypatch):
        calls = _count_best_response(monkeypatch)
        bifurcation_sweep(CHAIN, [0.15, 0.15, 0.15], 1, (0.0, 0.30), 0.005)
        assert calls[0] <= 160


def _reference_verdict(q_s, game, fp_tol):
    """The certificate as three separate evaluations of the response map give it."""
    q = np.asarray(q_s, dtype=float)
    if not is_fixed_point(q, game, fp_tol):
        res = float(np.abs(residual(q, game)).max())
        raise ValueError(f"not a fixed point at tolerance {fp_tol:g} (residual {res:.3e})")
    pd, minors = sylvester_pd(krasovskii_matrix(q, game))
    if (minors > PD_TOL).all():
        classification = "stable"
    elif (minors > -PD_TOL).all():
        classification = "critical"
    else:
        classification = "unstable"
    return StabilityVerdict(
        point=q.copy(),
        leading_minors=minors,
        positive_definite=pd,
        diag_dominant=diag_dominant(q, game),
        classification=classification,
        clipped=bool(((best_response(q, game) >= 1.0) & (game.rates > 0.0)).any()),
    )


def _outcome(verdict, *args) -> dict:
    """Every field of the verdict, arrays as (dtype, shape, bytes) so NaN and -0.0 compare bitwise; or the error."""
    try:
        got = verdict(*args)
    except ValueError as exc:
        return {"raised": str(exc)}
    values = {f.name: getattr(got, f.name) for f in dataclasses.fields(got)}
    return {
        name: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else (type(v), v)
        for name, v in values.items()
    }


def _reference_cases():
    """Random games (n 1-4) with points that exercise every branch of the verdict."""
    rng = np.random.default_rng(1931)
    for _ in range(180):
        game = random_game(rng)
        if rng.random() < 0.2:
            # silent players: rates of 0
            y = game.rates.copy()
            y[rng.random(game.n) < 0.5] = 0.0
            game = Game(game.matrix, y)
        points = list(multistart_fixed_points(game).points)
        points += [rng.uniform(0.0, 0.95, game.n), rng.uniform(0.0, 0.95, game.n)]
        points += [np.ones(game.n), game.rates.copy(), np.full(game.n, np.nan)]
        # a neighbour close to 1 saturates the rows it interferes with
        crowded = rng.uniform(0.0, 0.3, game.n)
        crowded[int(rng.integers(0, game.n))] = 0.99
        points.append(crowded)
        for q in points:
            yield game, q
    # the pair's fold point, where the certificate's minors are exactly [2, 0]
    yield Game(chain_matrix(2), [0.25, 0.25]), np.array([0.5, 0.5])


class TestVerdictReference:
    def test_matches_separate_evaluations(self):
        cases = list(_reference_cases())
        saturated = silent = 0
        seen = set()
        for game, q in cases:
            saturated += bool(((best_response(q, game) >= 1.0) & (game.rates > 0.0)).any())
            silent += bool((game.rates == 0.0).any())
            for fp_tol in (1e-6, 1e-3, 1.0):
                want = _outcome(_reference_verdict, q, game, fp_tol)
                assert _outcome(krasovskii_verdict, q, game, fp_tol) == want, (game, q, fp_tol)
                seen.add(want["raised"].split()[0] if "raised" in want else want["classification"][1])
        assert 3 * len(cases) >= 3000
        assert seen == {"not", "Jacobian", "stable", "critical", "unstable"}
        assert saturated > 100 and silent > 50

    @pytest.mark.parametrize("fp_tol", [0.0, -1e-6])
    def test_non_positive_tolerance_rejected(self, chain3, fp_tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            krasovskii_verdict(multistart_fixed_points(chain3).points[0], chain3, fp_tol=fp_tol)

    def test_nan_tolerance_rejected(self, chain3):
        with pytest.raises(ValueError, match="tol must be positive"):
            krasovskii_verdict(Q_STAR, chain3, fp_tol=float("nan"))


class TestLyapunov:
    def test_zero_at_fixed_point(self, chain3):
        point = kleene_lfp(chain3, tol=1e-13).point
        assert lyapunov_value(point, chain3) <= 1e-24

    def test_at_origin(self, chain3):
        assert lyapunov_value(np.zeros(3), chain3) == pytest.approx(3 * 0.15**2, abs=1e-15)


class TestRoaEstimate:
    def test_chain_start_region_inside(self, chain3):
        point = kleene_lfp(chain3).point
        roa = roa_estimate(chain3, point)
        assert roa.contains(point)
        for a in (0.01, 0.14):
            for b in (0.01, 0.14):
                for c in (0.01, 0.14):
                    assert roa.contains([a, b, c])

    def test_saddle_outside(self, chain3):
        roa = roa_estimate(chain3, kleene_lfp(chain3).point)
        assert not roa.contains(P_SADDLE)

    def test_edgeless_marks_everything(self):
        g = Game(np.zeros((2, 2)), [0.3, 0.3])
        roa = roa_estimate(g, kleene_lfp(g).point, resolution=11)
        assert roa.mask.all()

    def test_empty_when_the_equilibrium_cell_is_not_certified(self):
        # q* = (0.224, 0.554) is stable, but the center (0.25, 0.75) of
        # its cell at resolution 2 is not positive definite
        g = Game(chain_matrix(2), [0.1, 0.43])
        q_star = kleene_lfp(g).point
        assert krasovskii_verdict(q_star, g).stable
        roa = roa_estimate(g, q_star, resolution=2)
        assert roa.cell_of(q_star) == (0, 1)
        assert roa.pd_mask.any() and not roa.pd_mask[0, 1]
        assert roa.mask.dtype == bool and not roa.mask.any()
        assert not roa.contains(q_star)

    def test_unstable_point_rejected(self, chain3):
        saddle = multistart_fixed_points(chain3).points[1]
        assert np.abs(saddle - P_SADDLE).max() < 1e-4
        with pytest.raises(ValueError, match="stable"):
            roa_estimate(chain3, saddle)

    def test_size_limit(self):
        g = Game(np.zeros((5, 5)), np.full(5, 0.1))
        with pytest.raises(ValueError, match="players"):
            roa_estimate(g, np.full(5, 0.1), resolution=5)

    @pytest.mark.parametrize("which", ["chain3", "random4"])
    def test_pd_mask_is_the_pointwise_certificate(self, which, chain3):
        if which == "chain3":
            game, resolution = chain3, 21
        else:
            rng = np.random.default_rng(41)
            a = (rng.random((4, 4)) < 0.5).astype(int)
            np.fill_diagonal(a, 0)
            game, resolution = Game(a, rng.uniform(0.02, 0.15, 4)), 9
        roa = roa_estimate(game, kleene_lfp(game).point, resolution=resolution)
        assert 0 < roa.pd_mask.sum() < roa.pd_mask.size
        centers = roa.cell_centers
        for idx in np.ndindex(roa.pd_mask.shape):
            pd, _ = sylvester_pd(krasovskii_matrix(centers[list(idx)], game))
            assert roa.pd_mask[idx] == pd, idx


def _labelled_component(pd_mask, cell):
    """Reference: the component scipy's face-connectivity labeller gives."""
    labels, _ = ndimage.label(pd_mask)
    return labels == labels[cell] if labels[cell] else np.zeros_like(pd_mask)


class TestRoaComponent:
    def test_random_masks(self):
        rng = np.random.default_rng(8)
        max_side = {1: 60, 2: 25, 3: 10, 4: 6}
        for _ in range(3000):
            n = int(rng.integers(1, 5))
            side = int(rng.integers(2, max_side[n] + 1))
            pd_mask = rng.random((side,) * n) < rng.uniform(0.2, 0.9)
            cell = tuple(int(i) for i in rng.integers(0, side, n))
            got = _component(pd_mask, cell)
            assert got.dtype == bool
            assert np.array_equal(got, _labelled_component(pd_mask, cell)), (pd_mask, cell)

    @pytest.mark.parametrize("side", [5, 12, 21])
    def test_winding_masks(self, side):
        # a serpentine corridor, alone and stacked on its transpose
        snake = np.ones((side, side), dtype=bool)
        snake[1::2] = False
        snake[1::4, -1] = True
        snake[3::4, 0] = True
        layers = np.zeros((2, side, side), dtype=bool)
        layers[0], layers[1] = snake, snake.T
        for pd_mask in (snake, layers):
            # starts along a diagonal: corridor and wall cells
            for cell in (tuple(i % d for d in pd_mask.shape) for i in range(side)):
                want = _labelled_component(pd_mask, cell)
                assert np.array_equal(_component(pd_mask, cell), want), cell
        assert _component(snake, (0, 0)).all(axis=1)[::2].all()

    def test_estimates_match_the_labeller(self, chain3):
        rng = np.random.default_rng(41)
        a = (rng.random((4, 4)) < 0.5).astype(int)
        np.fill_diagonal(a, 0)
        cases = [
            (chain3, 21),
            (chain3, 41),
            (Game(a, rng.uniform(0.02, 0.15, 4)), 9),
            (Game(chain_matrix(4), np.full(4, 0.12)), 21),
            (Game(np.zeros((2, 2)), [0.3, 0.3]), 11),
            (Game(chain_matrix(2), [0.1, 0.43]), 2),
        ]
        for game, resolution in cases:
            q_star = kleene_lfp(game).point
            roa = roa_estimate(game, q_star, resolution=resolution)
            assert np.array_equal(roa.mask, _labelled_component(roa.pd_mask, roa.cell_of(q_star)))


class TestConsistency:
    def test_chain_least_stable_no_violation(self, chain3):
        report = stability_consistency(multistart_fixed_points(chain3), chain3)
        assert report.least_stable is True
        assert not report.violation
        assert len(report.verdicts) == 2

    def test_past_fold_vacuous(self):
        g = Game(CHAIN, [0.15, 0.30, 0.15])
        report = stability_consistency(multistart_fixed_points(g), g)
        assert report.least_point is None
        assert not report.violation

    def test_non_fixed_points_rejected(self, chain3):
        fps = FixedPointSet(points=[np.array([0.5, 0.5, 0.5])])
        with pytest.raises(ValueError, match="fixed point"):
            stability_consistency(fps, chain3)
