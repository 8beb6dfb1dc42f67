"""Trajectory fitting: interpolation, least squares, ridge, and the benchmark."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from motionsketch import (
    BasisKind,
    ConditioningError,
    DomainError,
    FitMethod,
    FitReport,
    FitSamples,
    TrackSet,
    ValidationError,
    evaluate_fit,
    fit_interpolation,
    fit_least_squares,
    fit_ridge,
    fit_ridge_columns,
    fit_trajectory,
    make_benchmark_tracks,
    run_fit_benchmark,
)
from motionsketch.bernstein import basis_matrix
from motionsketch.fitting import interpolation_frame_indices


def samples_from_coeffs(coeffs, num_frames, basis=BasisKind.BERNSTEIN):
    times = np.linspace(0.0, 1.0, num_frames)
    design = basis_matrix(basis, coeffs.shape[0] - 1, times)
    return FitSamples(times=times, positions=design @ coeffs), times


def noisy_sinusoid_samples(rng, num_frames, amplitude=100.0):
    times = np.linspace(0.0, 1.0, num_frames)
    x = amplitude * np.sin(2 * np.pi * np.sqrt(2) * times) + rng.uniform(-0.5, 0.5, num_frames)
    y = amplitude * np.cos(2 * np.pi * np.sqrt(3) * times) + rng.uniform(-0.5, 0.5, num_frames)
    return FitSamples(times=times, positions=np.stack([x, y], axis=1))


class TestFitSamples:
    def test_rejects_unnormalized_times(self):
        with pytest.raises(ValidationError):
            FitSamples(times=np.array([0.0, 0.5, 0.9]), positions=np.zeros((3, 2)))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            FitSamples(times=np.array([0.0, 0.5, 0.5, 1.0]), positions=np.zeros((4, 2)))


class TestInterpolation:
    def test_linear_motion_exact(self):
        times = np.linspace(0.0, 1.0, 7)
        positions = np.stack([3 * times + 1, -2 * times], axis=1)
        traj = fit_interpolation(FitSamples(times, positions), 1)
        report = evaluate_fit(traj, FitSamples(times, positions))
        assert report.mae < 1e-9

    def test_recovers_degree_five_coefficients(self, rng):
        coeffs = rng.uniform(-20, 20, (6, 2))
        samples, _ = samples_from_coeffs(coeffs, 13)
        traj = fit_interpolation(samples, 5)
        assert_allclose(traj.coeffs, coeffs, atol=1e-6)

    def test_noisy_high_degree_diverges_off_nodes(self, rng):
        samples = noisy_sinusoid_samples(rng, 100)
        traj = fit_interpolation(samples, 49)
        idx = interpolation_frame_indices(100, 49)
        design = basis_matrix(traj.basis, 49, samples.times)
        errors = np.linalg.norm(design @ traj.coeffs - samples.positions, axis=1)
        on_nodes = errors[idx].max()
        off_nodes = np.delete(errors, idx).mean()
        assert off_nodes > 1e3 * max(on_nodes, 1e-12)

    def test_node_exactness_invariant(self, rng):
        samples = noisy_sinusoid_samples(rng, 60)
        for degree in (3, 9, 15):
            traj = fit_interpolation(samples, degree)
            idx = interpolation_frame_indices(60, degree)
            design = basis_matrix(traj.basis, degree, samples.times[idx])
            errors = np.linalg.norm(design @ traj.coeffs - samples.positions[idx], axis=1)
            assert errors.max() < 1e-6

    def test_too_few_frames(self):
        samples, _ = samples_from_coeffs(np.zeros((2, 2)), 4)
        with pytest.raises(DomainError):
            fit_interpolation(samples, 4)

    @pytest.mark.parametrize("basis", list(BasisKind))
    @pytest.mark.parametrize("degree", [5, 60, 61, 99])
    def test_nodes_of_full_design_are_bit_exact(self, rng, basis, degree):
        # The fit solves on rows taken from the all-frames design matrix; they
        # must equal the basis evaluated at the chosen frames alone.
        samples = noisy_sinusoid_samples(rng, 2 * degree + 3)
        idx = interpolation_frame_indices(samples.num_frames, degree)
        nodes = basis_matrix(basis, degree, samples.times[idx])
        assert np.array_equal(basis_matrix(basis, degree, samples.times)[idx], nodes)
        expected = np.linalg.solve(nodes, samples.positions[idx])
        assert np.array_equal(fit_interpolation(samples, degree, basis).coeffs, expected)


class TestLeastSquares:
    def test_exact_polynomial_zero_residual(self, rng):
        coeffs = rng.uniform(-10, 10, (5, 2))
        samples, _ = samples_from_coeffs(coeffs, 20)
        traj = fit_least_squares(samples, 4)
        assert_allclose(traj.coeffs, coeffs, atol=1e-8)

    def test_constant_positions_partition_of_unity(self):
        times = np.linspace(0.0, 1.0, 12)
        positions = np.full((12, 2), 5.0)
        for n in (1, 4, 9):
            traj = fit_least_squares(FitSamples(times, positions), n)
            assert_allclose(traj.coeffs, np.full((n + 1, 2), 5.0), atol=1e-8)

    def test_underdetermined_raises(self):
        samples, _ = samples_from_coeffs(np.zeros((2, 2)), 4)
        with pytest.raises(ConditioningError):
            fit_least_squares(samples, 5)

    def test_optimality_perturbation(self, rng):
        # Perturbing any fitted coefficient must not reduce the residual.
        samples = noisy_sinusoid_samples(rng, 30)
        traj = fit_least_squares(samples, 6)
        design = basis_matrix(traj.basis, 6, samples.times)

        def rss(coeffs):
            return float(np.sum((design @ coeffs - samples.positions) ** 2))

        best = rss(traj.coeffs)
        for i in range(7):
            for axis in (0, 1):
                for delta in (1e-3, -1e-3):
                    bumped = traj.coeffs.copy()
                    bumped[i, axis] += delta
                    assert rss(bumped) >= best - 1e-12


class TestRidge:
    def test_zero_lambda_matches_least_squares(self, rng):
        samples = noisy_sinusoid_samples(rng, 40)
        ls = fit_least_squares(samples, 5)
        ridge = fit_ridge(samples, 5, 0.0)
        assert_allclose(ridge.coeffs, ls.coeffs, atol=1e-8)

    def test_huge_lambda_shrinks_to_origin(self, rng):
        samples = noisy_sinusoid_samples(rng, 40)
        traj = fit_ridge(samples, 5, 1e12)
        assert np.abs(traj.coeffs).max() < 1e-3

    def test_negative_lambda_rejected(self, rng):
        # Every ridge path shares one solve, and the solve rejects the value.
        samples = noisy_sinusoid_samples(rng, 10)
        tracks = make_benchmark_tracks(2, 20)
        for lam in (-1.0, float("nan")):
            with pytest.raises(DomainError):
                fit_ridge(samples, 3, lam)
            with pytest.raises(DomainError):
                fit_ridge_columns(samples.times, np.zeros((10, 6)), 3, lam)
            with pytest.raises(DomainError):
                run_fit_benchmark(tracks, configs=((20, 3),), ridge_lambda=lam)

    def test_columns_match_per_column_fits(self, rng):
        times = np.linspace(0.0, 1.0, 30)
        values = rng.uniform(-50.0, 50.0, (30, 8))
        stacked = fit_ridge_columns(times, values, 6, 1e-3)
        for k in range(0, 8, 2):
            single = fit_ridge(FitSamples(times, values[:, k : k + 2]), 6, 1e-3).coeffs
            assert_allclose(stacked[:, k : k + 2], single, rtol=0, atol=1e-9 * np.abs(single).max())

    def test_columns_reject_bad_values(self):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValidationError):
            fit_ridge_columns(times, np.zeros((4, 2)), 2)
        with pytest.raises(ValidationError):
            fit_ridge_columns(times, np.full((5, 2), np.inf), 2)

    def test_high_degree_stays_accurate_and_bounded(self, rng):
        samples = noisy_sinusoid_samples(rng, 400)
        traj = fit_ridge(samples, 199)
        report = evaluate_fit(traj, samples)
        low = evaluate_fit(fit_ridge(noisy_sinusoid_samples(rng, 50), 24),
                           noisy_sinusoid_samples(rng, 50))
        assert report.mae <= 5.0
        assert report.avg_abs_coeff <= 10 * max(low.avg_abs_coeff, 1.0)

    def test_monotone_coefficients_in_lambda(self, rng):
        samples = noisy_sinusoid_samples(rng, 80)
        magnitudes = []
        for lam in (0.0, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4):
            traj = fit_ridge(samples, 20, lam)
            magnitudes.append(np.mean(np.abs(traj.coeffs)))
        assert all(a >= b - 1e-9 for a, b in zip(magnitudes, magnitudes[1:]))

    def test_ridge_zero_equivalence_on_well_conditioned(self, rng):
        coeffs = rng.uniform(-10, 10, (4, 2))
        samples, _ = samples_from_coeffs(coeffs, 25)
        report = evaluate_fit(fit_ridge(samples, 3, 0.0), samples)
        assert report.condition_estimate < 1e8
        assert_allclose(
            fit_ridge(samples, 3, 0.0).coeffs,
            fit_least_squares(samples, 3).coeffs,
            atol=1e-8,
        )


class TestEvaluateFit:
    def test_perfect_fit(self, rng):
        coeffs = rng.uniform(-10, 10, (4, 2))
        samples, _ = samples_from_coeffs(coeffs, 9)
        from motionsketch import TrajectoryPoly

        report = evaluate_fit(TrajectoryPoly(BasisKind.BERNSTEIN, coeffs), samples)
        assert report.mae < 1e-10 and report.max_abs_error < 1e-10

    def test_three_four_five(self):
        from motionsketch import TrajectoryPoly

        times = np.linspace(0.0, 1.0, 5)
        samples = FitSamples(times, np.full((5, 2), (3.0, 4.0)))
        traj = TrajectoryPoly(BasisKind.BERNSTEIN, np.zeros((3, 2)))
        report = evaluate_fit(traj, samples)
        assert report.mae == pytest.approx(5.0)
        assert report.max_abs_error == pytest.approx(5.0)

    def test_report_against_brute_force_recomputation(self, rng):
        samples = noisy_sinusoid_samples(rng, 50)
        traj = fit_ridge(samples, 24)
        report = evaluate_fit(traj, samples)
        errors = []
        for t, pos in zip(samples.times, samples.positions):
            row = basis_matrix(traj.basis, traj.degree, np.array([t]))[0]
            errors.append(float(np.hypot(*(row @ traj.coeffs - pos))))
        assert report.mae == pytest.approx(np.mean(errors), rel=1e-12)
        assert report.max_abs_error == pytest.approx(np.max(errors), rel=1e-12)
        assert report.avg_abs_coeff == pytest.approx(np.mean(np.abs(traj.coeffs)), rel=1e-12)

    def test_report_invariant(self):
        with pytest.raises(ValidationError):
            FitReport(mae=2.0, avg_abs_coeff=1.0, max_abs_error=1.0, condition_estimate=1.0)


class TestBasisConsistency:
    def test_power_fit_of_bernstein_values_same_mae(self, rng):
        # Re-fit the Bernstein fit's values in the power basis: identical MAE.
        samples = noisy_sinusoid_samples(rng, 30)
        for n in (2, 5, 8, 10):
            bern = fit_least_squares(samples, n, BasisKind.BERNSTEIN)
            design_b = basis_matrix(BasisKind.BERNSTEIN, n, samples.times)
            converted = FitSamples(samples.times, design_b @ bern.coeffs)
            power = fit_least_squares(converted, n, BasisKind.POWER)
            mae_b = evaluate_fit(bern, samples).mae
            mae_p = evaluate_fit(power, samples).mae
            assert mae_p == pytest.approx(mae_b, abs=1e-6)


class TestBenchmark:
    def test_static_track_zero_error_everywhere(self):
        coords = np.repeat(np.array([[[40.0, 60.0]]]), 50, axis=1)
        tracks = TrackSet(ids=np.array([0]), coords=coords)
        result = run_fit_benchmark(tracks, configs=((50, 24),))
        assert len(result.rows) == 3
        for row in result.rows:
            if row.method is FitMethod.RIDGE:
                # The penalty covers every coefficient, so a constant track
                # carries a small documented shrinkage bias.
                assert row.mae < 0.1, row
            else:
                assert row.mae < 1e-6, row
        ridge_zero = run_fit_benchmark(tracks, configs=((50, 24),), ridge_lambda=0.0)
        assert all(row.mae < 1e-6 for row in ridge_zero.rows)

    def test_trend_on_synthetic_track(self):
        tracks = make_benchmark_tracks(10, 400, seed=5)
        result = run_fit_benchmark(tracks, configs=((200, 99), (400, 199)))
        rows = {(r.frames, r.method): r for r in result.rows}
        assert rows[(400, FitMethod.INTERPOLATION)].mae > 1e2
        assert rows[(400, FitMethod.RIDGE)].mae <= 5.0
        for frames in (200, 400):
            assert (
                rows[(frames, FitMethod.LEAST_SQUARES)].avg_abs_coeff
                >= 1e3 * rows[(frames, FitMethod.RIDGE)].avg_abs_coeff
            )

    def test_small_config_finite_and_ordered(self):
        tracks = make_benchmark_tracks(10, 50, seed=5)
        result = run_fit_benchmark(tracks, configs=((50, 24),))
        by_method = {row.method: row for row in result.rows}
        assert all(np.isfinite(row.mae) for row in result.rows)
        assert (
            by_method[FitMethod.INTERPOLATION].max_abs_error
            > by_method[FitMethod.RIDGE].max_abs_error
        )

    def test_insufficient_frames_skipped_with_warning(self):
        tracks = make_benchmark_tracks(4, 60, seed=5)
        result = run_fit_benchmark(tracks, configs=((50, 24), (100, 49)))
        assert len(result.skipped) == 1
        assert result.skipped[0][:2] == (100, 49)
        assert {row.frames for row in result.rows} == {50}

    def test_csv_format(self):
        tracks = make_benchmark_tracks(3, 50, seed=5)
        csv_text = run_fit_benchmark(tracks, configs=((50, 24),)).to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "frames,degree,method,mae,avg_abs_coeff,max_abs_error,condition_estimate"
        assert len(lines) == 4
        assert lines[1].startswith("50,24,interpolation,")

    def test_markdown_layout(self):
        tracks = make_benchmark_tracks(3, 100, seed=5)
        md = run_fit_benchmark(tracks, configs=((50, 24), (100, 49))).to_markdown()
        lines = md.strip().split("\n")
        assert lines[0].startswith("| frames | degree | MAE")
        assert len(lines) == 4

    @pytest.mark.parametrize("method", list(FitMethod))
    def test_matches_per_track_fit(self, method):
        # The batched benchmark must agree with the public per-track fits.
        tracks = make_benchmark_tracks(5, 50, seed=9)
        result = run_fit_benchmark(tracks, configs=((50, 10),), ridge_lambda=1e-3)
        times = np.linspace(0.0, 1.0, 50)
        reports = [
            evaluate_fit(
                fit_trajectory(FitSamples(times, tracks.coords[k]), 10, method),
                FitSamples(times, tracks.coords[k]),
            )
            for k in range(5)
        ]
        row = next(r for r in result.rows if r.method is method)
        for name in ("mae", "avg_abs_coeff", "max_abs_error"):
            expected = np.mean([getattr(r, name) for r in reports])
            assert getattr(row, name) == pytest.approx(expected, rel=1e-9), name

    def test_singular_interpolation(self, monkeypatch):
        # The per-track fit raises; the benchmark keeps its row, filled with inf.
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        tracks = make_benchmark_tracks(3, 50, seed=9)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ConditioningError) as info:
            fit_interpolation(FitSamples(np.linspace(0.0, 1.0, 50), tracks.coords[0]), 10)
        assert info.value.condition > 1.0
        with np.errstate(invalid="ignore"):  # inf coefficients times zero basis entries
            rows = {r.method: r for r in run_fit_benchmark(tracks, configs=((50, 10),)).rows}
        assert rows[FitMethod.INTERPOLATION].avg_abs_coeff == np.inf
        assert np.isfinite(rows[FitMethod.RIDGE].mae)
        assert np.isfinite(rows[FitMethod.LEAST_SQUARES].mae)
