"""Time-varying strokes: evaluation, sensitivity, Jacobians, packing."""

from itertools import product

import numpy as np
import pytest
from conftest import make_animation, random_animation
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull

from motionsketch import (
    BasisKind,
    DomainError,
    SketchAnimation,
    Stroke,
    TrajectoryPoly,
    ValidationError,
    animation_coefficients,
    basis_row,
    coefficient_jacobian_row,
    control_points,
    default_trajectory_degree,
    eval_curve_point,
    eval_trajectory,
    replace_coefficients,
    sample_stroke,
    sensitivity_l1,
    trajectory_velocity,
)


def constant_trajectory(point, n=3, basis=BasisKind.BERNSTEIN):
    return TrajectoryPoly(basis, np.repeat(np.asarray(point, float)[None, :], n + 1, axis=0))


# Trajectory degrees on both sides of the direct->log switch at 60, and 0.
BASES_AND_DEGREES = [
    (basis, n) for basis in (BasisKind.BERNSTEIN, BasisKind.POWER) for n in (0, 24, 60, 61, 99)
]


def random_strokes(rng, basis, trajectory_degree):
    """One random stroke per curve degree 1..8."""
    coeffs = [rng.uniform(0, 100, (m + 1, trajectory_degree + 1, 2)) for m in range(1, 9)]
    return make_animation(coeffs, 3, basis=basis).strokes


class TestEvalTrajectory:
    def test_partition_of_unity_constant(self):
        traj = constant_trajectory(np.array([5.0, 7.0]), n=17)
        for t in (0.0, 0.3, 0.99, 1.0):
            assert_allclose(eval_trajectory(traj, t), [5.0, 7.0], rtol=1e-12)

    def test_linear_interpolation(self):
        traj = TrajectoryPoly(BasisKind.BERNSTEIN, np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert_allclose(eval_trajectory(traj, 0.25), [2.5, 0.0])

    def test_power_direct_sum(self):
        traj = TrajectoryPoly(BasisKind.POWER, np.array([[1.0, 0], [2.0, 0], [3.0, 0]]))
        assert_allclose(eval_trajectory(traj, 0.5), [2.75, 0.0])

    def test_high_degree_routes_through_log(self):
        # Above the direct-evaluation threshold results must still be sane.
        traj = constant_trajectory(np.array([4.0, -2.0]), n=199)
        assert_allclose(eval_trajectory(traj, 0.37), [4.0, -2.0], rtol=1e-9)

    def test_domain_error(self):
        traj = constant_trajectory(np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            eval_trajectory(traj, 1.2)

    @pytest.mark.parametrize("n", [3, 199])
    def test_nan_time_is_domain_error(self, n):
        traj = constant_trajectory(np.array([1.0, 1.0]), n=n)
        with pytest.raises(DomainError):
            eval_trajectory(traj, float("nan"))

    def test_convex_hull_property(self, rng):
        # Half-space oracle: inside iff a.x + b <= 0 for every hull facet.
        for _ in range(10):
            coeffs = rng.uniform(-10, 10, (6, 2))
            traj = TrajectoryPoly(BasisKind.BERNSTEIN, coeffs)
            equations = ConvexHull(coeffs).equations
            points = np.stack([eval_trajectory(traj, t) for t in rng.random(20)])
            slack = points @ equations[:, :2].T + equations[:, 2]
            assert slack.max() <= 1e-9

    def test_linearity(self, rng):
        a, b = 2.5, -1.25
        ca = rng.uniform(-5, 5, (4, 2))
        cb = rng.uniform(-5, 5, (4, 2))
        mixed = TrajectoryPoly(BasisKind.BERNSTEIN, a * ca + b * cb)
        for t in rng.random(10):
            expected = a * eval_trajectory(
                TrajectoryPoly(BasisKind.BERNSTEIN, ca), t
            ) + b * eval_trajectory(TrajectoryPoly(BasisKind.BERNSTEIN, cb), t)
            assert_allclose(eval_trajectory(mixed, t), expected, rtol=1e-12, atol=1e-12)

    def test_coefficients_are_immutable(self):
        traj = constant_trajectory(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            traj.coeffs[0, 0] = 99.0

    @pytest.mark.parametrize(("basis", "n"), BASES_AND_DEGREES)
    def test_batch_invariant_control_points(self, rng, basis, n):
        # Row i of a many-time evaluation equals time i evaluated alone.
        times = np.concatenate([[0.0, 1.0], rng.random(37)])
        for stroke in random_strokes(rng, basis, n):
            batch = control_points(stroke, times)
            for i, t in enumerate(times):
                assert np.array_equal(batch[i], control_points(stroke, t)[0])


class TestEvalCurvePoint:
    def square_stroke(self):
        corners = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
        return Stroke(tuple(constant_trajectory(np.array(c)) for c in corners))

    def test_endpoints_are_control_trajectories(self, rng):
        strokes = random_animation(rng, num_strokes=1, curve_degree=3, trajectory_degree=4).strokes
        for basis, n in BASES_AND_DEGREES:
            strokes += random_strokes(rng, basis, n)
        for stroke, t in product(strokes, (0.0, 0.4, 1.0)):
            assert np.array_equal(
                eval_curve_point(stroke, 0.0, t),
                eval_trajectory(stroke.control_trajectories[0], t),
            )
            assert np.array_equal(
                eval_curve_point(stroke, 1.0, t),
                eval_trajectory(stroke.control_trajectories[-1], t),
            )

    def test_hand_de_casteljau_midpoint(self):
        # Levels: (5,0),(10,5),(5,10) -> (7.5,2.5),(7.5,7.5) -> (7.5,5).
        stroke = self.square_stroke()
        for t in (0.0, 0.5, 1.0):
            assert_allclose(eval_curve_point(stroke, 0.5, t), [7.5, 5.0], rtol=1e-12)


class TestSampleStroke:
    def test_two_points_are_endpoints(self, rng):
        anim = random_animation(rng, num_strokes=1)
        stroke = anim.strokes[0]
        pts = sample_stroke(stroke, 0.3, 2)
        assert np.array_equal(pts[0], eval_curve_point(stroke, 0.0, 0.3))
        assert np.array_equal(pts[1], eval_curve_point(stroke, 1.0, 0.3))

    @pytest.mark.parametrize("curve_degree", range(1, 9))
    def test_bit_equal_to_eval_curve_point(self, rng, curve_degree):
        # One stacked product of single rows gives every point the bits of
        # its own `eval_curve_point`.
        anim = random_animation(rng, num_strokes=1, curve_degree=curve_degree,
                                trajectory_degree=5)
        stroke = anim.strokes[0]
        for n_p in (2, 3, 5, 8, 17, 33):
            for t in (0.0, 0.37, 1.0):
                pts = sample_stroke(stroke, t, n_p)
                for k in range(n_p):
                    assert np.array_equal(pts[k], eval_curve_point(stroke, k / (n_p - 1), t))

    def test_linear_stroke_midpoint(self):
        trajs = (
            constant_trajectory(np.array([0.0, 0.0]), n=2),
            constant_trajectory(np.array([4.0, 2.0]), n=2),
        )
        pts = sample_stroke(Stroke(trajs), 0.7, 3)
        assert_allclose(pts, [[0, 0], [2, 1], [4, 2]], atol=1e-12)

    def test_matches_pointwise_eval(self, rng):
        corners = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
        stroke = Stroke(tuple(constant_trajectory(np.array(c)) for c in corners))
        pts = sample_stroke(stroke, 0.2, 5)
        for k, u in enumerate([0.0, 0.25, 0.5, 0.75, 1.0]):
            assert np.array_equal(pts[k], eval_curve_point(stroke, u, 0.2))
        for basis, n in BASES_AND_DEGREES:
            for stroke, t, n_p in product(random_strokes(rng, basis, n), (0.0, 0.37, 1.0), (2, 8)):
                pts = sample_stroke(stroke, t, n_p)
                for k in range(n_p):
                    assert np.array_equal(pts[k], eval_curve_point(stroke, k / (n_p - 1), t))

    def test_too_few_points(self, rng):
        anim = random_animation(rng, num_strokes=1)
        with pytest.raises(DomainError):
            sample_stroke(anim.strokes[0], 0.5, 1)


class TestSensitivity:
    def test_power_at_zero_is_one(self):
        for n in (0, 3, 57, 199):
            assert sensitivity_l1(BasisKind.POWER, n, 0.0) == 1.0

    def test_power_at_one_is_degree_plus_one(self):
        assert sensitivity_l1(BasisKind.POWER, 9, 1.0) == 10.0

    def test_bernstein_is_exactly_one(self):
        assert sensitivity_l1(BasisKind.BERNSTEIN, 199, 0.7) == 1.0

    def test_power_matches_series(self):
        t, n = 0.5, 4
        assert sensitivity_l1(BasisKind.POWER, n, t) == pytest.approx(
            sum(t**i for i in range(n + 1))
        )


class TestJacobianRow:
    def test_matches_basis_row_bernstein(self):
        traj = constant_trajectory(np.array([1.0, 1.0]), n=2)
        assert np.array_equal(
            coefficient_jacobian_row(traj, 0.5),
            basis_row(BasisKind.BERNSTEIN, 2, 0.5).values,
        )

    def test_power_at_one(self):
        traj = TrajectoryPoly(BasisKind.POWER, np.zeros((4, 2)))
        assert np.array_equal(coefficient_jacobian_row(traj, 1.0), [1, 1, 1, 1])

    @pytest.mark.parametrize("basis", [BasisKind.BERNSTEIN, BasisKind.POWER])
    @pytest.mark.parametrize("n", [1, 5, 30, 199])
    def test_finite_difference_oracle(self, rng, basis, n):
        if basis is BasisKind.POWER and n > 30:
            n = 30  # power values explode numerically at extreme degrees
        coeffs = rng.uniform(-5, 5, (n + 1, 2))
        traj = TrajectoryPoly(basis, coeffs)
        t = float(rng.random())
        row = coefficient_jacobian_row(traj, t)
        step = 1e-5
        check = rng.choice(n + 1, size=min(n + 1, 8), replace=False)
        for i in check:
            for axis in (0, 1):
                bumped = coeffs.copy()
                bumped[i, axis] += step
                up = eval_trajectory(TrajectoryPoly(basis, bumped), t)[axis]
                bumped[i, axis] -= 2 * step
                down = eval_trajectory(TrajectoryPoly(basis, bumped), t)[axis]
                fd = (up - down) / (2 * step)
                assert fd == pytest.approx(row[i], rel=1e-6, abs=1e-9)


class TestAnimationTypes:
    def test_stroke_requires_uniform_trajectories(self):
        a = constant_trajectory(np.array([0.0, 0.0]), n=2)
        b = constant_trajectory(np.array([1.0, 1.0]), n=3)
        with pytest.raises(ValidationError):
            Stroke((a, b))

    def test_animation_validates_widths(self, rng):
        anim = random_animation(rng)
        with pytest.raises(ValidationError):
            SketchAnimation(
                strokes=anim.strokes, num_frames=5, canvas=(10, 10), widths=np.ones(3)
            )
        with pytest.raises(ValidationError):
            SketchAnimation(
                strokes=anim.strokes, num_frames=3, canvas=(10, 10),
                widths=np.array([1.0, -0.5, 1.0]),
            )

    def test_frame_times(self, rng):
        anim = random_animation(rng, num_frames=5)
        assert_allclose(anim.frame_times(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_default_trajectory_degree_pairing(self):
        assert [default_trajectory_degree(f) for f in (50, 100, 200, 400)] == [
            24, 49, 99, 199,
        ]

    def test_pack_unpack_round_trip(self, rng):
        anim = random_animation(rng, num_strokes=3, curve_degree=3, trajectory_degree=5)
        packed = animation_coefficients(anim)
        assert packed.shape == (3, 4, 6, 2)
        rebuilt = replace_coefficients(anim, packed + 1.0)
        assert_allclose(animation_coefficients(rebuilt), packed + 1.0)
        assert rebuilt.canvas == anim.canvas

    def test_replace_checks_the_shape_without_packing(self, rng, monkeypatch):
        from motionsketch import trajectory

        anim = random_animation(rng, num_strokes=3, curve_degree=2, trajectory_degree=4)
        packed = animation_coefficients(anim)

        def no_packing(anim):
            raise AssertionError("replace_coefficients packed the animation")

        monkeypatch.setattr(trajectory, "animation_coefficients", no_packing)
        rebuilt = replace_coefficients(anim, packed * 2.0)
        assert np.array_equal(np.stack([
            [traj.coeffs for traj in stroke.control_trajectories] for stroke in rebuilt.strokes
        ]), packed * 2.0)
        for shape in ((2, 3, 5, 2), (3, 4, 5, 2), (3, 3, 4, 2), (3, 3, 5, 3), (3, 3, 5)):
            with pytest.raises(ValidationError, match="must have shape"):
                replace_coefficients(anim, np.zeros(shape))

    def test_pack_rejects_mixed_degrees(self, rng):
        small = random_animation(rng, num_strokes=1, trajectory_degree=2).strokes[0]
        big = random_animation(rng, num_strokes=1, trajectory_degree=4).strokes[0]
        anim = SketchAnimation(
            strokes=(small, big), num_frames=3, canvas=(10, 10), widths=np.ones(3)
        )
        with pytest.raises(ValidationError):
            animation_coefficients(anim)
        # An array shaped for the first stroke alone must not pass either.
        with pytest.raises(ValidationError, match="share degrees and basis"):
            replace_coefficients(anim, np.zeros((2, small.curve_degree + 1, 3, 2)))

    def test_replace_rejects_mixed_bases(self, rng):
        bern = random_animation(rng, num_strokes=1, trajectory_degree=3).strokes[0]
        power = Stroke(tuple(
            TrajectoryPoly(BasisKind.POWER, traj.coeffs) for traj in bern.control_trajectories
        ))
        anim = SketchAnimation(
            strokes=(bern, power), num_frames=3, canvas=(10, 10), widths=np.ones(3)
        )
        with pytest.raises(ValidationError, match="share degrees and basis"):
            replace_coefficients(anim, np.zeros((2, bern.curve_degree + 1, 4, 2)))


class TestVelocity:
    def test_matches_finite_differences(self, rng):
        for basis in (BasisKind.BERNSTEIN, BasisKind.POWER):
            coeffs = rng.uniform(-5, 5, (6, 2))
            traj = TrajectoryPoly(basis, coeffs)
            t = 0.4
            h = 1e-6
            fd = (eval_trajectory(traj, t + h) - eval_trajectory(traj, t - h)) / (2 * h)
            assert_allclose(trajectory_velocity(traj, t), fd, rtol=1e-6, atol=1e-6)
