"""Losses, analytic gradients, and the coefficient optimizer."""

import numpy as np
import pytest
from conftest import make_animation, random_animation, random_tracks
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from motionsketch import (
    BasisKind,
    DivergenceError,
    FitSamples,
    LossWeights,
    OptimConfig,
    TrackSet,
    ValidationError,
    animation_coefficients,
    attachment_loss_grad,
    consistency_assignments,
    consistency_loss_grad,
    eval_curve_point,
    finite_difference_check,
    fit_interpolation,
    optimize_animation,
    replace_coefficients,
    total_loss,
    trajectory_velocity,
)
from motionsketch.bernstein import basis_matrix


def riding_animation_and_tracks():
    """Strokes that translate rigidly along a single track: zero consistency."""
    coords = np.array([[[10.0, 10.0], [20.0, 15.0], [30.0, 25.0]]])
    tracks = TrackSet(ids=np.array([0]), coords=coords)
    times = np.linspace(0.0, 1.0, 3)
    controls = []
    for offset in ((-5.0, 0.0), (0.0, 2.0), (5.0, 0.0)):
        positions = coords[0] + np.asarray(offset)
        controls.append(fit_interpolation(FitSamples(times, positions), 2).coeffs)
    anim = make_animation([controls], num_frames=3, canvas=(64, 64))
    return anim, tracks


def per_point_consistency(anim, tracks, n_p):
    """Consistency loss from its definition on the per-point path
    (eval_curve_point samples, a brute-force nearest track per point)."""
    times = anim.frame_times()
    coords = tracks.coords
    consistency = 0.0
    for stroke in anim.strokes:
        for k in range(n_p):
            points = [eval_curve_point(stroke, k / (n_p - 1), t) for t in times]
            for i, p_i in enumerate(points):
                row = int(np.argmin([np.sum((p_i - c) ** 2) for c in coords[:, i]]))
                for t, p_t in enumerate(points):
                    moved = (p_t - p_i) - (coords[row, t] - coords[row, i])
                    consistency += float(moved @ moved)
    return consistency / (n_p * len(times))


class TestConsistencyLoss:
    def test_zero_when_riding_tracks(self):
        anim, tracks = riding_animation_and_tracks()
        value, grad = consistency_loss_grad(anim, tracks, 4)
        assert value < 1e-24
        assert np.abs(grad).max() < 1e-12

    def test_zero_for_static_offset_stroke(self):
        coords = np.repeat(np.array([[[12.0, 12.0]]]), 3, axis=1)
        tracks = TrackSet(ids=np.array([0]), coords=coords)
        controls = [np.full((3, 2), (30.0, 40.0)), np.full((3, 2), (35.0, 40.0))]
        anim = make_animation([controls], num_frames=3, canvas=(64, 64))
        value, grad = consistency_loss_grad(anim, tracks, 3)
        assert value == 0.0
        assert not np.abs(grad).any()

    def test_finite_difference_small_instance(self, rng):
        anim = random_animation(rng, num_strokes=2, num_frames=3, curve_degree=2,
                                trajectory_degree=3)
        tracks = random_tracks(rng, num_points=4, num_frames=3)
        error = finite_difference_check(
            anim, tracks, None, LossWeights(w_s=0.0, w_c=1.0), 3
        )
        assert error < 1e-5

    def test_switching_rows_match_per_point_definition(self, rng):
        # 300 tracks take the KD-tree route; in a dense random field every
        # sampled point changes its nearest row from frame to frame.
        anim = random_animation(rng, num_strokes=2, num_frames=5, curve_degree=2,
                                trajectory_degree=3)
        tracks = random_tracks(rng, num_points=300, num_frames=5)
        rows = consistency_assignments(anim, tracks, 4)
        assert np.all(rows[1:] != rows[:-1])
        value, _ = consistency_loss_grad(anim, tracks, 4, assignments=rows)
        assert value == pytest.approx(per_point_consistency(anim, tracks, 4), rel=1e-10)
        error = finite_difference_check(anim, tracks, None, LossWeights(w_s=0.0, w_c=1.0), 4)
        assert error < 1e-6

    def test_frame_count_mismatch(self, rng):
        anim = random_animation(rng, num_frames=3)
        tracks = random_tracks(rng, num_frames=4)
        with pytest.raises(ValidationError):
            consistency_loss_grad(anim, tracks, 3)

    def test_zero_loss_characterization(self, rng):
        # Zero iff every sampled point's cross-frame displacement matches its
        # nearest track's displacement; perturbing one frame breaks it.
        anim, tracks = riding_animation_and_tracks()
        q = animation_coefficients(anim)
        value, _ = consistency_loss_grad(anim, tracks, 4)
        assert value < 1e-24
        bumped = q.copy()
        bumped[0, 1, 1] += 2.0  # bend one control trajectory mid-way
        worse, _ = consistency_loss_grad(replace_coefficients(anim, bumped), tracks, 4)
        assert worse > 1e-3


class TestAttachmentLoss:
    def test_zero_on_targets(self, rng):
        anim = random_animation(rng, num_strokes=2, num_frames=4)
        times = anim.frame_times()
        targets = np.stack(
            [
                np.stack([eval_curve_point(s, 0.5, t) for t in times])
                for s in anim.strokes
            ]
        )
        value, grad = attachment_loss_grad(anim, targets)
        assert value < 1e-22
        assert np.abs(grad).max() < 1e-10

    def test_squared_distance_three_four_five(self):
        # Midpoint pinned at the origin in both frames, target at (3,4): 25.
        controls = [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))]
        anim = make_animation([controls], num_frames=2, canvas=(16, 16))
        targets = np.full((1, 2, 2), (3.0, 4.0))
        value, _ = attachment_loss_grad(anim, targets)
        assert value == pytest.approx(25.0)

    def test_finite_difference(self, rng):
        anim = random_animation(rng, num_strokes=3, num_frames=4)
        targets = rng.uniform(0, 100, (3, 4, 2))
        error = finite_difference_check(
            anim, None, targets, LossWeights(w_s=1.0, w_c=0.0), 3, step=1e-2
        )
        assert error < 1e-6

    @pytest.mark.parametrize("step", [0.0, np.nan, np.inf])
    def test_finite_difference_rejects_bad_step(self, rng, step):
        anim = random_animation(rng, num_strokes=2, num_frames=4)
        targets = rng.uniform(0, 100, (2, 4, 2))
        with pytest.raises(ValidationError, match="step"):
            finite_difference_check(anim, None, targets, LossWeights(w_c=0.0), 3, step=step)

    @pytest.mark.parametrize("w_s, scale, what", [
        (1.0, 1e200, "central difference"), (1e10, 1e300, "analytic gradient"),
    ])
    def test_finite_difference_non_finite_raises(self, rng, w_s, scale, what):
        # An overflowing loss or gradient must not read as a perfect match.
        anim = random_animation(rng, num_strokes=2, num_frames=4)
        targets = np.full((2, 4, 2), scale)
        weights = LossWeights(w_s=w_s, w_c=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=what):
                finite_difference_check(anim, None, targets, weights, 3)

    def test_target_count_mismatch(self, rng):
        anim = random_animation(rng, num_strokes=2, num_frames=4)
        with pytest.raises(ValidationError):
            attachment_loss_grad(anim, np.zeros((3, 4, 2)))


class TestTotalLoss:
    def test_consistency_weight_zero(self, rng):
        anim = random_animation(rng)
        targets = rng.uniform(0, 100, (2, 3, 2))
        breakdown, _ = total_loss(
            anim, None, targets, LossWeights(w_s=2.0, w_c=0.0), 3
        )
        value, _ = attachment_loss_grad(anim, targets)
        assert breakdown.total == pytest.approx(2.0 * value)
        assert breakdown.consistency == 0.0

    def test_attachment_weight_zero_at_optimum(self):
        anim, tracks = riding_animation_and_tracks()
        breakdown, _ = total_loss(anim, tracks, None, LossWeights(w_s=0.0, w_c=1.0), 4)
        assert breakdown.total < 1e-24

    def test_components_recomputed_independently(self, rng):
        anim = random_animation(rng)
        tracks = random_tracks(rng)
        targets = rng.uniform(0, 100, (2, 3, 2))
        weights = LossWeights(w_s=1.0, w_g=0.0, w_c=1.0)
        breakdown, grad = total_loss(anim, tracks, targets, weights, 3)
        consistency, g_c = consistency_loss_grad(anim, tracks, 3)
        attachment, g_a = attachment_loss_grad(anim, targets)
        assert breakdown.total == pytest.approx(consistency + attachment)
        assert_allclose(grad, g_c + g_a, rtol=1e-12)

    def test_weights_validation(self):
        with pytest.raises(ValidationError):
            LossWeights(w_s=0.0, w_g=0.0, w_c=0.0)
        with pytest.raises(ValidationError):
            LossWeights(w_s=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                LossWeights(w_s=bad)
            with pytest.raises(ValidationError, match="finite"):
                LossWeights(w_c=bad)

    def test_geometry_plugin_term(self, rng):
        # Any callable providing (value, gradient) can occupy the w_g slot.
        anim = random_animation(rng)
        targets = rng.uniform(0, 100, (2, 3, 2))

        def pull_to_origin(a):
            q = animation_coefficients(a)
            return float(np.sum(q * q)), 2.0 * q

        weights = LossWeights(w_s=1.0, w_g=0.25, w_c=0.0)
        breakdown, grad = total_loss(
            anim, None, targets, weights, 3, geometry_term=pull_to_origin
        )
        attachment, g_a = attachment_loss_grad(anim, targets)
        geometry, g_g = pull_to_origin(anim)
        assert breakdown.geometry == pytest.approx(geometry)
        assert breakdown.total == pytest.approx(attachment + 0.25 * geometry)
        assert_allclose(grad, g_a + 0.25 * g_g, rtol=1e-12)


    def test_geometry_weight_without_term_is_rejected(self, rng):
        anim = random_animation(rng)
        targets = rng.uniform(0, 100, (2, 3, 2))
        weights = LossWeights(w_s=1.0, w_g=1.0, w_c=0.0)
        config = OptimConfig(iterations=1, n_p=3)
        with pytest.raises(ValidationError):
            total_loss(anim, None, targets, weights, 3)
        with pytest.raises(ValidationError):
            optimize_animation(anim, None, targets, weights, config)
        with pytest.raises(ValidationError):
            finite_difference_check(anim, None, targets, weights, 3)

    @settings(max_examples=40, deadline=None)
    @given(
        num_strokes=st.integers(1, 3),
        num_frames=st.integers(2, 5),
        curve_degree=st.integers(1, 3),
        trajectory_degree=st.sampled_from([0, 1, 2, 4, 61]),
        basis=st.sampled_from(list(BasisKind)),
        num_points=st.integers(1, 5),
        n_p=st.integers(2, 5),
        w_s=st.sampled_from([0.0, 0.5, 1.0]),
        w_c=st.sampled_from([0.25, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_point_definition(
        self, num_strokes, num_frames, curve_degree, trajectory_degree, basis,
        num_points, n_p, w_s, w_c, seed,
    ):
        # Oracle: each term recomputed from its definition on the per-point
        # path.
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(0, 100, (num_strokes, curve_degree + 1, trajectory_degree + 1, 2))
        anim = make_animation(coeffs, num_frames, canvas=(100, 100), basis=basis)
        tracks = random_tracks(rng, num_points=num_points, num_frames=num_frames)
        targets = rng.uniform(0, 100, (num_strokes, num_frames, 2))
        breakdown, _ = total_loss(
            anim, tracks, targets, LossWeights(w_s=w_s, w_c=w_c), n_p
        )

        times = anim.frame_times()
        consistency = per_point_consistency(anim, tracks, n_p)
        attachment = sum(
            float(np.sum((eval_curve_point(stroke, 0.5, t) - targets[j, f]) ** 2))
            for j, stroke in enumerate(anim.strokes)
            for f, t in enumerate(times)
        ) / (num_frames * num_strokes)

        assert breakdown.consistency == pytest.approx(consistency, rel=1e-10)
        if w_s > 0:
            assert breakdown.attachment == pytest.approx(attachment, rel=1e-10)
        assert breakdown.total == pytest.approx(
            w_s * attachment + w_c * consistency, rel=1e-10
        )


class TestOptimizer:
    def test_stays_at_optimum(self):
        anim, tracks = riding_animation_and_tracks()
        times = anim.frame_times()
        targets = np.stack(
            [
                np.stack([eval_curve_point(s, 0.5, t) for t in times])
                for s in anim.strokes
            ]
        )
        weights = LossWeights(w_s=1.0, w_c=0.5)
        start, _ = total_loss(anim, tracks, targets, weights, 4)
        config = OptimConfig(iterations=100, step_size=0.1, n_p=4, log_every=25)
        _, breakdown = optimize_animation(anim, tracks, targets, weights, config)
        assert breakdown.total <= start.total + 1e-9

    def test_zero_step_identity(self, rng):
        anim = random_animation(rng)
        tracks = random_tracks(rng)
        targets = rng.uniform(0, 100, (2, 3, 2))
        config = OptimConfig(iterations=20, step_size=0.0, n_p=3)
        out, _ = optimize_animation(
            anim, tracks, targets, LossWeights(w_s=1.0, w_c=0.5), config
        )
        assert np.array_equal(
            animation_coefficients(out), animation_coefficients(anim)
        )

    def test_history_is_recorded(self, rng):
        anim = random_animation(rng)
        targets = rng.uniform(0, 100, (2, 3, 2))
        config = OptimConfig(iterations=30, step_size=0.5, n_p=3, log_every=10)
        _, breakdown = optimize_animation(
            anim, None, targets, LossWeights(w_s=1.0, w_c=0.0), config
        )
        iterations = [it for it, _ in breakdown.history]
        assert iterations == [1, 10, 20, 30]
        totals = [v for _, v in breakdown.history]
        assert totals[-1] < totals[0]

    def test_divergence_error_reports_iteration(self, rng):
        anim = random_animation(rng)
        targets = rng.uniform(0, 100, (2, 3, 2))
        config = OptimConfig(iterations=50, step_size=1e200, n_p=3)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as excinfo:
            optimize_animation(anim, None, targets, LossWeights(w_s=1.0, w_c=0.0), config)
        assert excinfo.value.iteration is not None

    def test_descent_with_halving_step(self, rng):
        # The analytic gradient is a descent direction of the frozen objective.
        anim = random_animation(rng, num_strokes=2, num_frames=4)
        tracks = random_tracks(rng, num_points=5, num_frames=4)
        targets = rng.uniform(0, 100, (2, 4, 2))
        weights = LossWeights(w_s=1.0, w_c=1.0)
        rows = consistency_assignments(anim, tracks, 4)

        def frozen_value(a):
            c, _ = consistency_loss_grad(a, tracks, 4, assignments=rows)
            s, _ = attachment_loss_grad(a, targets)
            return c + s

        q = animation_coefficients(anim)
        value = frozen_value(anim)
        _, grad = total_loss(anim, tracks, targets, weights, 4, assignments=rows)
        for _ in range(5):
            step = 1.0
            while True:
                candidate = replace_coefficients(anim, q - step * grad)
                if frozen_value(candidate) <= value or step < 1e-12:
                    break
                step *= 0.5
            assert step >= 1e-12
            q = q - step * grad
            anim = replace_coefficients(anim, q)
            new_value = frozen_value(anim)
            assert new_value <= value
            value = new_value
            _, grad = total_loss(anim, tracks, targets, weights, 4, assignments=rows)

    def test_recovery_on_synthetic_scene(self):
        anim, tracks, targets = recovery_scene()
        weights = LossWeights(w_s=1.0, w_c=0.5)
        start, _ = total_loss(anim, tracks, targets, weights, 8)
        config = OptimConfig(iterations=500, step_size=1.0, n_p=8, log_every=100)
        optimized, breakdown = optimize_animation(anim, tracks, targets, weights, config)
        assert breakdown.total <= 0.05 * start.total
        times = optimized.frame_times()
        for j, stroke in enumerate(optimized.strokes):
            mids = np.stack([eval_curve_point(stroke, 0.5, t) for t in times])
            assert np.linalg.norm(mids - targets[j], axis=1).max() < 2.0

    def test_lipschitz_between_frames(self):
        # Polynomial continuity: between-frame drift is bounded by max speed
        # times the half-frame interval.
        anim, tracks, targets = recovery_scene()
        config = OptimConfig(iterations=120, step_size=1.0, n_p=8)
        optimized, _ = optimize_animation(
            anim, tracks, targets, LossWeights(w_s=1.0, w_c=0.5), config
        )
        times = optimized.frame_times()
        dense = np.linspace(0.0, 1.0, 400)
        for stroke in optimized.strokes:
            speed = max(
                float(np.linalg.norm(trajectory_velocity(traj, t)))
                for traj in stroke.control_trajectories
                for t in dense
            )
            half = (times[1] - times[0]) / 2.0
            for i in range(len(times) - 1):
                mid_t = (times[i] + times[i + 1]) / 2.0
                p_mid = eval_curve_point(stroke, 0.5, mid_t)
                for anchor_t in (times[i], times[i + 1]):
                    p_anchor = eval_curve_point(stroke, 0.5, anchor_t)
                    drift = np.linalg.norm(p_mid - p_anchor)
                    assert drift <= speed * half * (1 + 1e-9) + 1e-12


def recovery_scene():
    """4 strokes / 20 frames with a known zero-loss optimum.

    Tracks follow random degree-9 Bernstein motions around four well-separated
    anchors; targets ride the tracks; strokes start static and displaced.
    """
    num_frames, num_strokes, curve_degree, degree = 20, 4, 3, 9
    times = np.linspace(0.0, 1.0, num_frames)
    rng = np.random.default_rng(3)
    base = np.array([[100.0, 100.0], [300.0, 100.0], [100.0, 300.0], [300.0, 300.0]])
    motion_coeffs = rng.uniform(-30, 30, (num_strokes, degree + 1, 2))
    rows = basis_matrix(BasisKind.BERNSTEIN, degree, times)
    motions = np.einsum("fb,jbc->jfc", rows, motion_coeffs - motion_coeffs[:, :1])
    track_coords = base[:, None, :] + motions
    tracks = TrackSet(ids=np.arange(num_strokes), coords=track_coords)
    targets = track_coords.copy()
    strokes = []
    for j in range(num_strokes):
        start = base[j] + rng.uniform(-12, 12, 2)
        controls = [
            np.repeat((start + np.array([offset, 0.0]))[None, :], degree + 1, axis=0)
            for offset in np.linspace(-8, 8, curve_degree + 1)
        ]
        strokes.append(controls)
    anim = make_animation(strokes, num_frames, canvas=(400, 400))
    return anim, tracks, targets
