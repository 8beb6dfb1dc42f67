"""Losses, analytic gradients, and the coefficient optimizer."""

import tracemalloc

import numpy as np
import pytest
from conftest import force_kdtree_route, make_animation, random_animation, random_tracks
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
from motionsketch import optimize
from motionsketch.bernstein import basis_matrix, basis_row


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


def per_point_consistency(anim, tracks, n_p, rows=None):
    """Consistency loss from its definition on the per-point path
    (eval_curve_point samples; a brute-force nearest track per point unless
    `rows` freezes the assignment)."""
    times = anim.frame_times()
    coords = tracks.coords
    consistency = 0.0
    for j, stroke in enumerate(anim.strokes):
        for k in range(n_p):
            points = [eval_curve_point(stroke, k / (n_p - 1), t) for t in times]
            for i, p_i in enumerate(points):
                if rows is None:
                    row = int(np.argmin([np.sum((p_i - c) ** 2) for c in coords[:, i]]))
                else:
                    row = rows[i, j, k]
                for t, p_t in enumerate(points):
                    moved = (p_t - p_i) - (coords[row, t] - coords[row, i])
                    consistency += float(moved @ moved)
    return consistency / (n_p * len(times))


def copy_inputs(objective, points, strokes):
    """The motion and the residual that `stroke_sums` reduces, of the curve
    points (B, N_p+1, 2, N_f) of stroke copies, formed as its callers do."""
    motion = objective.motion(points[:, : objective.n_p])
    residual = None if objective.targets is None else points[:, -1] - objective.targets[strokes]
    return motion, residual


def per_point_consistency_grad(anim, tracks, n_p, rows):
    """Coefficient gradient of the consistency loss with `rows` frozen, from
    its definition one (point, source frame) term at a time: the term
    sum_t |m_t|^2, m_t = (X(t) - X(i)) - (Y_r(t) - Y_r(i)), has gradient 2 m_t
    at X(t) and -2 sum_t m_t at X(i)."""
    times = anim.frame_times()
    num_frames = len(times)
    coords = tracks.coords
    first = anim.strokes[0]
    u_rows = np.stack([basis_row(BasisKind.BERNSTEIN, first.curve_degree, k / (n_p - 1)).values
                       for k in range(n_p)])
    t_rows = np.stack([basis_matrix(first.basis, first.trajectory_degree, [t])[0] for t in times])
    point_grad = np.zeros((num_frames, anim.num_strokes, n_p, 2))
    for j, stroke in enumerate(anim.strokes):
        for k in range(n_p):
            x = np.stack([eval_curve_point(stroke, k / (n_p - 1), t) for t in times])
            for i in range(num_frames):
                r = rows[i, j, k]
                moved = (x - x[i]) - (coords[r] - coords[r, i])
                point_grad[:, j, k] += 2.0 * moved
                point_grad[i, j, k] -= 2.0 * moved.sum(axis=0)
    point_grad /= n_p * num_frames
    return np.einsum("kc,fb,fjkd->jcbd", u_rows, t_rows, point_grad)


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

    @pytest.mark.parametrize(
        "chunk_elements", [None, 15, 1], ids=["default-chunks", "tiny-chunks", "one-pair-chunks"]
    )
    @force_kdtree_route()
    def test_switching_rows_match_per_point_definition(self, rng, monkeypatch, chunk_elements):
        # 300 tracks take the KD-tree route; in a dense random field every
        # sampled point changes its nearest row from frame to frame. The
        # alternating rows (frames 0, 1, 0, 1, 0) switch every frame too but
        # revisit their pairs: 8 points x 2 rows with counts 3 and 2. With 15
        # elements a chunk holds 3 pairs of 5 frames, and chunks cut between
        # any two pairs: a nearest-row point with 4 or 5 distinct rows
        # straddles a chunk boundary, as do some alternating points' 2 pairs.
        # With 1 element every chunk holds a single pair.
        if chunk_elements is not None:
            monkeypatch.setattr(optimize, "_PAIR_CHUNK_ELEMENTS", chunk_elements)
        anim = random_animation(rng, num_strokes=2, num_frames=5, curve_degree=2,
                                trajectory_degree=3)
        tracks = random_tracks(rng, num_points=300, num_frames=5)
        nearest = consistency_assignments(anim, tracks, 4)
        assert np.all(nearest[1:] != nearest[:-1])
        distinct = [np.unique(nearest[:, j, k]).size for j in range(2) for k in range(4)]
        assert max(distinct) > 3  # some point's pairs exceed a 3-pair chunk
        alternating = nearest[np.arange(5) % 2]
        # The nearest rows' value is checked against the oracle's own nearest search.
        for rows, oracle_rows in ((nearest, None), (alternating, alternating)):
            value, grad = consistency_loss_grad(anim, tracks, 4, assignments=rows)
            expected = per_point_consistency(anim, tracks, 4, oracle_rows)
            assert value == pytest.approx(expected, rel=1e-10)
            oracle = per_point_consistency_grad(anim, tracks, 4, rows)
            assert np.abs(grad - oracle).max() <= 1e-10 * max(1.0, float(np.abs(oracle).max()))
        error = finite_difference_check(anim, tracks, None, LossWeights(w_s=0.0, w_c=1.0), 4)
        assert error < 1e-6

    def test_value_memory_does_not_grow_with_frames(self, rng):
        # 16 points with random rows among 300 tracks over 400 frames: about
        # 3.6k distinct pairs, whose |X_p - Y_r| rows hold 22.8 MB at once.
        # The chunked pair sum keeps its temporaries to two L2-sized buffers.
        anim = random_animation(rng, num_strokes=2, num_frames=400)
        tracks = random_tracks(rng, num_points=300, num_frames=400)
        objective = optimize._Objective(anim, tracks, None, LossWeights(w_s=0.0, w_c=1.0), 8)
        points = objective.points(optimize._trajectory_major(animation_coefficients(anim)))
        frozen = objective.freeze(rng.integers(0, 300, objective._rows.shape))
        assert len(frozen.counts) * points[0, 0].size * 8 > 20e6
        tracemalloc.start()
        try:
            strokes = np.arange(2)
            sums = objective.stroke_sums(*copy_inputs(objective, points, strokes), strokes, frozen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(sums))
        assert peak < 4e6

    def test_value_memory_does_not_grow_with_strokes(self, rng):
        # 16 or 128 strokes of 8 points with random rows among 300 tracks over
        # 200 frames: about 1.2k distinct pairs per stroke. Reduced at once,
        # the 128 strokes' six pair-length index and gather arrays would hold
        # over 7 MB; the slices of `chunks` (9 copies here) keep the
        # reduction's peak the same at eight times the strokes.
        peaks = []
        for num_strokes in (16, 128):
            anim = random_animation(rng, num_strokes=num_strokes, num_frames=200)
            tracks = random_tracks(rng, num_points=300, num_frames=200)
            targets = rng.uniform(0, 100, (num_strokes, 200, 2))
            objective = optimize._Objective(anim, tracks, targets, LossWeights(), 8)
            assert objective.chunks(num_strokes)[0] == slice(0, 9)
            points = objective.points(optimize._trajectory_major(animation_coefficients(anim)))
            frozen = objective.freeze(rng.integers(0, 300, objective._rows.shape))
            strokes = np.arange(num_strokes)
            tracemalloc.start()
            try:
                motion, residual = copy_inputs(objective, points, strokes)
                sums = objective.stroke_sums(motion, residual, strokes, frozen)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.all(np.isfinite(sums))
            # Beyond the inputs themselves, which grow with the strokes as
            # the curve points do.
            peaks.append(peak - motion.nbytes - residual.nbytes)
        assert len(frozen.counts) * 6 * 8 > 7e6
        assert peaks[1] < 1.1 * peaks[0]

    @settings(max_examples=40, deadline=None)
    @given(
        num_strokes=st.integers(1, 3),
        num_frames=st.integers(2, 6),
        curve_degree=st.integers(1, 3),
        trajectory_degree=st.sampled_from([0, 1, 2, 4, 61]),
        basis=st.sampled_from(list(BasisKind)),
        num_points=st.one_of(st.integers(1, 5), st.integers(256, 300)),
        n_p=st.integers(2, 5),
        switching=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @force_kdtree_route()
    def test_gradient_matches_per_point_oracle(
        self, num_strokes, num_frames, curve_degree, trajectory_degree, basis,
        num_points, n_p, switching, seed,
    ):
        # Scan (< 256 tracks) and KD-tree nearest rows, or rows that change in
        # every frame; both bases. Checked against the per-term oracle and
        # against central differences of the frozen (exactly quadratic) loss.
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(0, 100, (num_strokes, curve_degree + 1, trajectory_degree + 1, 2))
        anim = make_animation(coeffs, num_frames, canvas=(100, 100), basis=basis)
        tracks = random_tracks(rng, num_points=num_points, num_frames=num_frames)
        if switching and num_points > 1:
            shape = (num_frames, num_strokes, n_p)
            rows = rng.integers(0, num_points - 1, shape)
            for f in range(1, num_frames):
                rows[f] += rows[f] >= rows[f - 1]  # any row but the previous frame's
            assert np.all(rows[1:] != rows[:-1])
        else:
            rows = consistency_assignments(anim, tracks, n_p)

        _, grad = consistency_loss_grad(anim, tracks, n_p, assignments=rows)
        oracle = per_point_consistency_grad(anim, tracks, n_p, rows)
        scale = max(1.0, float(np.abs(oracle).max()))
        assert np.abs(grad - oracle).max() <= 1e-10 * scale

        q = animation_coefficients(anim)
        step = 1.0
        for idx in rng.choice(q.size, min(q.size, 12), replace=False):
            values = []
            for sign in (1.0, -1.0):
                bumped = q.copy().reshape(-1)
                bumped[idx] += sign * step
                moved = replace_coefficients(anim, bumped.reshape(q.shape))
                values.append(consistency_loss_grad(moved, tracks, n_p, assignments=rows)[0])
            fd = (values[0] - values[1]) / (2.0 * step)
            assert abs(fd - grad.reshape(-1)[idx]) <= 1e-6 * scale

    @pytest.mark.parametrize("seed", [1, 3])
    @force_kdtree_route()
    def test_kdtree_assign_matches_serial_queries(self, seed):
        # 400 lattice sites take the KD-tree route; the samples sit on lattice
        # points, edge midpoints and cell centers (ties between 1, 2 and 4
        # sites), and each frame shuffles the rows. The rows equal the serial
        # per-frame queries. A second call moves every other point, in
        # directions drawn from `seed`, by half its certified radius (kept
        # without a query) and the rest past it; the tied points have radius
        # 0, so every frame is queried again.
        from motionsketch.tracking import nearest_rows

        num_frames, side = 4, 20
        grid = 2.0 * np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
        perms = [np.random.default_rng(f).permutation(len(grid)) for f in range(num_frames)]
        tracks = TrackSet(ids=np.arange(len(grid)),
                          coords=np.stack([grid[p] for p in perms], axis=1))
        offsets = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        samples = np.stack([
            (grid[f * 7 : f * 7 + 6, None, :] + offsets).reshape(3, 8, 2)
            for f in range(num_frames)
        ])
        anim = random_animation(np.random.default_rng(0), num_strokes=3, num_frames=num_frames)
        objective = optimize._Objective(anim, tracks, None, LossWeights(w_s=0.0, w_c=1.0), 8)
        rows = frame_major_assign(objective, samples)
        radius = np.sqrt(objective._radius2).transpose(2, 0, 1)
        direction = np.random.default_rng(seed).normal(size=samples.shape)
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        outside = np.arange(radius.size).reshape(radius.shape) % 2 == 1
        step = np.where(outside, radius + 1.5, 0.5 * radius)
        moved = samples + step[..., None] * direction
        moved_rows = frame_major_assign(objective, moved)
        assert np.any(radius > 0) and np.any(radius == 0)
        for points, got in ((samples, rows), (moved, moved_rows)):
            serial = np.stack([nearest_rows(points[f], f, tracks) for f in range(num_frames)])
            assert np.array_equal(got, serial)
            for f in range(num_frames):
                d2 = np.sum((points[f].reshape(-1, 1, 2) - tracks.coords[None, :, f]) ** 2, axis=2)
                assert np.array_equal(got[f].reshape(-1), np.argmin(d2, axis=1))

    def test_frame_count_mismatch(self, rng):
        anim = random_animation(rng, num_frames=3)
        tracks = random_tracks(rng, num_frames=4)
        with pytest.raises(ValidationError):
            consistency_loss_grad(anim, tracks, 3)

    def test_too_few_sample_points(self, rng):
        anim = random_animation(rng)
        with pytest.raises(ValidationError, match="two sample points"):
            consistency_loss_grad(anim, random_tracks(rng), 0)

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

    def test_finite_difference_freezes_once(self, rng, monkeypatch):
        # The checker assigns and freezes once and reuses A and own for every
        # chunk of stroke copies; rebuilding them for each chunk gives the
        # same error bit for bit. One-element chunks put every copy (2
        # unbumped strokes, then each of the 48 coordinates bumped by +h and
        # by -h) in a chunk of its own, so the rebuild is per bump.
        monkeypatch.setattr(optimize, "_PAIR_CHUNK_ELEMENTS", 1)
        anim = random_animation(rng, num_strokes=2, num_frames=4, curve_degree=2,
                                trajectory_degree=3)
        tracks = random_tracks(rng, num_points=6, num_frames=4)
        targets = rng.uniform(0, 100, (2, 4, 2))
        weights = LossWeights(w_s=1.0, w_c=0.5)
        objective = optimize._Objective
        assign, freeze, stroke_sums = objective.assign, objective.freeze, objective.stroke_sums
        assigned, frozen_rows, chunks = [], [], []

        def recording_assign(self, samples):
            assigned.append(samples.shape)
            return assign(self, samples)

        def recording_freeze(self, rows):
            frozen_rows.append(rows)
            return freeze(self, rows)

        monkeypatch.setattr(objective, "assign", recording_assign)
        monkeypatch.setattr(objective, "freeze", recording_freeze)
        once = finite_difference_check(anim, tracks, targets, weights, 3)
        assert len(assigned) == 1 and len(frozen_rows) == 1

        def refreezing_stroke_sums(self, motion, residual, strokes, frozen):
            if frozen is None:  # the analytic gradient's call, which sums no pairs
                return stroke_sums(self, motion, residual, strokes, frozen)
            chunks.append(len(strokes))
            return stroke_sums(self, motion, residual, strokes, freeze(self, frozen_rows[0]))

        monkeypatch.setattr(objective, "stroke_sums", refreezing_stroke_sums)
        per_bump = finite_difference_check(anim, tracks, targets, weights, 3)
        assert per_bump == once and once > 0.0
        assert chunks == [1] * (2 + 2 * animation_coefficients(anim).size)
        assert len(assigned) == 2 and len(frozen_rows) == 2

    def test_target_count_mismatch(self, rng):
        anim = random_animation(rng, num_strokes=2, num_frames=4)
        with pytest.raises(ValidationError):
            attachment_loss_grad(anim, np.zeros((3, 4, 2)))


def frozen_objective(anim, tracks, targets, weights, n_p):
    """(objective, trajectory-major coefficients, frozen assignment) with the
    rows assigned at the animation's coefficients, as the checker freezes them."""
    objective = optimize._Objective(anim, tracks, targets, weights, n_p)
    q = optimize._trajectory_major(animation_coefficients(anim))
    rows = objective.assign(objective.points(q)[:, :n_p])
    return objective, q, objective.freeze(rows)


def frame_major_assign(objective, samples):
    """`objective.assign` of frame-major `samples` (N_f, N_s, N_p, 2), its
    rows frame-major (N_f, N_s, N_p) like `consistency_assignments`."""
    return objective.assign(samples.transpose(1, 2, 3, 0)).transpose(2, 0, 1)


# Counts per block: one point per block, three points per block, one block.
_BLOCK_SIZES = {"one-point": 1, "three-points": None, "one-block": 1 << 30}


class TestBlockedCounts:
    """`freeze` builds A's dense counts one block of points at a time."""

    @staticmethod
    def frozen_per_block_size(monkeypatch, num_tracks, seed):
        """{block size: (objective, rows, frozen)} for the same random rows,
        drawn from few rows per point so that counts above 1 occur."""
        rng = np.random.default_rng(seed)
        anim = random_animation(rng, num_strokes=3, num_frames=7)
        tracks = random_tracks(rng, num_points=num_tracks, num_frames=7)
        rows = rng.integers(0, num_tracks, (3, 4, 7)) % rng.integers(1, 4, (3, 4, 1))
        frozen = {}
        for name, elements in _BLOCK_SIZES.items():
            monkeypatch.setattr(optimize, "_COUNT_BLOCK_ELEMENTS", elements or 3 * num_tracks)
            objective = optimize._Objective(anim, tracks, None, LossWeights(w_s=0.0, w_c=1.0), 4)
            frozen[name] = objective, rows, objective.freeze(rows)
        return frozen

    @pytest.mark.parametrize("num_tracks", [5, 300])
    @pytest.mark.parametrize("seed", range(3))
    def test_product_is_the_per_point_row_sum(self, monkeypatch, num_tracks, seed):
        # Row p of A @ Y is sum_i Y[r_i(p)], whatever the block size; the
        # gradient's offset adds N_f own_p - sum_i own_p(i) to it.
        for objective, rows, frozen in self.frozen_per_block_size(
            monkeypatch, num_tracks, seed
        ).values():
            y = objective.track_centered
            point_rows = rows.reshape(-1, 7)
            product = np.stack([sum(y[r] for r in point) for point in point_rows])
            own = np.stack([y[point, :, np.arange(7)].T for point in point_rows])
            assert np.array_equal(frozen.own, own)
            expected = product + 7 * own - own.sum(axis=2, keepdims=True)
            assert frozen.offset.shape == expected.shape == (12, 2, 7)
            assert_allclose(frozen.offset, expected, rtol=1e-13,
                            atol=1e-13 * float(np.abs(expected).max()))

    @pytest.mark.parametrize("num_tracks", [5, 300])
    @pytest.mark.parametrize("seed", range(3))
    def test_pairs_are_the_unique_keys_in_row_major_order(self, monkeypatch, num_tracks, seed):
        # The pairs and counts are np.unique of the (point, row) keys: sorted
        # by point, then by row (CSR order), each with its number of frames.
        for _, rows, frozen in self.frozen_per_block_size(monkeypatch, num_tracks, seed).values():
            points = np.repeat(np.arange(12), 7)
            keys, counts = np.unique(points * num_tracks + rows.reshape(-1), return_counts=True)
            assert np.array_equal(frozen.points, keys // num_tracks)
            assert np.array_equal(frozen.rows, keys % num_tracks)
            assert np.array_equal(frozen.counts, counts) and frozen.counts.dtype == np.float64
            assert counts.max() > 1

    @pytest.mark.parametrize("num_tracks", [5, 300])
    def test_value_is_bit_identical_across_block_sizes(self, monkeypatch, num_tracks):
        # Also across the value's chunks: each copy costs 70 elements here,
        # so the chunk sizes put all 3 strokes in one chunk, 2 per chunk, and
        # one per chunk (with pair chunks of 2 pairs and of 1 pair).
        for seed in range(3):
            values = set()
            for chunk_elements in (1 << 15, 140, 15, 1):
                monkeypatch.setattr(optimize, "_PAIR_CHUNK_ELEMENTS", chunk_elements)
                for objective, _, frozen in self.frozen_per_block_size(
                    monkeypatch, num_tracks, seed
                ).values():
                    q = optimize._trajectory_major(animation_coefficients(objective.anim))
                    values.add(objective.value_grad(q, frozen)[0].consistency)
            assert len(values) == 1


class TestStrokeDifferences:
    @pytest.mark.parametrize(
        "chunk_elements", [None, 15, 1], ids=["default-chunks", "tiny-chunks", "one-pair-chunks"]
    )
    @pytest.mark.parametrize("num_tracks", [5, 300], ids=["scan", "kdtree"])
    @force_kdtree_route()
    def test_stroke_terms_sum_to_total(self, rng, monkeypatch, chunk_elements, num_tracks):
        # Under the frozen assignment the objective is the sum of the
        # checker's per-stroke terms f_s, on both nearest-row routes and
        # however the pair walk is chunked. A batch of copies in any order and
        # multiplicity gives each copy the sums of the stroke it stands for.
        if chunk_elements is not None:
            monkeypatch.setattr(optimize, "_PAIR_CHUNK_ELEMENTS", chunk_elements)
        for _ in range(4):
            num_strokes, num_frames = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            anim = random_animation(rng, num_strokes=num_strokes, num_frames=num_frames,
                                    curve_degree=int(rng.integers(1, 4)), trajectory_degree=3)
            tracks = random_tracks(rng, num_points=num_tracks, num_frames=num_frames)
            targets = rng.uniform(0, 100, (num_strokes, num_frames, 2))
            weights = LossWeights(w_s=float(rng.uniform(0.1, 2)), w_c=float(rng.uniform(0.1, 2)))
            objective, q, frozen = frozen_objective(anim, tracks, targets, weights, 4)
            breakdown, _ = objective.value_grad(q, frozen)
            _, terms = optimize._stroke_differences(objective, q, frozen, np.arange(0), 0.1)
            assert terms.sum() == pytest.approx(breakdown.total, rel=1e-12)
            strokes = np.arange(num_strokes)
            inputs = copy_inputs(objective, objective.points(q), strokes)
            sums = objective.stroke_sums(*inputs, strokes, frozen)
            copies = rng.integers(0, num_strokes, 7)
            inputs = copy_inputs(objective, objective.points(q[:, copies]), copies)
            assert_allclose(objective.stroke_sums(*inputs, copies, frozen),
                            sums[:, copies], rtol=1e-13)

    def test_motion_is_formed_once_per_evaluation(self, rng, monkeypatch):
        # The value reduction reads the motion X its caller formed: a
        # value_grad forms X once for its value and its gradient, and the
        # checker once per chunk of stroke copies, after the one of its
        # analytic gradient. 2000 elements per chunk fit 40 of the 147 copies
        # (3 unbumped strokes, then each of the 72 coordinates bumped twice).
        monkeypatch.setattr(optimize, "_PAIR_CHUNK_ELEMENTS", 2000)
        anim = random_animation(rng, num_strokes=3, num_frames=5, curve_degree=2,
                                trajectory_degree=3)
        tracks = random_tracks(rng, num_points=6, num_frames=5)
        targets = rng.uniform(0, 100, (3, 5, 2))
        motion, calls = optimize._Objective.motion, []

        def counting_motion(self, samples):
            calls.append(len(samples))
            return motion(self, samples)

        monkeypatch.setattr(optimize._Objective, "motion", counting_motion)
        objective, q, frozen = frozen_objective(anim, tracks, targets, LossWeights(), 4)
        for given_frozen, valued in ((frozen, True), (None, True), (frozen, False)):
            calls.clear()
            objective.value_grad(q, given_frozen, consistency_value=valued)
            assert calls == [3]
        calls.clear()
        finite_difference_check(anim, tracks, targets, LossWeights(), 4)
        chunks = objective.chunks(3 + 2 * q.size)
        assert len(chunks) == 4
        assert calls == [3] + [len(range(147)[part]) for part in chunks]

    def test_match_full_objective_differences(self, rng):
        # Central differences of f_s alone equal those of the full objective,
        # taken through value_grad, up to the cancellation of the full one: a
        # few ulps of the total over 2h.
        anim = random_animation(rng, num_strokes=3, num_frames=4, curve_degree=2,
                                trajectory_degree=3)
        tracks = random_tracks(rng, num_points=6, num_frames=4)
        targets = rng.uniform(0, 100, (3, 4, 2))
        objective, q, frozen = frozen_objective(anim, tracks, targets, LossWeights(), 3)
        step = 0.1
        indices = np.arange(q.size)
        fd, unbumped = optimize._stroke_differences(objective, q, frozen, indices, step)
        full = []
        packed = optimize._packed(q)
        for idx in indices:
            values = []
            for sign in (1.0, -1.0):
                bumped = packed.copy().reshape(-1)
                bumped[idx] += sign * step
                bumped = optimize._trajectory_major(bumped.reshape(packed.shape))
                values.append(objective.value_grad(bumped, frozen)[0].total)
            full.append((values[0] - values[1]) / (2.0 * step))
        total = objective.value_grad(q, frozen)[0].total
        assert unbumped.sum() == pytest.approx(total, rel=1e-12)
        assert np.abs(fd - np.array(full)).max() <= 16 * np.finfo(float).eps * total / step

    def test_memory_does_not_grow_with_bumps(self, rng):
        # One stroke of degree 99 over 200 frames, with 800 or 3200
        # coefficients: 5% of them gives 80 or 320 bumped copies. All 320
        # copies' motions would hold 8.2 MB at once; the chunks keep every
        # copy-sized array to `_PAIR_CHUNK_ELEMENTS` elements, so the peak
        # stays the same at four times the bumps.
        peaks = []
        for curve_degree in (3, 15):
            anim = random_animation(rng, num_strokes=1, num_frames=200,
                                    curve_degree=curve_degree, trajectory_degree=99)
            tracks = random_tracks(rng, num_points=4, num_frames=200)
            targets = rng.uniform(0, 100, (1, 200, 2))
            tracemalloc.start()
            try:
                finite_difference_check(anim, tracks, targets, LossWeights(), 8)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        bumps = 2 * round(0.05 * 16 * 100 * 2)
        assert bumps * 200 * 8 * 2 * 8 > 8e6
        assert peaks[1] < 1.1 * peaks[0] and max(peaks) < 3e6

    def test_overflow_in_unsampled_stroke_raises(self, rng):
        # 60 strokes of 12 coefficients: 720 > 512 coordinates, so the check
        # samples 36 of them and some strokes have none. An attachment term
        # that overflows in such a stroke moves no central difference and
        # leaves the gradient finite; the unbumped terms still report it.
        anim = random_animation(rng, num_strokes=60, num_frames=3, curve_degree=1,
                                trajectory_degree=2)
        sampled = np.random.default_rng(0).choice(720, 36, replace=False) // 12
        stroke = min(set(range(60)) - set(sampled.tolist()))
        targets = rng.uniform(0, 100, (60, 3, 2))
        weights = LossWeights(w_s=1.0, w_c=0.0)
        assert finite_difference_check(anim, None, targets, weights, 3) < 1e-6
        targets[stroke] = 1e200
        with np.errstate(over="ignore"):
            _, grad = total_loss(anim, None, targets, weights, 3)
            assert np.all(np.isfinite(grad))
            with pytest.raises(DivergenceError, match=f"stroke {stroke} is not finite"):
                finite_difference_check(anim, None, targets, weights, 3)


def fresh_rows(samples, tracks):
    """From-scratch nearest rows of `samples` (N_f, ..., 2): one ``nearest_rows``
    query per frame, also checked against the argmin of summed squares."""
    from motionsketch.tracking import nearest_rows

    with np.errstate(all="ignore"):
        rows = np.stack([nearest_rows(samples[f], f, tracks) for f in range(len(samples))])
        for f in range(len(samples)):
            diff = samples[f].reshape(-1, 1, 2) - tracks.coords[None, :, f]
            assert np.array_equal(rows[f].reshape(-1), np.argmin(np.sum(diff**2, axis=2), axis=1))
    return rows


def lattice_tracks(num_frames, side=20):
    """side^2 sites on a lattice of spacing 2, rows shuffled per frame."""
    grid = 2.0 * np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    perms = [np.random.default_rng(f).permutation(len(grid)) for f in range(num_frames)]
    return TrackSet(ids=np.arange(len(grid)), coords=np.stack([grid[p] for p in perms], axis=1))


_WALK_STEPS = ("stay", "inside", "toward", "outside", "jump", "ties", "inf", "nan")


class TestCertifiedAssignment:
    @settings(max_examples=40, deadline=None)
    @given(
        kdtree=st.booleans(),
        num_frames=st.integers(2, 3),
        num_sites=st.integers(1, 40),
        lattice=st.booleans(),
        steps=st.lists(st.sampled_from(_WALK_STEPS), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @force_kdtree_route()
    def test_random_walk_matches_fresh_queries(
        self, kdtree, num_frames, num_sites, lattice, steps, seed
    ):
        # One objective follows a random walk of its sample points. Each step
        # moves a random half of the points: not at all, to just inside or
        # just outside their certified radius (in a random direction, or
        # toward the second-nearest track, the worst case), by a large jump,
        # onto lattice points where 1, 2 or 4 tracks tie, or to inf or nan.
        # After every step the rows equal a from-scratch query, no warning is
        # raised, and writing into the returned rows changes nothing cached.
        import warnings

        rng = np.random.default_rng(seed)
        if kdtree:  # 400 lattice sites: the KD-tree route
            tracks = lattice_tracks(num_frames)
        else:
            coords = rng.uniform(0.0, 38.0, (num_sites, num_frames, 2))
            tracks = TrackSet(ids=np.arange(num_sites),
                              coords=np.round(coords / 2) * 2 if lattice else coords)
        anim = random_animation(np.random.default_rng(0), num_strokes=2, num_frames=num_frames)
        objective = optimize._Objective(anim, tracks, None, LossWeights(w_s=0.0, w_c=1.0), 4)
        samples = rng.uniform(-2.0, 40.0, (num_frames, 2, 4, 2))
        sites = tracks.coords.transpose(1, 0, 2)
        for step in ("jump", *steps):
            anchor = objective._anchor.transpose(3, 0, 1, 2)
            radius = np.sqrt(objective._radius2).transpose(2, 0, 1)[..., None]
            direction = rng.normal(size=samples.shape)
            direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
            if step == "toward":
                with np.errstate(all="ignore"):
                    d2 = np.sum((anchor[:, :, :, None] - sites[:, None, None]) ** 2, axis=-1)
                nearest = np.argmin(d2, axis=-1)[..., None]
                np.put_along_axis(d2, nearest, np.inf, axis=-1)
                second = np.take_along_axis(
                    sites[:, None, None], np.argmin(d2, axis=-1)[..., None, None], axis=3
                )[..., 0, :]
                direction = second - anchor
                with np.errstate(all="ignore"):
                    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
            with np.errstate(all="ignore"):
                moved = {
                    "stay": samples,
                    "inside": anchor + (1.0 - 1e-6) * radius * direction,
                    "toward": anchor + (1.0 - 1e-6) * radius * direction,
                    "outside": anchor + (1.0 + 1e-6) * radius * direction,
                    "jump": rng.uniform(-100.0, 140.0, samples.shape),
                    "ties": 2.0 * rng.integers(0, 20, samples.shape) + rng.integers(0, 2, samples.shape),
                    "inf": np.where(rng.random(samples.shape) < 0.5, np.inf, -np.inf),
                    "nan": np.full(samples.shape, np.nan),
                }[step]
            pick = rng.random(samples.shape[:-1] + (1,)) < 0.5
            samples = np.where(pick, moved, samples)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = frame_major_assign(objective, samples)
            assert np.array_equal(rows, fresh_rows(samples, tracks))
            rows.fill(-1)
        rows = frame_major_assign(objective, samples)
        rows[...] = 7
        assert np.array_equal(frame_major_assign(objective, samples), fresh_rows(samples, tracks))

    @pytest.mark.parametrize("num_points", [12, 300])
    def test_optimizer_queries_fewer_points_and_stays_exact(self, rng, monkeypatch, num_points):
        # Every evaluation's rows equal a from-scratch assignment, and after
        # the first one (which queries every point) each evaluation queries
        # fewer points than there are: most stay within their radius.
        anim = random_animation(rng, num_strokes=3, num_frames=5)
        tracks = random_tracks(rng, num_points=num_points, num_frames=5)
        targets = rng.uniform(0, 100, (3, 5, 2))
        queried = []
        nearest = optimize._nearest

        def counting(points, frames, tracks):
            queried[-1].append(len(points))
            return nearest(points, frames, tracks)

        monkeypatch.setattr(optimize, "_nearest", counting)
        assign = optimize._Objective.assign

        def checked(objective, samples):
            queried.append([])
            rows = assign(objective, samples)
            frame_major = samples.transpose(3, 0, 1, 2)
            assert np.array_equal(rows.transpose(2, 0, 1), fresh_rows(frame_major, tracks))
            return rows

        monkeypatch.setattr(optimize._Objective, "assign", checked)
        config = OptimConfig(iterations=40, step_size=0.5, n_p=4)
        optimize_animation(anim, tracks, targets, LossWeights(w_s=1.0, w_c=0.5), config)
        assert [len(call) for call in queried] == [1] * 41  # one query per evaluation
        counts = [call[0] for call in queried]
        total = 5 * 3 * 4
        assert counts[0] == total and max(counts[1:]) < total


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

    # Both terms share one point gradient and one adjoint product; unequal
    # weights catch a weight applied to the other term's rows.
    @pytest.mark.parametrize("w_s, w_c", [(1.0, 1.0), (0.7, 1.9)])
    def test_components_recomputed_independently(self, rng, w_s, w_c):
        anim = random_animation(rng)
        tracks = random_tracks(rng)
        targets = rng.uniform(0, 100, (2, 3, 2))
        weights = LossWeights(w_s=w_s, w_g=0.0, w_c=w_c)
        breakdown, grad = total_loss(anim, tracks, targets, weights, 3)
        consistency, g_c = consistency_loss_grad(anim, tracks, 3)
        attachment, g_a = attachment_loss_grad(anim, targets)
        assert breakdown.total == pytest.approx(w_c * consistency + w_s * attachment)
        assert_allclose(grad, w_s * g_a + w_c * g_c, rtol=1e-12)

    @pytest.mark.parametrize("curve_degree", range(1, 9))
    def test_midpoint_row_is_the_attachment_midpoint(self, rng, curve_degree):
        # The last curve row is the u = 0.5 row that `derive_attachment_targets`
        # and `eval_curve_point` use, bit for bit (direct route up to degree 60).
        anim = random_animation(rng, curve_degree=curve_degree)
        objective = optimize._Objective(anim, None, rng.uniform(0, 100, (2, 3, 2)),
                                        LossWeights(w_s=1.0, w_c=0.0), 4)
        assert objective.b_u.shape == (5, curve_degree + 1)
        assert np.array_equal(objective.b_u[-1],
                              basis_row(BasisKind.BERNSTEIN, curve_degree, 0.5).values)

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
        with pytest.raises(ValidationError, match="finite_difference_check has no geometry term"):
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

    @pytest.mark.parametrize("field", ["step_size", "epsilon"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValidationError):
            OptimConfig(iterations=1, **{field: value})

    def test_divergence_error_reports_iteration(self, rng):
        anim = random_animation(rng)
        targets = rng.uniform(0, 100, (2, 3, 2))
        config = OptimConfig(iterations=50, step_size=1e200, n_p=3)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as excinfo:
            optimize_animation(anim, None, targets, LossWeights(w_s=1.0, w_c=0.0), config)
        assert excinfo.value.iteration == 2

    def test_consistency_value_overflow_caught_at_next_logged_iteration(self, rng):
        # After one step of 1e156 the consistency value overflows while its
        # gradient stays finite (the small weight keeps the moment updates
        # finite too). That value is computed only at logged iterations, so
        # the divergence is reported at iteration 10, the next logged one,
        # not at iteration 2 where it first overflows.
        anim = random_animation(rng)
        tracks = random_tracks(rng)
        weights = LossWeights(w_s=0.0, w_c=1e-10)
        config = OptimConfig(iterations=25, step_size=1e156, n_p=3, log_every=10)
        with np.errstate(over="ignore", invalid="ignore"):
            # Adam's first step from zero moments: step * g / (|g| + epsilon).
            q = animation_coefficients(anim)
            _, grad = total_loss(anim, tracks, None, weights, 3)
            moved = replace_coefficients(
                anim, q - config.step_size * grad / (np.abs(grad) + config.epsilon)
            )
            value, grad = consistency_loss_grad(moved, tracks, 3)
            assert value == np.inf and np.all(np.isfinite(grad))
            with pytest.raises(DivergenceError) as excinfo:
                optimize_animation(anim, tracks, None, weights, config)
        assert excinfo.value.iteration == 10

    @pytest.mark.parametrize("num_points", [4, 300])
    @force_kdtree_route()
    def test_non_finite_final_loss_raises(self, rng, num_points):
        # The single update of a one-iteration run makes the consistency value
        # overflow (as above); the final breakdown is checked, so no model
        # with an infinite loss is returned. That breakdown re-assigns rows at
        # the diverged coefficients, where squared distances overflow: on the
        # scan route, and on the KD-tree route in its tie recheck. With every
        # warning turned into an error and no errstate set here, the
        # DivergenceError is the only report.
        import warnings

        anim = random_animation(rng)
        tracks = random_tracks(rng, num_points=num_points)
        config = OptimConfig(iterations=1, step_size=1e156, n_p=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as excinfo:
                optimize_animation(anim, tracks, None, LossWeights(w_s=0.0, w_c=1e-10), config)
        assert excinfo.value.iteration == 1

    @pytest.mark.parametrize("num_points", [4, 300])
    @force_kdtree_route()
    def test_non_finite_samples_raise_divergence(self, rng, num_points):
        # Steps of 1e200 make the coefficients overflow to inf by the third
        # iteration, whose unlogged evaluation assigns rows to inf and nan
        # samples before the gradient is checked: the scan takes them, and so
        # does the KD-tree route (the tree itself rejects them).
        anim = random_animation(rng)
        tracks = random_tracks(rng, num_points=num_points)
        config = OptimConfig(iterations=5, step_size=1e200, n_p=3)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as excinfo:
            optimize_animation(anim, tracks, None, LossWeights(w_s=0.0, w_c=1e-10), config)
        assert excinfo.value.iteration == 3

    @pytest.mark.parametrize("num_points", [5, 300])
    def test_coefficients_do_not_depend_on_log_every(self, rng, num_points):
        # One gradient serves every iteration, logged or not: the path is the
        # same, and logged losses agree wherever two runs both log.
        anim = random_animation(rng, num_strokes=2, num_frames=4)
        tracks = random_tracks(rng, num_points=num_points, num_frames=4)
        targets = rng.uniform(0, 100, (2, 4, 2))
        weights = LossWeights(w_s=1.0, w_c=0.5)
        runs = [
            optimize_animation(anim, tracks, targets, weights,
                               OptimConfig(iterations=25, step_size=0.5, n_p=4, log_every=k))
            for k in (1, 7, 25)
        ]
        every = {entry[0]: entry for entry in runs[0][1].component_history}
        final, _ = total_loss(runs[0][0], tracks, targets, weights, 4)
        assert (final.total, final.consistency) == (runs[0][1].total, runs[0][1].consistency)
        for out, breakdown in runs[1:]:
            assert np.array_equal(animation_coefficients(out), animation_coefficients(runs[0][0]))
            assert breakdown.total == runs[0][1].total
            for entry in breakdown.component_history:
                assert entry == every[entry[0]]

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
