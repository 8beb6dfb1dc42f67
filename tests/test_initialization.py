"""Density maps, seed sampling, target assignment, animation init, widths."""

import math
import re

import numpy as np
import pytest
from conftest import make_animation
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from motionsketch import (
    BasisKind,
    DegenerateInputError,
    FitSamples,
    InitConfig,
    MaskAreas,
    ParseError,
    TrackSet,
    ValidationError,
    animation_coefficients,
    assign_track_targets,
    compose_density_map,
    consistency_loss_grad,
    derive_attachment_targets,
    eval_curve_point,
    fit_ridge,
    init_animation,
    load_mask_areas,
    load_pgm,
    replace_coefficients,
    sample_stroke_seeds,
    save_pgm,
    stroke_width_schedule,
    uniform_map,
)


def per_point_init_coefficients(config, density, tracks):
    """Oracle: init_animation's control trajectories, one fit_ridge call per
    control point, shape (N_s, m+1, n+1, 2). The config must fix the degree
    and the span."""
    m, n, span = config.curve_degree, config.trajectory_degree, config.initial_stroke_span
    times = np.linspace(0.0, 1.0, tracks.num_frames)
    seeds = sample_stroke_seeds(density, config.num_strokes, config.rng_seed)
    targets = assign_track_targets(seeds, tracks)
    out = []
    for j in range(config.num_strokes):
        rng = np.random.default_rng((config.rng_seed, 1, j))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(angle), math.sin(angle)])
        perp = np.array([-direction[1], direction[0]])
        along = (np.arange(m + 1) / m - 0.5) * span
        across = rng.uniform(-span / 8.0, span / 8.0, size=m + 1)
        offsets = along[:, None] * direction + across[:, None] * perp
        out.append([
            fit_ridge(FitSamples(times, targets[j] + offsets[a]), n, config.ridge_lambda).coeffs
            for a in range(m + 1)
        ])
    return np.array(out)


def circle_tracks(num_points=8, num_frames=6, center=(32.0, 32.0), radius=12.0):
    t = np.linspace(0.0, 1.0, num_frames)
    coords = np.empty((num_points, num_frames, 2))
    for k in range(num_points):
        angle = 2 * np.pi * k / num_points + 0.5 * np.sin(2 * np.pi * t)
        coords[k, :, 0] = center[0] + radius * np.cos(angle)
        coords[k, :, 1] = center[1] + radius * np.sin(angle)
    return TrackSet(ids=np.arange(num_points), coords=coords)


class TestComposeDensityMap:
    def test_beta_zero_ignores_motion(self, rng):
        xdog = rng.random((6, 8))
        attention = rng.random((6, 8))
        motion = rng.random((6, 8))
        got = compose_density_map(xdog, attention, motion, 0.0)
        expected = xdog * attention
        assert_allclose(got.probabilities, expected / expected.sum())

    def test_beta_one_ignores_attention(self, rng):
        xdog = rng.random((6, 8))
        attention = rng.random((6, 8))
        motion = rng.random((6, 8))
        got = compose_density_map(xdog, attention, motion, 1.0)
        expected = xdog * motion
        assert_allclose(got.probabilities, expected / expected.sum())

    def test_constant_maps_uniform(self):
        ones = np.ones((4, 4))
        got = compose_density_map(ones, ones, np.zeros((4, 4)), 0.5)
        assert_allclose(got.probabilities, np.full((4, 4), 1 / 16))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            compose_density_map(np.ones((4, 4)), np.ones((4, 5)), np.ones((4, 4)), 0.5)

    def test_all_zero_degenerate(self):
        zeros = np.zeros((4, 4))
        with pytest.raises(DegenerateInputError):
            compose_density_map(zeros, np.ones((4, 4)), np.ones((4, 4)), 0.5)

    def test_normalization_invariant(self, rng):
        got = compose_density_map(
            rng.random((5, 7)), rng.random((5, 7)), rng.random((5, 7)), 0.3
        )
        assert abs(got.probabilities.sum() - 1.0) < 1e-9

    def test_motion_influence_monotone_in_beta(self, rng):
        # Raising beta never lowers the probability of the pixel where motion
        # most exceeds attention, relative to the pixel where attention most
        # exceeds motion.
        xdog = rng.uniform(0.2, 1.0, (6, 6))
        attention = rng.uniform(0.0, 1.0, (6, 6))
        motion = rng.uniform(0.0, 1.0, (6, 6))
        pixel = np.unravel_index(np.argmax(motion - attention), motion.shape)
        other = np.unravel_index(np.argmax(attention - motion), motion.shape)
        previous = -np.inf
        for beta in np.linspace(0.0, 1.0, 11):
            probs = compose_density_map(xdog, attention, motion, beta).probabilities
            value = probs[pixel] / probs[other]
            assert value >= previous * (1 - 1e-12)
            previous = value

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("maps", ["uniform", "pgm"])
    def test_in_place_density_equals_the_formula_bit_for_bit(self, tmp_path, rng, beta, maps):
        h, w = 48, 64
        motion = rng.random((h, w))
        if maps == "uniform":
            xdog, attention = uniform_map(w, h), uniform_map(w, h)
        else:
            for name in ("xdog", "attention"):
                save_pgm(str(tmp_path / f"{name}.pgm"), rng.random((h, w)))
            xdog = load_pgm(str(tmp_path / "xdog.pgm"))
            attention = load_pgm(str(tmp_path / "attention.pgm"))
        density = compose_density_map(xdog, attention, motion, beta)
        raw = np.array(xdog) * ((1.0 - beta) * np.array(attention) + beta * motion)
        assert density.probabilities.tobytes() == (raw / raw.sum()).tobytes()

    def test_uniform_map_is_a_read_only_view_of_ones(self):
        ones = uniform_map(7, 5)
        assert ones.shape == (5, 7) and ones.dtype == np.float64
        assert np.all(ones == 1.0)
        assert ones.strides == (0, 0) and not ones.flags.writeable
        with pytest.raises(ValueError):
            ones[0, 0] = 2.0


class TestSampleSeeds:
    def test_point_mass_stays_in_pixel(self):
        probs = np.zeros((5, 5))
        probs[2, 3] = 1.0
        density = compose_density_map(probs, np.ones((5, 5)), np.ones((5, 5)), 0.0)
        seeds = sample_stroke_seeds(density, 50, seed=0)
        assert np.all((seeds[:, 0] >= 3) & (seeds[:, 0] < 4))
        assert np.all((seeds[:, 1] >= 2) & (seeds[:, 1] < 3))

    def test_uniform_quadrant_counts(self):
        ones = np.ones((20, 20))
        density = compose_density_map(ones, ones, ones, 0.5)
        seeds = sample_stroke_seeds(density, 10_000, seed=42)
        left = seeds[:, 0] < 10
        top = seeds[:, 1] < 10
        sigma = np.sqrt(10_000 * 0.25 * 0.75)
        for quadrant in (
            left & top, left & ~top, ~left & top, ~left & ~top,
        ):
            assert abs(quadrant.sum() - 2500) < 4 * sigma

    def test_same_seed_identical(self, rng):
        density = compose_density_map(
            rng.random((8, 8)), np.ones((8, 8)), np.ones((8, 8)), 0.5
        )
        a = sample_stroke_seeds(density, 17, seed=5)
        b = sample_stroke_seeds(density, 17, seed=5)
        assert np.array_equal(a, b)


class TestAssignTargets:
    def test_seed_on_track_is_verbatim(self):
        tracks = circle_tracks()
        seed = tracks.coords[3, 0]
        targets = assign_track_targets(seed[None, :], tracks)
        assert_allclose(targets[0], tracks.coords[3])

    def test_static_track_constant_target(self):
        coords = np.repeat(np.array([[[7.0, 9.0]]]), 5, axis=1)
        tracks = TrackSet(ids=np.array([0]), coords=coords)
        seed = np.array([[3.0, 4.0]])
        targets = assign_track_targets(seed, tracks)
        assert_allclose(targets[0], np.repeat(seed, 5, axis=0))

    def test_parallel_targets_near_same_track(self):
        tracks = circle_tracks()
        anchor = tracks.coords[0, 0]
        seeds = np.stack([anchor + (0.1, 0.0), anchor + (0.3, 0.1)])
        targets = assign_track_targets(seeds, tracks)
        deltas = targets[0] - targets[1]
        assert_allclose(deltas, np.repeat(deltas[:1], tracks.num_frames, axis=0), atol=1e-12)


class TestWidthSchedule:
    def test_formula_endpoints(self):
        mask = MaskAreas(areas=np.array([64 * 48, 0.0, 64 * 48 / 4]), canvas=(64, 48))
        widths = stroke_width_schedule(mask, 3.0)
        assert_allclose(widths, [3.0, 0.0, 1.5])

    def test_monotone_in_area(self, rng):
        areas = np.sort(rng.uniform(0, 64 * 48, 10))
        widths = stroke_width_schedule(MaskAreas(areas=areas, canvas=(64, 48)), 2.5)
        assert np.all(np.diff(widths) >= 0)

    def test_rejects_oversized_area(self):
        with pytest.raises(ValidationError):
            MaskAreas(areas=np.array([65 * 48]), canvas=(64, 48))


class TestInitConfig:
    @pytest.mark.parametrize("lam", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_rejects_bad_ridge_lambda(self, lam):
        with pytest.raises(ValidationError, match="ridge lambda"):
            InitConfig(num_strokes=1, ridge_lambda=lam)


class TestInitAnimation:
    def density(self, w=64, h=64):
        return compose_density_map(
            uniform_map(w, h), uniform_map(w, h), uniform_map(w, h), 0.5
        )

    @settings(max_examples=30, deadline=None)
    @given(
        num_strokes=st.integers(1, 4),
        curve_degree=st.integers(1, 5),
        trajectory_degree=st.sampled_from([1, 4, 24, 59, 60, 61, 62, 99]),
        extra_frames=st.integers(0, 40),
        ridge_lambda=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]),
        span=st.floats(0.0, 30.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_control_point_fits(
        self, num_strokes, curve_degree, trajectory_degree, extra_frames, ridge_lambda,
        span, seed,
    ):
        # One stacked solve against one fit_ridge call per control point, on
        # the same targets; N_f >= n+1 so lambda = 0 is a determined fit.
        num_frames = trajectory_degree + 1 + extra_frames
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.normal(0.0, 1.5, (3, num_frames, 2)), axis=1)
        tracks = TrackSet(ids=np.arange(3), coords=rng.uniform(8, 56, (3, 1, 2)) + walk)
        config = InitConfig(
            num_strokes=num_strokes, trajectory_degree=trajectory_degree,
            ridge_lambda=ridge_lambda, rng_seed=seed, curve_degree=curve_degree,
            initial_stroke_span=span,
        )
        anim = init_animation(config, self.density(), tracks, np.ones(num_frames))
        got = animation_coefficients(anim)
        want = per_point_init_coefficients(config, self.density(), tracks)
        assert got.shape == want.shape
        scale = np.abs(want).max(axis=(2, 3), keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-9 * scale)

    def test_static_tracks_constant_trajectories(self):
        coords = np.repeat(np.array([[[30.0, 30.0]]]), 6, axis=1)
        tracks = TrackSet(ids=np.array([0]), coords=coords)
        config = InitConfig(num_strokes=2, trajectory_degree=2, rng_seed=1)
        anim = init_animation(config, self.density(), tracks, np.ones(6))
        for stroke in anim.strokes:
            for traj in stroke.control_trajectories:
                spread = np.abs(traj.coeffs - traj.coeffs.mean(axis=0)).max()
                assert spread <= 1e-3 * max(1.0, np.abs(traj.coeffs).max())

    def test_frame_zero_span_matches_config(self):
        tracks = circle_tracks()
        config = InitConfig(
            num_strokes=1, trajectory_degree=3, rng_seed=3, initial_stroke_span=20.0
        )
        anim = init_animation(config, self.density(), tracks, np.ones(6))
        stroke = anim.strokes[0]
        first = eval_curve_point(stroke, 0.0, 0.0)
        last = eval_curve_point(stroke, 1.0, 0.0)
        # ridge shrinkage and perpendicular jitter allow a small deviation
        assert np.linalg.norm(last - first) == pytest.approx(20.0, rel=0.15)

    def test_seeds_follow_peaked_density(self):
        w = h = 40
        xdog = np.zeros((h, w))
        xdog[16:24, 16:24] = 1.0  # top-decile region: the lit square
        density = compose_density_map(xdog, np.ones((h, w)), np.ones((h, w)), 0.5)
        tracks = circle_tracks(center=(20.0, 20.0))
        config = InitConfig(num_strokes=16, trajectory_degree=2, rng_seed=0)
        anim = init_animation(config, density, tracks, np.ones(6))
        seeds = sample_stroke_seeds(density, 16, seed=0)
        inside = (
            (seeds[:, 0] >= 16) & (seeds[:, 0] < 24)
            & (seeds[:, 1] >= 16) & (seeds[:, 1] < 24)
        )
        assert inside.sum() >= 12

    def test_determinism(self):
        tracks = circle_tracks()
        config = InitConfig(num_strokes=4, trajectory_degree=3, rng_seed=11)
        a = init_animation(config, self.density(), tracks, np.ones(6))
        b = init_animation(config, self.density(), tracks, np.ones(6))
        assert np.array_equal(animation_coefficients(a), animation_coefficients(b))

    def test_initialized_beats_random_consistency(self, rng):
        tracks = circle_tracks()
        config = InitConfig(num_strokes=3, trajectory_degree=3, rng_seed=2)
        anim = init_animation(config, self.density(), tracks, np.ones(6))
        init_loss, _ = consistency_loss_grad(anim, tracks, 4)
        assert np.isfinite(init_loss)
        shape = animation_coefficients(anim).shape
        for _ in range(20):
            random_anim = replace_coefficients(anim, rng.uniform(0, 64, shape))
            random_loss, _ = consistency_loss_grad(random_anim, tracks, 4)
            assert init_loss <= random_loss


class TestDeriveAttachmentTargets:
    @pytest.mark.parametrize("basis", list(BasisKind))
    @pytest.mark.parametrize("curve_degree", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("trajectory_degree", [0, 3, 61])
    def test_matches_per_point_midpoints(self, rng, basis, curve_degree, trajectory_degree):
        # Frame 0 is a unit basis row in both bases, and the curve row meets
        # the same (m+1, 2) points as in eval_curve_point: exact equality.
        coeffs = rng.uniform(-300.0, 300.0, (9, curve_degree + 1, trajectory_degree + 1, 2))
        anim = make_animation(coeffs, 5, basis=basis)
        tracks = TrackSet(ids=np.arange(6), coords=rng.uniform(0.0, 64.0, (6, 5, 2)))
        mids = np.stack([eval_curve_point(s, 0.5, 0.0) for s in anim.strokes])
        got = derive_attachment_targets(anim, tracks)
        assert np.array_equal(got, assign_track_targets(mids, tracks))
        assert np.array_equal(got[:, 0], mids)

    def test_frame_count_mismatch(self, rng):
        anim = make_animation(rng.uniform(0, 9, (1, 2, 3, 2)), 5)
        with pytest.raises(ValidationError):
            derive_attachment_targets(anim, circle_tracks(num_frames=4))


class TestFileIngestion:
    def test_pgm_binary_round_trip(self, tmp_path, rng):
        values = rng.random((6, 9))
        path = tmp_path / "map.pgm"
        save_pgm(str(path), values)
        loaded = load_pgm(str(path))
        assert loaded.shape == (6, 9)
        assert np.abs(loaded - values).max() <= 0.5 / 255 + 1e-12

    def test_pgm_16bit_round_trip(self, tmp_path, rng):
        values = rng.random((4, 5))
        path = tmp_path / "map16.pgm"
        save_pgm(str(path), values, maxval=65535)
        loaded = load_pgm(str(path))
        assert np.abs(loaded - values).max() <= 0.5 / 65535 + 1e-12

    def test_pgm_ascii(self, tmp_path):
        path = tmp_path / "map.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 128 255\n255 128 0\n")
        loaded = load_pgm(str(path))
        assert loaded.shape == (2, 3)
        assert loaded[0, 2] == 1.0 and loaded[1, 2] == 0.0

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_pgm_pixels_are_the_integers_over_maxval(self, tmp_path, rng, maxval):
        pixels = rng.integers(0, maxval + 1, (5, 7))
        binary, ascii_ = tmp_path / "map.pgm", tmp_path / "map-ascii.pgm"
        dtype = ">u2" if maxval > 255 else np.uint8
        binary.write_bytes(f"P5\n7 5\n{maxval}\n".encode() + pixels.astype(dtype).tobytes())
        ascii_.write_text(f"P2\n7 5\n{maxval}\n" + " ".join(map(str, pixels.ravel())))
        expected = (pixels.astype(np.float64) / maxval).tobytes()
        assert load_pgm(str(binary)).tobytes() == expected
        assert load_pgm(str(ascii_)).tobytes() == expected

    @pytest.mark.parametrize("token", ["x", "3.5", "nan", "-3", "300"])
    def test_pgm_ascii_refuses_a_pixel_that_is_no_sample(self, tmp_path, token):
        # Each used to load as a number, fail later as a non-finite density,
        # or end in a ValueError traceback.
        path = tmp_path / "map.pgm"
        path.write_text(f"P2\n3 1\n255\n0 {token} 255\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
            load_pgm(str(path))

    def test_pgm_binary_refuses_a_sample_above_maxval(self, tmp_path):
        path = tmp_path / "map16.pgm"
        samples = np.array([0, 1000, 1001], dtype=">u2")
        path.write_bytes(b"P5\n3 1\n1000\n" + samples.tobytes())
        message = f"{path}: pixel value 1001 exceeds maxval 1000"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_pgm(str(path))

    def test_mask_areas_csv(self, tmp_path):
        path = tmp_path / "areas.csv"
        path.write_text("frame,area_pixels\n0,100\n1,400\n2,900\n")
        mask = load_mask_areas(str(path), (64, 64))
        assert_allclose(mask.areas, [100, 400, 900])
