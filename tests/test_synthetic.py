"""`make_benchmark_tracks` and `make_demo_tracks` form all points with array
operations, bit for bit as the per-point loops they replaced."""

import numpy as np
import pytest

from motionsketch import make_benchmark_tracks, make_demo_tracks
from motionsketch.synthetic import _AMPLITUDE_SPLIT, _CYCLES


def looped_benchmark_coords(num_points, num_frames, seed=0, canvas=(640, 480),
                            amplitude=100.0, noise=0.5):
    """The reference: one point at a time, each drawing its three phase pairs
    and then its noise from the stream."""
    rng = np.random.default_rng(seed)
    w, h = canvas
    t = np.linspace(0.0, 1.0, num_frames)
    margin = amplitude + 10.0
    centers = np.stack(
        [rng.uniform(margin, w - margin, num_points), rng.uniform(margin, h - margin, num_points)],
        axis=1,
    )
    coords = np.empty((num_points, num_frames, 2))
    for k in range(num_points):
        pos = np.repeat(centers[k][None, :], num_frames, axis=0)
        for cycles, amp in zip(_CYCLES, _AMPLITUDE_SPLIT * amplitude):
            phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
            omega = 2.0 * np.pi * cycles
            pos[:, 0] += amp * np.sin(omega * t + phase[0])
            pos[:, 1] += amp * np.cos(omega * t + phase[1])
        pos += rng.uniform(-noise, noise, size=pos.shape)
        coords[k] = pos
    return coords


@pytest.mark.parametrize(("num_points", "num_frames", "seed", "options"), [
    (1, 1, 0, {}),
    (3, 7, 1, {}),
    (16, 50, 2, {}),
    (257, 33, 3, {"canvas": (384, 384)}),
    (40, 200, 9, {"canvas": (300, 200), "amplitude": 40.0, "noise": 2.0}),
    (10, 12, 4, {"noise": 0.0}),
])
def test_tracks_equal_the_per_point_loop(num_points, num_frames, seed, options):
    got = make_benchmark_tracks(num_points, num_frames, seed, **options)
    expected = looped_benchmark_coords(num_points, num_frames, seed, **options)
    assert got.coords.shape == (num_points, num_frames, 2)
    assert np.array_equal(got.coords.view(np.int64), expected.view(np.int64))
    assert np.array_equal(got.ids, np.arange(num_points))


def looped_demo_coords(num_points=16, num_frames=50, seed=7, canvas=(256, 256)):
    """The reference: one point at a time, each drawing its angle jitter."""
    rng = np.random.default_rng(seed)
    w, h = canvas
    t = np.linspace(0.0, 1.0, num_frames)
    center = np.array([w / 2.0, h / 2.0])
    drift = np.stack([30.0 * np.sin(2.0 * np.pi * t), 20.0 * np.sin(4.0 * np.pi * t)], axis=1)
    coords = np.empty((num_points, num_frames, 2))
    for k in range(num_points):
        angle0 = 2.0 * np.pi * k / num_points + rng.uniform(-0.1, 0.1)
        radius = (min(w, h) / 4.0) * (1.0 + 0.25 * np.sin(2.0 * np.pi * t + angle0))
        angle = angle0 + 0.8 * np.sin(2.0 * np.pi * t)
        ring = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        coords[k] = center + drift + ring
    return coords


@pytest.mark.parametrize(("num_points", "num_frames", "seed", "canvas"), [
    (1, 1, 0, (256, 256)),
    (3, 7, 1, (256, 256)),
    (16, 50, 7, (256, 256)),
    (257, 33, 3, (384, 200)),
    (40, 200, 9, (300, 301)),
])
def test_demo_tracks_equal_the_per_point_loop(num_points, num_frames, seed, canvas):
    got = make_demo_tracks(num_points, num_frames, seed, canvas)
    expected = looped_demo_coords(num_points, num_frames, seed, canvas)
    assert got.coords.shape == (num_points, num_frames, 2)
    assert np.array_equal(got.coords.view(np.int64), expected.view(np.int64))
    assert np.array_equal(got.ids, np.arange(num_points))
