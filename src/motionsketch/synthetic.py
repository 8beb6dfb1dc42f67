"""Synthetic track generators for benchmarks, demos, and tests.

The benchmark track mimics a dancer-like motion: per point, a sum of three
sinusoids with incommensurate frequencies (multiples of sqrt(2), sqrt(3),
sqrt(5), so the signal never repeats) plus uniform pixel noise. Amplitudes
are ~100 px by default.
"""

from __future__ import annotations

import numpy as np

from .tracking import TrackSet

_CYCLES = np.array([np.sqrt(2.0), 2.0 * np.sqrt(3.0), 3.0 * np.sqrt(5.0)])
_AMPLITUDE_SPLIT = np.array([0.6, 0.3, 0.1])


def make_benchmark_tracks(
    num_points: int,
    num_frames: int,
    seed: int = 0,
    canvas: tuple[int, int] = (640, 480),
    amplitude: float = 100.0,
    noise: float = 0.5,
) -> TrackSet:
    """Complex-motion tracks: three incommensurate sinusoids plus uniform noise."""
    rng = np.random.default_rng(seed)
    w, h = canvas
    t = np.linspace(0.0, 1.0, num_frames)
    margin = amplitude + 10.0
    centers = np.stack(
        [
            rng.uniform(margin, w - margin, num_points),
            rng.uniform(margin, h - margin, num_points),
        ],
        axis=1,
    )
    # Each point's draws in stream order: an (x, y) phase pair per sinusoid,
    # then its (N_f, 2) noise. One draw of all points keeps that order.
    low = np.concatenate([np.zeros(6), np.full(2 * num_frames, -noise)])
    high = np.concatenate([np.full(6, 2.0 * np.pi), np.full(2 * num_frames, noise)])
    draws = rng.uniform(low, high, size=(num_points, low.size))
    phases = draws[:, :6].reshape(num_points, 3, 2)
    coords = np.repeat(centers[:, None, :], num_frames, axis=1)
    for c, (cycles, amp) in enumerate(zip(_CYCLES, _AMPLITUDE_SPLIT * amplitude)):
        omega = 2.0 * np.pi * cycles
        coords[:, :, 0] += amp * np.sin(omega * t + phases[:, c, 0, None])
        coords[:, :, 1] += amp * np.cos(omega * t + phases[:, c, 1, None])
    coords += draws[:, 6:].reshape(num_points, num_frames, 2)
    return TrackSet(ids=np.arange(num_points), coords=coords)


def make_demo_tracks(
    num_points: int = 16,
    num_frames: int = 50,
    seed: int = 7,
    canvas: tuple[int, int] = (256, 256),
) -> TrackSet:
    """Gentle swirling motion for the end-to-end demo: a drifting, breathing ring."""
    rng = np.random.default_rng(seed)
    w, h = canvas
    t = np.linspace(0.0, 1.0, num_frames)
    center = np.array([w / 2.0, h / 2.0])
    drift = np.stack([30.0 * np.sin(2.0 * np.pi * t), 20.0 * np.sin(4.0 * np.pi * t)], axis=1)
    # (points, 1) against (frames,): every point's ring over every frame.
    angle0 = (2.0 * np.pi * np.arange(num_points) / num_points
              + rng.uniform(-0.1, 0.1, num_points))[:, None]
    radius = (min(w, h) / 4.0) * (1.0 + 0.25 * np.sin(2.0 * np.pi * t + angle0))
    angle = angle0 + 0.8 * np.sin(2.0 * np.pi * t)
    ring = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return TrackSet(ids=np.arange(num_points), coords=center + drift + ring)
