"""Shared test fixtures and SVG-parsing helpers."""

import re
from unittest import mock

import numpy as np
import pytest

from motionsketch import BasisKind, SketchAnimation, Stroke, TrackSet, TrajectoryPoly, tracking


# JSON texts that are not a JSON integer within int64, for the fields the
# loaders read as one: floats (a whole one too), a string, a bool, null, and
# integers just outside int64.
NOT_INT64 = ["3.5", "50.0", "1e200", '"7"', "true", "null", str(2**63), str(-(2**63) - 1)]


def make_animation(coeffs_per_stroke, num_frames, canvas=(256, 256), widths=None,
                   basis=BasisKind.BERNSTEIN):
    """Animation from nested coefficient arrays: [stroke][control] -> (n+1, 2)."""
    strokes = tuple(
        Stroke(tuple(TrajectoryPoly(basis, np.asarray(c, dtype=float)) for c in ctrls))
        for ctrls in coeffs_per_stroke
    )
    if widths is None:
        widths = np.ones(num_frames)
    return SketchAnimation(strokes=strokes, num_frames=num_frames, canvas=canvas,
                           widths=widths)


def random_animation(rng, num_strokes=2, num_frames=3, curve_degree=2,
                     trajectory_degree=3, canvas=(100, 100), scale=100.0):
    coeffs = [
        [rng.uniform(0, scale, (trajectory_degree + 1, 2)) for _ in range(curve_degree + 1)]
        for _ in range(num_strokes)
    ]
    return make_animation(coeffs, num_frames, canvas=canvas)


def random_tracks(rng, num_points=4, num_frames=3, scale=100.0):
    return TrackSet(ids=np.arange(num_points),
                    coords=rng.uniform(0, scale, (num_points, num_frames, 2)))


_POINT_RE = re.compile(r"(-?\d+\.\d+),(-?\d+\.\d+)")


def parse_path_points(d: str) -> np.ndarray:
    """All coordinate pairs appearing in an SVG path `d` string, in order."""
    return np.array([[float(x), float(y)] for x, y in _POINT_RE.findall(d)])


def parse_frame_paths(svg_text: str) -> list[str]:
    """The `d` attribute of every path element in a (frame) SVG document."""
    return re.findall(r'<path d="([^"]+)"', svg_text)


def parse_animated_keys(svg_text: str):
    """Per stroke: (key_times, key_path_data) from an animated SVG document."""
    out = []
    for m in re.finditer(
        r'<animate attributeName="d" [^>]*keyTimes="([^"]+)" values="([^"]+)"/>',
        svg_text,
    ):
        times = np.array([float(v) for v in m.group(1).split(";")])
        out.append((times, m.group(2).split(";")))
    return out


def eval_piecewise_path(d: str, count_per_segment: int = 9) -> np.ndarray:
    """Evaluate every cubic segment of a path at a local parameter grid.

    Returns an array of shape (num_segments, count_per_segment, 2). Only valid
    for paths consisting of M followed by C commands.
    """
    pts = parse_path_points(d)
    segments = d.count("C")
    u = np.linspace(0.0, 1.0, count_per_segment)
    rows = np.stack([(1 - u) ** 3, 3 * u * (1 - u) ** 2, 3 * u**2 * (1 - u), u**3], axis=1)
    out = np.empty((segments, count_per_segment, 2))
    prev = pts[0]
    for s in range(segments):
        ctrl = np.vstack([prev, pts[1 + 3 * s : 4 + 3 * s]])
        prev = pts[3 + 3 * s]
        out[s] = rows @ ctrl
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def force_kdtree_route():
    """A decorator (or context) under which every nonempty batch takes the
    KD-tree route: batches as small as a test's would otherwise scan."""
    return mock.patch.object(tracking, "_SCAN_MAX_DISTANCES", 0)
