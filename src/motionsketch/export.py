"""Model files, SVG export, and continuous-time frame-rate resampling.

The model file is single-line JSON (format_version 1) carrying everything
needed to re-evaluate the animation: canvas, widths, and per-stroke trajectory
coefficients. Per-frame and animated exports share one path-data builder, fed
by one basis product per stroke over all the times it renders, so the k-th key
geometry of an animated SVG is byte-identical to the standalone frame export
at the same time. Numbers are written with 6 decimals, locale-independent.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .bernstein import BasisKind, basis_matrix, solve_control_points
from .errors import DomainError, ParseError, UnsupportedVersionError, ValidationError
from .trajectory import SketchAnimation, Stroke, TrajectoryPoly

FORMAT_VERSION = 1

_KNOWN_FIELDS = {"format_version", "canvas", "num_frames", "widths", "strokes"}
_KNOWN_STROKE_FIELDS = {"basis", "curve_degree", "trajectory_degree", "control_trajectories"}

# Exact piecewise-cubic conversion is impossible above degree 3; subdivision
# stops once the parsed-back curve is well inside the 1e-5 render/eval budget.
_SUBDIVISION_TOLERANCE = 5e-7

# Collocation nodes used to pass a cubic through four on-curve points.
_CUBIC_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])


@dataclass(frozen=True)
class FrameRatePlan:
    """Output frame times in [0, 1] for resampling an animation."""

    input_fps: float
    output_fps: float
    output_frame_times: np.ndarray

    def __post_init__(self):
        times = np.ascontiguousarray(np.asarray(self.output_frame_times, dtype=np.float64))
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValidationError("output times must be strictly increasing")
        if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12:
            raise ValidationError("output times must start at 0 and end at 1")
        times.setflags(write=False)
        object.__setattr__(self, "output_frame_times", times)

    @property
    def num_output_frames(self) -> int:
        return self.output_frame_times.size

    @property
    def duration_seconds(self) -> float:
        return self.num_output_frames / self.output_fps


def model_document(anim: SketchAnimation) -> dict:
    """The JSON-serializable model document for an animation."""
    return {
        "format_version": FORMAT_VERSION,
        "canvas": [anim.canvas[0], anim.canvas[1]],
        "num_frames": anim.num_frames,
        "widths": anim.widths.tolist(),
        "strokes": [
            {
                "basis": stroke.basis.value,
                "curve_degree": stroke.curve_degree,
                "trajectory_degree": stroke.trajectory_degree,
                "control_trajectories": [
                    traj.coeffs.tolist() for traj in stroke.control_trajectories
                ],
            }
            for stroke in anim.strokes
        ],
    }


def save_model(anim: SketchAnimation, path: str) -> dict:
    """Write the model document as one line of JSON and return the document.

    One-shot ``json.dumps`` without indentation runs the C encoder; streaming
    ``json.dump`` or an indent would take the pure-Python one.
    """
    doc = model_document(anim)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")
    return doc


def load_model(path: str) -> SketchAnimation:
    """Load a model file; unknown fields are ignored with a warning."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: model document must be a JSON object")
    version = doc.get("format_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ParseError(f"{path}: missing integer format_version")
    if version < 1:
        raise ParseError(f"{path}: format_version must be at least 1, got {version}")
    if version > FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: format_version {version} is newer than supported {FORMAT_VERSION}"
        )
    unknown = set(doc) - _KNOWN_FIELDS
    if unknown:
        warnings.warn(f"{path}: ignoring unknown model fields {sorted(unknown)}")
    try:
        canvas = (int(doc["canvas"][0]), int(doc["canvas"][1]))
        num_frames = int(doc["num_frames"])
        widths = np.asarray(doc["widths"], dtype=np.float64)
        strokes = []
        for entry in doc["strokes"]:
            stroke_unknown = set(entry) - _KNOWN_STROKE_FIELDS
            if stroke_unknown:
                warnings.warn(
                    f"{path}: ignoring unknown stroke fields {sorted(stroke_unknown)}"
                )
            kind = BasisKind(entry["basis"])
            trajs = tuple(
                TrajectoryPoly(kind, np.asarray(coeffs, dtype=np.float64))
                for coeffs in entry["control_trajectories"]
            )
            strokes.append(Stroke(trajs))
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"{path}: malformed model document: {exc!r}") from exc
    return SketchAnimation(
        strokes=tuple(strokes), num_frames=num_frames, canvas=canvas, widths=widths
    )


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _fmt_point(point: np.ndarray) -> str:
    return f"{_fmt(point[0])},{_fmt(point[1])}"


def _control_points(stroke: Stroke, times: np.ndarray) -> np.ndarray:
    """The stroke's control points at each time, shape (T, m+1, 2).

    One basis product for all times. It is summed by einsum rather than BLAS,
    whose result for a row depends on how many rows are multiplied together;
    this way a key of an animated export equals the frame export bit for bit.
    """
    coeffs = np.stack([traj.coeffs for traj in stroke.control_trajectories], axis=1)
    rows = basis_matrix(stroke.basis, stroke.trajectory_degree, times)
    return np.einsum("tb,bac->tac", rows, coeffs)


def _piecewise_cubics(points: np.ndarray) -> np.ndarray:
    """Approximate the degree-m>3 Bezier curve with control `points` by cubics
    through on-curve points, shape (segments, 4, 2).

    Segment endpoints (and the two interior collocation points defining each
    cubic) lie exactly on the curve; segment count doubles until the parsed
    curve deviates less than the subdivision tolerance. Each round evaluates
    every segment's on-curve and check points with one curve-basis product and
    solves all segments' collocation systems at once.
    """
    m = points.shape[0] - 1
    segments = max(2, (m + 2) // 3)
    check_u = np.linspace(0.0, 1.0, 9)
    check_rows = basis_matrix(BasisKind.BERNSTEIN, 3, check_u)
    while True:
        cuts = np.linspace(0.0, 1.0, segments + 1)
        a, span = cuts[:-1, None], np.diff(cuts)[:, None]
        u = np.concatenate([a + span * _CUBIC_NODES, a + span * check_u], axis=1)
        on_curve = basis_matrix(BasisKind.BERNSTEIN, m, u.reshape(-1)) @ points
        on_curve = on_curve.reshape(segments, -1, 2)
        nodes, exact = on_curve[:, :4], on_curve[:, 4:]
        rhs = nodes.transpose(1, 0, 2).reshape(4, -1)
        cubics = solve_control_points(rhs, _CUBIC_NODES).reshape(4, segments, 2)
        cubics = cubics.transpose(1, 0, 2)
        worst = float(np.max(np.abs(check_rows @ cubics - exact)))
        if worst <= _SUBDIVISION_TOLERANCE or segments >= 1024:
            return cubics
        segments *= 2


def _path_data(points: np.ndarray) -> str:
    """SVG path `d` for the Bezier curve with control `points` (m+1, 2)."""
    m = points.shape[0] - 1
    if m == 1:
        return f"M {_fmt_point(points[0])} L {_fmt_point(points[1])}"
    if m == 2:
        return (
            f"M {_fmt_point(points[0])} Q {_fmt_point(points[1])} {_fmt_point(points[2])}"
        )
    if m == 3:
        return (
            f"M {_fmt_point(points[0])} C {_fmt_point(points[1])} "
            f"{_fmt_point(points[2])} {_fmt_point(points[3])}"
        )
    cubics = _piecewise_cubics(points)
    parts = [f"M {_fmt_point(cubics[0][0])}"]
    for ctrl in cubics:
        parts.append(f"C {_fmt_point(ctrl[1])} {_fmt_point(ctrl[2])} {_fmt_point(ctrl[3])}")
    return " ".join(parts)


def stroke_path_data(stroke: Stroke, t: float) -> str:
    """SVG path `d` for the stroke at time t (L/Q/C for m = 1/2/3, cubics above)."""
    return _path_data(_control_points(stroke, np.array([t]))[0])


def width_at(anim: SketchAnimation, t: float) -> float:
    """Stroke width at time t: linear interpolation of the per-frame schedule."""
    return float(np.interp(t, anim.frame_times(), anim.widths))


def _check_time(t: float) -> None:
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t!r}")


def render_frame_svg(anim: SketchAnimation, t: float) -> str:
    """One SVG document showing the animation at time t."""
    _check_time(t)
    w, h = anim.canvas
    width = _fmt(width_at(anim, t))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
    ]
    for stroke in anim.strokes:
        lines.append(
            f'  <path d="{stroke_path_data(stroke, t)}" fill="none" stroke="black" '
            f'stroke-width="{width}" stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def export_frame_svg(anim: SketchAnimation, t: float, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(render_frame_svg(anim, t))


def render_animated_svg(anim: SketchAnimation, plan: FrameRatePlan) -> str:
    """One SVG whose paths morph through the plan's key times.

    Each key's path data equals the per-frame export at the same t.
    """
    w, h = anim.canvas
    times = plan.output_frame_times
    key_times = ";".join(_fmt(t) for t in times)
    duration = _fmt(plan.duration_seconds)
    widths = [_fmt(width_at(anim, t)) for t in times]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
    ]
    for stroke in anim.strokes:
        keys = [_path_data(points) for points in _control_points(stroke, times)]
        lines.append(
            f'  <path d="{keys[0]}" fill="none" stroke="black" '
            f'stroke-width="{widths[0]}" stroke-linecap="round">'
        )
        lines.append(
            f'    <animate attributeName="d" dur="{duration}s" repeatCount="indefinite" '
            f'calcMode="linear" keyTimes="{key_times}" values="{";".join(keys)}"/>'
        )
        lines.append(
            f'    <animate attributeName="stroke-width" dur="{duration}s" '
            f'repeatCount="indefinite" calcMode="linear" keyTimes="{key_times}" '
            f'values="{";".join(widths)}"/>'
        )
        lines.append("  </path>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def export_animated_svg(anim: SketchAnimation, plan: FrameRatePlan, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(render_animated_svg(anim, plan))


def resample_framerate(
    anim: SketchAnimation, input_fps: float, output_fps: float
) -> FrameRatePlan:
    """Uniform output times with the endpoint-preserving frame count
    round((N_f - 1) * output_fps / input_fps) + 1."""
    if not (0.0 < input_fps < np.inf and 0.0 < output_fps < np.inf):
        raise DomainError(f"frame rates must be positive and finite, got {input_fps}, {output_fps}")
    intervals = (anim.num_frames - 1) * output_fps / input_fps
    if not intervals < np.inf:
        raise DomainError(f"output frame count overflows at {output_fps}/{input_fps} fps")
    count = int(round(intervals)) + 1
    return FrameRatePlan(
        input_fps=float(input_fps),
        output_fps=float(output_fps),
        output_frame_times=np.linspace(0.0, 1.0, count),
    )
