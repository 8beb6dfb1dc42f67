"""Model files, SVG export, and continuous-time frame-rate resampling.

The model file is single-line JSON (format_version 1) carrying everything
needed to re-evaluate the animation: canvas, widths, and per-stroke trajectory
coefficients. Per-frame and animated exports share one path-data builder and
one document header. The builder builds each trajectory basis once for all
strokes of its (basis, degree) and feeds the library's one batch-invariant
basis product (the one behind ``trajectory.control_points``), so the k-th key
geometry of an animated SVG is byte-identical to the frame export at the
same time. Numbers are written with 6 decimals, locale-independent.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .bernstein import BasisKind, _check_unit, basis_matrix, solve_control_points
from .errors import (
    DomainError,
    MotionSketchError,
    ParseError,
    UnsupportedVersionError,
    _check_time_grid,
    _frozen_field,
    _FrozenValue,
    _json_floats,
    _json_int,
    _read_text,
)
from .trajectory import (
    SketchAnimation,
    Stroke,
    TrajectoryPoly,
    _basis_product,
    _stroke_coefficients,
)

FORMAT_VERSION = 1

_KNOWN_FIELDS = {"format_version", "canvas", "num_frames", "widths", "strokes"}
_KNOWN_STROKE_FIELDS = {"basis", "curve_degree", "trajectory_degree", "control_trajectories"}

# Exact piecewise-cubic conversion is impossible above degree 3; subdivision
# stops once the parsed-back curve is well inside the 1e-5 render/eval budget.
_SUBDIVISION_TOLERANCE = 5e-7

# Collocation nodes used to pass a cubic through four on-curve points.
_CUBIC_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])


@dataclass(frozen=True)
class FrameRatePlan(_FrozenValue):
    """Output frame times in [0, 1] for resampling an animation."""

    input_fps: float
    output_fps: float
    output_frame_times: np.ndarray

    def __post_init__(self):
        times = _frozen_field(self, "output_frame_times", "output times")
        _check_time_grid(times, "output times")

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
    try:
        doc = json.loads(_read_text(path))
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
        where = f"{path}: malformed model document"
        canvas = tuple(_json_int(doc["canvas"][k], "'canvas'", where) for k in (0, 1))
        num_frames = _json_int(doc["num_frames"], "'num_frames'", where)
        widths = _json_floats(doc["widths"], "'widths'", where)
        strokes = []
        for index, entry in enumerate(doc["strokes"]):
            stroke_unknown = set(entry) - _KNOWN_STROKE_FIELDS
            if stroke_unknown:
                warnings.warn(
                    f"{path}: ignoring unknown stroke fields {sorted(stroke_unknown)}"
                )
            kind = BasisKind(entry["basis"])
            field = f"stroke {index} 'control_trajectories'"
            trajs = tuple(
                TrajectoryPoly(kind, _json_floats(coeffs, field, where))
                for coeffs in entry["control_trajectories"]
            )
            strokes.append(Stroke(trajs))
            for name in ("curve_degree", "trajectory_degree"):
                field, actual = f"stroke {index} '{name}'", getattr(strokes[-1], name)
                if _json_int(entry[name], field, where) != actual:
                    raise ParseError(f"{where}: {field} is {entry[name]}, its arrays give {actual}")
    except MotionSketchError:
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed model document: {exc!r}") from exc
    return SketchAnimation(
        strokes=tuple(strokes), num_frames=num_frames, canvas=canvas, widths=widths
    )


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _piecewise_cubics(points: np.ndarray) -> list[np.ndarray]:
    """Approximate each degree-m>3 Bezier curve with control `points` (T, m+1,
    2) by cubics through on-curve points, shape (segments, 4, 2) per curve.

    Segment endpoints (and the two interior collocation points defining each
    cubic) lie exactly on the curve; a curve's segment count doubles until its
    parsed curve deviates less than the subdivision tolerance, so each curve
    leaves at its own count. Each round takes every curve still subdividing:
    one curve-basis product per curve evaluates every segment's on-curve and
    check points, and one solve covers all their collocation systems.
    """
    m = points.shape[1] - 1
    segments = max(2, (m + 2) // 3)
    check_u = np.linspace(0.0, 1.0, 9)
    check_rows = basis_matrix(BasisKind.BERNSTEIN, 3, check_u)
    done = [None] * len(points)
    active = np.arange(len(points))
    while True:
        cuts = np.linspace(0.0, 1.0, segments + 1)
        a, span = cuts[:-1, None], np.diff(cuts)[:, None]
        u = np.concatenate([a + span * _CUBIC_NODES, a + span * check_u], axis=1)
        on_curve = basis_matrix(BasisKind.BERNSTEIN, m, u.reshape(-1)) @ points[active]
        on_curve = on_curve.reshape(len(active), segments, -1, 2)
        nodes, exact = on_curve[:, :, :4], on_curve[:, :, 4:]
        rhs = nodes.transpose(2, 0, 1, 3).reshape(4, -1)
        cubics = solve_control_points(rhs, _CUBIC_NODES).reshape(4, len(active), segments, 2)
        cubics = cubics.transpose(1, 2, 0, 3)
        worst = np.abs(check_rows @ cubics - exact).max(axis=(1, 2, 3))
        finished = (worst <= _SUBDIVISION_TOLERANCE) | (segments >= 1024)
        for curve, curve_cubics in zip(active[finished], cubics[finished]):
            done[curve] = curve_cubics
        active = active[~finished]
        if not len(active):
            return done
        segments *= 2


def _path_data(points: np.ndarray) -> list[str]:
    """SVG path `d` for each Bezier curve with control `points` (T, m+1, 2).

    All coordinates of a key are formatted at once, as Python floats from one
    ``tolist``: "%.6f" prints them exactly like `_fmt` prints numpy scalars.
    """
    m = points.shape[1] - 1
    if m <= 3:
        template = "M %.6f,%.6f " + "LQC"[m - 1] + " %.6f,%.6f" * m
        return [template % tuple(key) for key in points.reshape(len(points), -1).tolist()]
    paths = []
    for cubics in _piecewise_cubics(points):
        template = "M %.6f,%.6f" + " C %.6f,%.6f %.6f,%.6f %.6f,%.6f" * len(cubics)
        coords = np.concatenate([cubics[0, 0], cubics[:, 1:].reshape(-1)])
        paths.append(template % tuple(coords.tolist()))
    return paths


def _stroke_keys(strokes, times):
    """Each stroke's SVG path `d` at every time of `times`, one list per
    stroke; the trajectory basis is built once per (basis, degree)."""
    bases = {}
    for stroke in strokes:
        kind, degree = stroke.basis, stroke.trajectory_degree
        if (kind, degree) not in bases:
            bases[kind, degree] = basis_matrix(kind, degree, times)
        yield _path_data(_basis_product(bases[kind, degree], _stroke_coefficients(stroke)))


def stroke_path_data(stroke: Stroke, t: float) -> str:
    """SVG path `d` for the stroke at time t (L/Q/C for m = 1/2/3, cubics above)."""
    return next(_stroke_keys((stroke,), t))[0]


def width_at(anim: SketchAnimation, t: float | np.ndarray) -> float | np.ndarray:
    """Stroke width at time t, or at each of an array of times: linear
    interpolation of the per-frame schedule."""
    return np.interp(t, anim.frame_times(), anim.widths)


def _svg_header(anim: SketchAnimation) -> list[str]:
    """The opening lines of an SVG document on the animation's canvas."""
    w, h = anim.canvas
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
    ]


def render_frame_svg(anim: SketchAnimation, t: float) -> str:
    """One SVG document showing the animation at time t."""
    _check_unit(t)
    width = _fmt(width_at(anim, t))
    lines = _svg_header(anim)
    for keys in _stroke_keys(anim.strokes, t):
        lines.append(
            f'  <path d="{keys[0]}" fill="none" stroke="black" '
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
    times = plan.output_frame_times
    key_times = ";".join(_fmt(t) for t in times)
    duration = _fmt(plan.duration_seconds)
    widths = [_fmt(w) for w in width_at(anim, times)]
    lines = _svg_header(anim)
    for keys in _stroke_keys(anim.strokes, times):
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
    try:
        times = np.linspace(0.0, 1.0, count)
    except (ValueError, MemoryError):  # numpy cannot hold that many
        raise DomainError(f"cannot make {count:.6g} output frames") from None
    return FrameRatePlan(
        input_fps=float(input_fps), output_fps=float(output_fps), output_frame_times=times
    )
