"""Time-varying Bezier strokes: control points that ride polynomial trajectories.

A stroke is a degree-m Bezier curve whose m+1 control points each move along a
degree-n polynomial in normalized time, expressed in either the Bernstein or
the power basis. Evaluation is linear in the coefficients, so the Jacobian of
a trajectory position with respect to its coefficients is simply the basis row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import BasisKind, _check_unit, basis_matrix, basis_row, bernstein_matrix_direct
from .errors import DomainError, ValidationError, _frozen_field, _FrozenValue


@dataclass(frozen=True)
class TrajectoryPoly(_FrozenValue):
    """One control point's motion: degree-n polynomial coefficients in 2-D.

    `coeffs` has shape (n+1, 2). In the Bernstein basis the coefficients act as
    control points of the motion curve; in the power basis they are monomial
    coefficients.
    """

    basis: BasisKind
    coeffs: np.ndarray

    def __post_init__(self):
        arr = _frozen_field(self, "coeffs", "trajectory coefficients")
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValidationError(f"coeffs must have shape (n+1, 2), got {arr.shape}")

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1


@dataclass(frozen=True)
class Stroke:
    """A Bezier curve of degree m whose control points move over time."""

    control_trajectories: tuple[TrajectoryPoly, ...]

    def __post_init__(self):
        trajs = tuple(self.control_trajectories)
        if len(trajs) < 2:
            raise ValidationError("a stroke needs at least two control trajectories (m >= 1)")
        first = trajs[0]
        for traj in trajs[1:]:
            if traj.basis is not first.basis or traj.degree != first.degree:
                raise ValidationError(
                    "all control trajectories of a stroke must share basis and degree"
                )
        object.__setattr__(self, "control_trajectories", trajs)

    @property
    def curve_degree(self) -> int:
        return len(self.control_trajectories) - 1

    @property
    def trajectory_degree(self) -> int:
        return self.control_trajectories[0].degree

    @property
    def basis(self) -> BasisKind:
        return self.control_trajectories[0].basis


@dataclass(frozen=True)
class SketchAnimation(_FrozenValue):
    """N_s strokes on a fixed canvas, with a per-frame stroke-width schedule.

    Frame i maps to normalized time t_i = i / (num_frames - 1).
    """

    strokes: tuple[Stroke, ...]
    num_frames: int
    canvas: tuple[int, int]
    widths: np.ndarray

    def __post_init__(self):
        strokes = tuple(self.strokes)
        if len(strokes) < 1:
            raise ValidationError("animation needs at least one stroke")
        if self.num_frames < 2:
            raise ValidationError("animation needs at least two frames")
        widths = _frozen_field(self, "widths", "stroke widths")
        if widths.shape != (self.num_frames,):
            raise ValidationError(
                f"widths must have one entry per frame: got {widths.shape}, "
                f"expected ({self.num_frames},)"
            )
        if np.any(widths < 0):
            raise ValidationError("stroke widths must be nonnegative")
        w, h = self.canvas
        if w < 1 or h < 1:
            raise ValidationError(f"canvas must be at least 1x1, got {self.canvas}")
        object.__setattr__(self, "strokes", strokes)
        object.__setattr__(self, "canvas", (int(w), int(h)))

    @property
    def num_strokes(self) -> int:
        return len(self.strokes)

    def frame_times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.num_frames)


def default_trajectory_degree(num_frames: int) -> int:
    """ceil(num_frames / 2) - 1: pairs 50->24, 100->49, 200->99, 400->199."""
    if num_frames < 2:
        raise DomainError("need at least two frames")
    return math.ceil(num_frames / 2) - 1


def eval_trajectories(kind: BasisKind, coeffs: np.ndarray, times) -> np.ndarray:
    """Packed trajectories (n+1, ..., 2) at each time, shape (T, ..., 2).

    The library's one basis product (`_basis_product`), over ``basis_matrix``
    rows (log-space Bernstein rows above ``DIRECT_EVAL_MAX_DEGREE``).
    """
    return _basis_product(basis_matrix(kind, coeffs.shape[0] - 1, times), coeffs)


def _basis_product(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Basis rows `basis` (T, n+1) times packed trajectories (n+1, ..., 2).

    Einsum, unlike BLAS, gives row i the same bits however many times are
    evaluated together, so a caller may build the rows once for many strokes.
    """
    return np.einsum("tb,b...->t...", basis, coeffs)


def _stroke_coefficients(stroke: Stroke) -> np.ndarray:
    """The stroke's trajectories packed as (n+1, m+1, 2)."""
    return np.stack([traj.coeffs for traj in stroke.control_trajectories], axis=1)


def control_points(stroke: Stroke, times) -> np.ndarray:
    """The stroke's control points at each time, shape (T, m+1, 2)."""
    return eval_trajectories(stroke.basis, _stroke_coefficients(stroke), times)


def eval_trajectory(traj: TrajectoryPoly, t: float) -> np.ndarray:
    """Position of the control point at normalized time t (2-vector)."""
    return eval_trajectories(traj.basis, traj.coeffs, t)[0]


def eval_curve_point(stroke: Stroke, u: float, t: float) -> np.ndarray:
    """Point on the stroke at curve parameter u and time t."""
    row = basis_row(BasisKind.BERNSTEIN, stroke.curve_degree, u).values
    return row @ control_points(stroke, t)[0]


def sample_stroke(stroke: Stroke, t: float, n_p: int) -> np.ndarray:
    """n_p points on the stroke at time t, uniformly spaced in u (endpoints included),
    each equal to ``eval_curve_point`` at its u bit for bit (one stacked product
    of single rows)."""
    if n_p < 2:
        raise DomainError(f"need at least two sample points, got {n_p}")
    points = control_points(stroke, t)[0]
    rows = bernstein_matrix_direct(stroke.curve_degree, np.arange(n_p) / (n_p - 1))
    return (rows[:, None, :] @ points)[:, 0]


def sensitivity_l1(kind: BasisKind, n: int, t: float) -> float:
    """L1 norm of the position's sensitivity to its coefficients.

    Power basis: sum_i t^i, which ranges from 1 at t=0 to n+1 at t=1. The
    Bernstein basis sums to 1 identically, which is the point of using it.
    """
    if n < 0:
        raise DomainError(f"degree must be nonnegative, got {n}")
    _check_unit(t)
    if kind is BasisKind.BERNSTEIN:
        return 1.0
    return float(np.sum(np.float64(t) ** np.arange(n + 1)))


def coefficient_jacobian_row(traj: TrajectoryPoly, t: float) -> np.ndarray:
    """d(position)/d(coeffs[i]) per coordinate: the basis row at t.

    Evaluation is linear in the coefficients, so the Jacobian row is exactly
    the row used by ``eval_trajectory`` (same degree routing).
    """
    return basis_matrix(traj.basis, traj.degree, t)[0]


def trajectory_velocity(traj: TrajectoryPoly, t: float) -> np.ndarray:
    """Time derivative at t: the degree-(n-1) trajectory of the derivative coefficients."""
    n, c = traj.degree, traj.coeffs
    if n == 0:
        return np.zeros(2)
    if traj.basis is BasisKind.BERNSTEIN:
        derivative = n * (c[1:] - c[:-1])
    else:
        derivative = np.arange(1, n + 1)[:, None] * c[1:]
    return eval_trajectories(traj.basis, derivative, t)[0]


# --- packed-coefficient helpers used by the optimizer and exporters ---


def _packed_shape(anim: SketchAnimation) -> tuple[int, int, int, int]:
    """Shape (N_s, m+1, n+1, 2) of the packed coefficients, without stacking them.

    Raises ValidationError unless every stroke shares curve degree, trajectory
    degree and basis.
    """
    first = anim.strokes[0]
    m, n, kind = first.curve_degree, first.trajectory_degree, first.basis
    for stroke in anim.strokes:
        if (
            stroke.curve_degree != m
            or stroke.trajectory_degree != n
            or stroke.basis is not kind
        ):
            raise ValidationError("animation strokes must share degrees and basis to be packed")
    return (anim.num_strokes, m + 1, n + 1, 2)


def animation_coefficients(anim: SketchAnimation) -> np.ndarray:
    """Stack all trajectory coefficients into shape (N_s, m+1, n+1, 2).

    Requires every stroke to share curve degree, trajectory degree and basis;
    initialization always produces such animations.
    """
    _packed_shape(anim)
    return np.stack(
        [np.stack([traj.coeffs for traj in s.control_trajectories]) for s in anim.strokes]
    )


def replace_coefficients(anim: SketchAnimation, coeffs: np.ndarray) -> SketchAnimation:
    """Rebuild the animation with new packed coefficients (same shape/basis)."""
    expected = _packed_shape(anim)
    kind = anim.strokes[0].basis
    if coeffs.shape != expected:
        raise ValidationError(f"packed coefficients must have shape {expected}, got {coeffs.shape}")
    strokes = tuple(
        Stroke(tuple(TrajectoryPoly(kind, ctrl) for ctrl in stroke_coeffs))
        for stroke_coeffs in coeffs
    )
    return SketchAnimation(
        strokes=strokes,
        num_frames=anim.num_frames,
        canvas=anim.canvas,
        widths=anim.widths,
    )
