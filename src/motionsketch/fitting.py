"""Fit polynomial trajectories to per-frame positions.

Three strategies with very different conditioning behavior:

* interpolation through n+1 uniformly chosen frames (exact at the chosen
  frames, divergent between them at high degree),
* least squares over all frames via SVD (small residual, but the coefficients
  blow up once the design matrix is numerically rank deficient),
* ridge regression, which bounds the coefficients at the price of a small bias.

Each method's solve is written once, in ``_fit_columns``, which fits any
number of columns against one shared design matrix; the per-trajectory fits
and ``run_fit_benchmark`` (the trade-off table across (frame count, degree)
configurations) both call it, and both report errors through one column
report.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bernstein import BasisKind, basis_matrix
from .errors import (
    ConditioningError,
    DomainError,
    ValidationError,
    _check_time_grid,
    _frozen_field,
    _FrozenValue,
)
from .tracking import TrackSet
from .trajectory import TrajectoryPoly

DEFAULT_RIDGE_LAMBDA = 1e-3

# (frame_count, degree) rows of the benchmark.
DEFAULT_BENCHMARK_CONFIGS = ((50, 24), (100, 49), (200, 99), (400, 199))


class FitMethod(Enum):
    INTERPOLATION = "interpolation"
    LEAST_SQUARES = "least_squares"
    RIDGE = "ridge"


@dataclass(frozen=True)
class FitSamples(_FrozenValue):
    """Per-frame sample positions at normalized times (times[0]=0, times[-1]=1)."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        times = _frozen_field(self, "times", "sample times")
        positions = _frozen_field(self, "positions", "sample positions")
        _check_time_grid(times, "sample times")
        if positions.shape != (times.size, 2):
            raise ValidationError(
                f"positions must be (N_f, 2) for {times.size} times; got {positions.shape}"
            )

    @property
    def num_frames(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class FitReport:
    """Fit quality metrics: errors in pixels plus coefficient magnitude."""

    mae: float
    avg_abs_coeff: float
    max_abs_error: float
    condition_estimate: float

    def __post_init__(self):
        if self.mae < 0 or self.avg_abs_coeff < 0 or self.max_abs_error < 0:
            raise ValidationError("report fields must be nonnegative")
        # Tiny slack: both are means/maxima of the same nonnegative errors.
        if self.mae > self.max_abs_error * (1 + 1e-12) + 1e-12:
            raise ValidationError("mae cannot exceed max_abs_error")


def interpolation_frame_indices(num_frames: int, n: int) -> np.ndarray:
    """n+1 frame indices, uniformly spaced by index, first and last included."""
    if num_frames < n + 1:
        raise DomainError(f"need at least {n + 1} frames for degree {n}, got {num_frames}")
    return np.round(np.linspace(0, num_frames - 1, n + 1)).astype(int)


def _design_condition(design: np.ndarray) -> float:
    """The 2-norm condition number s_max / s_min of `design`, or inf when
    s_min is at or below eps * max(M, N) * s_max, the cutoff under which
    ``np.linalg.lstsq(rcond=None)`` counts a singular value out of the rank:
    past it the ratio is set by roundoff and means nothing."""
    s = np.linalg.svd(design, compute_uv=False)
    if s[-1] <= np.finfo(np.float64).eps * max(design.shape) * s[0]:
        return float("inf")
    return float(s[0] / s[-1])


def _lstsq(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank == 0 or not np.all(np.isfinite(solution)):
        raise ConditioningError(
            "least-squares solve failed (zero numerical rank or non-finite result)",
            condition=_design_condition(design),
        )
    return solution


def _ridge_solve(design: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Augmented least squares: stack sqrt(lam)*I under the design matrix.

    Every column of `rhs` is fitted in the one solve.
    """
    if not 0.0 <= lam < np.inf:
        raise DomainError(f"ridge lambda must be nonnegative and finite, got {lam}")
    if lam == 0.0:
        return _lstsq(design, rhs)
    k = design.shape[1]
    augmented = np.vstack([design, np.sqrt(lam) * np.eye(k)])
    padded = np.vstack([rhs, np.zeros((k, rhs.shape[1]))])
    return _lstsq(augmented, padded)


def _fit_columns(method: FitMethod, design: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Fit every column of `rhs` (N_f, K) against one design matrix; returns (n+1, K)."""
    num_frames, num_coeffs = design.shape
    if method is FitMethod.INTERPOLATION:
        idx = interpolation_frame_indices(num_frames, num_coeffs - 1)
        try:
            return np.linalg.solve(design[idx], rhs[idx])
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(
                f"interpolation system is singular: {exc}",
                condition=_design_condition(design[idx]),
            ) from exc
    if method is FitMethod.LEAST_SQUARES:
        if num_frames < num_coeffs:
            raise ConditioningError(
                f"underdetermined fit: {num_frames} frames for {num_coeffs} coefficients"
            )
        return _lstsq(design, rhs)
    return _ridge_solve(design, rhs, lam)


def fit_trajectory(
    samples: FitSamples,
    n: int,
    method: FitMethod,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    basis: BasisKind = BasisKind.BERNSTEIN,
) -> TrajectoryPoly:
    """Fit a degree-n trajectory to the samples with `method`."""
    design = basis_matrix(basis, n, samples.times)
    return TrajectoryPoly(basis, _fit_columns(method, design, samples.positions, ridge_lambda))


def fit_interpolation(
    samples: FitSamples, n: int, basis: BasisKind = BasisKind.BERNSTEIN
) -> TrajectoryPoly:
    """Interpolate through n+1 uniformly chosen frames (exact there, wild elsewhere)."""
    return fit_trajectory(samples, n, FitMethod.INTERPOLATION, basis=basis)


def fit_least_squares(
    samples: FitSamples, n: int, basis: BasisKind = BasisKind.BERNSTEIN
) -> TrajectoryPoly:
    """Minimize the summed squared error over all frames (SVD, never normal equations)."""
    return fit_trajectory(samples, n, FitMethod.LEAST_SQUARES, basis=basis)


def fit_ridge(
    samples: FitSamples, n: int, lam: float = DEFAULT_RIDGE_LAMBDA,
    basis: BasisKind = BasisKind.BERNSTEIN,
) -> TrajectoryPoly:
    """L2-regularized fit; full rank for any lam > 0. The penalty includes all coefficients."""
    return fit_trajectory(samples, n, FitMethod.RIDGE, lam, basis)


def fit_ridge_columns(
    times: np.ndarray, values: np.ndarray, n: int, lam: float = DEFAULT_RIDGE_LAMBDA,
    basis: BasisKind = BasisKind.BERNSTEIN,
) -> np.ndarray:
    """Ridge-fit every column of `values` (N_f, K) at `times`; returns (n+1, K).

    All columns share one design matrix, so one solve fits them all. Column k
    of the result is what fitting column k alone gives, up to roundoff.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != np.size(times):
        raise ValidationError(
            f"values must have shape (N_f, K) with N_f = {np.size(times)}, got {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValidationError("samples must be finite")
    return _fit_columns(FitMethod.RIDGE, basis_matrix(basis, n, times), values, lam)


def _column_report(
    design: np.ndarray, coeffs: np.ndarray, positions: np.ndarray
) -> tuple[float, float, float]:
    """Mean-over-tracks (mae, avg_abs_coeff, max_abs_error) of column-stacked fits.

    `coeffs` is (n+1, 2K), one (x, y) column pair per track; `positions` is
    (N_f, K, 2). The mae averages the errors of all frames of all tracks.
    """
    fitted = (design @ coeffs).reshape(design.shape[0], -1, 2)
    errors = np.linalg.norm(fitted - positions, axis=2)
    per_track_coeff = np.mean(np.abs(coeffs.reshape(coeffs.shape[0], -1, 2)), axis=(0, 2))
    return (
        float(np.mean(errors)),
        float(np.mean(per_track_coeff)),
        float(np.mean(np.max(errors, axis=0))),
    )


def evaluate_fit(traj: TrajectoryPoly, samples: FitSamples) -> FitReport:
    """Frame-wise Euclidean errors of the fitted trajectory against the samples."""
    design = basis_matrix(traj.basis, traj.degree, samples.times)
    return FitReport(
        *_column_report(design, traj.coeffs, samples.positions[:, None, :]),
        condition_estimate=_design_condition(design),
    )


@dataclass(frozen=True)
class BenchmarkRow:
    frames: int
    degree: int
    method: FitMethod
    mae: float
    avg_abs_coeff: float
    max_abs_error: float
    condition_estimate: float


@dataclass(frozen=True)
class BenchmarkResult:
    rows: tuple[BenchmarkRow, ...]
    skipped: tuple[tuple[int, int, str], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("frames,degree,method,mae,avg_abs_coeff,max_abs_error,condition_estimate\n")
        for r in self.rows:
            buf.write(
                f"{r.frames},{r.degree},{r.method.value},{r.mae:.6e},"
                f"{r.avg_abs_coeff:.6e},{r.max_abs_error:.6e},{r.condition_estimate:.6e}\n"
            )
        return buf.getvalue()

    def to_markdown(self) -> str:
        methods = list(FitMethod)
        labels = {
            FitMethod.INTERPOLATION: "interp",
            FitMethod.LEAST_SQUARES: "lstsq",
            FitMethod.RIDGE: "ridge",
        }
        by_key = {(r.frames, r.degree, r.method): r for r in self.rows}
        configs = sorted({(r.frames, r.degree) for r in self.rows})
        header = (
            ["frames", "degree"]
            + [f"MAE {labels[m]}" for m in methods]
            + [f"avg\\|coeff\\| {labels[m]}" for m in methods]
        )
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for frames, degree in configs:
            cells = [str(frames), str(degree)]
            cells += [f"{by_key[(frames, degree, m)].mae:.3e}" for m in methods]
            cells += [f"{by_key[(frames, degree, m)].avg_abs_coeff:.3e}" for m in methods]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def run_fit_benchmark(
    tracks: TrackSet,
    configs=DEFAULT_BENCHMARK_CONFIGS,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    basis: BasisKind = BasisKind.BERNSTEIN,
) -> BenchmarkResult:
    """Fit every track with all three methods at each (frames, degree) configuration.

    Tracks are truncated to the first `frames` frames with times renormalized
    to [0, 1]. Metrics are averaged over tracks. Configurations with too few
    frames are skipped with a warning record rather than failing the run.
    """
    rows: list[BenchmarkRow] = []
    skipped: list[tuple[int, int, str]] = []
    for frames, degree in configs:
        if tracks.num_frames < frames:
            skipped.append(
                (frames, degree, f"tracks have only {tracks.num_frames} frames, need {frames}")
            )
            continue
        if frames < degree + 1:
            skipped.append((frames, degree, f"{frames} frames cannot support degree {degree}"))
            continue
        times = np.linspace(0.0, 1.0, frames)
        # Views of the frame-major track buffer, neither of them a copy.
        by_frame = tracks.coords[:, :frames, :].transpose(1, 0, 2)  # (frames, K, 2)
        rhs = by_frame.reshape(frames, -1)  # (frames, 2K)
        design = basis_matrix(basis, degree, times)
        condition = _design_condition(design)
        for method in FitMethod:
            try:
                coeffs = _fit_columns(method, design, rhs, ridge_lambda)
            except ConditioningError:
                if method is not FitMethod.INTERPOLATION:
                    raise
                # No fit: every metric reads inf (inf coefficients through
                # the design's exact zeros would give nan errors).
                report = (np.inf, np.inf, np.inf)
            else:
                report = _column_report(design, coeffs, by_frame)
            rows.append(BenchmarkRow(frames, degree, method, *report, condition))
    return BenchmarkResult(rows=tuple(rows), skipped=tuple(skipped))
