"""Loss functions with analytic gradients and the trajectory optimizer.

Both losses are sums of squared distances between points that are linear in
the trajectory coefficients, so their gradients are exact. The one nonlinearity
is the nearest-tracked-point assignment inside the consistency loss; it is
piecewise constant, so it is recomputed once per iteration and *frozen* during
each gradient evaluation, which makes the gradient exact almost everywhere.

The consistency term sums, over every source frame i and target frame t,
the squared mismatch between a sampled point's displacement and that of the
track row it was assigned in frame i. Grouped by (sample point, track row)
pair, the sum over t is a sum of squares centered about the pair's own mean,
so no N_f x N_f expansion is formed and nothing cancels. Pairs are processed
in bounded chunks, keeping peak memory independent of the frame count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bernstein import BasisKind, basis_matrix, basis_row
from .errors import DivergenceError, ValidationError
from .tracking import _KDTREE_MIN_POINTS, TrackSet, nearest_rows, nearest_rows_per_frame
from .trajectory import SketchAnimation, animation_coefficients, replace_coefficients


@dataclass(frozen=True)
class LossWeights:
    """Weights of the attachment (w_s), reserved geometry (w_g) and consistency
    (w_c) terms of the total loss."""

    w_s: float = 1.0
    w_g: float = 0.0
    w_c: float = 0.5

    def __post_init__(self):
        if not all(0.0 <= w < np.inf for w in (self.w_s, self.w_g, self.w_c)):
            raise ValidationError("loss weights must be finite and nonnegative")
        if self.w_s == 0 and self.w_g == 0 and self.w_c == 0:
            raise ValidationError("at least one loss weight must be positive")


@dataclass(frozen=True)
class OptimConfig:
    iterations: int
    step_size: float = 0.1
    moment_decay_1: float = 0.9
    moment_decay_2: float = 0.999
    n_p: int = 8
    epsilon: float = 1e-8
    log_every: int = 10

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError("need at least one iteration")
        if self.n_p < 2:
            raise ValidationError("need at least two sample points per stroke")
        if not (0.0 < self.moment_decay_1 < 1.0 and 0.0 < self.moment_decay_2 < 1.0):
            raise ValidationError("moment decays must lie in (0, 1)")
        if self.step_size < 0 or self.epsilon <= 0 or self.log_every < 1:
            raise ValidationError("bad step size, epsilon, or log interval")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    consistency: float
    attachment: float
    geometry: float = 0.0
    history: tuple = ()
    component_history: tuple = field(default=(), repr=False)


# Elements (pairs x frames) per chunk of the consistency term's temporaries.
_PAIR_CHUNK_ELEMENTS = 1 << 16


def _at_frames(q: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """Control points at the frame times, shape (N_f, N_s, m+1, 2)."""
    flat = q.transpose(2, 0, 1, 3).reshape(q.shape[2], -1)
    return (b_t @ flat).reshape(b_t.shape[0], q.shape[0], q.shape[1], 2)


def _to_coefficients(g: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """Adjoint of `_at_frames`: (N_f, N_s, m+1, 2) -> (N_s, m+1, n+1, 2)."""
    num_frames, num_strokes, m1, _ = g.shape
    flat = b_t.T @ g.reshape(num_frames, -1)
    return flat.reshape(-1, num_strokes, m1, 2).transpose(1, 2, 0, 3)


class _Objective:
    """The weighted objective w_s*attachment + w_g*geometry + w_c*consistency.

    Checks its inputs and precomputes the bases once: trajectory rows at the
    frame times (B_t), curve rows at the N_p-point u grid (B_u) and the
    midpoint row (u = 0.5). Zero-weight terms need no inputs and are skipped.
    """

    def __init__(
        self,
        anim: SketchAnimation,
        tracks: TrackSet | None,
        targets: np.ndarray | None,
        weights: LossWeights,
        n_p: int,
        geometry_term=None,
    ):
        if weights.w_c > 0:
            if tracks is None:
                raise ValidationError("consistency weight is positive but no tracks given")
            if tracks.num_frames != anim.num_frames:
                raise ValidationError(
                    f"track frames ({tracks.num_frames}) != animation frames "
                    f"({anim.num_frames})"
                )
        if weights.w_s > 0:
            if targets is None:
                raise ValidationError("attachment weight is positive but no targets given")
            targets = np.asarray(targets, dtype=np.float64)
            expected = (anim.num_strokes, anim.num_frames, 2)
            if targets.shape != expected:
                raise ValidationError(
                    f"targets must have shape {expected}, got {targets.shape}"
                )
        if weights.w_g > 0 and geometry_term is None:
            raise ValidationError("geometry weight is positive but no geometry term given")
        self.anim, self.tracks, self.targets = anim, tracks, targets
        self.weights, self.geometry_term = weights, geometry_term
        first = anim.strokes[0]
        self.b_t = basis_matrix(first.basis, first.trajectory_degree, anim.frame_times())
        self.b_u = basis_matrix(
            BasisKind.BERNSTEIN, first.curve_degree, np.linspace(0.0, 1.0, n_p)
        )
        self.b_mid = basis_row(BasisKind.BERNSTEIN, first.curve_degree, 0.5).values
        if weights.w_c > 0:
            # Track motion relative to frame 0, shape (K, 2, N_f): a static
            # point and a static track then differ by exact zeros.
            coords = tracks.coords.transpose(0, 2, 1)
            self.track_motion = np.subtract(coords, coords[:, :, :1], out=np.empty(coords.shape))

    def assign(self, q: np.ndarray) -> np.ndarray | None:
        """Nearest tracked-point row per sampled stroke point, shape (N_f, N_s, N_p);
        None when the consistency term is off."""
        if self.weights.w_c == 0:
            return None
        samples = self.b_u @ _at_frames(q, self.b_t)
        if self.tracks.num_points < _KDTREE_MIN_POINTS:
            return nearest_rows_per_frame(samples, self.tracks)
        return np.stack([nearest_rows(samples[f], f, self.tracks) for f in range(len(samples))])

    def consistency(self, q: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and gradient of

            1/(N_p N_f) * sum_{i, p, t} |D_pr(i) - D_pr(t)|^2,  r = rows[i, p],

        where D_pr(t) is sample point p minus track row r at frame t. For a
        pair (p, r) assigned in the frames I, with C = D - mean_t D, the sum
        over i in I and all t is |I| sum_t |C(t)|^2 + N_f sum_{i in I} |C(i)|^2.
        """
        num_frames, n_p = self.b_t.shape[0], self.b_u.shape[0]
        samples = self.b_u @ _at_frames(q, self.b_t)  # (N_f, N_s, N_p, 2)
        motion = np.ascontiguousarray(samples.reshape(num_frames, -1, 2).transpose(1, 2, 0))
        motion -= motion[:, :, :1]  # (P, 2, N_f), relative to frame 0 like track_motion
        num_points, num_rows = motion.shape[0], self.track_motion.shape[0]

        # Sort the (frame, point) entries by (point, row) pair: the entries of
        # a pair, and the pairs and entries of a point, are then contiguous.
        keys = (rows.reshape(num_frames, -1) + np.arange(num_points) * num_rows).reshape(-1)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        pair_point, pair_row = np.divmod(keys[starts], num_rows)
        bounds = np.append(starts, keys.size)

        value = 0.0
        grad = np.zeros_like(motion)
        chunk = max(1, _PAIR_CHUNK_ELEMENTS // num_frames)
        for a in range(0, pair_point.size, chunk):
            b = min(a + chunk, pair_point.size)
            p = pair_point[a:b]
            centered = motion[p]
            centered -= self.track_motion[pair_row[a:b]]
            centered -= centered.mean(axis=2, keepdims=True)  # C per pair, (pairs, 2, N_f)
            counts = np.diff(bounds[a : b + 1])
            weighted = counts[:, None, None] * centered
            frames, owner = np.divmod(order[bounds[a] : bounds[b]], num_points)
            at_source = centered[np.repeat(np.arange(b - a), counts), :, frames]  # C(i)
            value += float(np.vdot(weighted, centered))
            value += num_frames * float(np.vdot(at_source, at_source))
            # d/dD(t) of a pair's terms: 2 (|I| C(t) + N_f C(t) [t in I] - sum_I C(i)).
            first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
            grad[p[first]] += np.add.reduceat(weighted, first, axis=0)
            grad[owner, :, frames] += num_frames * at_source
            first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
            grad[owner[first]] -= np.add.reduceat(at_source, first, axis=0)[:, :, None]

        scale = 1.0 / (n_p * num_frames)
        point_grad = (2.0 * scale) * grad.transpose(2, 0, 1).reshape(samples.shape)
        return scale * value, _to_coefficients(self.b_u.T @ point_grad, self.b_t)

    def attachment(self, q: np.ndarray) -> tuple[float, np.ndarray]:
        num_frames, num_strokes = self.b_t.shape[0], q.shape[0]
        mids = self.b_mid @ _at_frames(q, self.b_t)  # (N_f, N_s, 2)
        diff = mids - self.targets.transpose(1, 0, 2)
        scale = 1.0 / (num_frames * num_strokes)
        value = scale * float(np.sum(diff * diff))
        ctrl_grad = self.b_mid[:, None] * ((2.0 * scale) * diff)[:, :, None, :]
        return value, _to_coefficients(ctrl_grad, self.b_t)

    def value_grad(self, q: np.ndarray, rows: np.ndarray | None):
        """(LossBreakdown, gradient) at coefficients `q`, assignments `rows` frozen."""
        w = self.weights
        grad = np.zeros_like(q)
        consistency = attachment = geometry = 0.0
        if w.w_c > 0:
            consistency, g = self.consistency(q, rows)
            grad += w.w_c * g
        if w.w_s > 0:
            attachment, g = self.attachment(q)
            grad += w.w_s * g
        if w.w_g > 0:
            geometry, g = self.geometry_term(replace_coefficients(self.anim, q))
            grad += w.w_g * g
        total = w.w_s * attachment + w.w_g * geometry + w.w_c * consistency
        breakdown = LossBreakdown(
            total=total, consistency=consistency, attachment=attachment, geometry=geometry
        )
        return breakdown, grad


# Weights that select a single term, for the per-term entry points.
_CONSISTENCY_ONLY = LossWeights(w_s=0.0, w_c=1.0)
_ATTACHMENT_ONLY = LossWeights(w_s=1.0, w_c=0.0)


def consistency_assignments(
    anim: SketchAnimation, tracks: TrackSet, n_p: int
) -> np.ndarray:
    """Nearest tracked-point row per sampled stroke point, shape (N_f, N_s, N_p)."""
    objective = _Objective(anim, tracks, None, _CONSISTENCY_ONLY, n_p)
    return objective.assign(animation_coefficients(anim))


def consistency_loss_grad(
    anim: SketchAnimation,
    tracks: TrackSet,
    n_p: int,
    assignments: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Temporal consistency loss and its exact gradient (frozen assignments).

    Every sampled stroke point must move, between any two frames, like its
    nearest tracked point does. `assignments` freezes the nearest-point choice
    (as the per-iteration optimizer does); when omitted it is computed here.
    """
    objective = _Objective(anim, tracks, None, _CONSISTENCY_ONLY, n_p)
    q = animation_coefficients(anim)
    rows = objective.assign(q) if assignments is None else assignments
    return objective.consistency(q, rows)


def attachment_loss_grad(
    anim: SketchAnimation, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared distance between stroke midpoints (u=0.5) and their targets.

    `targets` has shape (N_s, N_f, 2). This is the pluggable data term standing
    in the semantic-loss slot; its gradient is exact (the map is linear).
    """
    objective = _Objective(anim, None, targets, _ATTACHMENT_ONLY, 2)
    return objective.attachment(animation_coefficients(anim))


def total_loss(
    anim: SketchAnimation,
    tracks: TrackSet | None,
    targets: np.ndarray | None,
    weights: LossWeights,
    n_p: int,
    geometry_term=None,
    assignments: np.ndarray | None = None,
) -> tuple[LossBreakdown, np.ndarray]:
    """Weighted sum of the loss components; zero-weight components are skipped.

    A positive `w_g` needs `geometry_term`, a callable mapping the animation
    to (value, gradient with the packed-coefficient shape).
    """
    objective = _Objective(anim, tracks, targets, weights, n_p, geometry_term)
    q = animation_coefficients(anim)
    rows = objective.assign(q) if assignments is None else assignments
    return objective.value_grad(q, rows)


def optimize_animation(
    anim: SketchAnimation,
    tracks: TrackSet | None,
    targets: np.ndarray | None,
    weights: LossWeights,
    config: OptimConfig,
    geometry_term=None,
) -> tuple[SketchAnimation, LossBreakdown]:
    """Adaptive-moment gradient descent on all trajectory coefficients.

    Nearest-point assignments are recomputed once per iteration and frozen
    within each gradient evaluation. Deterministic given its inputs; raises
    DivergenceError (with the iteration) if the loss or gradient goes
    non-finite.
    """
    objective = _Objective(anim, tracks, targets, weights, config.n_p, geometry_term)
    q = animation_coefficients(anim).copy()
    moment1 = np.zeros_like(q)
    moment2 = np.zeros_like(q)
    beta1, beta2 = config.moment_decay_1, config.moment_decay_2
    history: list[tuple[int, float]] = []
    components: list[tuple[int, float, float, float]] = []

    for it in range(1, config.iterations + 1):
        loss, grad = objective.value_grad(q, objective.assign(q))
        if not (np.isfinite(loss.total) and np.all(np.isfinite(grad))):
            raise DivergenceError(
                f"non-finite loss or gradient at iteration {it}", iteration=it
            )
        if it == 1 or it % config.log_every == 0 or it == config.iterations:
            history.append((it, loss.total))
            components.append((it, loss.total, loss.consistency, loss.attachment))
        # A gradient at roundoff scale means converged; the scale-free moment
        # normalization would otherwise amplify numerical noise into drift.
        if np.abs(grad).max() <= 1e-12 * max(1.0, np.abs(q).max()):
            continue
        moment1 = beta1 * moment1 + (1.0 - beta1) * grad
        moment2 = beta2 * moment2 + (1.0 - beta2) * grad * grad
        corrected1 = moment1 / (1.0 - beta1**it)
        corrected2 = moment2 / (1.0 - beta2**it)
        q = q - config.step_size * corrected1 / (np.sqrt(corrected2) + config.epsilon)

    final, _ = objective.value_grad(q, objective.assign(q))
    breakdown = replace(final, history=tuple(history), component_history=tuple(components))
    return replace_coefficients(anim, q), breakdown


def finite_difference_check(
    anim: SketchAnimation,
    tracks: TrackSet | None,
    targets: np.ndarray | None,
    weights: LossWeights,
    n_p: int,
    step: float = 1e-1,
) -> float:
    """Worst relative error between the analytic gradient and central differences.

    Assignments are frozen across all evaluations, which makes the objective
    exactly quadratic: central differences carry no truncation error at any
    step, and the only error left is cancellation in f(q+h) - f(q-h), which
    shrinks as the step grows. Hence the large default step. Small instances check
    every coefficient coordinate; large ones check a deterministic random 5%
    subset. Coordinates where both gradients are numerically zero contribute 0.
    A positive `w_g` is rejected: this check has no geometry term. A non-finite
    gradient or central difference raises ``DivergenceError``, never a silent 0.
    """
    if not 0.0 < step < np.inf:
        raise ValidationError(f"step must be positive and finite, got {step}")
    objective = _Objective(anim, tracks, targets, weights, n_p)
    q0 = animation_coefficients(anim)
    rows = objective.assign(q0)
    _, grad = objective.value_grad(q0, rows)
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("analytic gradient is not finite")

    flat_grad = grad.reshape(-1)
    size = flat_grad.size
    if size <= 512:
        indices = np.arange(size)
    else:
        count = max(1, int(round(0.05 * size)))
        indices = np.sort(np.random.default_rng(0).choice(size, count, replace=False))

    worst = 0.0
    flat_q = q0.reshape(-1)
    for idx in indices:
        bumped = flat_q.copy()
        bumped[idx] += step
        f_plus = objective.value_grad(bumped.reshape(q0.shape), rows)[0].total
        bumped[idx] -= 2.0 * step
        f_minus = objective.value_grad(bumped.reshape(q0.shape), rows)[0].total
        fd = (f_plus - f_minus) / (2.0 * step)
        if not np.isfinite(fd):
            raise DivergenceError(f"central difference at coordinate {idx} is not finite")
        denom = max(abs(fd), abs(flat_grad[idx]))
        if denom < 1e-9:
            continue
        worst = max(worst, abs(fd - flat_grad[idx]) / denom)
    return worst
