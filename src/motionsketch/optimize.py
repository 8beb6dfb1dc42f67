"""Loss functions with analytic gradients and the trajectory optimizer.

Both losses are sums of squared distances between points that are linear in
the trajectory coefficients, so their gradients are exact. The one nonlinearity
is the nearest-tracked-point assignment inside the consistency loss; it is
piecewise constant, so it is recomputed once per iteration and *frozen* during
each gradient evaluation, which makes the gradient exact almost everywhere.
Both terms read the same curves at the same frame times: one basis product
per evaluation forms every stroke's N_p sampled points and, last, its
attachment midpoint (u = 0.5), and one adjoint product maps both terms'
weighted point gradients, written into one array, back to the coefficients.

The consistency term sums, over every source frame i and target frame t,
the squared mismatch between a sampled point's displacement and that of the
track row r_i it was assigned in frame i. Let X_p and Y_r be the motions of
sample point p and track row r relative to frame 0 and centered over the N_f
frames (a static point or track is exactly 0). The frozen assignment enters
through A, the sparse (points x tracks) counts of the distinct (point, row)
pairs, and own_p(i) = Y_{r_i}(i). A centered motion sums to zero over the
frames, so the terms of source frame i add up to |X_p - Y_r|^2 +
N_f |X_p(i) - Y_r(i)|^2 with r = r_i. The value, and its gradient with
respect to sample point p at frame s, are

    value = (sum_{(p,r) in A} A_pr |X_p - Y_r|^2 + N_f |X - own|^2) / (N_p N_f),
    grad = 2/(N_p N_f) * (2 N_f X_p(s) - N_f own_p(s) + sum_i own_p(i) - (A @ Y)_p(s)).

A is a scipy CSR matrix; `scipy.sparse` is imported on the first freeze of
an assignment, so only a consistency-weighted objective loads it.

The value is a sum of squared differences, so nothing cancels (the expanded
form does, and a zero loss would read as roundoff). Its pair sum walks A's
pairs in their CSR order, in chunks of a bounded number of elements: a chunk
gathers its rows Y_r and its pairs' points X_p into two buffers reused by
every chunk, so peak memory stays independent of N_f. The walk yields one
squared norm per pair, which the value weights by A's counts and the
gradient checker sums per stroke (below).

The assignment is certified between evaluations, like the skin of a Verlet
neighbour list. Each query of a sample point also gives a radius: half the
gap between its nearest and second-nearest track distance, less a relative
slack of 1e-9, and 0 at ties. Within that radius of the position where it was
queried, the point's row stays the strict nearest by more than any rounding,
so only the points that have moved at least their radius since then (and
every non-finite one) are queried again, all in one call of the nearest-track
query of `tracking`, which picks the scan or the KD-trees. Either way the
rows are those of `nearest_rows` frame by frame, bit for bit.

The value costs up to several times the gradient, so the optimizer computes it
only where it is read: at logged iterations (the first, every `log_every`-th
and the last) and for the final breakdown. `total_loss`,
`consistency_loss_grad` and the central differences of
`finite_difference_check` always compute it. The attachment value is
computed in every iteration, so a non-finite attachment value or gradient
stops the optimizer at once; a consistency value that overflows while its
gradient stays finite is caught at the next logged iteration, or in the
final breakdown when the last update makes it overflow. Distances that
overflow in the assignment at such coefficients stay silent: the
DivergenceError is the one report.

Under a frozen assignment the objective is a sum of per-stroke terms f_s:
each pair of A and each own-term belongs to a sampled point, hence to its
stroke, and so does each attachment term. A bump of stroke s's coefficients
moves only f_s, so the checker takes each central difference of f_s alone.
It freezes one assignment and builds A and own once; copies of the strokes,
each with at most one coordinate bumped, then go through the optimizer's own
steps (curve points, motion, pair norms, attachment residuals) in chunks of
bounded size, with their strokes' rows of A and own. Every stroke's unbumped
f_s is evaluated too, so an overflow in a stroke without a sampled
coordinate is still reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .bernstein import BasisKind, basis_matrix
from .errors import DivergenceError, ValidationError
from .tracking import TrackSet, _nearest
from .tracking import nearest_rows  # noqa: F401  (unused; the benchmark tracer wraps it here)
from .trajectory import SketchAnimation, animation_coefficients, replace_coefficients

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


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
        finite = 0.0 <= self.step_size < np.inf and 0.0 < self.epsilon < np.inf
        if not finite or self.log_every < 1:
            raise ValidationError("bad step size, epsilon, or log interval")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    consistency: float
    attachment: float
    geometry: float = 0.0
    history: tuple = ()
    component_history: tuple = field(default=(), repr=False)


# Size of a chunk of bounded temporaries, so they stay in L2 like the scan
# blocks of `tracking`: the pair walk's two float64 buffers hold this many
# (pair, frame) entries of two coordinates (512 KiB each), and each
# copy-sized array of the gradient checker at most this many values.
_PAIR_CHUNK_ELEMENTS = 1 << 15


# BLAS, not the einsum of `trajectory.eval_trajectories`, which costs 45-80x more
# here (per call, 2-vCPU host: demo 27 us -> 1.19 ms, scene 1.5 -> 120 ms); the
# optimizer always evaluates all frames together, so needs no batch invariance.
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
    frame times (B_t) and curve rows (B_u) at the N_p-point u grid, then at
    the midpoint u = 0.5. Zero-weight terms need no inputs and are skipped.
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
        if n_p < 2:
            raise ValidationError(f"need at least two sample points per stroke, got {n_p}")
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
        self.attachment_scale = 1.0 / (anim.num_frames * anim.num_strokes)
        first = anim.strokes[0]
        self.b_t = basis_matrix(first.basis, first.trajectory_degree, anim.frame_times())
        u = np.append(np.linspace(0.0, 1.0, n_p), 0.5)
        self.n_p, self.b_u = n_p, basis_matrix(BasisKind.BERNSTEIN, first.curve_degree, u)
        if weights.w_c > 0:
            # Track motion relative to frame 0 and centered, (K, 2, N_f): a
            # static point and a static track then differ by exact zeros.
            coords = tracks.coords.transpose(0, 2, 1)
            motion = np.subtract(coords, coords[:, :, :1], out=np.empty(coords.shape))
            motion -= motion.mean(axis=2, keepdims=True)
            self.track_centered = motion
            # The certified assignment of `assign`, per (frame, sample point).
            # A zero radius certifies nothing, so the first call queries all.
            size = self.b_t.shape[0] * anim.num_strokes * n_p
            self._anchor = np.zeros((size, 2))
            self._rows = np.zeros(size, dtype=np.intp)
            self._radius2 = np.zeros(size)

    def points(self, q: np.ndarray) -> np.ndarray:
        """Curve points at the frame times, shape (N_f, N_s, N_p+1, 2): the
        N_p sampled stroke points, then the stroke midpoint."""
        return self.b_u @ _at_frames(q, self.b_t)

    def assign(self, samples: np.ndarray) -> np.ndarray:
        """Nearest tracked-point row per sampled stroke point, shape (N_f, N_s, N_p).

        Rows are certified between calls. Each query also yields a radius
        (half the gap to the second-nearest track, less a relative slack of
        1e-9, so 0 at ties): while a point stays within that radius of the
        position it was queried at (its anchor), the triangle inequality keeps
        the row the strict nearest by more than any rounding, so the query
        would return it again. Only the points whose squared displacement from
        their anchor is not below the squared radius are queried, which
        includes every point on the first call and every non-finite one, and
        only their anchor, row and radius are refreshed. The rows therefore
        equal a full query bit for bit; the caller gets a copy of them.

        The queried points go to `tracking._nearest` in one call. Squared
        distances that overflow at diverged coefficients are left as inf
        without a warning; the finiteness check of the loss reports the
        divergence.
        """
        points = samples.reshape(-1, 2)
        per_frame = len(points) // len(samples)
        with np.errstate(over="ignore", invalid="ignore"):
            moved = points - self._anchor
            moved *= moved
            stale = ~(moved[:, 0] + moved[:, 1] < self._radius2)
        index = np.flatnonzero(stale)
        queries = points[index]
        with np.errstate(over="ignore"):
            rows, radius = _nearest(queries, index // per_frame, self.tracks)
        self._anchor[index] = queries
        self._rows[index] = rows
        self._radius2[index] = radius * radius
        return self._rows.reshape(samples.shape[:-1]).copy()

    def motion(self, samples: np.ndarray) -> np.ndarray:
        """X of the module docstring: the sample motion relative to frame 0
        and centered, shape (P, 2, N_f)."""
        num_frames = samples.shape[0]
        motion = np.ascontiguousarray(samples.reshape(num_frames, -1, 2).transpose(1, 2, 0))
        motion -= motion[:, :, :1]
        motion -= motion.mean(axis=2, keepdims=True)
        return motion

    def freeze(self, rows: np.ndarray) -> tuple[csr_matrix, np.ndarray]:
        """(A, own) of the module docstring for the frozen `rows` (N_f, N_s,
        N_p); A is (P x K), own has shape (P, 2, N_f)."""
        num_frames = rows.shape[0]
        point_rows = rows.reshape(num_frames, -1).T  # r_i per point, (P, N_f)
        num_points, num_rows = point_rows.shape[0], self.track_centered.shape[0]
        # Consistency term only: not at module level, so init, export and interp skip scipy.sparse.
        from scipy.sparse import csr_matrix

        counts = csr_matrix(
            (np.ones(point_rows.size), point_rows.reshape(-1),
             np.arange(0, point_rows.size + 1, num_frames)),
            shape=(num_points, num_rows),
        )
        counts.sum_duplicates()
        # own[p, c, i] = Y[r_i, c, i], one gather from the flat (K, 2, N_f) array.
        offsets = np.arange(2 * num_frames).reshape(2, num_frames)
        own = np.take(self.track_centered, point_rows[:, None, :] * (2 * num_frames) + offsets)
        return counts, own

    def pair_norms(self, motion: np.ndarray, counts: csr_matrix) -> np.ndarray:
        """|X_p - Y_r|^2 per pair of A, in A's CSR order.

        The walk takes A's pairs in chunks of at most `_PAIR_CHUNK_ELEMENTS`
        elements cut between any two pairs. A chunk gathers its rows Y_r and
        its pairs' points X_p into two buffers reused by every chunk,
        subtracts them in place and reduces each pair's squared norm.
        """
        num_frames = self.b_t.shape[0]
        num_points, num_pairs = counts.shape[0], counts.nnz
        chunk = max(1, _PAIR_CHUNK_ELEMENTS // num_frames)  # pairs per chunk
        x = motion.reshape(num_points, -1)
        y = self.track_centered.reshape(counts.shape[1], -1)
        pair_points = np.repeat(np.arange(num_points), np.diff(counts.indptr))
        buffer = np.empty((min(chunk, num_pairs), x.shape[1]))
        points = np.empty_like(buffer)
        norms = np.empty(num_pairs)
        for start in range(0, num_pairs, chunk):
            pairs = slice(start, start + chunk)
            rows = counts.indices[pairs]
            diff, x_p = buffer[: len(rows)], points[: len(rows)]
            # mode="clip" writes straight into the buffers (the indices are in range).
            np.take(y, rows, axis=0, out=diff, mode="clip")
            np.take(x, pair_points[pairs], axis=0, out=x_p, mode="clip")
            diff -= x_p
            np.einsum("ke,ke->k", diff, diff, out=norms[pairs])
        return norms

    def consistency_value(self, motion: np.ndarray, counts: csr_matrix, own: np.ndarray) -> float:
        """The consistency value of the module docstring, its pair sum
        weighting the norms of `pair_norms` by A's counts."""
        num_frames, n_p = self.b_t.shape[0], self.n_p
        value = float(counts.data @ self.pair_norms(motion, counts))
        diff = motion - own
        value += num_frames * float(np.vdot(diff, diff))
        return value / (n_p * num_frames)

    def consistency_grad(
        self, motion: np.ndarray, counts: csr_matrix, own: np.ndarray
    ) -> np.ndarray:
        """w_c times the gradient of the consistency value with respect to the
        sampled points (N_f, N_s, N_p, 2): the closed form of the module
        docstring, for the sample rows of `value_grad`'s point gradient."""
        num_frames, n_p = self.b_t.shape[0], self.n_p
        grad = (2.0 * num_frames) * motion
        grad -= num_frames * own
        grad += own.sum(axis=2, keepdims=True)
        grad -= (counts @ self.track_centered.reshape(counts.shape[1], -1)).reshape(motion.shape)
        grad *= 2.0 * self.weights.w_c / (n_p * num_frames)
        return grad.transpose(2, 0, 1).reshape(num_frames, -1, n_p, 2)

    def attachment_residual(self, points: np.ndarray, strokes=slice(None)) -> np.ndarray:
        """Stroke midpoints minus their targets, shape (N_f, B, 2): the last
        row of `points` (N_f, B, N_p+1, 2) of copies of the strokes `strokes`
        (all by default), whose gradient fills that row of the point gradient."""
        return points[:, :, -1] - self.targets.transpose(1, 0, 2)[:, strokes]

    def stroke_values(
        self, q: np.ndarray, strokes: np.ndarray, frozen: tuple[csr_matrix, np.ndarray] | None
    ) -> np.ndarray:
        """Per-stroke objective terms f_s of copies of strokes, shape (B,).

        `q` (B, m+1, n+1, 2) holds the coefficients of B stroke copies; copy
        b stands for stroke ``strokes[b]``: its sampled points take that
        stroke's rows of ``frozen = freeze(rows)`` and its midpoint that
        stroke's targets. Under a frozen assignment every pair, own-term and
        attachment term belongs to one stroke, so the weighted objective is
        the sum of f_s over the strokes. The terms reduce the same pair
        norms and attachment residuals as the total, per copy.
        """
        w = self.weights
        values = np.zeros(len(q))
        points = self.points(q)
        if w.w_c > 0:
            num_frames, n_p = self.b_t.shape[0], self.n_p
            rows = (strokes[:, None] * n_p + np.arange(n_p)).reshape(-1)
            counts, own = frozen[0][rows], frozen[1][rows]
            motion = self.motion(points[:, :, :n_p])
            # Every point has at least one pair, so no copy's pair run is empty.
            pairs = np.add.reduceat(
                counts.data * self.pair_norms(motion, counts), counts.indptr[:-1:n_p]
            )
            diff = (motion - own).reshape(len(q), -1)
            own_terms = np.einsum("be,be->b", diff, diff)
            values += (w.w_c / (n_p * num_frames)) * (pairs + num_frames * own_terms)
        if w.w_s > 0:
            diff = self.attachment_residual(points, strokes)
            values += (w.w_s * self.attachment_scale) * np.einsum("fbc,fbc->b", diff, diff)
        return values

    def value_grad(
        self,
        q: np.ndarray,
        frozen: tuple[csr_matrix, np.ndarray] | None = None,
        *,
        consistency_value: bool = True,
        gradient: bool = True,
    ) -> tuple[LossBreakdown, np.ndarray | None]:
        """(LossBreakdown, gradient) at coefficients `q`, with the assignment
        frozen as ``frozen = freeze(rows)`` (assigned at `q` when None).
        ``gradient=False`` returns None for the gradient.
        ``consistency_value=False`` skips the consistency value: the breakdown
        reads it as nan and its total covers the other terms."""
        w = self.weights
        consistency = attachment = geometry = 0.0
        points = self.points(q)
        grad = None
        if w.w_c > 0:
            samples = points[:, :, : self.n_p]
            if frozen is None:
                frozen = self.freeze(self.assign(samples))
            motion = self.motion(samples)
            consistency = self.consistency_value(motion, *frozen) if consistency_value else np.nan
            samples_grad = self.consistency_grad(motion, *frozen) if gradient else None
        if w.w_s > 0:
            diff = self.attachment_residual(points)
            attachment = self.attachment_scale * float(np.sum(diff * diff))
        if gradient:
            # Allocated once the consistency gradient's temporaries are freed (peak memory).
            point_grad = np.zeros_like(points)
            if w.w_c > 0:
                point_grad[:, :, : self.n_p] = samples_grad
            if w.w_s > 0:
                point_grad[:, :, -1] = (2.0 * w.w_s * self.attachment_scale) * diff
            grad = _to_coefficients(self.b_u.T @ point_grad, self.b_t)
        if w.w_g > 0:
            geometry, g = self.geometry_term(replace_coefficients(self.anim, q))
            if gradient:
                grad += w.w_g * g
        total = w.w_s * attachment + w.w_g * geometry
        if consistency_value:
            total += w.w_c * consistency
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
    return objective.assign(objective.points(animation_coefficients(anim))[:, :, :n_p])


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
    The value is the exactly centered per-pair sum and the gradient the closed
    form of the module docstring; both are always computed.
    """
    objective = _Objective(anim, tracks, None, _CONSISTENCY_ONLY, n_p)
    frozen = None if assignments is None else objective.freeze(assignments)
    breakdown, grad = objective.value_grad(animation_coefficients(anim), frozen)
    return breakdown.consistency, grad


def attachment_loss_grad(
    anim: SketchAnimation, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared distance between stroke midpoints (u=0.5) and their targets.

    `targets` has shape (N_s, N_f, 2). This is the pluggable data term standing
    in the semantic-loss slot; its gradient is exact (the map is linear).
    """
    objective = _Objective(anim, None, targets, _ATTACHMENT_ONLY, 2)
    breakdown, grad = objective.value_grad(animation_coefficients(anim))
    return breakdown.attachment, grad


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
    frozen = None
    if assignments is not None and weights.w_c > 0:
        frozen = objective.freeze(assignments)
    return objective.value_grad(animation_coefficients(anim), frozen)


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
    within each gradient evaluation. The consistency value is computed only at
    logged iterations and for the final breakdown (see the module docstring).
    Deterministic given its inputs; raises DivergenceError (with the
    iteration) if the gradient, a computed loss value or the final loss goes
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
        logged = it == 1 or it % config.log_every == 0 or it == config.iterations
        loss, grad = objective.value_grad(q, consistency_value=logged)
        if not (np.isfinite(loss.total) and np.all(np.isfinite(grad))):
            raise DivergenceError(
                f"non-finite loss or gradient at iteration {it}", iteration=it
            )
        if logged:
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

    final, _ = objective.value_grad(q, gradient=False)
    if not np.isfinite(final.total):
        it = config.iterations
        raise DivergenceError(f"non-finite loss after iteration {it}", iteration=it)
    breakdown = replace(final, history=tuple(history), component_history=tuple(components))
    return replace_coefficients(anim, q), breakdown


def _stroke_differences(
    objective: _Objective,
    q0: np.ndarray,
    frozen: tuple[csr_matrix, np.ndarray] | None,
    indices: np.ndarray,
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(central differences at the flat coordinates `indices` of `q0`, every
    stroke's unbumped term f_s(q0)).

    A bump of stroke s's coefficients moves only f_s, so the difference at a
    coordinate of stroke s is (f_s(q0 + h e) - f_s(q0 - h e)) / 2h. One list
    of stroke copies (each stroke unbumped, then each coordinate bumped by +h
    and by -h) goes through `stroke_values` in chunks; a chunk's copy-sized
    arrays (coefficients, control points, curve points, motion) hold at most
    `_PAIR_CHUNK_ELEMENTS` elements each, so peak memory does not grow with
    the number of bumps.
    """
    num_strokes, num_frames = len(q0), objective.b_t.shape[0]
    flat = q0.reshape(num_strokes, -1)
    bumped_strokes, bumped_coords = np.divmod(indices, flat.shape[1])
    strokes = np.concatenate([np.arange(num_strokes), np.repeat(bumped_strokes, 2)])
    coords = np.concatenate([np.zeros(num_strokes, np.intp), np.repeat(bumped_coords, 2)])
    deltas = np.concatenate([np.zeros(num_strokes), np.tile([step, -step], len(indices))])
    per_copy = max(flat.shape[1], 2 * num_frames * max(q0.shape[1], objective.b_u.shape[0]))
    chunk = max(1, _PAIR_CHUNK_ELEMENTS // per_copy)  # copies per chunk
    values = np.empty(len(strokes))
    for start in range(0, len(strokes), chunk):
        part = slice(start, start + chunk)
        batch = flat[strokes[part]]
        batch[np.arange(len(batch)), coords[part]] += deltas[part]
        values[part] = objective.stroke_values(
            batch.reshape(-1, *q0.shape[1:]), strokes[part], frozen
        )
    plus, minus = values[num_strokes::2], values[num_strokes + 1 :: 2]
    with np.errstate(invalid="ignore"):  # inf - inf: the caller reports it
        return (plus - minus) / (2.0 * step), values[:num_strokes]


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
    shrinks as the step grows. Hence the large default step. The frozen
    objective is a sum of per-stroke terms f_s and a bump of stroke s moves
    only f_s, so each difference is taken of f_s alone, and all bumps are
    evaluated as batches of stroke copies (see `_stroke_differences`). Small
    instances check every coefficient coordinate; large ones check a
    deterministic random 5% subset. Coordinates where both gradients are
    numerically zero contribute 0. A positive `w_g` is rejected: this check
    has no geometry term. A non-finite analytic gradient or central
    difference raises ``DivergenceError`` naming the lowest such coordinate,
    and so does a non-finite unbumped f_s(q0) of any stroke, sampled or not;
    never a silent 0.
    """
    if not 0.0 < step < np.inf:
        raise ValidationError(f"step must be positive and finite, got {step}")
    objective = _Objective(anim, tracks, targets, weights, n_p)
    q0 = animation_coefficients(anim)
    # One frozen A and own serve every evaluation; each one recomputes only X.
    frozen = None
    if weights.w_c > 0:
        frozen = objective.freeze(objective.assign(objective.points(q0)[:, :, :n_p]))
    _, grad = objective.value_grad(q0, frozen, consistency_value=False)
    flat_grad = grad.reshape(-1)
    bad = np.flatnonzero(~np.isfinite(flat_grad))
    if bad.size:
        raise DivergenceError(f"analytic gradient at coordinate {bad[0]} is not finite")

    size = flat_grad.size
    if size <= 512:
        indices = np.arange(size)
    else:
        count = max(1, int(round(0.05 * size)))
        indices = np.sort(np.random.default_rng(0).choice(size, count, replace=False))

    fd, unbumped = _stroke_differences(objective, q0, frozen, indices, step)
    bad = np.flatnonzero(~np.isfinite(fd))
    if bad.size:
        raise DivergenceError(f"central difference at coordinate {indices[bad[0]]} is not finite")
    bad = np.flatnonzero(~np.isfinite(unbumped))
    if bad.size:
        raise DivergenceError(f"objective term of stroke {bad[0]} is not finite")
    analytic = flat_grad[indices]
    denom = np.maximum(np.abs(fd), np.abs(analytic))
    checked = denom >= 1e-9
    errors = np.abs(fd - analytic)[checked] / denom[checked]
    return float(errors.max(initial=0.0))
