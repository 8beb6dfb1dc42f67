"""Loss functions with analytic gradients and the trajectory optimizer.

Both losses are sums of squared distances between points that are linear in
the trajectory coefficients, so their gradients are exact. The one nonlinearity
is the nearest-tracked-point assignment inside the consistency loss; it is
piecewise constant, so it is recomputed once per iteration and *frozen* during
each gradient evaluation, which makes the gradient exact almost everywhere.
The sampled stroke points are formed once per evaluation and shared by the
assignment and the consistency term.

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

The value is a sum of squared differences, so nothing cancels (the expanded
form does, and a zero loss would read as roundoff). Its pair sum orders the
points by their number of distinct rows and runs in chunks of a bounded
number of elements: a chunk gathers only its rows Y_r, into one buffer reused
by every chunk, and subtracts X_p by broadcasting over each point's pairs (a
point with more pairs than a chunk holds is split). No X_p is copied per
pair, and peak memory stays independent of N_f.

The assignment is certified between evaluations, like the skin of a Verlet
neighbour list. Each query of a sample point also gives a radius: half the
gap between its nearest and second-nearest track distance, less a relative
slack of 1e-9, and 0 at ties. Within that radius of the position where it was
queried, the point's row stays the strict nearest by more than any rounding,
so only the points that have moved at least their radius since then (and
every non-finite one) are queried again. Small track sets scan those points,
in cache-sized blocks; large ones query each frame's KD-tree, with the frames
spread over a thread pool of one worker per usable CPU. Either way the rows
are those of `nearest_rows` frame by frame, bit for bit.

The value costs up to several times the gradient, so the optimizer computes it
only where it is read: at logged iterations (the first, every `log_every`-th
and the last) and for the final breakdown. `total_loss`,
`consistency_loss_grad` and the central differences of
`finite_difference_check` always compute it; the checker freezes one
assignment, so it builds A and own once and each bumped evaluation recomputes
only X. The attachment value is computed in every iteration, so a non-finite
attachment value or gradient stops the optimizer at once; a consistency
value that overflows while its gradient stays finite is caught at the next
logged iteration, or in the final breakdown when the last update makes it
overflow. Distances that overflow in the assignment at such coefficients
stay silent: the DivergenceError is the one report.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix

from .bernstein import BasisKind, basis_matrix, basis_row
from .errors import DivergenceError, ValidationError
from .tracking import _KDTREE_MIN_POINTS, TrackSet, _scan_rows_radius, _tree_rows_radius
from .tracking import nearest_rows  # noqa: F401  (unused; the benchmark tracer wraps it here)
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


# Elements (pairs x frames) per chunk of the consistency term's temporaries.
_PAIR_CHUNK_ELEMENTS = 1 << 16


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
            if tracks.num_points < _KDTREE_MIN_POINTS:
                # (N_f, K, 2), contiguous: the scan gathers one frame per point.
                self._frame_sites = np.ascontiguousarray(tracks.coords.transpose(1, 0, 2))

    def samples(self, q: np.ndarray) -> np.ndarray:
        """Sampled stroke points at the frame times, shape (N_f, N_s, N_p, 2)."""
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

        Small track sets scan the queried points against their frames' tracks
        in cache-sized blocks. Large ones query each frame's KD-tree on a
        thread pool with one worker per usable CPU, at most one per frame with
        queried points (a single worker runs the frames serially): the queries
        release the GIL, the frames are independent and each writes only its
        own entries, so the rows do not depend on the worker count. Squared
        distances that overflow at diverged coefficients are left as inf
        without a warning; the finiteness check of the loss reports the
        divergence. ``np.errstate`` is per thread, so each worker sets its own.
        """
        points = samples.reshape(-1, 2)
        per_frame = len(points) // len(samples)
        with np.errstate(over="ignore", invalid="ignore"):
            moved = points - self._anchor
            moved *= moved
            stale = ~(moved[:, 0] + moved[:, 1] < self._radius2)
        if self.tracks.num_points < _KDTREE_MIN_POINTS:
            index = np.flatnonzero(stale)
            queries = points[index]
            with np.errstate(over="ignore"):
                rows, radius = _scan_rows_radius(
                    queries[:, None], self._frame_sites, index // per_frame
                )
            self._refresh(index, queries, rows, radius)
        else:
            stale = stale.reshape(len(samples), -1)

            def frame_rows(f: int) -> None:
                index = f * per_frame + np.flatnonzero(stale[f])
                queries = points[index]
                with np.errstate(over="ignore"):
                    rows, radius = _tree_rows_radius(queries, f, self.tracks)
                self._refresh(index, queries, rows, radius)

            frames = np.flatnonzero(stale.any(axis=1))
            if frames.size:
                with ThreadPoolExecutor(max_workers=min(_usable_cpus(), frames.size)) as pool:
                    list(pool.map(frame_rows, frames))
        return self._rows.reshape(samples.shape[:-1]).copy()

    def _refresh(
        self, index: np.ndarray, points: np.ndarray, rows: np.ndarray, radius: np.ndarray
    ) -> None:
        """Store the anchor, row and squared radius of the queried `points`;
        `index` holds their flat (frame, sample point) positions."""
        self._anchor[index] = points
        self._rows[index] = rows.reshape(-1)
        self._radius2[index] = (radius * radius).reshape(-1)

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

    def consistency_value(self, motion: np.ndarray, counts: csr_matrix, own: np.ndarray) -> float:
        """The consistency value of the module docstring.

        The pair sum orders the points by their number d of distinct rows and
        walks their pairs in chunks of at most `_PAIR_CHUNK_ELEMENTS` elements,
        cut between blocks of equal-d points (a point whose d pairs exceed a
        chunk is split). A chunk gathers only its rows Y_r, into one buffer
        reused by every chunk, and subtracts each block's X_p by broadcasting
        over the point's pairs.
        """
        num_frames, n_p = self.b_t.shape[0], self.b_u.shape[0]
        num_points, num_pairs = counts.shape[0], counts.nnz
        chunk = max(1, _PAIR_CHUNK_ELEMENTS // num_frames)  # pairs per chunk
        # Points in order of d, and their pairs in that order (a stable sort
        # keeps each point's pairs together).
        sizes = counts.indptr[1:] - counts.indptr[:-1]
        order = np.argsort(sizes, kind="stable")
        pair_order = np.argsort(np.repeat(sizes, sizes), kind="stable")
        x = np.take(motion.reshape(num_points, -1), order, axis=0)
        y = self.track_centered.reshape(counts.shape[1], -1)
        pair_rows = counts.indices[pair_order]
        buffer = np.empty((min(chunk, num_pairs), x.shape[1]))
        norms = np.empty(num_pairs)  # |X_p - Y_r|^2 per pair, in sorted order

        def reduce_chunk(start: int, stop: int, blocks: list) -> None:
            diff = buffer[: stop - start]
            # mode="clip" writes straight into `diff` (the rows are in range).
            np.take(y, pair_rows[start:stop], axis=0, out=diff, mode="clip")
            for offset, a, n, width in blocks:
                view = diff[offset : offset + n * width].reshape(n, width, -1)
                view -= x[a : a + n, None]
            np.einsum("ke,ke->k", diff, diff, out=norms[start:stop])

        # Blocks of n points with d pairs each, or pieces of one point whose d
        # pairs exceed a chunk, cut into chunks of whole blocks. A block is
        # (offset in its chunk, first sorted point, n, pairs per point).
        start = pair = point = 0
        blocks = []
        for d, count in enumerate(np.bincount(sizes).tolist()):
            per = max(1, chunk // max(d, 1))
            for a in range(point, point + count, per):
                n = min(per, point + count - a)
                for b in range(0, d, chunk):
                    width = min(d - b, chunk)
                    if pair + n * width > start + chunk:
                        reduce_chunk(start, pair, blocks)
                        start, blocks = pair, []
                    blocks.append((pair - start, a, n, width))
                    pair += n * width
            point += count
        reduce_chunk(start, pair, blocks)
        value = float(counts.data[pair_order] @ norms)
        diff = motion - own
        value += num_frames * float(np.vdot(diff, diff))
        return value / (n_p * num_frames)

    def consistency_grad(
        self, motion: np.ndarray, counts: csr_matrix, own: np.ndarray
    ) -> np.ndarray:
        """Coefficient gradient of the consistency value, from the closed form
        in the module docstring."""
        num_frames, n_p = self.b_t.shape[0], self.b_u.shape[0]
        grad = (2.0 * num_frames) * motion
        grad -= num_frames * own
        grad += own.sum(axis=2, keepdims=True)
        grad -= (counts @ self.track_centered.reshape(counts.shape[1], -1)).reshape(motion.shape)

        scale = 1.0 / (n_p * num_frames)
        point_grad = (2.0 * scale) * grad.transpose(2, 0, 1).reshape(num_frames, -1, n_p, 2)
        return _to_coefficients(self.b_u.T @ point_grad, self.b_t)

    def attachment(self, q: np.ndarray) -> tuple[float, np.ndarray]:
        num_frames, num_strokes = self.b_t.shape[0], q.shape[0]
        mids = self.b_mid @ _at_frames(q, self.b_t)  # (N_f, N_s, 2)
        diff = mids - self.targets.transpose(1, 0, 2)
        scale = 1.0 / (num_frames * num_strokes)
        value = scale * float(np.sum(diff * diff))
        ctrl_grad = self.b_mid[:, None] * ((2.0 * scale) * diff)[:, :, None, :]
        return value, _to_coefficients(ctrl_grad, self.b_t)

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
        grad = np.zeros_like(q) if gradient else None
        consistency = attachment = geometry = 0.0
        if w.w_c > 0:
            samples = self.samples(q)
            if frozen is None:
                frozen = self.freeze(self.assign(samples))
            motion = self.motion(samples)
            if gradient:
                grad += w.w_c * self.consistency_grad(motion, *frozen)
            consistency = self.consistency_value(motion, *frozen) if consistency_value else np.nan
        if w.w_s > 0:
            attachment, g = self.attachment(q)
            if gradient:
                grad += w.w_s * g
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
    return objective.assign(objective.samples(animation_coefficients(anim)))


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
    # One frozen A and own serve every evaluation; each one recomputes only X.
    frozen = None
    if weights.w_c > 0:
        frozen = objective.freeze(objective.assign(objective.samples(q0)))
    _, grad = objective.value_grad(q0, frozen, consistency_value=False)
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
        f_plus = objective.value_grad(bumped.reshape(q0.shape), frozen, gradient=False)[0].total
        bumped[idx] -= 2.0 * step
        f_minus = objective.value_grad(bumped.reshape(q0.shape), frozen, gradient=False)[0].total
        fd = (f_plus - f_minus) / (2.0 * step)
        if not np.isfinite(fd):
            raise DivergenceError(f"central difference at coordinate {idx} is not finite")
        denom = max(abs(fd), abs(flat_grad[idx]))
        if denom < 1e-9:
            continue
        worst = max(worst, abs(fd - flat_grad[idx]) / denom)
    return worst
