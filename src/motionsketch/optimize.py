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

Every array keeps the layout its products need, so no evaluation copies one
into another layout. The coefficients, the gradient and the Adam moments are
trajectory-major, (n+1, N_s, m+1, 2): B_t and its adjoint are BLAS products
with the (n+1) x rest matrix, read transposed. Curve points, sample motions,
own and the point gradient are point-major with the frames last,
(N_s, N_p+1, 2, N_f) and (P, 2, N_f) with P = N_s N_p: B_u and its adjoint
are one batched matmul over the strokes, and a point's motion is one row.

The consistency term sums, over every source frame i and target frame t,
the squared mismatch between a sampled point's displacement and that of the
track row r_i it was assigned in frame i. Let X_p and Y_r be the motions of
sample point p and track row r relative to frame 0 and centered over the N_f
frames (a static point or track is exactly 0). The frozen assignment enters
through A, the (points x tracks) counts of the distinct (point, row) pairs,
and own_p(i) = Y_{r_i}(i). A centered motion sums to zero over the
frames, so the terms of source frame i add up to |X_p - Y_r|^2 +
N_f |X_p(i) - Y_r(i)|^2 with r = r_i. The value, and its gradient with
respect to sample point p at frame s, are

    value = (sum_{(p,r) in A} A_pr |X_p - Y_r|^2 + N_f |X - own|^2) / (N_p N_f),
    grad = 2/(N_p N_f) * (2 N_f X_p(s) - offset_p(s)),
    offset_p(s) = N_f own_p(s) - sum_i own_p(i) + (A @ Y)_p(s),

and the offset is fixed with the assignment.

A is built dense, one block of points at a time (about 2^17 counts, 1 MiB):
one `np.bincount` of the block's (point, row) keys gives its counts, one BLAS
product with Y gives its rows of A @ Y, and its nonzeros, read in row-major
order, give its pairs, sorted by point and then by row (a CSR matrix's
order). Only the pairs and A @ Y (in the offset) outlive the block, so the
counts never occupy more than a block.

The value is a sum of squared differences, so nothing cancels (the expanded
form does, and a zero loss would read as roundoff). Under a frozen
assignment each pair of A, own-term and attachment term belongs to one
stroke, so one reduction, `_Objective.stroke_sums`, gives each stroke (or a
copy of one) its unscaled consistency sum c_s and attachment sum a_s. The
optimizer's values are their sums over the strokes, scaled once; the
gradient checker weights them per copy (below). The reduction walks the
copies in chunks of bounded size, and each chunk's pairs in their order, in
chunks of a bounded number of elements gathered into two reused buffers, so
peak memory grows neither with N_f nor with the number of strokes.

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

The frozen objective is thus a sum of per-stroke terms
f_s = w_c/(N_p N_f) c_s + w_s/(N_s N_f) a_s, and a bump of stroke s's
coefficients moves only f_s, so the gradient checker takes each central
difference of f_s alone. It freezes one assignment once; copies of the
strokes, each with at most one coordinate bumped and gathered
trajectory-major, then go chunk by chunk through the optimizer's own steps
(curve points, X and residual, then `stroke_sums`), with their strokes'
pairs and own-terms. Every stroke's unbumped f_s is evaluated too, so an
overflow in a stroke without a sampled coordinate is still reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .bernstein import BasisKind, basis_matrix
from .errors import DivergenceError, ValidationError
from .tracking import TrackSet, _nearest
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


# Size of a chunk of bounded temporaries, so they stay in L2 like the scan
# blocks of `tracking`: the pair walk's two float64 buffers hold this many
# (pair, frame) entries of two coordinates (512 KiB each), and each
# copy-sized array of a chunk of stroke copies (`_Objective.chunks`) at most
# this many values.
_PAIR_CHUNK_ELEMENTS = 1 << 15

# Counts per block of the dense (point x track row) counts of `freeze`: a
# block of points holds at most this many (1 MiB of float64), or one point's
# row if that is larger. Smaller blocks make more, thinner products with the
# track motions: a scene freeze (1024 points, 2000 tracks, 200 frames) took
# 54-74 ms at 2^15, 38-43 ms at 2^17 and 37-42 ms at 2^18 (2-vCPU host).
_COUNT_BLOCK_ELEMENTS = 1 << 17

def _trajectory_major(packed: np.ndarray) -> np.ndarray:
    """Packed coefficients (N_s, m+1, n+1, 2) as a trajectory-major copy
    (n+1, N_s, m+1, 2), the optimizer's layout."""
    return np.ascontiguousarray(packed.transpose(2, 0, 1, 3))


def _packed(q: np.ndarray) -> np.ndarray:
    """The packed (N_s, m+1, n+1, 2) view of trajectory-major coefficients."""
    return q.transpose(1, 2, 0, 3)


class _Frozen(NamedTuple):
    """A frozen assignment (see `_Objective.freeze`)."""

    points: np.ndarray  # sample point p of each distinct (p, r) pair, in row-major order
    rows: np.ndarray  # track row r of each pair
    counts: np.ndarray  # A_pr: frames in which p is assigned r, as float64
    own: np.ndarray  # own_p(i) = Y_{r_i}(i), shape (P, 2, N_f)
    offset: np.ndarray  # the gradient's X-free part, N_f own - sum_i own + A @ Y


class _Objective:
    """The weighted objective w_s*attachment + w_g*geometry + w_c*consistency.

    Checks its inputs and precomputes the bases once: trajectory rows at the
    frame times (B_t) and curve rows (B_u) at the N_p-point u grid, then at
    the midpoint u = 0.5. Zero-weight terms need no inputs and are skipped.
    Coefficients are trajectory-major, (n+1, B, m+1, 2) for B strokes, and
    every per-evaluation array is point-major with the frames last (see the
    module docstring).
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
            targets = np.ascontiguousarray(targets.transpose(0, 2, 1))  # like the midpoints
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
            # The pair walk's two buffers, made once: allocating them per
            # walk costs page faults in every evaluation of the value.
            num_frames = anim.num_frames
            chunk = max(1, _PAIR_CHUNK_ELEMENTS // num_frames)  # pairs per chunk
            self._walk = np.empty((2, chunk, 2 * num_frames))
            # The certified assignment of `assign`, per (sample point, frame).
            # A zero radius certifies nothing, so the first call queries all.
            self._anchor = np.zeros((anim.num_strokes, n_p, 2, num_frames))
            self._rows = np.zeros((anim.num_strokes, n_p, num_frames), dtype=np.intp)
            self._radius2 = np.zeros(self._rows.shape)

    def points(self, q: np.ndarray) -> np.ndarray:
        """Curve points at the frame times, shape (B, N_p+1, 2, N_f), of the
        trajectory-major coefficients `q` (n+1, B, m+1, 2): the N_p sampled
        stroke points, then the stroke midpoint."""
        at_frames = q.reshape(len(q), -1).T @ self.b_t.T  # (B*(m+1)*2, N_f)
        points = self.b_u @ at_frames.reshape(q.shape[1], q.shape[2], -1)
        return points.reshape(q.shape[1], len(self.b_u), 2, -1)

    def assign(self, samples: np.ndarray) -> np.ndarray:
        """Nearest tracked-point row per sampled stroke point and frame, shape
        (B, N_p, N_f), of `samples` (B, N_p, 2, N_f).

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

        The queried points go to `tracking._nearest` in one call, frame by
        frame, so the KD-tree route's per-frame groups come sorted. Squared
        distances that overflow at diverged coefficients are left as inf
        without a warning; the finiteness check of the loss reports the
        divergence.
        """
        num_frames = samples.shape[-1]
        current = np.ascontiguousarray(samples).reshape(-1, 2, num_frames)  # (P, 2, N_f)
        anchor = self._anchor.reshape(current.shape)
        radius2, point_rows = (a.reshape(-1, num_frames) for a in (self._radius2, self._rows))
        with np.errstate(over="ignore", invalid="ignore"):
            moved = current - anchor
            moved *= moved
            stale = ~(moved[:, 0] + moved[:, 1] < radius2)
        frames, points = np.divmod(np.flatnonzero(stale.T), len(stale))  # frame by frame
        queries = current[points, :, frames]
        with np.errstate(over="ignore"):
            rows, radius = _nearest(queries, frames, self.tracks)
        anchor[points, :, frames] = queries
        point_rows[points, frames] = rows
        radius2[points, frames] = radius * radius
        return self._rows.copy()

    def motion(self, samples: np.ndarray) -> np.ndarray:
        """X of the module docstring: the motion of `samples` (B, N_p, 2, N_f)
        relative to frame 0 and centered, shape (P, 2, N_f)."""
        motion = samples - samples[..., :1]
        motion -= motion.mean(axis=-1, keepdims=True)
        return motion.reshape(-1, 2, samples.shape[-1])

    def freeze(self, rows: np.ndarray) -> _Frozen:
        """The frozen assignment of point-major `rows` (B, N_p, N_f): A's
        pairs and counts, own, and the part of the gradient (module
        docstring) that does not depend on X.

        The counts of a block of points are one `np.bincount` of their
        (point, row) keys, dense (points x K), and one BLAS product maps the
        block to its rows of A @ Y. Each block's nonzeros, read in row-major
        order, are its pairs: sorted by point, then by row.
        """
        num_frames = self.b_t.shape[0]
        point_rows = rows.reshape(-1, num_frames)  # r_i per point, (P, N_f)
        num_points, num_rows = len(point_rows), len(self.track_centered)
        y = self.track_centered.reshape(num_rows, -1)
        offset = np.empty((num_points, y.shape[1]))  # A @ Y first
        block = max(1, _COUNT_BLOCK_ELEMENTS // num_rows)  # points per block
        keys, counts = [], []
        for start in range(0, num_points, block):
            part = point_rows[start : start + block]
            local = part + np.arange(0, len(part) * num_rows, num_rows)[:, None]
            dense = np.bincount(local.reshape(-1), minlength=len(part) * num_rows)
            nonzero = np.flatnonzero(dense != 0)  # a bool mask scans fastest
            keys.append(nonzero + start * num_rows)
            counts.append(dense[nonzero])
            dense = dense.reshape(len(part), num_rows).astype(np.float64)
            np.matmul(dense, y, out=offset[start : start + block])
        pair_points, pair_rows = np.divmod(np.concatenate(keys), num_rows)
        # own[p, c, i] = Y[r_i, c, i], one gather from the flat (K, 2, N_f) array.
        columns = np.arange(2 * num_frames).reshape(2, num_frames)
        own = np.take(self.track_centered, point_rows[:, None, :] * (2 * num_frames) + columns)
        offset = offset.reshape(own.shape)
        offset += num_frames * own
        offset -= own.sum(axis=2, keepdims=True)
        counts = np.concatenate(counts).astype(np.float64)
        return _Frozen(pair_points, pair_rows, counts, own, offset)

    def pair_norms(
        self, motion: np.ndarray, pair_points: np.ndarray, pair_rows: np.ndarray
    ) -> np.ndarray:
        """|X_p - Y_r|^2 per pair (p, r) of `pair_points` and `pair_rows`.

        The walk takes the pairs in their order, in chunks of at most
        `_PAIR_CHUNK_ELEMENTS` elements cut between any two pairs. A chunk
        gathers its rows Y_r and its pairs' points X_p into two buffers
        reused by every chunk and every walk, subtracts them in place and
        reduces each pair's squared norm.
        """
        buffer, points = self._walk
        chunk, num_pairs = len(buffer), len(pair_rows)
        x = motion.reshape(len(motion), -1)
        y = self.track_centered.reshape(len(self.track_centered), -1)
        norms = np.empty(num_pairs)
        for start in range(0, num_pairs, chunk):
            pairs = slice(start, start + chunk)
            rows = pair_rows[pairs]
            diff, x_p = buffer[: len(rows)], points[: len(rows)]
            # mode="clip" writes straight into the buffers (the indices are in range).
            np.take(y, rows, axis=0, out=diff, mode="clip")
            np.take(x, pair_points[pairs], axis=0, out=x_p, mode="clip")
            diff -= x_p
            np.einsum("ke,ke->k", diff, diff, out=norms[pairs])
        return norms

    def chunks(self, num_copies: int) -> list[slice]:
        """Consecutive slices of `num_copies` stroke copies, so that each
        copy-sized array of a slice (coefficients, control points, curve
        points, motion) holds at most `_PAIR_CHUNK_ELEMENTS` values: the
        one chunk rule of `stroke_sums` and of the gradient checker."""
        (num_frames, n1), (num_rows, m1) = self.b_t.shape, self.b_u.shape
        per_copy = max(2 * m1 * n1, 2 * num_frames * max(m1, num_rows))
        size = max(1, _PAIR_CHUNK_ELEMENTS // per_copy)
        return [slice(start, start + size) for start in range(0, num_copies, size)]

    def stroke_sums(
        self, motion: np.ndarray | None, residual: np.ndarray | None,
        strokes: np.ndarray, frozen: _Frozen | None,
    ) -> np.ndarray:
        """Each stroke copy's unscaled consistency and attachment sums, shape (2, B).

        Copy b stands for stroke ``strokes[b]``: `motion` (B N_p, 2, N_f) is X
        of its sampled points, which take that stroke's pairs and own-terms of
        ``frozen = freeze(rows)``, and `residual` (B, 2, N_f) its midpoint less
        that stroke's targets. Row 0 is the pair sum plus N_f |X - own|^2 over
        the copy's points (0 when `frozen` is None; `motion` is then unread),
        row 1 |residual|^2 over the frames (0 when `residual` is None). The
        copies are reduced in the slices of `chunks`, so the pair-length
        temporaries stay bounded however many copies there are.
        """
        # Einsums, not BLAS: OpenBLAS splits a long dot product over its
        # threads, which would make the sums depend on the thread count.
        sums = np.zeros((2, len(strokes)))
        n_p = self.n_p
        if frozen is not None:
            # Each stroke's pairs are a run, as the pairs are sorted by point.
            bounds = np.searchsorted(frozen.points, np.arange(0, len(frozen.own) + 1, n_p))
            stroke_first, stroke_size = bounds[:-1], np.diff(bounds)
            stroke_own = frozen.own.reshape(len(stroke_size), -1)
        for part in self.chunks(len(strokes)):
            copies = strokes[part]
            if frozen is not None:
                first, size = stroke_first[copies], stroke_size[copies]
                starts = np.cumsum(size) - size  # of each copy's run in the walk
                pairs = np.arange(starts[-1] + size[-1]) + np.repeat(first - starts, size)
                pair_points = frozen.points[pairs]
                pair_points += np.repeat((np.arange(len(copies)) - copies) * n_p, size)
                x = motion[part.start * n_p : part.stop * n_p]
                # Every point has at least one pair, so no copy's run is empty.
                norms = self.pair_norms(x, pair_points, frozen.rows[pairs])
                pair_sums = np.add.reduceat(frozen.counts[pairs] * norms, starts)
                diff = x.reshape(len(copies), -1) - stroke_own[copies]
                sums[0, part] = pair_sums + x.shape[-1] * np.einsum("be,be->b", diff, diff)
            if residual is not None:
                diff = residual[part]
                sums[1, part] = np.einsum("bcf,bcf->b", diff, diff)
        return sums

    def value_grad(
        self, q: np.ndarray, frozen: _Frozen | None = None, *, consistency_value: bool = True
    ) -> tuple[LossBreakdown, np.ndarray]:
        """(LossBreakdown, gradient) at trajectory-major coefficients `q`,
        with the assignment frozen as ``frozen = freeze(rows)`` (assigned at
        `q` when None); the gradient is trajectory-major too. The motion X and
        the attachment residual are formed once: the values are the sums of
        `stroke_sums` of them, and the point gradient is formed from them.
        ``consistency_value=False`` skips the consistency value: the breakdown
        reads it as nan and its total covers the other terms."""
        w = self.weights
        geometry = 0.0
        num_frames = self.b_t.shape[0]
        points = self.points(q)
        motion = None
        if w.w_c > 0:
            samples = points[:, : self.n_p]
            if frozen is None:
                frozen = self.freeze(self.assign(samples))
            motion = self.motion(samples)
        residual = points[:, -1] - self.targets if w.w_s > 0 else None
        consistency, attachment = self.stroke_sums(
            motion, residual, np.arange(len(points)), frozen if consistency_value else None
        ).sum(axis=1).tolist()
        consistency /= self.n_p * num_frames
        attachment *= self.attachment_scale
        if not consistency_value:
            consistency = np.nan
        if w.w_c > 0:  # the gradient's sample rows, in place on X (module docstring)
            motion *= 2.0 * num_frames
            motion -= frozen.offset
            motion *= 2.0 * w.w_c / (self.n_p * num_frames)
        del frozen  # freed before the point gradient is made (peak memory)
        point_grad = np.zeros_like(points)
        if w.w_c > 0:
            point_grad[:, : self.n_p] = motion.reshape(samples.shape)
        if w.w_s > 0:
            point_grad[:, -1] = (2.0 * w.w_s * self.attachment_scale) * residual
        # The adjoints of `points`: B_u^T per stroke, then B_t^T.
        at_frames = self.b_u.T @ point_grad.reshape(len(points), len(self.b_u), -1)
        grad = (self.b_t.T @ at_frames.reshape(-1, len(self.b_t)).T).reshape(q.shape)
        if w.w_g > 0:
            geometry, g = self.geometry_term(replace_coefficients(self.anim, _packed(q)))
            grad += w.w_g * _trajectory_major(g)
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
    q = _trajectory_major(animation_coefficients(anim))
    rows = objective.assign(objective.points(q)[:, :n_p])
    return np.ascontiguousarray(rows.transpose(2, 0, 1))


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
    breakdown, grad = total_loss(anim, tracks, None, _CONSISTENCY_ONLY, n_p,
                                 assignments=assignments)
    return breakdown.consistency, grad


def attachment_loss_grad(
    anim: SketchAnimation, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared distance between stroke midpoints (u=0.5) and their targets.

    `targets` has shape (N_s, N_f, 2). This is the pluggable data term standing
    in the semantic-loss slot; its gradient is exact (the map is linear).
    """
    breakdown, grad = total_loss(anim, None, targets, _ATTACHMENT_ONLY, 2)
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
        # The public (N_f, N_s, N_p) assignments, as `freeze` takes them.
        frozen = objective.freeze(assignments.reshape(len(objective.b_t), -1).T)
    breakdown, grad = objective.value_grad(_trajectory_major(animation_coefficients(anim)), frozen)
    return breakdown, _packed(grad)


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
    q = _trajectory_major(animation_coefficients(anim))
    moment1 = np.zeros_like(q)
    moment2 = np.zeros_like(q)
    scratch = np.empty_like(q)
    beta1, beta2 = config.moment_decay_1, config.moment_decay_2
    components: list[tuple[int, float, float, float]] = []

    for it in range(1, config.iterations + 1):
        logged = it == 1 or it % config.log_every == 0 or it == config.iterations
        loss, grad = objective.value_grad(q, consistency_value=logged)
        largest = np.abs(grad).max()  # nan or inf if any entry is
        if not (np.isfinite(loss.total) and np.isfinite(largest)):
            raise DivergenceError(
                f"non-finite loss or gradient at iteration {it}", iteration=it
            )
        if logged:
            components.append((it, loss.total, loss.consistency, loss.attachment))
        # A gradient at roundoff scale means converged; the scale-free moment
        # normalization would otherwise amplify numerical noise into drift.
        if largest <= 1e-12 * max(1.0, np.abs(q).max()):
            continue
        # In place, operation for operation:
        #   m1 = beta1 m1 + (1 - beta1) g,  m2 = beta2 m2 + (1 - beta2) g g,
        #   q = q - step (m1 / c1) / (sqrt(m2 / c2) + epsilon).
        moment1 *= beta1
        moment1 += np.multiply(grad, 1.0 - beta1, out=scratch)
        moment2 *= beta2
        np.multiply(grad, 1.0 - beta2, out=scratch)
        moment2 += np.multiply(scratch, grad, out=scratch)
        update = np.divide(moment1, 1.0 - beta1**it, out=grad)
        update *= config.step_size
        np.divide(moment2, 1.0 - beta2**it, out=scratch)
        scratch = np.sqrt(scratch, out=scratch)
        scratch += config.epsilon
        update /= scratch
        q -= update

    final, _ = objective.value_grad(q)  # its gradient is not needed
    if not np.isfinite(final.total):
        it = config.iterations
        raise DivergenceError(f"non-finite loss after iteration {it}", iteration=it)
    history = tuple(entry[:2] for entry in components)
    breakdown = replace(final, history=history, component_history=tuple(components))
    return replace_coefficients(anim, _packed(q)), breakdown


def _stroke_differences(
    objective: _Objective,
    q0: np.ndarray,
    frozen: _Frozen | None,
    indices: np.ndarray,
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(central differences at the flat coordinates `indices` of the packed
    (N_s, m+1, n+1, 2) coefficients, every stroke's unbumped term f_s(q0)),
    for trajectory-major `q0`.

    A bump of stroke s's coefficients moves only f_s, so the difference at a
    coordinate of stroke s is (f_s(q0 + h e) - f_s(q0 - h e)) / 2h. One list
    of stroke copies (each stroke unbumped, then each coordinate bumped by +h
    and by -h) goes through `stroke_sums` in the slices of `_Objective.chunks`,
    each slice's copies gathered trajectory-major and their motion and
    residual formed right after their curve points, so peak memory does not
    grow with the number of bumps.
    """
    n1, num_strokes, m1, _ = q0.shape
    bumped_strokes, bumped_coords = np.divmod(indices, m1 * n1 * 2)
    strokes = np.concatenate([np.arange(num_strokes), np.repeat(bumped_strokes, 2)])
    coords = np.concatenate([np.zeros(num_strokes, np.intp), np.repeat(bumped_coords, 2)])
    deltas = np.concatenate([np.zeros(num_strokes), np.tile([step, -step], len(indices))])
    control, trajectory, axis = np.unravel_index(coords, (m1, n1, 2))
    w = objective.weights
    consistency_scale = w.w_c / (objective.n_p * objective.b_t.shape[0])
    attachment_scale = w.w_s * objective.attachment_scale
    values = np.empty(len(strokes))
    for part in objective.chunks(len(strokes)):
        copies = strokes[part]
        batch = q0[:, copies]
        batch[trajectory[part], np.arange(len(copies)), control[part], axis[part]] += deltas[part]
        points = objective.points(batch)
        motion = None if frozen is None else objective.motion(points[:, : objective.n_p])
        residual = None if w.w_s == 0 else points[:, -1] - objective.targets[copies]
        consistency, attachment = objective.stroke_sums(motion, residual, copies, frozen)
        values[part] = consistency_scale * consistency + attachment_scale * attachment
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
    if weights.w_g > 0:
        raise ValidationError("finite_difference_check has no geometry term: w_g must be 0")
    objective = _Objective(anim, tracks, targets, weights, n_p)
    q0 = _trajectory_major(animation_coefficients(anim))
    # One frozen assignment serves every evaluation; each one recomputes only X.
    frozen = None
    if weights.w_c > 0:
        frozen = objective.freeze(objective.assign(objective.points(q0)[:, :n_p]))
    _, grad = objective.value_grad(q0, frozen, consistency_value=False)
    flat_grad = _packed(grad).reshape(-1)  # coordinates count in the packed order
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
