"""Sparse point tracks: ingestion, motion weights, heatmap, and motion transfer.

A track set stores per-frame 2-D coordinates for a few thousand sample points,
frame-major, so each frame's sites are one contiguous block. It powers two
things: the motion heatmap that biases stroke seeding toward moving regions,
and the sparse-to-dense transfer that predicts where an arbitrary pixel of
frame i lands in frame t by borrowing the displacement of its nearest tracked
point.

Nearest-track queries pick a route per batch. A batch scans its tracks in
cache-sized blocks when the scan needs at most `_SCAN_MAX_DISTANCES`
(query, track) distances; a larger batch queries per-frame KD-trees, one
frame after another in the calling thread. Both routes give the same rows
and radii. Only the KD-tree route needs scipy: `scipy.spatial` is imported
when the first tree is built, so a process whose batches all scan does not
load it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ParseError,
    ValidationError,
    _frozen_field,
    _FrozenValue,
    _json_floats,
    _json_int,
    _read_text,
)

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

# A batch scans when it needs at most this many (query, track) distances,
# and queries the KD-trees when it needs more. Warm, on 2000 tracks x 200
# frames (2-vCPU host), a batch spread over all frames scanned as fast as it
# queried cached trees at 2^20 distances (25 ms each) and slower at 2^21
# (45 against 32 ms); building its frames' trees costs about 80 ms more. A
# batch in one frame queries a new tree faster (3 against 5.5 ms at 128
# queries), but its scan loads no scipy, whose import costs ~0.35 s.
_SCAN_MAX_DISTANCES = 1 << 20

# Stabilizer in the Shepard denominator: far from every site the interpolant
# decays to 0 instead of being 0/0, and a single site still yields a peak.
_SHEPARD_EPS = 1e-12


@dataclass(frozen=True)
class TrackSet(_FrozenValue):
    """Immutable set of tracked sample points, coords shape (K, N_f, 2).

    The set owns one read-only frame-major (N_f, K, 2) C-ordered buffer, and
    `coords` is its transposed view: values and shape are those given, but a
    frame's sites ``coords[:, f]`` are one contiguous (K, 2) block, so scans
    and per-frame KD-trees read them without a copy.
    """

    ids: np.ndarray
    coords: np.ndarray
    _trees: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        ids = _frozen_field(self, "ids", "track point ids", dtype=np.int64)
        if ids.ndim != 1 or ids.size < 1:
            raise ValidationError("track set needs at least one point")
        # One copy, written straight into the frame-major buffer.
        coords = self.coords
        if isinstance(coords, (list, tuple)):  # np.shape would convert all rows first
            shape = (len(coords), *np.shape(coords[:1])[1:])
        else:
            coords = np.asarray(coords)
            shape = coords.shape
        if len(shape) != 3 or shape[0] != ids.size or shape[2] != 2:
            raise ValidationError(
                f"coords must have shape (num_points, num_frames, 2), got {shape}"
            )
        frames = np.empty((shape[1], ids.size, 2))
        frames.transpose(1, 0, 2)[...] = coords
        if not np.all(np.isfinite(frames)):
            raise ValidationError("track coordinates must be finite")
        frames.setflags(write=False)
        object.__setattr__(self, "coords", frames.transpose(1, 0, 2))
        row_of = {int(p): k for k, p in enumerate(ids)}
        if len(row_of) != ids.size:
            raise ValidationError("track point ids must be unique")
        object.__setattr__(self, "_row_of", row_of)

    @property
    def num_points(self) -> int:
        return self.ids.size

    @property
    def num_frames(self) -> int:
        return self.coords.shape[1]

    def row_of(self, point_id: int) -> int:
        try:
            return self._row_of[int(point_id)]
        except KeyError:
            raise LookupError(f"unknown track point id {point_id}") from None

    def _tree(self, frame: int) -> cKDTree:
        tree = self._trees.get(frame)
        if tree is None:
            # KD-tree route only: not at module level, so scans skip scipy.spatial.
            from scipy.spatial import cKDTree

            # The frame's sites are C-contiguous float64: the tree keeps a view.
            tree = cKDTree(self.coords[:, frame, :])
            self._trees[frame] = tree
        return tree


@dataclass(frozen=True)
class MotionHeatmap(_FrozenValue):
    """Per-pixel normalized motion magnitude in [0, 1], values shape (H, W)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        values = _frozen_field(self, "values", "heatmap values")
        if values.shape != (self.height, self.width):
            raise ValidationError(
                f"heatmap values must have shape (H, W)=({self.height}, {self.width}), "
                f"got {values.shape}"
            )
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValidationError("heatmap values must lie in [0, 1]")


def _xy_to_array(obj: dict, path: str) -> dict:
    # Each point's coordinates become an array as soon as its object is
    # parsed, so the file's nested lists of floats (several times the size of
    # the array) never exist all at once.
    if "xy" in obj:
        xy = obj["xy"]
        where = f"{path}: point {obj.get('id')!r}"
        try:
            array = _json_floats(xy, "'xy'", where) if isinstance(xy, list) else None
        except ParseError:
            raise
        except (TypeError, ValueError, OverflowError):
            array = None
        if array is None or (xy and array.shape[1:] != (2,)):
            raise ParseError(f"{where}: 'xy' is not a list of [x, y] pairs")
        obj["xy"] = array
    return obj


def _point_id(value, where: str) -> int:
    """A CSV track point id read with `int()` from its text. Text that does
    not convert, or converts outside the int64 of `TrackSet.ids`, is a
    ParseError naming it."""
    try:
        pid = int(value)
    except (TypeError, ValueError, OverflowError):
        pid = None
    if pid is None or not -(2**63) <= pid < 2**63:
        raise ParseError(f"{where}: point id {value!r} does not convert to a 64-bit integer")
    return pid


def _load_tracks_json(path: str) -> TrackSet:
    text = _read_text(path)
    if not text or text.isspace():
        raise ValidationError("no points: track file is empty")
    try:
        doc = json.loads(text, object_hook=lambda obj: _xy_to_array(obj, path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        num_frames = _json_int(doc["num_frames"], "'num_frames'", path)
        entries = list(doc["points"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: expected object with 'num_frames' and 'points'") from exc
    points: dict[int, np.ndarray] = {}
    for entry in entries:
        try:
            raw_id, xy = entry["id"], entry["xy"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}: each point needs 'id' and 'xy'") from exc
        pid = _json_int(raw_id, "point id", path)
        if pid in points:
            raise ValidationError(f"duplicate point id {pid}")
        if len(xy) != num_frames:
            raise ValidationError(
                f"ragged track: point id {pid} has {len(xy)} frames, expected {num_frames}"
            )
        points[pid] = xy
    if not points:
        raise ValidationError("no points in track file")
    ids = sorted(points)
    return TrackSet(ids=np.array(ids), coords=[points[pid] for pid in ids])


def _load_tracks_csv(path: str) -> TrackSet:
    cells: dict[tuple[int, int], tuple[float, float]] = {}  # (frame, point id) -> (x, y)
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise ValidationError("no points: track file is empty")
    expected = ["frame", "point_id", "x", "y"]
    if [h.strip() for h in header[:4]] != expected:
        raise ParseError(f"{path}: expected header {','.join(expected)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            frame, raw_id, x, y = int(row[0]), row[1], float(row[2]), float(row[3])
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"{path}: line {lineno}: track coordinates must be finite")
        key = (frame, _point_id(raw_id, f"{path}: line {lineno}"))
        if key in cells:
            raise ValidationError(
                f"{path}: line {lineno}: point id {key[1]} already has frame {frame}"
            )
        cells[key] = (x, y)
    if not cells:
        raise ValidationError("no points: track file has no data rows")
    ids = sorted({pid for _, pid in cells})
    if len(cells) % len(ids) != 0:
        raise ValidationError(
            f"row count {len(cells)} is not divisible by point count {len(ids)}"
        )
    # Distinct cells, as many as the (point, frame) slots and each in range,
    # fill every slot once.
    num_frames = len(cells) // len(ids)
    coords = np.empty((len(ids), num_frames, 2))
    row_of = {pid: k for k, pid in enumerate(ids)}
    for (frame, pid), xy in cells.items():
        if not (0 <= frame < num_frames):
            raise ValidationError(f"frame index {frame} outside 0..{num_frames - 1}")
        coords[row_of[pid], frame] = xy
    return TrackSet(ids=np.array(ids), coords=coords)


def load_tracks(path: str, format: str | None = None) -> TrackSet:
    """Load a validated track set from a JSON or CSV file.

    `format` is "json" or "csv"; when omitted it is inferred from the file
    extension. Visibility/occlusion fields are accepted but ignored.
    """
    if format is None:
        format = "csv" if str(path).lower().endswith(".csv") else "json"
    if format == "json":
        return _load_tracks_json(path)
    if format == "csv":
        return _load_tracks_csv(path)
    raise ValidationError(f"unknown track format {format!r} (expected 'json' or 'csv')")


def save_tracks(tracks: TrackSet, path: str) -> None:
    """Write a track set in the JSON track format."""
    # Each point goes through json.dumps (the C encoder) on its own: the bytes
    # equal one dump of the whole document, which is never held in memory.
    with open(path, "w") as fh:
        fh.write(f'{{"num_frames": {tracks.num_frames}, "points": [')
        for k, pid in enumerate(tracks.ids):
            if k:
                fh.write(", ")
            fh.write(json.dumps({"id": int(pid), "xy": tracks.coords[k].tolist()}))
        fh.write("]}\n")


def _motion_weights(coords: np.ndarray) -> np.ndarray:
    """Square root of the summed per-step Euclidean displacement of each row
    of `coords` (K, N_f, 2). A step is sqrt(dx*dx + dy*dy), bit-equal to
    ``np.linalg.norm``; the steps are C-ordered whatever the layout, so each
    row sums in numpy's pairwise order and a row alone gives the same bits."""
    d = np.diff(coords, axis=1)
    d *= d
    steps = np.add(d[:, :, 0], d[:, :, 1], order="C")
    return np.sqrt(np.sum(np.sqrt(steps, out=steps), axis=1))


def motion_weight(tracks: TrackSet, point_id: int) -> float:
    """Motion weight of one point: its row of `motion_weights`."""
    row = tracks.row_of(point_id)
    return float(_motion_weights(tracks.coords[row : row + 1])[0])


def motion_weights(tracks: TrackSet) -> np.ndarray:
    """Motion weights for all points, ordered like ``tracks.ids``."""
    return _motion_weights(tracks.coords)


def build_motion_heatmap(
    tracks: TrackSet,
    width: int,
    height: int,
    bandwidth: float | None = None,
) -> MotionHeatmap:
    """Gaussian-kernel Shepard interpolation of motion weights over the canvas.

    Sites are the tracked positions in frame 0.
    Default bandwidth is 0.05 * max(width, height). The result is min-max
    normalized to [0, 1]; if all motion weights are equal, or every pixel is
    so far from every site that its kernel sum is subnormal, the map is all
    zero.
    """
    if width < 1 or height < 1:
        raise ValidationError(f"canvas must be at least 1x1, got {width}x{height}")
    if bandwidth is None:
        bandwidth = 0.05 * max(width, height)
    if not bandwidth > 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
    weights = motion_weights(tracks)
    sites = tracks.coords[:, 0, :]
    # The Gaussian factors into x and y kernels, so the Shepard sums over all
    # sites are two matrix products instead of H*W*K exponentials. Every
    # canvas-sized step after the products works in place, in the order of
    # ((ky * w) @ kx.T) / (ky @ kx.T + eps), min-max normalized.
    inv = 1.0 / (2.0 * bandwidth * bandwidth)
    kx = _axis_kernel(width, sites[:, 0], inv)
    ky = _axis_kernel(height, sites[:, 1], inv)
    denominator = ky @ kx.T
    # About 38 bandwidths from every site, every kernel sum is subnormal:
    # rounding residue that min-max normalization would blow up to [0, 1].
    far = denominator.max() < np.finfo(np.float64).tiny
    denominator += _SHEPARD_EPS
    ky *= weights
    values = ky @ kx.T
    values /= denominator
    del denominator  # gone before MotionHeatmap copies `values`
    lo, hi = values.min(), values.max()
    if far or hi == lo:
        # No spatial variation (e.g. every tracked point is static): all zero.
        values[...] = 0.0
    else:
        values -= lo
        values /= hi - lo
    return MotionHeatmap(width=width, height=height, values=values)


def _axis_kernel(size: int, centers: np.ndarray, inv: float) -> np.ndarray:
    """exp(-(c - s)^2 * inv) for pixel centers c = 0.5, 1.5, ... (rows) and
    site coordinates s (columns), formed in one (size, K) buffer."""
    kernel = (np.arange(size) + 0.5)[:, None] - centers[None, :]
    np.square(kernel, out=kernel)
    np.negative(kernel, out=kernel)
    kernel *= inv
    return np.exp(kernel, out=kernel)


# Elements (frames x queries x points) per block of the batched scan, small
# enough that a block's two float64 temporaries (256 KiB each) stay in L2.
_SCAN_BLOCK_ELEMENTS = 1 << 15

# Relative gap below which a KD-tree answer is rechecked by a full scan: the
# tree's distances may round differently from the scan's, so a near tie is
# settled by the scan's arithmetic and its lowest-row rule.
_TIE_TOLERANCE = 1e-9


def _scan_distances(points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Squared distances (Q, K) from each of `points` (Q, 2) to its `sites`
    (Q, K, 2).

    They are dx*dx + dy*dy, bit-equal to summing the squares over a length-2
    axis (numpy reduces two elements as a + b), without that reduction's
    strided inner loop.
    """
    d2 = points[:, None, 0] - sites[:, :, 0]
    dy = points[:, None, 1] - sites[:, :, 1]
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


def _certified_radius(nearest: np.ndarray, second: np.ndarray) -> np.ndarray:
    """How far a query may move and keep its nearest row: half the gap between
    its nearest and second-nearest distance, less a slack of `_TIE_TOLERANCE`
    times the second.

    Within that radius the row stays the strict nearest by more than any
    rounding of the scan or the KD-tree, and no tie recheck can pick another.
    Ties, near ties, non-finite distances and radii of 1e-150 or less (whose
    squares would lose relative precision to underflow) get 0: never certified.
    """
    with np.errstate(invalid="ignore"):
        radius = 0.5 * (second - nearest - _TIE_TOLERANCE * second)
    return np.where(radius > 1e-150, radius, 0.0)


def _scan_rows_radius(
    points: np.ndarray, sites: np.ndarray, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest rows and certified radii of the queries `points` (N, 2), query
    n against ``sites[frames[n]]``, `sites` of shape (F, K, 2), by scanning
    cache-sized blocks of queries. Ties go to the lowest row. A distance
    whose square overflows is inf, as in the KD-tree, and warns of nothing."""
    num_sites = sites.shape[1]
    block = max(1, _SCAN_BLOCK_ELEMENTS // num_sites)
    second = min(1, num_sites - 1)  # a single site is its own "second": radius 0
    rows = np.empty(len(points), dtype=np.intp)
    radius = np.empty(len(points))
    with np.errstate(over="ignore"):
        for a in range(0, len(points), block):
            d2 = _scan_distances(points[a : a + block], sites[frames[a : a + block]])
            rows[a : a + block] = np.argmin(d2, axis=-1)
            d2 = np.partition(d2, second, axis=-1)
            radius[a : a + block] = _certified_radius(np.sqrt(d2[:, 0]), np.sqrt(d2[:, second]))
    return rows, radius


def _tree_rows_radius(
    points: np.ndarray, frame: int, tracks: TrackSet
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest rows and certified radii of `points` (Q, 2) in `frame`, by that
    frame's KD-tree; near ties and non-finite queries (which the tree rejects)
    are settled by the scan."""
    finite = np.isfinite(points).all(axis=1)
    if finite.all():
        dist, rows = tracks._tree(frame).query(points, k=2)
    else:
        dist, rows = tracks._tree(frame).query(np.where(finite[:, None], points, 0.0), k=2)
        dist[~finite] = np.inf
    rows = rows[:, 0]
    tied = np.flatnonzero(dist[:, 1] <= dist[:, 0] * (1.0 + _TIE_TOLERANCE))
    if tied.size:
        sites = tracks.coords.transpose(1, 0, 2)
        rows[tied] = _scan_rows_radius(points[tied], sites, np.full(tied.size, frame))[0]
    return rows, _certified_radius(dist[:, 0], dist[:, 1])


def _nearest(
    points: np.ndarray, frames: np.ndarray, tracks: TrackSet
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest rows and certified radii (see `_certified_radius`) of the
    queries `points` (N, 2), query n in frame ``frames[n]``.

    A batch scans the queries against their frames' tracks (each frame one
    contiguous block of the coordinates) in cache-sized blocks when it needs
    at most `_SCAN_MAX_DISTANCES` distances. A larger batch is grouped by
    frame and queries each frame's KD-tree in turn, in the calling thread and
    under its ``np.errstate``. Both routes pick the lowest row on ties, give a
    non-finite query the scan's row, and give the same radii. Zero queries do
    no work.
    """
    if len(points) * tracks.num_points <= _SCAN_MAX_DISTANCES:
        return _scan_rows_radius(points, tracks.coords.transpose(1, 0, 2), frames)
    rows = np.empty(len(points), dtype=np.intp)
    radius = np.empty(len(points))
    order = np.argsort(frames, kind="stable")
    for index in np.split(order, np.flatnonzero(np.diff(frames[order])) + 1):
        rows[index], radius[index] = _tree_rows_radius(
            points[index], int(frames[index[0]]), tracks
        )
    return rows, radius


def nearest_rows(points: np.ndarray, frame: int, tracks: TrackSet) -> np.ndarray:
    """Row indices of the nearest tracked point for each query (batched).

    Scans the tracks when the batch needs at most `_SCAN_MAX_DISTANCES`
    (query, track) distances and queries per-frame KD-trees when it needs
    more. Both pick the lowest row on ties, which is the lowest id only when
    the ids are sorted (as in every loaded track set), and both give a
    non-finite query the scan's row.
    """
    points = np.asarray(points, dtype=np.float64)
    flat = points.reshape(-1, 2)
    return _nearest(flat, np.full(len(flat), frame), tracks)[0].reshape(points.shape[:-1])


def nearest_sample(p: np.ndarray, i: int, tracks: TrackSet) -> int:
    """Id of the tracked point nearest to p in frame i; ties go to the lowest row,
    which is the lowest id when the ids are sorted (as in every loaded track set)."""
    if not (0 <= i < tracks.num_frames):
        raise ValidationError(f"frame index {i} outside 0..{tracks.num_frames - 1}")
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2,):
        raise ValidationError(f"query point must have shape (2,), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"query point must be finite, got {p}")
    return int(tracks.ids[nearest_rows(p, i, tracks)])


def transfer_point(p: np.ndarray, i: int, t: int, tracks: TrackSet) -> np.ndarray:
    """Predicted position in frame t of the pixel at p in frame i.

    The pixel keeps its offset to the nearest tracked point:
    p - (nearest point in frame i) + (that point's position in frame t).
    Grouped as p + (displacement of the nearest point), so t = i returns p
    exactly.
    """
    if not (0 <= i < tracks.num_frames and 0 <= t < tracks.num_frames):
        raise ValidationError("frame indices outside the track range")
    p = np.asarray(p, dtype=np.float64)
    row = tracks.row_of(nearest_sample(p, i, tracks))
    return p + (tracks.coords[row, t] - tracks.coords[row, i])
