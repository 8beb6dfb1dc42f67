"""Stroke initialization: density-guided seeding and motion-aware trajectory fits.

The probability density map is the Hadamard product of an edge map with a blend
of an attention map and the motion heatmap. Stroke seeds are drawn from it,
each seed is attached to the motion of its nearest tracked point, and every
control point's trajectory is ridge-fitted to that motion so the initial
animation already follows the scene roughly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bernstein import BasisKind, basis_matrix, basis_row
from .errors import DegenerateInputError, ParseError, ValidationError
from .fitting import DEFAULT_RIDGE_LAMBDA, fit_ridge_columns
from .tracking import MotionHeatmap, TrackSet, nearest_rows
from .trajectory import (
    SketchAnimation,
    Stroke,
    TrajectoryPoly,
    animation_coefficients,
    default_trajectory_degree,
)


@dataclass(frozen=True)
class DensityMap:
    """Normalized sampling probabilities per pixel, plus the pre-normalization map."""

    width: int
    height: int
    probabilities: np.ndarray
    unnormalized: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(np.asarray(self.probabilities, dtype=np.float64))
        raw = np.ascontiguousarray(np.asarray(self.unnormalized, dtype=np.float64))
        if probs.shape != (self.height, self.width) or raw.shape != probs.shape:
            raise ValidationError("density maps must have shape (H, W)")
        if np.any(probs < 0):
            raise ValidationError("densities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValidationError("probabilities must sum to 1")
        probs.setflags(write=False)
        raw.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "unnormalized", raw)


@dataclass(frozen=True)
class InitConfig:
    num_strokes: int
    beta: float = 0.5
    trajectory_degree: int | None = None
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA
    rng_seed: int = 0
    curve_degree: int = 3
    initial_stroke_span: float | None = None

    def __post_init__(self):
        if self.num_strokes < 1:
            raise ValidationError("need at least one stroke")
        if not (0.0 <= self.beta <= 1.0):
            raise ValidationError(f"beta must lie in [0, 1], got {self.beta}")
        if self.curve_degree < 1:
            raise ValidationError("curve degree must be at least 1")
        if not self.ridge_lambda >= 0.0:
            raise ValidationError(f"ridge lambda must be nonnegative, got {self.ridge_lambda}")
        span = self.initial_stroke_span
        if span is not None and not 0.0 <= span < math.inf:
            raise ValidationError(f"stroke span must be finite and nonnegative, got {span}")


@dataclass(frozen=True)
class MaskAreas:
    """Per-frame pixel counts of the target object in its mask."""

    areas: np.ndarray
    canvas: tuple[int, int]

    def __post_init__(self):
        areas = np.ascontiguousarray(np.asarray(self.areas, dtype=np.float64))
        w, h = self.canvas
        if areas.ndim != 1 or areas.size < 1:
            raise ValidationError("areas must be a nonempty vector")
        if np.any(areas < 0) or np.any(areas > w * h):
            raise ValidationError(f"areas must lie in [0, {w * h}]")
        areas.setflags(write=False)
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "canvas", (int(w), int(h)))


def _as_map(values, name: str) -> np.ndarray:
    if isinstance(values, MotionHeatmap):
        return values.values
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D grayscale map")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValidationError(f"{name} values must lie in [0, 1]")
    return arr


def uniform_map(width: int, height: int) -> np.ndarray:
    """All-ones map: the documented fallback when no edge/attention input exists."""
    return np.ones((height, width))


def compose_density_map(xdog, attention, motion, beta: float) -> DensityMap:
    """Edge map times a beta-blend of attention and motion, normalized to sum 1."""
    if not (0.0 <= beta <= 1.0):
        raise ValidationError(f"beta must lie in [0, 1], got {beta}")
    edge = _as_map(xdog, "xdog")
    att = _as_map(attention, "attention")
    mot = _as_map(motion, "motion")
    if edge.shape != att.shape or edge.shape != mot.shape:
        raise ValidationError(
            f"map shapes differ: {edge.shape}, {att.shape}, {mot.shape}"
        )
    raw = edge * ((1.0 - beta) * att + beta * mot)
    total = raw.sum()
    if total <= 0.0:
        raise DegenerateInputError(
            "density map is all zero; fall back to a uniform map"
        )
    h, w = raw.shape
    return DensityMap(width=w, height=h, probabilities=raw / total, unnormalized=raw)


def sample_stroke_seeds(density: DensityMap, n_strokes: int, seed: int) -> np.ndarray:
    """Draw stroke seed positions (x, y) from the density, jittered within pixels.

    Draws are independent (with replacement) and deterministic given `seed`.
    """
    if n_strokes < 1:
        raise ValidationError("need at least one seed")
    rng = np.random.default_rng(seed)
    flat = density.probabilities.reshape(-1)
    cells = rng.choice(flat.size, size=n_strokes, p=flat)
    jitter = rng.random((n_strokes, 2))
    cols = cells % density.width
    rows = cells // density.width
    return np.stack([cols + jitter[:, 0], rows + jitter[:, 1]], axis=1)


def assign_track_targets(seeds: np.ndarray, tracks: TrackSet) -> np.ndarray:
    """Per-seed target trajectory: the nearest frame-0 track, translated to the seed.

    Returns shape (num_seeds, N_f, 2) with target[:, 0] == seeds.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    rows = nearest_rows(seeds, 0, tracks)
    motion = tracks.coords[rows] - tracks.coords[rows, 0][:, None, :]
    return seeds[:, None, :] + motion


def stroke_width_schedule(mask: MaskAreas, w_max: float) -> np.ndarray:
    """width_i = w_max * sqrt(area_i / (W*H)) per frame."""
    if w_max <= 0:
        raise ValidationError(f"maximum stroke width must be positive, got {w_max}")
    w, h = mask.canvas
    return w_max * np.sqrt(mask.areas / (w * h))


def init_animation(
    config: InitConfig,
    density: DensityMap,
    tracks: TrackSet,
    widths: np.ndarray,
) -> SketchAnimation:
    """Build the initial animation: seeded strokes whose trajectories follow the tracks.

    Each stroke is a short, near-degenerate segment through its seed; the m+1
    control targets are the seed's target trajectory shifted by fixed offsets
    along a random direction (perpendicular jitter up to span/8), and each
    control trajectory is ridge-fitted to its target. All N_s*(m+1) fits share
    one design matrix and are solved together.
    """
    widths = np.asarray(widths, dtype=np.float64)
    num_frames = tracks.num_frames
    if widths.shape != (num_frames,):
        raise ValidationError(
            f"widths must have shape ({num_frames},), got {widths.shape}"
        )
    n = (
        config.trajectory_degree
        if config.trajectory_degree is not None
        else default_trajectory_degree(num_frames)
    )
    span = (
        config.initial_stroke_span
        if config.initial_stroke_span is not None
        else 0.05 * max(density.width, density.height)
    )
    m = config.curve_degree
    times = np.linspace(0.0, 1.0, num_frames)

    seeds = sample_stroke_seeds(density, config.num_strokes, config.rng_seed)
    targets = assign_track_targets(seeds, tracks)

    offsets = np.empty((config.num_strokes, m + 1, 2))
    for j in range(config.num_strokes):
        rng = np.random.default_rng((config.rng_seed, 1, j))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(angle), math.sin(angle)])
        perp = np.array([-direction[1], direction[0]])
        along = (np.arange(m + 1) / m - 0.5) * span
        across = rng.uniform(-span / 8.0, span / 8.0, size=m + 1)
        offsets[j] = along[:, None] * direction + across[:, None] * perp

    # Control target (j, a) at frame i is targets[j, i] + offsets[j, a]; one
    # column pair per control point, all fitted in one solve.
    ctrl_targets = targets[:, None, :, :] + offsets[:, :, None, :]  # (N_s, m+1, N_f, 2)
    rhs = ctrl_targets.transpose(2, 0, 1, 3).reshape(num_frames, -1)
    coeffs = fit_ridge_columns(times, rhs, n, config.ridge_lambda)
    coeffs = coeffs.reshape(n + 1, config.num_strokes, m + 1, 2).transpose(1, 2, 0, 3)
    strokes = [
        Stroke(tuple(TrajectoryPoly(BasisKind.BERNSTEIN, ctrl) for ctrl in stroke_coeffs))
        for stroke_coeffs in coeffs
    ]

    return SketchAnimation(
        strokes=tuple(strokes),
        num_frames=num_frames,
        canvas=(density.width, density.height),
        widths=widths,
    )


def derive_attachment_targets(anim: SketchAnimation, tracks: TrackSet) -> np.ndarray:
    """Attachment targets recovered from an animation: each stroke's frame-0
    midpoint rides the motion of its nearest tracked point.

    Returns shape (N_s, N_f, 2). Used by the CLI, whose model files do not
    carry the targets chosen at initialization time.
    """
    if tracks.num_frames != anim.num_frames:
        raise ValidationError(
            f"track frames ({tracks.num_frames}) != animation frames ({anim.num_frames})"
        )
    first = anim.strokes[0]
    at_zero = basis_matrix(first.basis, first.trajectory_degree, np.zeros(1))[0]
    points = at_zero @ animation_coefficients(anim)  # (N_s, m+1, 2) at frame 0
    mids = basis_row(BasisKind.BERNSTEIN, first.curve_degree, 0.5).values @ points
    return assign_track_targets(mids, tracks)


# --- file ingestion -------------------------------------------------------


def load_pgm(path: str) -> np.ndarray:
    """Read a PGM image (P2 ASCII or P5 binary, 8- or 16-bit) rescaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, rest = data.split(None, 1)
    except ValueError:
        raise ParseError(f"{path}: not a PGM file") from None
    magic = magic.decode("ascii", "replace")
    if magic not in ("P2", "P5"):
        raise ParseError(f"{path}: unsupported PGM magic {magic!r}")

    # Header tokens (width, height, maxval) allow '#' comments between them.
    tokens: list[int] = []
    pos = 0
    while len(tokens) < 3:
        while pos < len(rest) and rest[pos : pos + 1].isspace():
            pos += 1
        if pos < len(rest) and rest[pos : pos + 1] == b"#":
            eol = rest.find(b"\n", pos)
            pos = len(rest) if eol < 0 else eol + 1
            continue
        start = pos
        while pos < len(rest) and not rest[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: truncated PGM header")
        try:
            tokens.append(int(rest[start:pos]))
        except ValueError:
            raise ParseError(f"{path}: bad PGM header token {rest[start:pos]!r}") from None
    width, height, maxval = tokens
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise ParseError(f"{path}: bad PGM dimensions {width}x{height}, maxval {maxval}")

    if magic == "P2":
        values = np.array(rest[pos:].split(), dtype=np.float64)
        if values.size != width * height:
            raise ParseError(
                f"{path}: expected {width * height} pixels, got {values.size}"
            )
    else:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        body = rest[pos : pos + width * height * dtype.itemsize]
        if len(body) != width * height * dtype.itemsize:
            raise ParseError(f"{path}: truncated PGM pixel data")
        values = np.frombuffer(body, dtype=dtype).astype(np.float64)
    return (values / maxval).reshape(height, width)


def save_pgm(path: str, values: np.ndarray, maxval: int = 255) -> None:
    """Write a [0, 1] grayscale map as binary PGM."""
    values = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    h, w = values.shape
    quantized = np.round(values * maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(quantized.astype(dtype).tobytes())


def load_mask_areas(path: str, canvas: tuple[int, int]) -> MaskAreas:
    """Read per-frame mask areas from CSV with header `frame,area_pixels`."""
    entries: dict[int, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["frame", "area_pixels"]:
            raise ParseError(f"{path}: expected header frame,area_pixels")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                entries[int(row[0])] = float(row[1])
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    if not entries:
        raise ValidationError(f"{path}: no area rows")
    frames = sorted(entries)
    if frames != list(range(len(frames))):
        raise ValidationError(f"{path}: frames must be contiguous from 0")
    return MaskAreas(areas=np.array([entries[f] for f in frames]), canvas=canvas)
