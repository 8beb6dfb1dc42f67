"""Output checks and exact work counts taken from the pipeline's output files.

* An animated SVG's key geometries must parse back to within ``KEY_TOL_PX``
  of ``eval_curve_point`` at the key's time (the bound of acceptance criteria
  9 and 10), on a deterministic sample of (stroke, key) pairs.
* A model file must survive a load -> save round trip byte for byte.
* Outputs of repeated or traced passes must hash like the first pass.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np

KEY_TOL_PX = 1e-5

# At most this many strokes and keys per stroke are compared per SVG file.
SAMPLE_STROKES = 8
SAMPLE_KEYS = 4

# Points compared on every cubic segment of a sampled key.
SEGMENT_GRID = np.linspace(0.0, 1.0, 5)

_ANIMATE_D = re.compile(
    r'<animate attributeName="d" [^>]*keyTimes="([^"]+)" values="([^"]+)"/>'
)
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")
_CUBIC_ROWS = np.stack(
    [
        (1 - SEGMENT_GRID) ** 3,
        3 * SEGMENT_GRID * (1 - SEGMENT_GRID) ** 2,
        3 * SEGMENT_GRID**2 * (1 - SEGMENT_GRID),
        SEGMENT_GRID**3,
    ],
    axis=1,
)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def parse_animated_keys(svg_text: str) -> list[tuple[np.ndarray, list[str]]]:
    """Per stroke: (key times, key path data) of the path-morphing animation."""
    return [
        (np.array([float(v) for v in m.group(1).split(";")]), m.group(2).split(";"))
        for m in _ANIMATE_D.finditer(svg_text)
    ]


def path_cubics(d: str) -> np.ndarray:
    """Control points of an ``M p C p p p [C p p p ...]`` path, shape (segments, 4, 2)."""
    if set(re.sub(r"[-\d., ]", "", d)) != {"M", "C"}:
        raise ValueError(f"expected a path of M and C commands, got {d[:40]!r}")
    pts = np.array([float(v) for v in _NUMBER.findall(d)]).reshape(-1, 2)
    if len(pts) % 3 != 1:
        raise ValueError(f"a path of cubics has 3k+1 points, got {len(pts)}")
    return np.stack([pts[0:-1:3], pts[1::3], pts[2::3], pts[3::3]], axis=1)


def sample_indices(size: int, count: int) -> list[int]:
    """`count` evenly spread indices of range(size), both ends included."""
    return sorted({int(i) for i in np.linspace(0, size - 1, min(size, count)).round()})


def svg_key_report(svg_path: str, anim) -> dict:
    """Worst key deviation on the sample, and exact counts over every key.

    The k-th of K cubic segments of a key covers curve parameters
    [k/K, (k+1)/K], as the exporter cuts the curve uniformly.
    """
    from motionsketch import eval_curve_point

    with open(svg_path) as fh:
        per_stroke = parse_animated_keys(fh.read())
    if len(per_stroke) != anim.num_strokes:
        raise ValueError(f"{len(per_stroke)} animated paths for {anim.num_strokes} strokes")
    num_keys = len(per_stroke[0][1])
    times = np.linspace(0.0, 1.0, num_keys)
    worst = 0.0
    for j in sample_indices(anim.num_strokes, SAMPLE_STROKES):
        key_times, keys = per_stroke[j]
        if key_times.shape != times.shape or np.max(np.abs(key_times - times)) > 1e-6:
            raise ValueError(f"stroke {j}: keyTimes are not {num_keys} uniform times")
        for k in sample_indices(num_keys, SAMPLE_KEYS):
            cubics = path_cubics(keys[k])
            count = len(cubics)
            for s, ctrl in enumerate(cubics):
                parsed = _CUBIC_ROWS @ ctrl
                exact = np.stack(
                    [
                        eval_curve_point(anim.strokes[j], (s + u) / count, float(times[k]))
                        for u in SEGMENT_GRID
                    ]
                )
                worst = max(worst, float(np.max(np.abs(parsed - exact))))
    all_keys = [key for _, keys in per_stroke for key in keys]
    return {
        "max_key_err_px": worst,
        "stroke_keys": len(all_keys),
        "cubic_segments": sum(key.count("C") for key in all_keys),
    }


def model_round_trips(path: str) -> bool:
    """Loading the model and saving it again reproduces the file's bytes."""
    from motionsketch import load_model, save_model

    copy = path + ".roundtrip"
    save_model(load_model(path), copy)
    try:
        return sha256(copy) == sha256(path)
    finally:
        os.remove(copy)
