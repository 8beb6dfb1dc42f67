"""The benchmark's named workloads and the files each one starts from.

Every workload runs ``init`` and then the CLI stages in ``stages``, in order,
each stage reading the file the previous stage wrote. Input files are made
from the seed alone: the seed goes to ``init --seed`` and, for generated
tracks, to ``make_benchmark_tracks``.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

DEMO_TRACKS = os.path.join("data", "demo_tracks.json")

# Files each stage writes, relative to the pass directory.
STAGE_OUTPUTS = {
    "init": "model.json",
    "optimize": "opt.json",
    "export": "export.svg",
    "interp": "interp.svg",
    "fit-bench": "fit-bench.csv",
    "check-grad": None,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tracks_shape: tuple[int, int] | None  # (points, frames) to generate; None: demo file
    canvas: tuple[int, int]
    num_strokes: int
    init_args: tuple[str, ...]
    stages: tuple[tuple[str, tuple[str, ...]], ...]  # (stage, extra args) after init


DEMO = Workload(
    name="demo",
    why="bundled 16-point demo tracks, 16 cubic strokes, 200 iterations: the optimizer "
    "and per-point basis calls dominate; scan-path nearest points, direct basis only",
    tracks_shape=None,
    canvas=(256, 256),
    num_strokes=16,
    init_args=(),
    stages=(
        ("optimize", ("--iterations", "200", "--step", "0.5")),
        ("export", ("--fps", "12")),
        ("interp", ("--fps-in", "6", "--fps-out", "24")),
    ),
)

SCENE = Workload(
    name="scene",
    why="2000 generated tracks x 200 frames on 384x384, 128 strokes of degree 99: heatmap, "
    "ridge fits, KD-tree nearest points, O(N_f^2) loss and log-route basis dominate",
    tracks_shape=(2000, 200),
    canvas=(384, 384),
    num_strokes=128,
    init_args=(),
    stages=(
        ("optimize", ("--iterations", "2")),
        ("export", ("--fps", "24")),
        ("fit-bench", ()),
    ),
)

DETAIL = Workload(
    name="detail",
    why="demo tracks, 4 small quintic strokes of degree 80: piecewise-cubic subdivision in "
    "interp, log-route basis rows, and the value-only objective of the gradient checker",
    tracks_shape=None,
    canvas=(256, 256),
    num_strokes=4,
    # A 3.2 px initial span keeps every key at 32 cubic segments on every
    # seed; at the default span the count moves between 640 and 1120 per pass
    # with the seed, and the interp time with it.
    init_args=("--curve-degree", "5", "--degree", "80", "--span", "3.2"),
    stages=(
        ("optimize", ("--iterations", "50")),
        ("check-grad", ()),
        ("interp", ("--fps-in", "24", "--fps-out", "2")),
    ),
)

WORKLOADS = {w.name: w for w in (DEMO, SCENE, DETAIL)}


def write_inputs(workload: Workload, seed: int, root: str, out_dir: str) -> str:
    """Write the workload's track file into `out_dir`; return its path."""
    from motionsketch import make_benchmark_tracks, save_tracks

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "tracks.json")
    if workload.tracks_shape is None:
        shutil.copyfile(os.path.join(root, DEMO_TRACKS), path)
    else:
        points, frames = workload.tracks_shape
        save_tracks(make_benchmark_tracks(points, frames, seed, canvas=workload.canvas), path)
    return path


def stage_argv(
    workload: Workload, stage: str, extra: tuple[str, ...], tracks: str, seed: int, pass_dir: str
) -> list[str]:
    """CLI arguments of one stage; model stages read ``init``'s or ``optimize``'s file."""
    model = os.path.join(pass_dir, STAGE_OUTPUTS["init"])
    opt = os.path.join(pass_dir, STAGE_OUTPUTS["optimize"])
    out = os.path.join(pass_dir, STAGE_OUTPUTS[stage] or "")
    if stage == "init":
        w, h = workload.canvas
        return [
            "init", "--tracks", tracks, "--canvas", f"{w}x{h}",
            "--num-strokes", str(workload.num_strokes), "--seed", str(seed),
            "--out", model, *workload.init_args,
        ]
    if stage == "optimize":
        return ["optimize", "--model", model, "--tracks", tracks, "--out", opt, *extra]
    if stage == "export":
        return ["export", "--model", opt, "--animated", out, *extra]
    if stage == "interp":
        return ["interp", "--model", opt, "--out", out, *extra]
    if stage == "check-grad":
        return ["check-grad", "--model", opt, "--tracks", tracks, *extra]
    if stage == "fit-bench":
        return ["fit-bench", "--tracks", tracks, "--csv", out, *extra]
    raise ValueError(f"unknown stage {stage!r}")


def pass_stages(workload: Workload) -> tuple[tuple[str, tuple[str, ...]], ...]:
    return (("init", ()),) + workload.stages
