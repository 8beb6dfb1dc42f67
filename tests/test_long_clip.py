"""The CLI pipeline in the paper's regime, trajectory degree above 200.

60 generated tracks over 500 frames (amplitude 40, on 256x256) give init's
default trajectory degree 249, on the log-space Bernstein route. Four cubic
strokes go through init, 3 optimize iterations, export, interp and
check-grad, each a call of `cli.main`.
"""

import csv
import os
import subprocess
import sys

import numpy as np
from conftest import eval_piecewise_path, parse_animated_keys

import motionsketch
from motionsketch import (
    animation_coefficients,
    load_model,
    make_benchmark_tracks,
    sample_stroke,
    save_tracks,
)
from motionsketch.cli import main


def long_clip_tracks(path):
    save_tracks(make_benchmark_tracks(60, 500, seed=2, canvas=(256, 256), amplitude=40.0),
                str(path))


def test_long_clip_end_to_end(tmp_path, capsys):
    tracks, model, opt, log = (str(tmp_path / name) for name in
                               ("tracks.json", "model.json", "opt.json", "loss.csv"))
    anim_svg, interp_svg = str(tmp_path / "anim.svg"), str(tmp_path / "interp.svg")
    long_clip_tracks(tracks)
    stages = {
        "init": ["init", "--tracks", tracks, "--canvas", "256x256", "--num-strokes", "4",
                 "--seed", "2", "--out", model],
        "optimize": ["optimize", "--model", model, "--tracks", tracks, "--out", opt,
                     "--iterations", "3", "--log", log],
        "export": ["export", "--model", opt, "--animated", anim_svg, "--fps", "24"],
        "interp": ["interp", "--model", opt, "--fps-in", "24", "--fps-out", "6",
                   "--out", interp_svg],
        "check-grad": ["check-grad", "--model", opt, "--tracks", tracks],
    }
    codes = {stage: main(argv) for stage, argv in stages.items()}
    printed = capsys.readouterr().out
    assert codes == dict.fromkeys(stages, 0)

    initial, anim = load_model(model), load_model(opt)
    assert {s.trajectory_degree for s in anim.strokes} == {249}

    # The animated keys are the library's curves, on the log route: each
    # cubic key at u = k/8 against `sample_stroke`, whose points are those of
    # `eval_curve_point` bit for bit (tests/test_trajectory.py).
    with open(anim_svg) as fh:
        per_stroke = parse_animated_keys(fh.read())
    assert len(per_stroke) == anim.num_strokes
    worst = 0.0
    for stroke, (_, keys) in zip(anim.strokes, per_stroke):
        assert len(keys) == 500
        for t, key in zip(anim.frame_times(), keys):
            curve = eval_piecewise_path(key)[0]
            exact = sample_stroke(stroke, float(t), 9)
            worst = max(worst, float(np.abs(curve - exact).max()))
    assert worst < 1e-5

    # The final loss is below the first iteration's, at the initial model.
    with open(log) as fh:
        rows = list(csv.DictReader(fh))
    final = float(printed.split("final loss ", 1)[1].split()[0])
    assert [int(r["iteration"]) for r in rows] == [1, 3]
    assert final < float(rows[0]["total"])

    # Ridge keeps the coefficients of degree 249 at the canvas' scale.
    for a in (initial, anim):
        assert np.abs(animation_coefficients(a)).max() < 1e4
    assert "max relative gradient error:" in printed


def test_init_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The ridge solve at degree 249 gives other bits with 2 OpenBLAS threads
    # than with 1, so the CLI runs BLAS with one thread whatever the
    # environment sets. Each run is a fresh process, as OpenBLAS reads the
    # variable when numpy loads.
    long_clip_tracks(tmp_path / "tracks.json")
    src = os.path.dirname(os.path.dirname(motionsketch.__file__))
    runs = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        runs.append(subprocess.Popen(
            [sys.executable, "-m", "motionsketch", "init", "--tracks", "../tracks.json",
             "--canvas", "256x256", "--num-strokes", "4", "--seed", "2", "--out", "model.json"],
            cwd=tmp_path / threads, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    for run in runs:
        _, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
    models = [(tmp_path / threads / "model.json").read_bytes() for threads in ("1", "2")]
    assert models[0] == models[1]
