"""Tests of the benchmark itself: tracer arithmetic, inputs, metric names and
the code routes each workload takes.

Run from the repository root: ``python3 -m pytest benchmarks/tests -q``.
The pipeline tests use shrunken copies of the workloads, which keep every
property that selects a code route (curve degree, trajectory degree, track
count against the KD-tree threshold) and cut only sizes and iterations.
"""

import dataclasses
import json
import os
import re

import pytest

import checks
import layers
import run
import workloads
from tracer import Tracer

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

SMALL = {
    "demo": dataclasses.replace(
        workloads.DEMO,
        num_strokes=4,
        stages=(
            ("optimize", ("--iterations", "3", "--step", "0.5")),
            ("export", ("--fps", "12")),
            ("interp", ("--fps-in", "6", "--fps-out", "24")),
        ),
    ),
    "scene": dataclasses.replace(
        workloads.SCENE,
        tracks_shape=(300, 200),
        canvas=(256, 256),
        num_strokes=2,
        stages=(
            ("optimize", ("--iterations", "1")),
            ("export", ("--fps", "24")),
            ("fit-bench", ()),
        ),
    ),
    "detail": dataclasses.replace(
        workloads.DETAIL,
        num_strokes=1,
        stages=(
            ("optimize", ("--iterations", "2")),
            ("check-grad", ()),
            ("interp", ("--fps-in", "24", "--fps-out", "2")),
        ),
    ),
}


def test_self_time_subtracts_nested_children():
    tracer = Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 7.0, 0],
        ["e", 20.0, 21.0, -1],
    ]
    assert tracer.self_times() == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])
    stats = tracer.stats("a")
    assert stats["a"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert stats["c"]["s"] == 1.0
    assert "e" not in stats


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0]]
    assert tracer.self_times()[0] == pytest.approx(5.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    import motionsketch
    from motionsketch import cli, initialization, optimize, tracking

    original = tracking.nearest_rows
    heatmap = tracking.build_motion_heatmap
    tracer = Tracer()
    tracer.install("motionsketch", layers.TARGETS)
    try:
        for module in (tracking, initialization, optimize):
            assert module.nearest_rows is not original
            assert module.nearest_rows.__wrapped__ is original
        assert cli.build_motion_heatmap is not heatmap
        tracks = motionsketch.make_demo_tracks(num_points=4, num_frames=3)
        optimize.nearest_rows([[[1.0, 2.0]]], 0, tracks)
    finally:
        tracer.uninstall()
    for module in (tracking, initialization, optimize):
        assert module.nearest_rows is original
    assert cli.build_motion_heatmap is heatmap
    assert [s[0] for s in tracer.spans] == ["tracking.nearest_rows"]
    assert tracer.counts["tracking.nearest_rows.queries"] == 1


def test_inputs_depend_on_the_seed_only(tmp_path):
    small = SMALL["scene"]

    def tracks_bytes(seed, name):
        path = workloads.write_inputs(small, seed, run.ROOT, str(tmp_path / name))
        with open(path, "rb") as fh:
            return fh.read()

    assert tracks_bytes(3, "a") == tracks_bytes(3, "b")
    assert tracks_bytes(3, "a") != tracks_bytes(4, "c")
    argv = workloads.stage_argv(small, "init", (), "t.json", 3, "out")
    assert argv[argv.index("--seed") + 1] == "3"


NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_spec_names_units_and_workloads():
    listed = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in listed]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert {m["name"]: m["unit"] for m in listed} == {m["name"]: run.unit(m["name"]) for m in listed}
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_key_check_rejects_a_moved_key(tmp_path):
    import motionsketch as ms

    tracks = ms.make_demo_tracks(num_points=4, num_frames=5)
    density = ms.compose_density_map(
        ms.uniform_map(32, 32), ms.uniform_map(32, 32), ms.uniform_map(32, 32), 0.5
    )
    anim = ms.init_animation(ms.InitConfig(num_strokes=2), density, tracks, [1.0] * 5)
    path = tmp_path / "a.svg"
    ms.export_animated_svg(anim, ms.resample_framerate(anim, 1, 1), str(path))
    assert checks.svg_key_report(str(path), anim)["max_key_err_px"] < checks.KEY_TOL_PX
    text = path.read_text()
    first = re.search(r'values="M (-?\d+\.\d+)', text).group(1)
    moved = f"{float(first) + 1e-4:.6f}"
    path.write_text(text.replace(f'values="M {first}', f'values="M {moved}', 1))
    assert checks.svg_key_report(str(path), anim)["max_key_err_px"] > checks.KEY_TOL_PX


@pytest.fixture(scope="module")
def traced_reports(tmp_path_factory):
    reports = {}
    for name, workload in SMALL.items():
        out = tmp_path_factory.mktemp(name)
        reports[name] = run.benchmark(
            workload, 5, 0.001, str(out / "run"), 1, spans_path=str(out / "spans.json")
        )
    return reports


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_listed_metric_is_emitted_and_checks_pass(traced_reports, name):
    report = traced_reports[name]
    assert report["failures"] == []
    assert all(NAME.fullmatch(n) for n in [*report["metrics"], *report["per_layer"]])
    assert report["metrics"]["error_rate"] == 0.0
    for key, listed in (("metrics", SPEC["end_to_end"]), ("per_layer", SPEC["per_layer"])):
        values = report[key]
        missing = [m["name"] for m in listed if values.get(m["name"]) is None]
        assert missing == []
    for m in SPEC["end_to_end"]:
        assert report["metrics"][m["name"]] > 0
    assert report["per_layer"]["export.max_key_err_px"] < checks.KEY_TOL_PX


def test_routes(traced_reports):
    demo, scene, detail = (traced_reports[n]["per_layer"] for n in ("demo", "scene", "detail"))
    assert demo["bernstein.bernstein_matrix_log.calls"] == 0
    assert demo["bernstein.solve_control_points.calls"] == 0
    assert demo["export.cubic_segments"] == demo["export.stroke_keys"]
    assert scene["bernstein.bernstein_matrix_log.calls"] > 0
    assert scene["fitting.run_fit_benchmark.calls"] == 1
    assert detail["bernstein.solve_control_points.calls"] > 0
    assert detail["export.cubic_segments"] > detail["export.stroke_keys"]
    assert detail["optimize.finite_difference_check.calls"] == 1
