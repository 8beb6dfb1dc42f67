"""Model files, SVG rendering, animated export, frame-rate resampling."""

import json
import struct

import numpy as np
import pytest
from conftest import (
    NOT_INT64,
    eval_piecewise_path,
    make_animation,
    parse_animated_keys,
    parse_frame_paths,
    parse_path_points,
    random_animation,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from motionsketch import (
    BasisKind,
    ParseError,
    UnsupportedVersionError,
    ValidationError,
    animation_coefficients,
    eval_curve_point,
    eval_trajectory,
    export_animated_svg,
    export_frame_svg,
    load_model,
    model_document,
    render_animated_svg,
    render_frame_svg,
    resample_framerate,
    save_model,
    stroke_path_data,
)
from motionsketch.bernstein import basis_matrix, basis_row


def static_animation(num_frames=3, widths=None):
    controls = [
        np.full((2, 2), (10.0, 20.0)),
        np.full((2, 2), (40.0, 25.0)),
        np.full((2, 2), (60.0, 70.0)),
        np.full((2, 2), (90.0, 80.0)),
    ]
    return make_animation([controls], num_frames, canvas=(128, 128), widths=widths)


def assert_same_document(got, want):
    """Equal JSON values with matching types, floats compared bit for bit."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_document(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_document(a, b)
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert got == want


class TestModelFile:
    def test_file_is_the_document_bit_for_bit(self, tmp_path, rng):
        edge = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.2250738585072014e-308, 0.1]
        coeffs = rng.uniform(-1e3, 1e3, (2, 3, 4, 2))
        coeffs.reshape(-1)[: len(edge)] = edge
        widths = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0])
        anim = make_animation(coeffs, 4, canvas=(640, 480), widths=widths)
        path = tmp_path / "model.json"
        doc = save_model(anim, str(path))
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        loaded = json.loads(text)
        assert_same_document(loaded, model_document(anim))
        assert_same_document(doc, model_document(anim))
        ctrl = np.array([stroke["control_trajectories"] for stroke in loaded["strokes"]])
        assert ctrl.tobytes() == coeffs.tobytes()
        assert np.array(loaded["widths"]).tobytes() == widths.tobytes()

    def test_load_save_reproduces_bytes(self, tmp_path, rng):
        anim = random_animation(rng, num_strokes=3, curve_degree=4, trajectory_degree=61)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(anim, str(first))
        save_model(load_model(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_is_coefficient_exact(self, tmp_path, rng):
        anim = random_animation(rng, num_strokes=3, trajectory_degree=7)
        path = tmp_path / "model.json"
        save_model(anim, str(path))
        loaded = load_model(str(path))
        assert np.array_equal(
            animation_coefficients(loaded), animation_coefficients(anim)
        )
        assert np.array_equal(loaded.widths, anim.widths)
        assert loaded.canvas == anim.canvas

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 999}))
        with pytest.raises(UnsupportedVersionError):
            load_model(str(path))

    @pytest.mark.parametrize("version", [True, 0, -3])
    def test_bad_version_is_parse_error(self, tmp_path, rng, version):
        path = tmp_path / "model.json"
        doc = save_model(random_animation(rng), str(path))
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_truncated_file(self, tmp_path, rng):
        anim = random_animation(rng)
        path = tmp_path / "model.json"
        save_model(anim, str(path))
        path.write_text(path.read_text()[:50])
        with pytest.raises(ParseError):
            load_model(str(path))

    def test_unknown_fields_warn_and_load(self, tmp_path, rng):
        anim = random_animation(rng)
        path = tmp_path / "model.json"
        doc = save_model(anim, str(path))
        doc["future_feature"] = {"x": 1}
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="future_feature"):
            loaded = load_model(str(path))
        assert loaded.num_frames == anim.num_frames

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 1, "canvas": [8, 8]}))
        with pytest.raises(ParseError):
            load_model(str(path))

    @pytest.mark.parametrize("case", ["basis", "num_frames", "widths", "ragged", "canvas"])
    def test_malformed_value_is_parse_error(self, tmp_path, rng, case):
        # Present fields whose values do not parse: an unknown basis, a
        # non-numeric frame count or width, a ragged control trajectory, and a
        # canvas of 1e400 (inf, which no int holds).
        path = tmp_path / "model.json"
        doc = save_model(random_animation(rng), str(path))
        stroke = doc["strokes"][0]
        if case == "basis":
            stroke["basis"] = "foo"
        elif case == "num_frames":
            doc["num_frames"] = "three"
        elif case == "widths":
            doc["widths"][0] = "wide"
        elif case == "ragged":
            stroke["control_trajectories"][0][0] = [1.0]
        else:
            doc["canvas"] = "CANVAS"
        path.write_text(json.dumps(doc).replace('"CANVAS"', "[1e400, 8]"))
        with pytest.raises(ParseError, match="malformed"):
            load_model(str(path))

    @pytest.mark.parametrize("value", NOT_INT64)
    def test_num_frames_must_be_an_int64(self, tmp_path, rng, value):
        path = tmp_path / "model.json"
        doc = save_model(random_animation(rng), str(path))
        doc["num_frames"] = "VALUE"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        with pytest.raises(ParseError, match="'num_frames' must be a 64-bit JSON integer"):
            load_model(str(path))

    @pytest.mark.parametrize("value", NOT_INT64)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_canvas_must_be_int64s(self, tmp_path, rng, value, axis):
        path = tmp_path / "model.json"
        doc = save_model(random_animation(rng), str(path))
        doc["canvas"][axis] = "VALUE"
        path.write_text(json.dumps(doc).replace('"VALUE"', value))
        with pytest.raises(ParseError, match="'canvas' must be a 64-bit JSON integer"):
            load_model(str(path))

    @pytest.mark.parametrize("name", ["curve_degree", "trajectory_degree"])
    def test_declared_degrees_must_match_the_arrays(self, tmp_path, rng, name):
        # A cubic stroke of degree-3 trajectories that declares another
        # degree, or a degree that is no JSON integer, or none, is refused.
        path = tmp_path / "model.json"
        doc = save_model(random_animation(rng, curve_degree=3, trajectory_degree=3), str(path))
        for value, message in ((7, f"stroke 1 '{name}' is 7, its arrays give 3"),
                               ("x", f"stroke 1 '{name}' must be a 64-bit JSON integer"),
                               (None, f"KeyError\\('{name}'\\)")):
            doc["strokes"][1][name] = value
            if value is None:
                del doc["strokes"][1][name]
            path.write_text(json.dumps(doc))
            with pytest.raises(ParseError, match=message):
                load_model(str(path))
            doc["strokes"][1][name] = 3
        path.write_text(json.dumps(doc))
        assert load_model(str(path)).strokes[1].curve_degree == 3

    def test_non_finite_coefficient_is_validation_error(self, tmp_path, rng):
        path = tmp_path / "model.json"
        doc = save_model(random_animation(rng), str(path))
        doc["strokes"][0]["control_trajectories"][0][0] = "INF"
        path.write_text(json.dumps(doc).replace('"INF"', "[1e400, 0.0]"))
        with pytest.raises(ValidationError, match="finite") as excinfo:
            load_model(str(path))
        assert not isinstance(excinfo.value, ParseError)


class TestFrameSvg:
    def test_static_frames_byte_identical(self):
        anim = static_animation()
        assert render_frame_svg(anim, 0.0) == render_frame_svg(anim, 1.0)

    def test_width_interpolation(self):
        anim = static_animation(num_frames=2, widths=np.array([2.0, 4.0]))
        svg = render_frame_svg(anim, 0.5)
        assert 'stroke-width="3.000000"' in svg

    def test_cubic_path_points_match_eval(self, rng):
        anim = random_animation(rng, num_strokes=1, curve_degree=3,
                                trajectory_degree=4)
        stroke = anim.strokes[0]
        t = 0.3
        points = parse_path_points(stroke_path_data(stroke, t))
        # the four path numbers are the control trajectory positions at t
        expected = np.stack(
            [eval_trajectory(traj, t) for traj in stroke.control_trajectories]
        )
        assert_allclose(points, expected, atol=1e-5)
        assert_allclose(points[0], eval_curve_point(stroke, 0.0, t), atol=1e-5)
        assert_allclose(points[3], eval_curve_point(stroke, 1.0, t), atol=1e-5)
        curve = eval_piecewise_path(stroke_path_data(stroke, t))
        exact = np.stack(
            [eval_curve_point(stroke, u, t) for u in np.linspace(0, 1, 9)]
        )
        assert np.abs(curve[0] - exact).max() < 1e-5

    def test_high_degree_piecewise_matches_eval(self, rng):
        anim = random_animation(rng, num_strokes=1, curve_degree=5,
                                trajectory_degree=2, scale=200.0)
        stroke = anim.strokes[0]
        d = stroke_path_data(stroke, 0.4)
        segments = d.count("C")
        assert segments > 1
        curve = eval_piecewise_path(d)
        worst = 0.0
        for s in range(segments):
            a, b = s / segments, (s + 1) / segments
            exact = np.stack(
                [
                    eval_curve_point(stroke, a + (b - a) * u, 0.4)
                    for u in np.linspace(0, 1, 9)
                ]
            )
            worst = max(worst, float(np.abs(curve[s] - exact).max()))
        assert worst < 1e-5

    def test_linear_parse_back(self, rng):
        line = random_animation(rng, num_strokes=1, curve_degree=1)
        stroke = line.strokes[0]
        d = stroke_path_data(stroke, 0.6)
        assert " L " in d
        points = parse_path_points(d)
        grid = np.linspace(0, 1, 7)
        parsed = (1 - grid)[:, None] * points[0] + grid[:, None] * points[1]
        exact = np.stack([eval_curve_point(stroke, u, 0.6) for u in grid])
        assert np.abs(parsed - exact).max() < 1e-5

    def test_quadratic_parse_back(self, rng):
        quad = random_animation(rng, num_strokes=1, curve_degree=2)
        stroke = quad.strokes[0]
        d = stroke_path_data(stroke, 0.25)
        assert " Q " in d
        points = parse_path_points(d)
        grid = np.linspace(0, 1, 7)
        rows = np.stack([(1 - grid) ** 2, 2 * grid * (1 - grid), grid**2], axis=1)
        exact = np.stack([eval_curve_point(stroke, u, 0.25) for u in grid])
        assert np.abs(rows @ points - exact).max() < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(
        curve_degree=st.integers(1, 8),
        trajectory_degree=st.integers(1, 99),
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parse_back_property(self, curve_degree, trajectory_degree, t, seed):
        # L/Q/C paths and, above degree 3, piecewise cubics; the k-th of K
        # cubics covers u in [k/K, (k+1)/K]. Trajectory degrees span the
        # direct/log switch at 60. Most of the 11-point grid falls between the
        # subdivision's 9 check points.
        rng = np.random.default_rng(seed)
        stroke = random_animation(rng, num_strokes=1, curve_degree=curve_degree,
                                  trajectory_degree=trajectory_degree).strokes[0]
        d = stroke_path_data(stroke, t)
        local = np.linspace(0.0, 1.0, 11)
        if curve_degree < 3:
            rows = basis_matrix(BasisKind.BERNSTEIN, curve_degree, local)
            parsed = (rows @ parse_path_points(d))[None]
        else:
            parsed = eval_piecewise_path(d, local.size)
        # eval_curve_point's arithmetic with the control points hoisted out of
        # the loop over u (they do not depend on it).
        points = np.stack([eval_trajectory(traj, t) for traj in stroke.control_trajectories])
        segments = len(parsed)
        exact = np.array([
            [basis_row(BasisKind.BERNSTEIN, curve_degree, (k + u) / segments).values @ points
             for u in local]
            for k in range(segments)
        ])
        assert np.array_equal(exact[0, 0], eval_curve_point(stroke, 0.0, t))
        assert np.abs(parsed - exact).max() < 1e-5

    def test_file_export(self, tmp_path):
        anim = static_animation()
        path = tmp_path / "frame.svg"
        export_frame_svg(anim, 0.5, str(path))
        text = path.read_text()
        assert 'viewBox="0 0 128 128"' in text
        assert 'stroke-linecap="round"' in text
        assert 'fill="none"' in text


class TestAnimatedSvg:
    def test_identity_plan_key_times(self, rng):
        anim = random_animation(rng, num_frames=5)
        plan = resample_framerate(anim, 10.0, 10.0)
        svg = render_animated_svg(anim, plan)
        times, keys = parse_animated_keys(svg)[0]
        assert_allclose(times, [0, 0.25, 0.5, 0.75, 1.0])
        assert len(keys) == 5

    def test_keys_match_frame_exports(self, rng):
        # Quadratic strokes, and quintic ones (piecewise cubics) whose degree-61
        # trajectories take the log-space basis route; 4 -> 7 frames puts
        # keys between the model's frames. The keys of a quintic stroke are
        # subdivided together but leave at their own segment counts, which
        # differ between keys of one stroke here.
        for curve_degree, trajectory_degree in ((2, 3), (5, 61)):
            anim = random_animation(rng, num_frames=4, curve_degree=curve_degree,
                                    trajectory_degree=trajectory_degree)
            plan = resample_framerate(anim, 4.0, 8.0)
            svg = render_animated_svg(anim, plan)
            segment_counts = set()
            for stroke, (times, keys) in zip(anim.strokes, parse_animated_keys(svg)):
                assert len(keys) == plan.num_output_frames
                segment_counts.add(frozenset(key.count(" C ") for key in keys))
                for t, key in zip(plan.output_frame_times, keys):
                    frame_paths = parse_frame_paths(render_frame_svg(anim, float(t)))
                    assert key in frame_paths  # byte-identical path data
                    assert key == stroke_path_data(stroke, float(t))
            if curve_degree > 3:
                assert max(len(counts) for counts in segment_counts) > 1

    def test_static_animation_identical_keys(self):
        anim = static_animation()
        svg = render_animated_svg(anim, resample_framerate(anim, 6.0, 6.0))
        _, keys = parse_animated_keys(svg)[0]
        assert len(set(keys)) == 1

    def test_quadruple_density_output(self, rng):
        anim = random_animation(rng, num_frames=4)
        plan = resample_framerate(anim, 6.0, 24.0)
        assert plan.num_output_frames == 13  # round(3*4)+1
        svg = render_animated_svg(anim, plan)
        times, keys = parse_animated_keys(svg)[0]
        assert len(keys) == 13
        assert 'repeatCount="indefinite"' in svg

    def test_duration_rule(self, rng):
        anim = random_animation(rng, num_frames=4)
        plan = resample_framerate(anim, 6.0, 24.0)
        assert plan.duration_seconds == pytest.approx(13 / 24.0)

    def test_file_export(self, tmp_path, rng):
        anim = random_animation(rng)
        path = tmp_path / "anim.svg"
        export_animated_svg(anim, resample_framerate(anim, 5.0, 5.0), str(path))
        assert path.read_text().startswith("<?xml")


class TestResample:
    def test_surfing_configuration(self, rng):
        anim = random_animation(rng, num_frames=300)
        plan = resample_framerate(anim, 6.0, 24.0)
        assert plan.num_output_frames == 1197  # round(299*4)+1

    def test_equal_fps_identity(self, rng):
        anim = random_animation(rng, num_frames=7)
        plan = resample_framerate(anim, 12.0, 12.0)
        assert_allclose(plan.output_frame_times, anim.frame_times())

    def test_double_fps_includes_midpoints(self, rng):
        anim = random_animation(rng, num_frames=3)
        plan = resample_framerate(anim, 5.0, 10.0)
        assert_allclose(plan.output_frame_times, [0, 0.25, 0.5, 0.75, 1.0])

    def test_interpolation_smoothness(self, rng):
        # Second differences estimate curvature times the squared step, so a
        # 4x denser sampling of a polynomial never increases them.
        anim = random_animation(rng, num_strokes=2, num_frames=9,
                                trajectory_degree=5)

        def max_second_difference(times):
            worst = 0.0
            for stroke in anim.strokes:
                mids = np.stack([eval_curve_point(stroke, 0.5, t) for t in times])
                second = mids[2:] - 2 * mids[1:-1] + mids[:-2]
                worst = max(worst, float(np.abs(second).max()))
            return worst

        base = max_second_difference(anim.frame_times())
        dense = max_second_difference(
            resample_framerate(anim, 6.0, 24.0).output_frame_times
        )
        assert dense <= base * (1 + 1e-9)
