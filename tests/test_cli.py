"""CLI subcommands, exit codes, and output contracts."""

import ctypes
import hashlib
import json
import os

import numpy as np
import pytest

from motionsketch import cli, load_model, make_demo_tracks, save_tracks
from motionsketch.cli import main


@pytest.fixture
def tracks_path(tmp_path):
    path = tmp_path / "tracks.json"
    save_tracks(make_demo_tracks(num_points=6, num_frames=8), str(path))
    return str(path)


@pytest.fixture
def model_path(tmp_path, tracks_path):
    path = tmp_path / "model.json"
    code = main([
        "init", "--tracks", tracks_path, "--canvas", "64x64", "--out", str(path),
        "--num-strokes", "3", "--degree", "3", "--seed", "1",
    ])
    assert code == 0
    return str(path)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["fit-bench", "--no-such-flag"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["fit-bench", "--tracks", str(tmp_path / "nope.json")]) == 2

    def test_malformed_tracks_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fit-bench", "--tracks", str(bad)]) == 2

    def test_future_model_version(self, tmp_path, tracks_path):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"format_version": 99}))
        assert main(["export", "--model", str(model), "--animated",
                     str(tmp_path / "a.svg")]) == 2

    def test_bad_model_version(self, tmp_path):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"format_version": True}))
        assert main(["export", "--model", str(model), "--animated",
                     str(tmp_path / "a.svg")]) == 2

    def test_malformed_model_value_is_parse_error(self, capsys, tmp_path, model_path):
        model = tmp_path / "m.json"
        with open(model_path) as fh:
            doc = json.load(fh)
        doc["strokes"][0]["basis"] = "foo"
        model.write_text(json.dumps(doc))
        assert main(["export", "--model", str(model), "--animated",
                     str(tmp_path / "a.svg")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["optimize", "--model", "m.json", "--tracks", "t.json", "--out", "o.json"],
        ["check-grad", "--model", "m.json", "--tracks", "t.json"],
    ])
    def test_geometry_weight_flag_is_usage_error(self, capsys, command):
        assert main([*command, "--w-g", "1"]) == 1
        assert "--w-g" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("big.json", '{"num_frames": 1, "points": [{"id": 1180591620717411303424, "xy": [[1, 2]]}]}'),
        ("float.json", '{"num_frames": 1, "points": [{"id": 1e200, "xy": [[1, 2]]}]}'),
        ("big.csv", "frame,point_id,x,y\n0,3,1,2\n0,-1180591620717411303424,5,6\n"),
    ], ids=["json-2**70", "json-1e200", "csv-minus-2**70"])
    def test_track_id_outside_int64_is_parse_error(self, capsys, tmp_path, name, text):
        tracks, out = tmp_path / name, tmp_path / "m.json"
        tracks.write_text(text)
        capsys.readouterr()
        assert main(["init", "--tracks", str(tracks), "--canvas", "32x32", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "point id" in err[0]
        assert "1180591620717411303424" in err[0] or "1e+200" in err[0]
        assert not out.exists()

    def test_non_integer_json_field_is_parse_error(self, capsys, tmp_path, tracks_path):
        # A frame count of 8.7 used to read as 8, a canvas of 32.0 as 32.
        tracks, model = tmp_path / "t.json", tmp_path / "m.json"
        with open(tracks_path) as fh:
            doc = json.load(fh)
        doc["num_frames"] += 0.7
        tracks.write_text(json.dumps(doc))
        assert main(["init", "--tracks", str(tracks), "--canvas", "32x32",
                     "--out", str(model)]) == 2
        assert "'num_frames' must be a 64-bit JSON integer" in capsys.readouterr().err
        assert main(["init", "--tracks", tracks_path, "--canvas", "32x32",
                     "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["canvas"][0] = 32.0
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["export", "--model", str(model), "--animated", str(tmp_path / "a.svg")]) == 2
        assert "'canvas' must be a 64-bit JSON integer" in capsys.readouterr().err

    def test_validation_error_exit_one(self, tmp_path, tracks_path):
        code = main([
            "init", "--tracks", tracks_path, "--canvas", "32x32",
            "--out", str(tmp_path / "m.json"), "--beta", "2.0",
        ])
        assert code == 1

    @pytest.mark.parametrize("command", ["init", "fit-bench"])
    def test_negative_ridge_lambda_exit_one(self, capsys, tmp_path, tracks_path, command):
        args = [command, "--tracks", tracks_path, "--lambda", "-1"]
        if command == "init":
            args += ["--canvas", "32x32", "--out", str(tmp_path / "m.json")]
        else:
            args += ["--configs", "8:3"]
        assert main(args) == 1
        assert "ridge lambda must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["init", "fit-bench"])
    def test_infinite_ridge_lambda_exit_one(self, capsys, tmp_path, tracks_path, command):
        # An infinite lambda used to reach lstsq and end in a LinAlgError
        # traceback ("SVD did not converge").
        args = [command, "--tracks", tracks_path, "--lambda", "inf"]
        if command == "init":
            args += ["--canvas", "32x32", "--out", str(tmp_path / "m.json")]
        else:
            args += ["--configs", "8:3"]
        assert main(args) == 1
        assert "error: ridge lambda must be nonnegative and finite, got inf" in (
            capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("args, message", [
        (["--seed", "-1"], "rng seed must be nonnegative, got -1"),
        (["--curve-degree", "2000"], "curve degree 2000 exceeds the configured maximum 1024"),
        (["--mask-areas", "AREAS", "--mask-area", "100"],
         "choose at most one of --mask-areas or --mask-area"),
    ])
    def test_init_refuses_bad_flags(self, capsys, tmp_path, tracks_path, args, message):
        # Each used to end in a traceback, a model that later stages refuse,
        # or a silently ignored --mask-area.
        areas = tmp_path / "areas.csv"
        areas.write_text("frame,area_pixels\n" + "".join(f"{f},500\n" for f in range(8)))
        out = tmp_path / "m.json"
        args = [str(areas) if a == "AREAS" else a for a in args]
        assert main(["init", "--tracks", tracks_path, "--canvas", "32x32", "--out", str(out),
                     *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == f"error: {message}"
        assert not out.exists()

    def test_init_refuses_a_repeated_mask_area_frame(self, capsys, tmp_path, tracks_path):
        # The repeated frame's last area used to be taken without a word.
        areas = tmp_path / "areas.csv"
        areas.write_text("frame,area_pixels\n" + "".join(f"{f},500\n" for f in range(8))
                         + "3,600\n")
        out = tmp_path / "m.json"
        assert main(["init", "--tracks", tracks_path, "--canvas", "32x32", "--out", str(out),
                     "--mask-areas", str(areas)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {areas}: line 10: frame 3 already has an area"]
        assert not out.exists()

    def test_interp_refuses_an_unrepresentable_frame_count(self, capsys, tmp_path, model_path):
        # 7 intervals at 1e300 times the frame rate: numpy cannot make the
        # key times, so it is a domain error, not numpy's ValueError.
        out = tmp_path / "i.svg"
        assert main(["interp", "--model", model_path, "--fps-in", "1e-300", "--fps-out", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: cannot make 7e+300 output frames"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("check-grad", "--step", "nan"),
        ("check-grad", "--step", "inf"),
        ("check-grad", "--w-s", "nan"),
        ("check-grad", "--tolerance", "nan"),
        ("check-grad", "--tolerance", "inf"),
        ("check-grad", "--tolerance", "-1"),
        ("check-grad", "--points-per-stroke", "0"),
        ("check-grad", "--points-per-stroke", "-1"),
        ("check-grad", "--points-per-stroke", "1"),
        ("optimize", "--w-c", "inf"),
        ("optimize", "--step", "nan"),
        ("optimize", "--step", "inf"),
        ("optimize", "--epsilon", "nan"),
        ("optimize", "--epsilon", "inf"),
        ("init", "--span", "nan"),
        ("init", "--span", "-5"),
        ("init", "--bandwidth", "nan"),
        ("interp", "--fps-in", "nan"),
        ("interp", "--fps-out", "inf"),
        ("export", "--fps", "nan"),
    ])
    def test_non_finite_flag_exit_one(self, capsys, tmp_path, tracks_path, model_path,
                                      command, flag, value):
        out = str(tmp_path / "out")
        args = {
            "check-grad": ["--model", model_path, "--tracks", tracks_path, "--tolerance", "1"],
            "optimize": ["--model", model_path, "--tracks", tracks_path, "--out", out,
                         "--iterations", "1"],
            "init": ["--tracks", tracks_path, "--canvas", "32x32", "--out", out],
            "interp": ["--model", model_path, "--fps-in", "6", "--fps-out", "12", "--out", out],
            "export": ["--model", model_path, "--animated", out],
        }[command]
        capsys.readouterr()
        assert main([command, *args, flag, value]) == 1
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_divergence_exit_one_writes_no_model(self, capsys, tmp_path, tracks_path,
                                                  model_path):
        # One step of 1e156 makes the final loss overflow.
        out = tmp_path / "opt.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "optimize", "--model", model_path, "--tracks", tracks_path, "--out", str(out),
                "--iterations", "1", "--w-s", "0", "--w-c", "1e-10", "--step", "1e156",
            ])
        assert code == 1
        assert "non-finite loss" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestFitBench:
    def test_csv_on_stdout(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        save_tracks(make_demo_tracks(num_points=4, num_frames=50), str(path))
        code = main(["fit-bench", "--tracks", str(path), "--lambda", "1e-3",
                     "--configs", "50:24"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "frames,degree,method,mae,avg_abs_coeff,max_abs_error,condition_estimate"
        assert len(lines) == 4

    def test_markdown_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        save_tracks(make_demo_tracks(num_points=4, num_frames=50), str(path))
        md = tmp_path / "table.md"
        assert main(["fit-bench", "--tracks", str(path), "--configs", "50:24",
                     "--markdown", str(md)]) == 0
        assert md.read_text().startswith("| frames | degree |")

    def test_skipped_config_warns(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        save_tracks(make_demo_tracks(num_points=4, num_frames=20), str(path))
        assert main(["fit-bench", "--tracks", str(path), "--configs", "50:24"]) == 0
        assert "skipped" in capsys.readouterr().err


class TestPipeline:
    def test_init_writes_model(self, model_path):
        anim = load_model(model_path)
        assert anim.num_strokes == 3 and anim.num_frames == 8

    def test_init_deterministic(self, tmp_path, tracks_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["init", "--tracks", tracks_path, "--canvas", "64x64",
                "--num-strokes", "3", "--degree", "3", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert sha256(a) == sha256(b)

    def test_optimize_writes_model_and_log(self, tmp_path, tracks_path, model_path):
        out = tmp_path / "opt.json"
        log = tmp_path / "loss.csv"
        code = main([
            "optimize", "--model", model_path, "--tracks", tracks_path,
            "--out", str(out), "--iterations", "5", "--log", str(log),
            "--log-every", "2",
        ])
        assert code == 0
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "iteration,total,consistency,attachment"
        assert len(lines) > 2
        assert load_model(str(out)).num_strokes == 3

    def test_export_frames_naming(self, tmp_path, model_path):
        outdir = tmp_path / "frames"
        assert main(["export", "--model", model_path, "--frames", str(outdir)]) == 0
        names = sorted(os.listdir(outdir))
        assert names[0] == "frame_00000.svg"
        assert names[-1] == "frame_00007.svg"
        assert len(names) == 8

    def test_export_requires_exactly_one_mode(self, model_path, tmp_path):
        assert main(["export", "--model", model_path]) == 1
        assert main(["export", "--model", model_path, "--frames", "x",
                     "--animated", "y"]) == 1

    def test_export_animated(self, tmp_path, model_path):
        out = tmp_path / "anim.svg"
        assert main(["export", "--model", model_path, "--animated", str(out),
                     "--fps", "8"]) == 0
        text = out.read_text()
        assert "<animate" in text and 'keyTimes="0.000000;' in text

    def test_interp_quadruples_keys(self, tmp_path, model_path):
        out = tmp_path / "interp.svg"
        assert main(["interp", "--model", model_path, "--fps-in", "6",
                     "--fps-out", "24", "--out", str(out)]) == 0
        text = out.read_text()
        first_values = text.split('values="')[1].split('"')[0]
        assert len(first_values.split(";")) == 29  # round(7*4)+1

    def test_check_grad_prints_small_value(self, capsys, tracks_path, model_path):
        assert main(["check-grad", "--model", model_path, "--tracks", tracks_path]) == 0
        out = capsys.readouterr().out
        value = float(out.strip().rsplit(" ", 1)[1])
        assert value < 1e-5

    def test_check_grad_tolerance_gate(self, tracks_path, model_path):
        assert main(["check-grad", "--model", model_path, "--tracks", tracks_path,
                     "--tolerance", "1e-30"]) == 1

    def test_init_falls_back_on_degenerate_density(self, capsys, tmp_path, tracks_path):
        from motionsketch import save_pgm

        zeros = tmp_path / "zeros.pgm"
        save_pgm(str(zeros), np.zeros((64, 64)))
        out = tmp_path / "m.json"
        code = main([
            "init", "--tracks", tracks_path, "--xdog", str(zeros),
            "--out", str(out), "--num-strokes", "2", "--degree", "2",
        ])
        assert code == 0
        assert "uniform" in capsys.readouterr().err
        assert load_model(str(out)).num_strokes == 2

    @pytest.mark.parametrize("stage", ["build_motion_heatmap", "compose_density_map"])
    def test_init_canvas_too_large_to_allocate(self, capsys, monkeypatch, tmp_path,
                                               tracks_path, stage):
        # numpy's MemoryError on a huge canvas is simulated on a small one,
        # so that no large array is ever asked for.
        from motionsketch import cli

        calls = []

        def out_of_memory(*args, **kwargs):
            calls.append(stage)
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(cli, stage, out_of_memory)
        capsys.readouterr()
        code = main([
            "init", "--tracks", tracks_path, "--canvas", "8x8",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: canvas 8x8 is too large: its maps cannot be allocated"]
        assert calls == [stage]
        assert not (tmp_path / "m.json").exists()

    def test_init_rejects_canvas_map_mismatch(self, tmp_path, tracks_path):
        from motionsketch import save_pgm

        pgm = tmp_path / "map.pgm"
        save_pgm(str(pgm), np.ones((32, 32)) * 0.5)
        code = main([
            "init", "--tracks", tracks_path, "--xdog", str(pgm),
            "--canvas", "64x64", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1


    def test_init_refuses_a_fractional_pgm_pixel(self, capsys, tmp_path, tracks_path):
        # A P2 pixel of 3.5 used to load, and init exited 0.
        pgm = tmp_path / "map.pgm"
        pgm.write_text("P2\n2 1\n255\n0 3.5\n")
        code = main([
            "init", "--tracks", tracks_path, "--xdog", str(pgm),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pgm}: P2 pixel '3.5' is not a decimal integer\n")
        assert not (tmp_path / "m.json").exists()


class TestOneBlasThread:
    @pytest.fixture
    def blas_threads(self):
        """The getter of numpy's OpenBLAS thread count, set to 3 for the test."""
        try:
            lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        before = get()
        set_(3)
        yield get
        set_(before)

    @pytest.mark.parametrize(("canvas", "malformed", "code"), [
        (["--canvas", "64x64"], False, 0),
        ([], False, 1),  # no --canvas: a usage error
        (["--canvas", "64x64"], True, 2),  # a parse error
    ])
    def test_the_callers_count_is_back_after_main(self, blas_threads, tmp_path, tracks_path,
                                                   canvas, malformed, code):
        if malformed:
            tracks_path = tmp_path / "bad.json"
            tracks_path.write_text("{not json")
        assert main(["init", "--tracks", str(tracks_path), "--out", str(tmp_path / "m.json"),
                     "--num-strokes", "2", "--degree", "3", *canvas]) == code
        assert blas_threads() == 3

    def test_a_command_runs_with_one_thread(self, blas_threads, monkeypatch, tracks_path):
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "fit-bench",
                            lambda args: seen.append(blas_threads()) or 0)
        assert main(["fit-bench", "--tracks", tracks_path]) == 0
        assert seen == [1]
        assert blas_threads() == 3

    def test_a_library_without_the_symbols_runs_unpinned(self, blas_threads, monkeypatch,
                                                         tmp_path, tracks_path):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
        assert main(["init", "--tracks", tracks_path, "--canvas", "64x64", "--num-strokes", "2",
                     "--degree", "3", "--out", str(tmp_path / "m.json")]) == 0
        assert blas_threads() == 3
