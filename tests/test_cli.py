"""CLI subcommands, exit codes, and output contracts."""

import hashlib
import json
import os

import numpy as np
import pytest

from motionsketch import load_model, make_demo_tracks, save_tracks
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

    def test_init_rejects_canvas_map_mismatch(self, tmp_path, tracks_path):
        from motionsketch import save_pgm

        pgm = tmp_path / "map.pgm"
        save_pgm(str(pgm), np.ones((32, 32)) * 0.5)
        code = main([
            "init", "--tracks", tracks_path, "--xdog", str(pgm),
            "--canvas", "64x64", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
