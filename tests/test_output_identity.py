"""`scripts/output_identity.py`: the demo and detail workloads reproduce the
committed golden digests, and another environment is reported as such.

The scene and the long clip take about a minute and run only in the script.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

import motionsketch

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(motionsketch.__file__))))
SCRIPT = os.path.join(ROOT, "scripts", "output_identity.py")


def start_script(*args):
    return subprocess.Popen([sys.executable, SCRIPT, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def test_demo_and_detail_match_the_golden_file():
    # One script per case, both at once: the cases share no files.
    runs = [start_script("--cases", case) for case in ("demo-seed2", "detail-seed2")]
    outs = [run.communicate(timeout=300)[0] for run in runs]
    for run, out in zip(runs, outs):
        if run.returncode == 3:
            pytest.skip(f"not the golden file's environment: {out}")
        assert run.returncode == 0, out
        assert "all 1 cases match the golden file" in out


def test_another_environment_is_not_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("output_identity", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    here = script.environment()
    monkeypatch.setattr(script, "environment", lambda: {**here, "numpy": "0.0"})
    assert script.main([]) == script.ENVIRONMENT_DIFFERS
    out = capsys.readouterr().out
    assert out.startswith("environment differs")
    assert "FAIL" not in out
