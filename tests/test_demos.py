"""The demo scripts run from a fresh copy and reproduce the committed files.

Each script runs in its own interpreter inside a copy of `demos/` and
`data/` with the generated files removed, so every committed output must be
written again, byte for byte.
"""

import os
import shutil
import subprocess
import sys

import motionsketch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(motionsketch.__file__)))
ROOT = os.path.dirname(SRC)

# full_pipeline.py writes the model that frame_interpolation.py reads.
SCRIPTS = ["make_demo_data.py", "basis_stability.py", "fitting_benchmark.py",
           "full_pipeline.py", "frame_interpolation.py"]


def test_demos_reproduce_the_committed_outputs(tmp_path):
    shutil.copytree(os.path.join(ROOT, "demos"), tmp_path / "demos",
                    ignore=shutil.ignore_patterns("output", "__pycache__"))
    (tmp_path / "data").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for script in SCRIPTS:
        done = subprocess.run(
            [sys.executable, str(tmp_path / "demos" / script)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, f"{script}: {done.stderr}"

    committed = sorted(os.listdir(os.path.join(ROOT, "demos", "output")))
    assert sorted(os.listdir(tmp_path / "demos" / "output")) == committed
    for name in [os.path.join("data", "demo_tracks.json")] + [
        os.path.join("demos", "output", f) for f in committed
    ]:
        with open(os.path.join(ROOT, name), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / name).read_bytes() == expected, f"{name} differs"
