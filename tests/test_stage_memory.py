"""`scripts/stage_memory.py`: one row per stage of a workload, and the stage
that sets its peak RSS."""

import os
import subprocess
import sys

import motionsketch

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(motionsketch.__file__))))
SCRIPT = os.path.join(ROOT, "scripts", "stage_memory.py")


def test_detail_reports_every_stage_and_the_peak_setter():
    done = subprocess.run([sys.executable, SCRIPT, "--workload", "detail"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
    assert list(rows) == ["setup", "init", "optimize", "check-grad", "interp"]
    peaks = [float(rows[stage][0]) for stage in rows]
    assert peaks == sorted(peaks)  # a running peak
    for stage in ("init", "optimize", "interp"):
        assert len(rows[stage][3]) == 64  # the output's sha256
    setter = lines[-1].rsplit(" ", 1)[1]
    assert setter in rows
    assert lines[-1].startswith(f"peak RSS {peaks[-1]:.2f} MB, set by ")
