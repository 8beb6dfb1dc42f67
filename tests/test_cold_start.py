"""Cold start: the package imports numpy only, and each scipy subpackage loads
on the one route that needs it.

Every test runs its code in a fresh interpreter, since this test process has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np

import motionsketch
from motionsketch import BasisKind, basis_matrix, tracking

SRC = os.path.dirname(os.path.dirname(os.path.abspath(motionsketch.__file__)))
DEMO_TRACKS = os.path.join(os.path.dirname(SRC), "data", "demo_tracks.json")

# Prints the scipy modules loaded so far, as a JSON list, on its own line.
_SCIPY_MODULES = """
import json as _json, sys as _sys
print(_json.dumps(sorted(m for m in _sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def run_fresh(code: str, cwd: str | None = None) -> list[str]:
    """Standard output lines of `code` run in a fresh interpreter; the last
    line lists the scipy modules loaded by then (see `_SCIPY_MODULES`)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _SCIPY_MODULES],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_package_and_cli_import_no_scipy():
    lines = run_fresh("import motionsketch\nimport motionsketch.cli\n")
    assert json.loads(lines[-1]) == []


def test_kdtree_route_imports_scipy_spatial_on_first_query():
    # 300 tracks (the KD-tree route) and queries in 6 frames, so the first
    # query runs the first cKDTree import on the pool's workers.
    setup = """
        import hashlib
        import numpy as np
        from motionsketch import TrackSet, tracking
        rng = np.random.default_rng(5)
        tracks = TrackSet(ids=np.arange(300), coords=rng.uniform(0, 200, (300, 6, 2)))
        points = rng.uniform(-10, 210, (600, 2))
        frames = rng.integers(0, 6, 600)

        def nearest_digest():
            rows, radius = tracking._nearest(points, frames, tracks)
            return hashlib.sha256(rows.astype(np.int64).tobytes() + radius.tobytes()).hexdigest()
    """
    scope: dict = {}
    exec(textwrap.dedent(setup), scope)
    assert scope["tracks"].num_points >= tracking._KDTREE_MIN_POINTS

    lines = run_fresh(setup + """
        import json, sys
        print(json.dumps("scipy.spatial" in sys.modules))
        sys.setswitchinterval(1e-6)
        print(json.dumps(nearest_digest()))
    """)
    before, got, loaded = (json.loads(line) for line in lines[-3:])
    assert before is False
    assert got == scope["nearest_digest"]()
    assert "scipy.spatial" in loaded


def test_log_route_imports_scipy_special_on_first_row():
    t = np.linspace(0.0, 1.0, 17)
    expected = basis_matrix(BasisKind.BERNSTEIN, 61, t)
    lines = run_fresh("""
        import json, sys
        import numpy as np
        from motionsketch import BasisKind, basis_matrix
        print(json.dumps("scipy.special" in sys.modules))
        rows = basis_matrix(BasisKind.BERNSTEIN, 61, np.linspace(0.0, 1.0, 17))
        print(json.dumps(rows.tobytes().hex()))
    """)
    before, got, loaded = (json.loads(line) for line in lines[-3:])
    assert before is False
    got = np.frombuffer(bytes.fromhex(got), dtype=np.float64).reshape(expected.shape)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert "scipy.special" in loaded


def test_demo_init_export_interp_load_no_scipy(tmp_path):
    # The demo's 16 tracks take the scan route and its degree-24 trajectories
    # the direct basis; none of these stages freezes an assignment.
    lines = run_fresh(f"""
        from motionsketch import cli
        steps = (
            ["init", "--tracks", {DEMO_TRACKS!r}, "--canvas", "256x256",
             "--num-strokes", "16", "--seed", "2", "--out", "model.json"],
            ["export", "--model", "model.json", "--animated", "export.svg", "--fps", "12"],
            ["interp", "--model", "model.json", "--out", "interp.svg",
             "--fps-in", "6", "--fps-out", "24"],
        )
        for argv in steps:
            assert cli.main(argv) == 0, argv
    """, cwd=str(tmp_path))
    assert json.loads(lines[-1]) == []
    assert all((tmp_path / name).stat().st_size for name in ("model.json", "export.svg",
                                                            "interp.svg"))


def test_demo_optimize_and_check_grad_load_no_scipy(tmp_path):
    # The demo's 16 tracks take the scan route, and the frozen assignment's
    # counts are dense numpy blocks: neither stage loads scipy.sparse, or any
    # other scipy module.
    lines = run_fresh(f"""
        from motionsketch import cli
        steps = (
            ["init", "--tracks", {DEMO_TRACKS!r}, "--canvas", "256x256",
             "--num-strokes", "16", "--seed", "2", "--out", "model.json"],
            ["optimize", "--model", "model.json", "--tracks", {DEMO_TRACKS!r},
             "--out", "opt.json", "--iterations", "20", "--step", "0.5"],
            ["check-grad", "--model", "opt.json", "--tracks", {DEMO_TRACKS!r}],
        )
        for argv in steps:
            assert cli.main(argv) == 0, argv
    """, cwd=str(tmp_path))
    assert json.loads(lines[-1]) == []
    assert "max relative gradient error" in lines[-2]
