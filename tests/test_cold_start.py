"""Cold start: the package imports numpy only, and scipy loads only on the
KD-tree route of the nearest-track query, which only batches too large to
scan take. The package itself starts no threads; `concurrent.futures` is
watched because `import scipy.spatial` loads it, so it appears exactly when
scipy does. No stage loads `numpy.ma`.

Every test runs its code in a fresh interpreter, since this test process has
long since imported all three.
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

# Prints the modules of scipy, numpy.ma and concurrent.futures loaded so far,
# as a JSON list, on its own line.
_WATCHED_MODULES = """
import json as _json, sys as _sys
_watched = ("scipy", "numpy.ma", "concurrent.futures")
print(_json.dumps(sorted(
    m for m in _sys.modules if any(m == w or m.startswith(w + ".") for w in _watched)
)))
"""


def run_fresh(code: str, cwd: str | None = None) -> list[str]:
    """Standard output lines of `code` run in a fresh interpreter; the last
    line lists the watched modules loaded by then (see `_WATCHED_MODULES`)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _WATCHED_MODULES],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_package_and_cli_import_no_scipy():
    lines = run_fresh("import motionsketch\nimport motionsketch.cli\n")
    assert json.loads(lines[-1]) == []


def test_kdtree_route_imports_scipy_spatial_on_first_query():
    # 300 tracks and 4000 queries in 6 frames, too many distances to scan
    # (the KD-tree route), so the first query runs the first cKDTree import,
    # which also loads `concurrent.futures` (scipy.spatial imports it).
    setup = """
        import hashlib
        import numpy as np
        from motionsketch import TrackSet, tracking
        rng = np.random.default_rng(5)
        tracks = TrackSet(ids=np.arange(300), coords=rng.uniform(0, 200, (300, 6, 2)))
        points = rng.uniform(-10, 210, (4000, 2))
        frames = rng.integers(0, 6, 4000)

        def nearest_digest():
            rows, radius = tracking._nearest(points, frames, tracks)
            return hashlib.sha256(rows.astype(np.int64).tobytes() + radius.tobytes()).hexdigest()
    """
    scope: dict = {}
    exec(textwrap.dedent(setup), scope)
    assert 4000 * 300 > tracking._SCAN_MAX_DISTANCES

    lines = run_fresh(setup + """
        import json, sys
        print(json.dumps("scipy.spatial" in sys.modules))
        print(json.dumps(nearest_digest()))
    """)
    before, got, loaded = (json.loads(line) for line in lines[-3:])
    assert before is False
    assert got == scope["nearest_digest"]()
    assert "scipy.spatial" in loaded
    assert "concurrent.futures" in loaded


def test_scene_size_init_scans_and_loads_no_scipy(tmp_path):
    # 2000 tracks take the KD-tree route only for large batches: init's one
    # query, 128 seeds in frame 0, needs 256k distances and scans, as on the
    # scene workload. No tree is built, so no scipy and no `concurrent.futures`.
    from motionsketch import make_benchmark_tracks, save_tracks

    assert 128 * 2000 <= tracking._SCAN_MAX_DISTANCES
    save_tracks(make_benchmark_tracks(2000, 20, 2, canvas=(384, 384)),
                str(tmp_path / "tracks.json"))
    lines = run_fresh("""
        from motionsketch import cli
        assert cli.main(["init", "--tracks", "tracks.json", "--canvas", "384x384",
                         "--num-strokes", "128", "--seed", "2", "--out", "model.json"]) == 0
    """, cwd=str(tmp_path))
    assert json.loads(lines[-1]) == []
    assert (tmp_path / "model.json").stat().st_size


def test_log_route_row_loads_no_scipy():
    # Degree 61 is the first log-route degree; its log-binomials come from the
    # standard library.
    t = np.linspace(0.0, 1.0, 17)
    expected = basis_matrix(BasisKind.BERNSTEIN, 61, t)
    lines = run_fresh("""
        import json
        import numpy as np
        from motionsketch import BasisKind, basis_matrix
        rows = basis_matrix(BasisKind.BERNSTEIN, 61, np.linspace(0.0, 1.0, 17))
        print(json.dumps(rows.tobytes().hex()))
    """)
    got, loaded = (json.loads(line) for line in lines[-2:])
    got = np.frombuffer(bytes.fromhex(got), dtype=np.float64).reshape(expected.shape)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert loaded == []


def test_demo_init_export_interp_load_no_scipy(tmp_path):
    # The demo's 16 tracks take the scan route and its degree-24 trajectories
    # the direct basis; none of these stages freezes an assignment. Nor do
    # they load numpy.ma or `concurrent.futures`.
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
    # other scipy module, numpy.ma or `concurrent.futures`.
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


def test_detail_degree_80_stages_load_no_scipy(tmp_path):
    # Degree-80 trajectories take the log-route basis in every stage; the
    # demo's 16 tracks keep the nearest-track query on the scan route. No
    # stage loads scipy, numpy.ma or `concurrent.futures`.
    lines = run_fresh(f"""
        from motionsketch import bernstein, cli
        steps = (
            ["init", "--tracks", {DEMO_TRACKS!r}, "--canvas", "256x256",
             "--num-strokes", "4", "--curve-degree", "5", "--degree", "80",
             "--span", "3.2", "--seed", "2", "--out", "model.json"],
            ["optimize", "--model", "model.json", "--tracks", {DEMO_TRACKS!r},
             "--out", "opt.json", "--iterations", "5"],
            ["check-grad", "--model", "opt.json", "--tracks", {DEMO_TRACKS!r}],
            ["interp", "--model", "opt.json", "--out", "interp.svg",
             "--fps-in", "24", "--fps-out", "2"],
        )
        for argv in steps:
            assert cli.main(argv) == 0, argv
        assert bernstein._log_binomials.cache_info().currsize
    """, cwd=str(tmp_path))
    assert json.loads(lines[-1]) == []
    assert any("max relative gradient error" in line for line in lines)
    assert (tmp_path / "interp.svg").stat().st_size
