"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import time

import numpy as np
import pytest
from conftest import eval_piecewise_path, parse_animated_keys

import motionsketch as ms
from motionsketch.bernstein import BasisKind, basis_matrix
from motionsketch.cli import main as cli_main
from test_optimize import recovery_scene

DEMO_TRACKS = "data/demo_tracks.json"


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status} — {detail}")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def test_criterion_1_basis_stability():
    with Timer() as timer:
        worst_sum = 0.0
        worst_f32 = 0.0
        finite = True
        for t in np.linspace(0.0, 1.0, 101):
            r64 = ms.basis_row_log(199, float(t)).values
            r32 = ms.basis_row_log(199, float(t), dtype=np.float32).values
            finite &= bool(np.all(np.isfinite(r32)) and np.all(np.isfinite(r64)))
            worst_sum = max(worst_sum, abs(float(r64.sum()) - 1.0))
            worst_f32 = max(worst_f32, float(np.abs(r32.astype(np.float64) - r64).max()))
    ok = worst_sum < 1e-6 and finite and worst_f32 < 1e-3 and timer.seconds < 1.0
    report(1, ok, f"n=199 sum dev {worst_sum:.2e}, f32 dev {worst_f32:.2e}, "
                  f"{timer.seconds:.2f}s")
    assert worst_sum < 1e-6
    assert finite
    assert worst_f32 < 1e-3
    assert timer.seconds < 1.0


def test_criterion_2_sensitivity():
    rng = np.random.default_rng(0)
    with Timer() as timer:
        bernstein_exact = all(
            ms.sensitivity_l1(BasisKind.BERNSTEIN, int(rng.integers(0, 400)),
                              float(rng.random())) == 1.0
            for _ in range(1000)
        )
        power_exact = all(
            ms.sensitivity_l1(BasisKind.POWER, n, 1.0) == float(n + 1)
            for n in range(1, 200)
        )
    ok = bernstein_exact and power_exact and timer.seconds < 1.0
    report(2, ok, f"1000 Bernstein values exactly 1, power at t=1 exactly n+1, "
                  f"{timer.seconds:.2f}s")
    assert bernstein_exact and power_exact
    assert timer.seconds < 1.0


def test_criterion_3_fitting_trend():
    with Timer() as timer:
        tracks = ms.make_benchmark_tracks(100, 400, seed=0)
        result = ms.run_fit_benchmark(tracks)
    rows = {(r.frames, r.degree, r.method): r for r in result.rows}
    interp = rows[(400, 199, ms.FitMethod.INTERPOLATION)]
    ridge = rows[(400, 199, ms.FitMethod.RIDGE)]
    lstsq = rows[(400, 199, ms.FitMethod.LEAST_SQUARES)]
    ridge_coeffs = [
        rows[(f, d, ms.FitMethod.RIDGE)].avg_abs_coeff
        for f, d in ((50, 24), (100, 49), (200, 99), (400, 199))
    ]
    spread = max(ridge_coeffs) / min(ridge_coeffs)
    ok = (
        interp.mae > 1e2
        and ridge.mae <= 5.0
        and lstsq.avg_abs_coeff >= 1e3 * ridge.avg_abs_coeff
        and spread <= 10.0
        and timer.seconds < 30.0
    )
    report(3, ok, f"interp mae {interp.mae:.2e}, ridge mae {ridge.mae:.2f}px, "
                  f"coeff ratio {lstsq.avg_abs_coeff / ridge.avg_abs_coeff:.1e}, "
                  f"ridge spread {spread:.2f}x, {timer.seconds:.1f}s")
    assert interp.mae > 1e2
    assert ridge.mae <= 5.0
    assert lstsq.avg_abs_coeff >= 1e3 * ridge.avg_abs_coeff
    assert spread <= 10.0
    assert timer.seconds < 30.0


def test_criterion_4_collocation_recovery():
    rng = np.random.default_rng(7)
    with Timer() as timer:
        worst_recovery = 0.0
        lipschitz_ok = True
        for m in range(1, 11):
            nodes = ms.chebyshev_nodes(m)
            matrix = ms.collocation_matrix(m, nodes)
            control = rng.uniform(-100, 100, (m + 1, 2))
            samples = matrix @ control
            recovered = ms.solve_control_points(samples, nodes)
            worst_recovery = max(worst_recovery, float(np.abs(recovered - control).max()))
            # continuity: |dP| <= |M^-1| * |dC|, with |M^-1| = 1/sigma_min
            sigma = np.linalg.svd(matrix, compute_uv=False)
            bound = 1.0 / sigma[-1]
            for _ in range(5):
                delta = rng.uniform(-1e-3, 1e-3, samples.shape)
                moved = ms.solve_control_points(samples + delta, nodes)
                lipschitz_ok &= (
                    np.linalg.norm(moved - recovered)
                    <= bound * np.linalg.norm(delta) * (1 + 1e-9)
                )
    ok = worst_recovery < 1e-8 and lipschitz_ok and timer.seconds < 1.0
    report(4, ok, f"recovery max dev {worst_recovery:.2e}, Lipschitz bound held, "
                  f"{timer.seconds:.2f}s")
    assert worst_recovery < 1e-8
    assert lipschitz_ok
    assert timer.seconds < 1.0


def test_criterion_5_approximation_bound():
    def p_true(i, t):
        f = 1.0 + 0.4 * i
        return np.stack(
            [
                50 + 20 * i + 15 * np.sin(2 * np.pi * f * t + 0.3 * i),
                60 + 10 * i + 12 * np.cos(2 * np.pi * (f + 0.5) * t + 0.1 * i),
            ],
            axis=-1,
        )

    with Timer() as timer:
        tgrid = np.linspace(0.0, 1.0, 101)
        ugrid = np.linspace(0.0, 1.0, 101)
        b_u = basis_matrix(BasisKind.BERNSTEIN, 3, ugrid)
        fit_times = np.linspace(0.0, 1.0, 201)
        sups = {}
        bounds_hold = True
        for degree in (10, 40):
            eps = 0.0
            fitted_values = []
            rows = basis_matrix(BasisKind.BERNSTEIN, degree, tgrid)
            for i in range(4):
                traj = ms.fit_least_squares(
                    ms.FitSamples(fit_times, p_true(i, fit_times)), degree
                )
                fitted_values.append(rows @ traj.coeffs)
                eps = max(
                    eps,
                    float(np.linalg.norm(rows @ traj.coeffs - p_true(i, tgrid), axis=1).max()),
                )
            truth = np.stack([p_true(i, tgrid) for i in range(4)])
            approx = np.stack(fitted_values)
            c_grid = np.einsum("ua,atc->utc", b_u, truth)
            d_grid = np.einsum("ua,atc->utc", b_u, approx)
            sups[degree] = float(np.linalg.norm(c_grid - d_grid, axis=2).max())
            bounds_hold &= sups[degree] <= eps * (1 + 1e-9)
    ok = bounds_hold and sups[40] <= sups[10] and timer.seconds < 5.0
    report(5, ok, f"sup|C-D|: degree 10 {sups[10]:.3e}, degree 40 {sups[40]:.3e}, "
                  f"bound held, {timer.seconds:.2f}s")
    assert bounds_hold
    assert sups[40] <= sups[10]
    assert timer.seconds < 5.0


def test_criterion_6_gradient_suite():
    rng = np.random.default_rng(11)
    with Timer() as timer:
        worst_consistency = 0.0
        worst_attachment = 0.0
        for _ in range(20):
            num_strokes = int(rng.integers(1, 3))
            num_frames = int(rng.integers(3, 6))
            coeffs = [
                [rng.uniform(0, 100, (4, 2)) for _ in range(3)]
                for _ in range(num_strokes)
            ]
            strokes = tuple(
                ms.Stroke(tuple(ms.TrajectoryPoly(BasisKind.BERNSTEIN, c) for c in ctrls))
                for ctrls in coeffs
            )
            anim = ms.SketchAnimation(
                strokes=strokes, num_frames=num_frames, canvas=(128, 128),
                widths=np.ones(num_frames),
            )
            tracks = ms.TrackSet(
                ids=np.arange(5), coords=rng.uniform(0, 100, (5, num_frames, 2))
            )
            targets = rng.uniform(0, 100, (num_strokes, num_frames, 2))
            worst_consistency = max(
                worst_consistency,
                ms.finite_difference_check(
                    anim, tracks, None, ms.LossWeights(w_s=0.0, w_c=1.0), 3, step=1e-5
                ),
            )
            worst_attachment = max(
                worst_attachment,
                ms.finite_difference_check(
                    anim, None, targets, ms.LossWeights(w_s=1.0, w_c=0.0), 3, step=1e-2
                ),
            )
    ok = worst_consistency < 1e-5 and worst_attachment < 1e-8 and timer.seconds < 10.0
    report(6, ok, f"consistency {worst_consistency:.2e} (<1e-5), "
                  f"attachment {worst_attachment:.2e} (<1e-8), {timer.seconds:.1f}s")
    assert worst_consistency < 1e-5
    assert worst_attachment < 1e-8
    assert timer.seconds < 10.0


def test_criterion_7_optimization_recovery():
    with Timer() as timer:
        anim, tracks, targets = recovery_scene()
        weights = ms.LossWeights(w_s=1.0, w_c=0.5)
        start, _ = ms.total_loss(anim, tracks, targets, weights, 8)
        config = ms.OptimConfig(iterations=500, step_size=1.0, n_p=8, log_every=100)
        optimized, breakdown = ms.optimize_animation(anim, tracks, targets, weights, config)
        times = optimized.frame_times()
        worst_mid = max(
            float(np.linalg.norm(
                np.stack([ms.eval_curve_point(s, 0.5, t) for t in times]) - targets[j],
                axis=1,
            ).max())
            for j, s in enumerate(optimized.strokes)
        )
        reduction = 1.0 - breakdown.total / start.total
    ok = reduction >= 0.95 and worst_mid < 2.0 and timer.seconds < 30.0
    report(7, ok, f"loss {start.total:.2e} -> {breakdown.total:.2e} "
                  f"({100 * reduction:.2f}%), midpoints within {worst_mid:.3f}px, "
                  f"{timer.seconds:.1f}s")
    assert reduction >= 0.95
    assert worst_mid < 2.0
    assert timer.seconds < 30.0


def test_criterion_8_transfer_invariants():
    rng = np.random.default_rng(13)
    tracks = ms.TrackSet(ids=np.arange(40), coords=rng.uniform(0, 200, (40, 6, 2)))
    identity_ok = True
    offset_ok = True
    nearest_ok = True
    for _ in range(1000):
        p = rng.uniform(0, 200, 2)
        i = int(rng.integers(0, 6))
        t = int(rng.integers(0, 6))
        identity_ok &= bool(np.array_equal(ms.transfer_point(p, i, i, tracks), p))
        # brute-force oracle for the nearest query
        d2 = np.sum((tracks.coords[:, i, :] - p) ** 2, axis=1)
        nearest_ok &= ms.nearest_sample(p, i, tracks) == int(np.argmin(d2))
        q = p + rng.uniform(-0.25, 0.25, 2)
        if ms.nearest_sample(q, i, tracks) == ms.nearest_sample(p, i, tracks):
            dp = ms.transfer_point(p, i, t, tracks) - ms.transfer_point(q, i, t, tracks)
            offset_ok &= bool(np.allclose(dp, p - q, atol=1e-12))
    ok = identity_ok and offset_ok and nearest_ok
    report(8, ok, "identity, offset preservation, and nearest=brute-force on "
                  "1000 random queries")
    assert identity_ok and offset_ok and nearest_ok


@pytest.fixture(scope="module")
def pipeline_outputs(tmp_path_factory):
    """Run init -> optimize -> export twice on the bundled input; return paths."""
    runs = []
    with Timer() as timer:
        for run in range(2):
            outdir = tmp_path_factory.mktemp(f"e2e_run{run}")
            model = str(outdir / "model.json")
            opt = str(outdir / "opt.json")
            anim_svg = str(outdir / "anim.svg")
            interp_svg = str(outdir / "interp.svg")
            assert cli_main([
                "init", "--tracks", DEMO_TRACKS, "--canvas", "256x256",
                "--num-strokes", "16", "--seed", "0", "--out", model,
            ]) == 0
            assert cli_main([
                "optimize", "--model", model, "--tracks", DEMO_TRACKS,
                "--out", opt, "--iterations", "200", "--step", "0.5",
            ]) == 0
            assert cli_main([
                "export", "--model", opt, "--animated", anim_svg, "--fps", "12",
            ]) == 0
            assert cli_main([
                "interp", "--model", opt, "--fps-in", "6", "--fps-out", "24",
                "--out", interp_svg,
            ]) == 0
            runs.append({"model": model, "opt": opt, "anim": anim_svg,
                         "interp": interp_svg})
    return runs, timer.seconds


def _keys_match_library(svg_path: str, anim, times) -> float:
    """Worst deviation between parsed key geometries and library evaluation."""
    svg_text = open(svg_path).read()
    per_stroke = parse_animated_keys(svg_text)
    assert len(per_stroke) == anim.num_strokes
    # Nine samples at u = k/8, the parameters of eval_piecewise_path's grid.
    worst = 0.0
    for stroke, (key_times, keys) in zip(anim.strokes, per_stroke):
        assert np.allclose(key_times, times, atol=1e-6)
        for t, key in zip(times, keys):
            curve = eval_piecewise_path(key)[0]
            exact = ms.sample_stroke(stroke, float(t), 9)
            worst = max(worst, float(np.abs(curve - exact).max()))
    return worst


def test_criterion_9_end_to_end_cli(pipeline_outputs):
    runs, seconds = pipeline_outputs
    anim = ms.load_model(runs[0]["opt"])
    worst = _keys_match_library(runs[0]["anim"], anim, anim.frame_times())
    identical = all(
        hashlib.sha256(open(runs[0][k], "rb").read()).digest()
        == hashlib.sha256(open(runs[1][k], "rb").read()).digest()
        for k in ("model", "opt", "anim", "interp")
    )
    ok = worst < 1e-5 and identical and seconds < 60.0
    report(9, ok, f"parsed keys within {worst:.2e}px of evaluation, two runs "
                  f"byte-identical, {seconds:.1f}s for both")
    assert worst < 1e-5
    assert identical
    assert seconds < 60.0


def test_criterion_10_frame_interpolation(pipeline_outputs):
    runs, _ = pipeline_outputs
    anim = ms.load_model(runs[0]["opt"])
    plan = ms.resample_framerate(anim, 6.0, 24.0)
    expected_keys = round((anim.num_frames - 1) * 4) + 1
    worst = _keys_match_library(runs[0]["interp"], anim, plan.output_frame_times)
    ok = plan.num_output_frames == expected_keys and worst < 1e-5
    report(10, ok, f"{plan.num_output_frames} key geometries (4x density), "
                   f"continuous evaluation agreement within {worst:.2e}px")
    assert plan.num_output_frames == expected_keys
    assert worst < 1e-5
