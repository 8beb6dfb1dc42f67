"""Command-line interface.

Subcommands: fit-bench, init, optimize, export, interp, check-grad.
Exit codes: 0 success, 1 validation/usage error, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import __version__
from .bernstein import BasisKind
from .errors import DegenerateInputError, MotionSketchError, ParseError
from .export import (
    export_animated_svg,
    export_frame_svg,
    load_model,
    resample_framerate,
    save_model,
)
from .fitting import DEFAULT_BENCHMARK_CONFIGS, DEFAULT_RIDGE_LAMBDA, run_fit_benchmark
from .initialization import (
    InitConfig,
    MaskAreas,
    compose_density_map,
    derive_attachment_targets,
    init_animation,
    load_mask_areas,
    load_pgm,
    stroke_width_schedule,
    uniform_map,
)
from .optimize import (
    LossWeights,
    OptimConfig,
    finite_difference_check,
    optimize_animation,
)
from .tracking import build_motion_heatmap, load_tracks


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_canvas(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise _UsageError(f"bad canvas {text!r}, expected WIDTHxHEIGHT") from None


def _parse_configs(text: str):
    configs = []
    for part in text.split(","):
        try:
            frames, degree = part.split(":")
            configs.append((int(frames), int(degree)))
        except ValueError:
            raise _UsageError(f"bad config {part!r}, expected FRAMES:DEGREE") from None
    return tuple(configs)


def _build_parser() -> _Parser:
    parser = _Parser(prog="motionsketch", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("fit-bench", help="trajectory fitting benchmark (CSV on stdout)")
    bench.add_argument("--tracks", required=True)
    bench.add_argument("--lambda", dest="ridge_lambda", type=float, default=DEFAULT_RIDGE_LAMBDA)
    bench.add_argument(
        "--configs",
        type=_parse_configs,
        default=DEFAULT_BENCHMARK_CONFIGS,
        help="comma-separated FRAMES:DEGREE pairs",
    )
    bench.add_argument("--basis", choices=["bernstein", "power"], default="bernstein")
    bench.add_argument("--markdown", help="also write an aligned markdown table here")
    bench.add_argument("--csv", help="also write the CSV here")

    init = sub.add_parser("init", help="initialize a model from tracks and optional maps")
    init.add_argument("--tracks", required=True)
    init.add_argument("--out", required=True)
    init.add_argument("--num-strokes", type=int, default=16)
    init.add_argument("--beta", type=float, default=0.5)
    init.add_argument("--degree", type=int, default=None, help="trajectory degree")
    init.add_argument("--curve-degree", type=int, default=3)
    init.add_argument("--lambda", dest="ridge_lambda", type=float, default=DEFAULT_RIDGE_LAMBDA)
    init.add_argument("--seed", type=int, default=0)
    init.add_argument("--span", type=float, default=None, help="initial stroke span in px")
    init.add_argument("--xdog", help="edge map (PGM)")
    init.add_argument("--attention", help="attention map (PGM)")
    init.add_argument("--canvas", type=_parse_canvas, help="WIDTHxHEIGHT if no maps given")
    init.add_argument("--bandwidth", type=float, default=None, help="motion heatmap bandwidth")
    init.add_argument("--mask-areas", help="CSV frame,area_pixels")
    init.add_argument("--mask-area", type=float, default=None, help="constant mask area in px")
    init.add_argument("--w-max", type=float, default=3.0)

    opt = sub.add_parser("optimize", help="optimize a model against tracks")
    opt.add_argument("--model", required=True)
    opt.add_argument("--tracks", required=True)
    opt.add_argument("--out", required=True)
    opt.add_argument("--iterations", type=int, default=300)
    opt.add_argument("--step", type=float, default=0.1)
    opt.add_argument("--beta1", type=float, default=0.9)
    opt.add_argument("--beta2", type=float, default=0.999)
    opt.add_argument("--epsilon", type=float, default=1e-8)
    opt.add_argument("--points-per-stroke", type=int, default=8)
    opt.add_argument("--w-s", type=float, default=1.0)
    opt.add_argument("--w-c", type=float, default=0.5)
    opt.add_argument("--log", help="write the loss log CSV here")
    opt.add_argument("--log-every", type=int, default=10)

    export = sub.add_parser("export", help="export per-frame SVGs or one animated SVG")
    export.add_argument("--model", required=True)
    export.add_argument("--frames", help="directory for per-frame SVG files")
    export.add_argument("--animated", help="path for a single animated SVG")
    export.add_argument("--fps", type=float, default=12.0)

    interp = sub.add_parser("interp", help="resample to a new frame rate (animated SVG)")
    interp.add_argument("--model", required=True)
    interp.add_argument("--fps-in", type=float, required=True)
    interp.add_argument("--fps-out", type=float, required=True)
    interp.add_argument("--out", required=True)

    grad = sub.add_parser("check-grad", help="max relative analytic-vs-FD gradient error")
    grad.add_argument("--model", required=True)
    grad.add_argument("--tracks", required=True)
    grad.add_argument("--points-per-stroke", type=int, default=8)
    grad.add_argument("--step", type=float, default=1e-1)
    grad.add_argument("--w-s", type=float, default=1.0)
    grad.add_argument("--w-c", type=float, default=0.5)
    grad.add_argument("--tolerance", type=float, default=None)
    return parser


def _cmd_fit_bench(args) -> int:
    tracks = load_tracks(args.tracks)
    result = run_fit_benchmark(
        tracks,
        configs=args.configs,
        ridge_lambda=args.ridge_lambda,
        basis=BasisKind(args.basis),
    )
    for frames, degree, reason in result.skipped:
        print(f"warning: skipped ({frames} frames, degree {degree}): {reason}", file=sys.stderr)
    csv_text = result.to_csv()
    sys.stdout.write(csv_text)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(result.to_markdown())
    return 0


def _cmd_init(args) -> int:
    tracks = load_tracks(args.tracks)
    xdog = load_pgm(args.xdog) if args.xdog else None
    attention = load_pgm(args.attention) if args.attention else None
    if args.canvas:
        width, height = args.canvas
    elif xdog is not None:
        height, width = xdog.shape
    elif attention is not None:
        height, width = attention.shape
    else:
        raise _UsageError("need --canvas when neither --xdog nor --attention is given")
    for name, grid in (("xdog", xdog), ("attention", attention)):
        if grid is not None and grid.shape != (height, width):
            raise _UsageError(
                f"--{name} map is {grid.shape[1]}x{grid.shape[0]}, "
                f"canvas is {width}x{height}"
            )
    if xdog is None:
        xdog = uniform_map(width, height)
    if attention is None:
        attention = uniform_map(width, height)

    heatmap = build_motion_heatmap(tracks, width, height, bandwidth=args.bandwidth)
    try:
        density = compose_density_map(xdog, attention, heatmap, args.beta)
    except DegenerateInputError:
        print("warning: density map is all zero, falling back to uniform",
              file=sys.stderr)
        ones = uniform_map(width, height)
        density = compose_density_map(ones, ones, ones, args.beta)

    if args.mask_areas:
        mask = load_mask_areas(args.mask_areas, (width, height))
    else:
        area = args.mask_area if args.mask_area is not None else float(width * height)
        mask = MaskAreas(areas=np.full(tracks.num_frames, area), canvas=(width, height))
    widths = stroke_width_schedule(mask, args.w_max)

    config = InitConfig(
        num_strokes=args.num_strokes,
        beta=args.beta,
        trajectory_degree=args.degree,
        ridge_lambda=args.ridge_lambda,
        rng_seed=args.seed,
        curve_degree=args.curve_degree,
        initial_stroke_span=args.span,
    )
    anim = init_animation(config, density, tracks, widths)
    save_model(anim, args.out)
    print(f"wrote {args.out}: {anim.num_strokes} strokes, {anim.num_frames} frames")
    return 0


def _cmd_optimize(args) -> int:
    anim = load_model(args.model)
    tracks = load_tracks(args.tracks)
    targets = derive_attachment_targets(anim, tracks)
    weights = LossWeights(w_s=args.w_s, w_c=args.w_c)
    config = OptimConfig(
        iterations=args.iterations,
        step_size=args.step,
        moment_decay_1=args.beta1,
        moment_decay_2=args.beta2,
        n_p=args.points_per_stroke,
        epsilon=args.epsilon,
        log_every=args.log_every,
    )
    optimized, breakdown = optimize_animation(anim, tracks, targets, weights, config)
    save_model(optimized, args.out)
    if args.log:
        with open(args.log, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "total", "consistency", "attachment"])
            for it, total, consistency, attachment in breakdown.component_history:
                writer.writerow([it, f"{total:.9e}", f"{consistency:.9e}", f"{attachment:.9e}"])
    print(f"wrote {args.out}: final loss {breakdown.total:.6e}")
    return 0


def _cmd_export(args) -> int:
    anim = load_model(args.model)
    if bool(args.frames) == bool(args.animated):
        raise _UsageError("choose exactly one of --frames or --animated")
    if args.frames:
        os.makedirs(args.frames, exist_ok=True)
        times = anim.frame_times()
        for i, t in enumerate(times):
            export_frame_svg(anim, t, os.path.join(args.frames, f"frame_{i:05d}.svg"))
        print(f"wrote {anim.num_frames} frames to {args.frames}")
    else:
        plan = resample_framerate(anim, args.fps, args.fps)
        export_animated_svg(anim, plan, args.animated)
        print(f"wrote {args.animated}")
    return 0


def _cmd_interp(args) -> int:
    anim = load_model(args.model)
    plan = resample_framerate(anim, args.fps_in, args.fps_out)
    export_animated_svg(anim, plan, args.out)
    print(
        f"wrote {args.out}: {plan.num_output_frames} key frames, "
        f"{plan.duration_seconds:.3f}s"
    )
    return 0


def _cmd_check_grad(args) -> int:
    if args.tolerance is not None and not 0.0 <= args.tolerance < np.inf:
        raise _UsageError(f"tolerance must be finite and nonnegative, got {args.tolerance}")
    anim = load_model(args.model)
    tracks = load_tracks(args.tracks)
    targets = derive_attachment_targets(anim, tracks)
    weights = LossWeights(w_s=args.w_s, w_c=args.w_c)
    error = finite_difference_check(
        anim, tracks, targets, weights, args.points_per_stroke, args.step
    )
    print(f"max relative gradient error: {error:.6e}")
    if args.tolerance is not None and error > args.tolerance:
        print(f"error exceeds tolerance {args.tolerance:.6e}", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "fit-bench": _cmd_fit_bench,
    "init": _cmd_init,
    "optimize": _cmd_optimize,
    "export": _cmd_export,
    "interp": _cmd_interp,
    "check-grad": _cmd_check_grad,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MotionSketchError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


cli_main = main

if __name__ == "__main__":
    sys.exit(main())
