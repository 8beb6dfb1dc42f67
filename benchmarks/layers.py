"""What the traced run records, and the per-layer metrics it derives.

``TARGETS`` lists the public library functions wrapped during the traced
pass, each with an optional counter that turns a call's arguments and result
into exact work counts. ``layer_metrics`` reduces the spans below the CLI
stage spans (and, for the loss probes, below the ``probe.initial`` span) to
``<module>.<function>.<stat>`` metrics.
"""

from __future__ import annotations


def _rows(args, result):
    return {"bernstein.rows": result.shape[0]}


def _heatmap(args, result):
    return {"tracking.heatmap_kernel_evals": result.width * result.height * args[0].num_points}


def _queries(args, result):
    return {"tracking.nearest_rows.queries": result.size}


def _iterations(args, result):
    return {"optimize.iterations": result[1].component_history[-1][0]}


TARGETS = {
    ("bernstein", "bernstein_matrix_direct"): _rows,
    ("bernstein", "bernstein_matrix_log"): _rows,
    ("bernstein", "basis_matrix"): None,
    ("bernstein", "solve_control_points"): None,
    ("trajectory", "eval_trajectory"): None,
    ("trajectory", "eval_curve_point"): None,
    ("trajectory", "animation_coefficients"): None,
    ("fitting", "fit_ridge"): None,
    ("fitting", "run_fit_benchmark"): None,
    ("tracking", "build_motion_heatmap"): _heatmap,
    ("tracking", "nearest_rows"): _queries,
    ("tracking", "load_tracks"): None,
    ("initialization", "init_animation"): None,
    ("initialization", "compose_density_map"): None,
    ("initialization", "derive_attachment_targets"): None,
    ("optimize", "optimize_animation"): _iterations,
    ("optimize", "finite_difference_check"): None,
    ("optimize", "consistency_assignments"): None,
    ("optimize", "consistency_loss_grad"): None,
    ("optimize", "attachment_loss_grad"): None,
    ("optimize", "total_loss"): None,
    ("export", "stroke_path_data"): None,
    ("export", "render_animated_svg"): None,
    ("export", "save_model"): None,
    ("export", "load_model"): None,
}

# Span name -> stats reported as "<span>.<stat>", over the spans below the
# CLI stages.
_PIPELINE_STATS = {
    "bernstein.bernstein_matrix_direct": ("calls", "s"),
    "bernstein.bernstein_matrix_log": ("calls", "s"),
    "bernstein.basis_matrix": ("calls", "s"),
    "bernstein.solve_control_points": ("calls", "s"),
    "trajectory.eval_trajectory": ("calls", "self_s"),
    "trajectory.eval_curve_point": ("calls", "self_s"),
    "trajectory.animation_coefficients": ("calls", "s"),
    "fitting.fit_ridge": ("calls", "s"),
    "fitting.run_fit_benchmark": ("calls", "s"),
    "tracking.build_motion_heatmap": ("s",),
    "tracking.nearest_rows": ("calls", "s"),
    "tracking.load_tracks": ("s",),
    "initialization.init_animation": ("self_s",),
    "initialization.compose_density_map": ("s",),
    "initialization.derive_attachment_targets": ("s",),
    "optimize.optimize_animation": ("self_s",),
    "optimize.finite_difference_check": ("calls", "self_s"),
    "export.stroke_path_data": ("calls", "self_s"),
    "export.render_animated_svg": ("self_s",),
    "export.save_model": ("s",),
    "export.load_model": ("s",),
    "cli.init": ("s",),
    "cli.optimize": ("s",),
}

# Loss layers the optimizer reaches only through private helpers, timed by
# direct calls on the workload's initial model.
_PROBE_STATS = {
    "optimize.consistency_assignments": ("s",),
    "optimize.consistency_loss_grad": ("s",),
    "optimize.attachment_loss_grad": ("s",),
}

_COUNTS = (
    "bernstein.rows",
    "tracking.heatmap_kernel_evals",
    "tracking.nearest_rows.queries",
    "optimize.iterations",
)


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans and counts only)."""
    pipeline = tracer.stats("cli.")
    out: dict[str, float] = {}
    probe = tracer.stats("probe.initial")
    for stats, table in ((pipeline, _PIPELINE_STATS), (probe, _PROBE_STATS)):
        for span, names in table.items():
            for stat in names:
                out[f"{span}.{stat}"] = stats.get(span, {}).get(stat, 0)
    for metric in _COUNTS:
        out[metric] = tracer.counts.get(metric, 0)
    out["cli.self_s"] = sum(v["self_s"] for k, v in pipeline.items() if k.startswith("cli."))
    iterations = out["optimize.iterations"]
    optimize_s = pipeline.get("optimize.optimize_animation", {}).get("s", 0.0)
    out["optimize.s_per_iter"] = optimize_s / iterations if iterations else 0.0
    return out
