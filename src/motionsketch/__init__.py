"""motionsketch: vector-stroke animation via polynomial control-point motion.

Strokes are Bezier curves whose control points ride degree-n polynomial
trajectories in normalized time, preferably in the Bernstein basis (uniform
coefficient sensitivity, stable high-degree evaluation in log space).
Trajectories are fitted to sparse point tracks by ridge regression, optimized
under a temporal-consistency objective with exact analytic gradients, and
exported as continuous-time animated SVG.
"""

__version__ = "0.1.0"

from .bernstein import (
    BasisKind,
    BasisRow,
    basis_matrix,
    basis_row,
    basis_row_log,
    chebyshev_nodes,
    collocation_matrix,
    solve_control_points,
)
from .errors import (
    CapacityError,
    ConditioningError,
    DegenerateInputError,
    DivergenceError,
    DomainError,
    MotionSketchError,
    ParseError,
    UnsupportedVersionError,
    ValidationError,
)
from .export import (
    FrameRatePlan,
    export_animated_svg,
    export_frame_svg,
    load_model,
    model_document,
    render_animated_svg,
    render_frame_svg,
    resample_framerate,
    save_model,
    stroke_path_data,
)
from .fitting import (
    FitMethod,
    FitReport,
    FitSamples,
    evaluate_fit,
    fit_interpolation,
    fit_least_squares,
    fit_ridge,
    fit_ridge_columns,
    fit_trajectory,
    run_fit_benchmark,
)
from .initialization import (
    DensityMap,
    InitConfig,
    MaskAreas,
    assign_track_targets,
    compose_density_map,
    derive_attachment_targets,
    init_animation,
    load_mask_areas,
    load_pgm,
    sample_stroke_seeds,
    save_pgm,
    stroke_width_schedule,
    uniform_map,
)
from .optimize import (
    LossBreakdown,
    LossWeights,
    OptimConfig,
    attachment_loss_grad,
    consistency_assignments,
    consistency_loss_grad,
    finite_difference_check,
    optimize_animation,
    total_loss,
)
from .synthetic import make_benchmark_tracks, make_demo_tracks
from .tracking import (
    MotionHeatmap,
    TrackSet,
    build_motion_heatmap,
    load_tracks,
    motion_weight,
    motion_weights,
    nearest_sample,
    save_tracks,
    transfer_point,
)
from .trajectory import (
    SketchAnimation,
    Stroke,
    TrajectoryPoly,
    animation_coefficients,
    coefficient_jacobian_row,
    control_points,
    default_trajectory_degree,
    eval_curve_point,
    eval_trajectories,
    eval_trajectory,
    replace_coefficients,
    sample_stroke,
    sensitivity_l1,
    trajectory_velocity,
)
