"""Benchmark of the motionsketch CLI pipeline.

    python3 benchmarks/run.py --workload demo --seed 1 --seconds 35 --trace 0

Runs one workload from ``workloads.py`` in this process, as a closed loop with
one caller: each CLI stage is a call to ``motionsketch.cli.main`` that starts
when the previous stage has written its output file. Passes over the whole
pipeline repeat while the next one is expected to end within ``--seconds``
(at least one pass), each followed by a timed set-up (a fresh interpreter
importing the CLI, then writing the inputs). The first pass's outputs are
checked; later passes must reproduce them byte for byte.

With ``--trace 1`` the run makes one untraced pass and then one pass with the
library functions in ``layers.TARGETS`` wrapped by a span tracer, followed by
loss probes on the initial and optimized models; the traced outputs must
equal the untraced ones.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, its ``per_layer`` metrics traced. The line
before it, also written to ``.bench_work/report-<workload>.json``, is the
full report: every metric with its unit, every stage's timing with its
sample count, exact work counts, output hashes, failures and the
environment. The exit code is 0 only when every stage and check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# These three import no numpy; `checks`, numpy and the library are imported
# inside functions, after pin_blas_threads() has set the BLAS variables.
import workloads
from layers import TARGETS, layer_metrics
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Fewest set-ups in an untraced run; setup_s is their median.
SETUP_REPS = 3

# Sampled points per stroke in the loss probes: the CLI's default.
PROBE_N_P = 8

# Units by the last part of a metric name; otherwise "s" for a name that is
# "s" or ends in "_s", and "count".
_UNITS = {
    "peak_rss_mb": "MB",
    "final_loss": "px2",
    "max_key_err_px": "px",
    "bytes_written": "B",
    "s_per_iter": "s",
    "assignment_churn": "ratio",
    "loss_ratio": "ratio",
    "grad_rel_err": "ratio",
    "error_rate": "ratio",
}

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unit(name: str) -> str:
    """The unit of a metric in the report."""
    last = name.rsplit(".", 1)[-1]
    return _UNITS.get(last, "s" if last == "s" or last.endswith("_s") else "count")


def pin_blas_threads() -> int:
    """Cap every BLAS pool at the CPUs this process may use; numpy reads
    these variables when it is first imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) < nproc
        os.environ[var] = current if keep else str(nproc)
    return int(os.environ[BLAS_VARS[0]])


class Ledger:
    """Operations attempted and failed: each CLI call and each output check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def timing(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (None below eleven samples), the sample count and the samples."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        k = n - 11
        tail = {"percentile": 100.0 * (k + 1) / n, "value": ordered[k]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n, "samples": samples}


def run_stage(argv: list[str]) -> tuple[int, float, str]:
    """One CLI call: (exit code, wall seconds, captured standard output)."""
    from motionsketch import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, reported, not fatal
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, time.perf_counter() - start, out.getvalue()


def run_pass(workload, tracks: str, seed: int, pass_dir: str, ledger: Ledger, tracer=None):
    """All stages of the workload once; None if a stage failed."""
    os.makedirs(pass_dir)
    times, stdout, outputs = {}, {}, {}
    for stage, extra in workloads.pass_stages(workload):
        argv = workloads.stage_argv(workload, stage, extra, tracks, seed, pass_dir)
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        with span:
            code, seconds, text = run_stage(argv)
        if not ledger.record(code == 0, f"{stage} exited with code {code}"):
            return None
        times[stage] = seconds
        stdout[stage] = text
        if workloads.STAGE_OUTPUTS[stage]:
            outputs[stage] = os.path.join(pass_dir, workloads.STAGE_OUTPUTS[stage])
    return {"dir": pass_dir, "times": times, "stdout": stdout, "outputs": outputs}


def check_outputs(result: dict, ledger: Ledger) -> dict:
    """Correctness checks on a pass's files, and exact counts taken from them."""
    import checks
    from motionsketch import load_model

    outputs = result["outputs"]
    for stage in ("init", "optimize"):
        ledger.record(checks.model_round_trips(outputs[stage]), f"{stage} model round trip")
    anim = load_model(outputs["optimize"])
    counts = {"export.max_key_err_px": 0.0, "export.stroke_keys": 0, "export.cubic_segments": 0}
    for stage in ("export", "interp"):
        if stage not in outputs:
            continue
        try:
            report = checks.svg_key_report(outputs[stage], anim)
        except ValueError as exc:
            ledger.record(False, f"{stage} SVG unreadable: {exc}")
            continue
        err = report["max_key_err_px"]
        ledger.record(err <= checks.KEY_TOL_PX, f"{stage} SVG key error {err:.3e} px")
        counts["export.max_key_err_px"] = max(counts["export.max_key_err_px"], err)
        counts["export.stroke_keys"] += report["stroke_keys"]
        counts["export.cubic_segments"] += report["cubic_segments"]
    counts["export.bytes_written"] = sum(os.path.getsize(p) for p in outputs.values())
    return counts


def compare_hashes(result: dict, reference: dict, what: str, ledger: Ledger) -> None:
    import checks

    for stage, path in result["outputs"].items():
        ledger.record(checks.sha256(path) == reference[stage], f"{what} {stage} output differs")


def printed_value(text: str, label: str) -> float | None:
    """The number after `label` in a stage's standard output."""
    if label not in text:
        return None
    return float(text.split(label, 1)[1].split()[0])


def setup_once(workload, seed: int, run_dir: str, rep: int) -> tuple[float, str]:
    """One timed set-up: a fresh interpreter importing the CLI, then
    generating and writing the inputs into ``setup-<rep>``. Returns the
    seconds and the track file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import motionsketch.cli"],
        env=env, cwd=ROOT, check=True, timeout=120,
    )
    path = workloads.write_inputs(workload, seed, ROOT, os.path.join(run_dir, f"setup-{rep}"))
    return time.perf_counter() - start, path


def loss_probes(tracer, model_path: str, opt_path: str, tracks_path: str) -> dict:
    """Loss layers timed on the initial model, and the optimizer's effect."""
    import numpy as np

    import motionsketch as ms

    weights = ms.LossWeights()
    with tracer.span("probe.initial"):
        tracks = ms.load_tracks(tracks_path)
        initial = ms.load_model(model_path)
        targets = ms.derive_attachment_targets(initial, tracks)
        rows0 = ms.consistency_assignments(initial, tracks, PROBE_N_P)
        loss0, _ = ms.total_loss(initial, tracks, targets, weights, PROBE_N_P, assignments=rows0)
    with tracer.span("probe.final"):
        final = ms.load_model(opt_path)
        rows1 = ms.consistency_assignments(final, tracks, PROBE_N_P)
        loss1, _ = ms.total_loss(final, tracks, targets, weights, PROBE_N_P, assignments=rows1)
    return {
        "optimize.assignment_churn": float(np.mean(rows0 != rows1)),
        "optimize.loss_ratio": loss1.total / loss0.total,
        "optimize.final_loss": loss1.total,
    }


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def untraced_passes(workload, seed: int, seconds: float, run_dir: str, ledger, min_setups: int):
    """Set-ups and closed-loop passes, alternating: a set-up, then a pass and
    another set-up while the next pass and set-up are expected to end within
    `seconds` of the first pass's start (always at least one), then more
    set-ups up to `min_setups`. The machine's speed changes over seconds, so
    set-ups spread over the run see the same mix of speeds as the passes.

    The first set-up's track file is the run's input. The first pass's files
    are checked and hashed; every later pass must reproduce those hashes.
    Returns (set-up seconds, track file, passes, counts, hashes)."""
    import checks
    import motionsketch.cli  # noqa: F401  (imported here, so no set-up pays for it)

    def discarded_setup() -> float:
        sec, path = setup_once(workload, seed, run_dir, len(setup))
        shutil.rmtree(os.path.dirname(path))
        return sec

    first, tracks = setup_once(workload, seed, run_dir, 0)
    setup = [first]
    passes: list[dict] = []
    cycles: list[float] = []
    counts: dict = {}
    hashes: dict = {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.mean(cycles) <= seconds:
        result = run_pass(
            workload, tracks, seed, os.path.join(run_dir, f"pass-{len(passes)}"), ledger
        )
        if result is None:
            break
        if passes:
            compare_hashes(result, hashes, f"pass {len(passes)}", ledger)
            shutil.rmtree(result["dir"])
        else:
            counts = check_outputs(result, ledger)
            hashes = {stage: checks.sha256(p) for stage, p in result["outputs"].items()}
        passes.append(result)
        setup.append(discarded_setup())
        cycles.append(sum(result["times"].values()) + setup[-1])
    while len(setup) < min_setups:
        setup.append(discarded_setup())
    return setup, tracks, passes, counts, hashes


def end_to_end(setup: list[float], passes: list[dict], counts: dict) -> tuple[dict, dict]:
    """(metrics, per-stage timings) of the untraced passes."""
    metrics: dict = {"setup_s": statistics.median(setup)}
    if not passes:
        return metrics, {}
    samples: dict[str, list[float]] = {}
    for result in passes:
        for stage, sec in result["times"].items():
            samples.setdefault(stage.replace("-", "_") + "_s", []).append(sec)
    stages = {name: timing(v) for name, v in samples.items()}
    stages["pipeline_s"] = timing([sum(r["times"].values()) for r in passes])
    metrics.update({name: t["median"] for name, t in stages.items()})
    first = passes[0]["stdout"]
    metrics["final_loss"] = printed_value(first.get("optimize", ""), "final loss")
    metrics["grad_rel_err"] = printed_value(
        first.get("check-grad", ""), "max relative gradient error:"
    )
    metrics.update(counts)
    return metrics, stages


def traced_pass(workload, tracks: str, seed: int, run_dir: str, ledger, hashes: dict,
                spans_path: str) -> tuple[dict | None, float]:
    """One pass with the layer functions wrapped, then the loss probes.
    Returns the per-layer metrics (None if a stage failed) and the pass's
    pipeline seconds; the spans are written to `spans_path`."""
    tracer = Tracer()
    tracer.install("motionsketch", TARGETS)
    try:
        traced = run_pass(workload, tracks, seed, os.path.join(run_dir, "traced"), ledger, tracer)
        if traced is not None:
            outputs = traced["outputs"]
            probes = loss_probes(tracer, outputs["init"], outputs["optimize"], tracks)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    if traced is None:
        return None, 0.0
    compare_hashes(traced, hashes, "traced", ledger)
    layers = layer_metrics(tracer)
    layers.update(probes)
    return layers, sum(traced["times"].values())


def benchmark(
    workload, seed: int, seconds: float, run_dir: str, blas_threads: int, spans_path=None
) -> dict:
    """Run the workload and return the full report. With `spans_path` the run
    is traced: one untraced pass, then one traced pass whose spans are
    written there."""
    trace = spans_path is not None
    ledger = Ledger()
    setup, tracks, passes, counts, hashes = untraced_passes(
        workload, seed, 0.0 if trace else seconds, run_dir, ledger, 1 if trace else SETUP_REPS
    )
    metrics, stages = end_to_end(setup, passes, counts)
    layers: dict = {}
    if trace and passes:
        traced, traced_s = traced_pass(workload, tracks, seed, run_dir, ledger, hashes, spans_path)
        if traced is not None:
            layers = {**traced, **counts}
            layers["optimize.grad_rel_err"] = metrics["grad_rel_err"]
            layers["trace.overhead_s"] = traced_s - metrics["pipeline_s"]

    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["error_rate"] = len(ledger.failures) / max(1, ledger.attempted)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "setup_samples_s": setup,
        "stages": stages,
        "metrics": metrics,
        "per_layer": layers,
        "hashes": hashes,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "environment": environment(blas_threads),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    needed = (spec_path, os.path.join(SRC, "motionsketch", "cli.py"))
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: not a motionsketch checkout, missing {missing}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}, "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    demo_tracks = os.path.join(ROOT, workloads.DEMO_TRACKS)
    if workload.tracks_shape is None and not os.path.exists(demo_tracks):
        print(f"error: missing {demo_tracks}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    run_dir = os.path.join(WORK, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        spans = os.path.join(WORK, f"spans-{workload.name}.json") if args.trace else None
        report = benchmark(workload, args.seed, args.seconds, run_dir, blas_threads, spans)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = report["per_layer"] if args.trace else report["metrics"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
        if values.get(m["name"]) is not None
    }
    for key in ("metrics", "per_layer"):
        report[key] = {n: {"value": v, "unit": unit(n)} for n, v in report[key].items()}
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    report["attempted"] += 1
    if missing:
        report["failures"].append(f"metrics not measured: {missing}")
    failed = len(report["failures"])
    correct = failed == 0
    with open(os.path.join(WORK, f"report-{workload.name}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
