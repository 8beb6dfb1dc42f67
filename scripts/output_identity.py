"""Output identity: every CLI output of the benchmark's workloads, checked
against the sha256 digests in a committed golden file.

    python3 scripts/output_identity.py                  # check every case
    python3 scripts/output_identity.py --cases demo-seed2,detail-seed2
    python3 scripts/output_identity.py --update         # rewrite the golden file

A case is a workload of ``benchmarks/workloads.py`` at one seed, or the long
clip below. It writes the workload's track file, then runs ``init`` and the
workload's stages, each in a fresh interpreter, inside the case's own
directory with relative paths, so no print depends on where the case runs.
``optimize`` also writes its loss log, and demo and detail also run
``export --frames``. Every output file, every standard output and every
standard error gets a digest. The stages run with one BLAS thread per usable
CPU; ``init``, ``optimize`` (on the first run's model, so that it is
checked on its own) and, where the workload has it, ``fit-bench`` then run
once more with one BLAS thread, and the golden file pins that run's digests
too, so a case whose bytes start to depend on the thread count fails. The
script notes each output whose two runs differ.

The golden file records the environment it was made in: Python, numpy,
scipy, the OpenBLAS version and kernel that ``numpy.show_config()`` reports,
the CPU features numpy found, the machine and the BLAS thread count of the
first run. Floating-point bytes may move between such environments, so in
another one the check compares nothing and reports "environment differs".

Exit codes: 0 every digest matches, 1 a mismatch or a failed stage, 2 a
usage error, 3 the environment differs from the golden file's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "scripts", "golden_outputs.json")
sys.path[:0] = [SRC, os.path.join(ROOT, "benchmarks")]

import workloads  # noqa: E402  (benchmarks/workloads.py, found through sys.path)

ENVIRONMENT_DIFFERS = 3

# The paper's regime: trajectory degree above 200. 600 frames give init's
# default degree 299.
LONG_CLIP = workloads.Workload(
    name="longclip",
    why="1000 generated tracks x 600 frames on 512x512, 64 cubic strokes of degree 299",
    tracks_shape=(1000, 600),
    canvas=(512, 512),
    num_strokes=64,
    init_args=(),
    stages=(
        ("optimize", ("--iterations", "3")),
        ("export", ("--fps", "24")),
        ("check-grad", ()),
        ("fit-bench", ()),
    ),
)

# name -> (workload, seed, also export --frames)
CASES = {
    f"{w.name}-seed{seed}": (w, seed, w.name in ("demo", "detail"))
    for w in (workloads.DEMO, workloads.DETAIL, workloads.SCENE)
    for seed in (2, 3)
}
CASES["longclip-seed2"] = (LONG_CLIP, 2, False)

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The stages that run again with one BLAS thread.
ONE_THREAD_STAGES = ("init", "optimize", "fit-bench")


def environment() -> dict:
    """What the output bytes may depend on, besides the code."""
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config["Build Dependencies"]["blas"].get("openblas configuration", ""),
        "simd": config["SIMD Extensions"]["found"],
        "machine": f"{platform.system()} {platform.machine()}",
        "blas threads": len(os.sched_getaffinity(0)),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def dir_digest(path: str) -> str:
    """One digest of every file's name and digest, in name order."""
    names = sorted(os.listdir(path))
    lines = "".join(f"{name} {file_digest(os.path.join(path, name))}\n" for name in names)
    return sha256(lines.encode())


def blas_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update({var: str(threads) for var in BLAS_VARS})
    return env


def run_stage(argv: list[str], cwd: str, env: dict, label: str, digests: dict) -> bool:
    """One CLI call in a fresh interpreter; records its prints' digests."""
    done = subprocess.run(
        [sys.executable, "-m", "motionsketch", *argv],
        cwd=cwd, env=env, capture_output=True, timeout=900,
    )
    digests[f"{label}.stdout"] = sha256(done.stdout)
    digests[f"{label}.stderr"] = sha256(done.stderr)
    if done.returncode != 0:
        print(f"  {label} exited with {done.returncode}: {done.stderr.decode()[-500:]}")
    return done.returncode == 0


def run_stages(workload, seed, stages, inputs, cwd, env, digests) -> str | None:
    """Runs `stages` of `workload` in `cwd`, reading the track file and the
    model that ``optimize`` starts from in the directory `inputs` (relative
    to `cwd`), and records the digests of their prints and outputs; returns
    the first stage that failed, or None."""
    tracks = os.path.join(inputs, "tracks.json")
    for stage, extra in stages:
        argv = workloads.stage_argv(workload, stage, extra, tracks, seed, "")
        if stage == "optimize":
            argv[argv.index("--model") + 1] = os.path.join(inputs, workloads.STAGE_OUTPUTS["init"])
            argv += ["--log", "loss.csv"]
        if not run_stage(argv, cwd, env, stage, digests):
            return stage
        output = workloads.STAGE_OUTPUTS[stage]
        for path in (output, "loss.csv" if stage == "optimize" else None):
            if path:
                digests[path] = file_digest(os.path.join(cwd, path))
    return None


def run_case(name: str, work: str, threads: int) -> tuple[dict, list[str]]:
    """(digest per output, failures) of one case, run in ``work/name`` with
    `threads` BLAS threads, then in ``work/name/one-thread`` with one."""
    workload, seed, frames = CASES[name]
    case_dir = os.path.join(work, name)
    os.makedirs(case_dir)
    tracks = workloads.write_inputs(workload, seed, ROOT, case_dir)
    digests = {"tracks.json": file_digest(tracks)}
    stages = workloads.pass_stages(workload)
    failed = run_stages(workload, seed, stages, "", case_dir, blas_env(threads), digests)
    if failed:
        return digests, [f"{name}: {failed} failed"]
    failures = []
    if frames:
        argv = ["export", "--model", workloads.STAGE_OUTPUTS["optimize"], "--frames", "frames"]
        if run_stage(argv, case_dir, blas_env(threads), "export-frames", digests):
            digests["frames/"] = dir_digest(os.path.join(case_dir, "frames"))
        else:
            failures.append(f"{name}: export --frames failed")
    # In a subdirectory, so that the prints name the same relative paths.
    single = os.path.join(case_dir, "one-thread")
    os.makedirs(single)
    again: dict = {}
    stages = [(stage, extra) for stage, extra in stages if stage in ONE_THREAD_STAGES]
    failed = run_stages(workload, seed, stages, "..", single, blas_env(1), again)
    if failed:
        failures.append(f"{name}: {failed} with one BLAS thread failed")
    moved = [key for key, value in again.items() if digests.get(key) != value]
    if moved:
        print(f"  note: {name}: {', '.join(moved)} depend on the BLAS thread count")
    digests.update({f"one-thread/{key}": value for key, value in again.items()})
    return digests, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", help=f"comma-separated subset of {', '.join(CASES)}")
    parser.add_argument("--update", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    names = args.cases.split(",") if args.cases else list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        parser.error(f"unknown cases {unknown}, choose from {list(CASES)}")
    return args, names


def main(argv=None) -> int:
    args, names = parse_args(argv)
    here = environment()
    golden = {"environment": here, "cases": {}}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    stamped = golden["environment"]
    if stamped != here:
        if not args.update:
            print("environment differs from the golden file's:")
            for key in sorted(set(here) | set(stamped)):
                if here.get(key) != stamped.get(key):
                    print(f"  {key}: golden {stamped.get(key)!r}, here {here.get(key)!r}")
            return ENVIRONMENT_DIFFERS
        golden = {"environment": here, "cases": {}}  # digests of another environment go

    failures = []
    with tempfile.TemporaryDirectory(prefix="output-identity-") as work:
        for name in names:
            print(f"{name} ...", flush=True)
            digests, failed = run_case(name, work, here["blas threads"])
            failures += failed
            expected = golden["cases"].get(name)
            if args.update:
                golden["cases"][name] = digests
            elif expected is None:
                failures.append(f"{name}: not in the golden file")
            else:
                for key in sorted(set(digests) | set(expected)):
                    if digests.get(key) != expected.get(key):
                        failures.append(f"{name}: {key} differs from the golden file")
    for line in failures:
        print(f"FAIL {line}")
    if failures:
        return 1
    if args.update:
        golden["cases"] = dict(sorted(golden["cases"].items()))
        with open(GOLDEN, "w") as fh:
            json.dump(golden, fh, indent=1)
            fh.write("\n")
        print(f"wrote {GOLDEN}")
    else:
        print(f"all {len(names)} cases match the golden file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
