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
standard error gets a digest. The stages run in the inherited environment:
each CLI command runs its BLAS with one thread, so no digest depends on the
number of CPUs or on the BLAS variables.

The golden file records the environment it was made in: Python, numpy,
scipy, the OpenBLAS version and kernel that ``numpy.show_config()`` reports,
the CPU features numpy found and the machine. Floating-point bytes may move
between such environments, so in another one the check compares nothing and
reports "environment differs".

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


def run_stage(argv: list[str], cwd: str, label: str, digests: dict) -> bool:
    """One CLI call in a fresh interpreter; records its prints' digests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "motionsketch", *argv],
        cwd=cwd, env=env, capture_output=True, timeout=900,
    )
    digests[f"{label}.stdout"] = sha256(done.stdout)
    digests[f"{label}.stderr"] = sha256(done.stderr)
    if done.returncode != 0:
        print(f"  {label} exited with {done.returncode}: {done.stderr.decode()[-500:]}")
    return done.returncode == 0


def run_case(name: str, work: str) -> tuple[dict, list[str]]:
    """(digest per output, failures) of one case, run in ``work/name``."""
    workload, seed, frames = CASES[name]
    case_dir = os.path.join(work, name)
    os.makedirs(case_dir)
    tracks = workloads.write_inputs(workload, seed, ROOT, case_dir)
    digests = {"tracks.json": file_digest(tracks)}
    for stage, extra in workloads.pass_stages(workload):
        argv = workloads.stage_argv(workload, stage, extra, "tracks.json", seed, "")
        if stage == "optimize":
            argv += ["--log", "loss.csv"]
        if not run_stage(argv, case_dir, stage, digests):
            return digests, [f"{name}: {stage} failed"]
        output = workloads.STAGE_OUTPUTS[stage]
        for path in (output, "loss.csv" if stage == "optimize" else None):
            if path:
                digests[path] = file_digest(os.path.join(case_dir, path))
    if frames:
        argv = ["export", "--model", workloads.STAGE_OUTPUTS["optimize"], "--frames", "frames"]
        if not run_stage(argv, case_dir, "export-frames", digests):
            return digests, [f"{name}: export --frames failed"]
        digests["frames/"] = dir_digest(os.path.join(case_dir, "frames"))
    return digests, []


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
            digests, failed = run_case(name, work)
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
