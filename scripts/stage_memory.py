"""Which CLI stage sets a benchmark workload's peak memory.

    python3 scripts/stage_memory.py --workload demo
    python3 scripts/stage_memory.py --workload detail --seed 3

The workload comes from ``benchmarks/workloads.py``. Like the benchmark, the
script writes the workload's track file and then runs ``init`` and the
workload's stages in order in this one process, each stage reading the file
the previous one wrote. For every stage it prints:

- ``rss_mb``: the process's peak RSS (``ru_maxrss``) after the stage. The
  benchmark's ``peak_rss_mb`` is this peak at the end of its run, so the last
  stage that raises it is the stage that sets it;
- ``seconds`` and the sha256 of the stage's output file;
- ``traced_mb``: the stage's own peak of traced allocations (numpy arrays
  included) above what was held when it started, from a second pass of all
  stages under ``tracemalloc``. Unlike ``rss_mb`` it shows a stage's peak
  even when an earlier stage's was higher.

A sample is one process; run the script again for another.

Exit codes: 0 every stage succeeded, 1 a stage failed, 2 a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import resource
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "benchmarks")]

# benchmarks/run.py and benchmarks/workloads.py, found through sys.path.
import run  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class StageMeter:
    """A tracer for ``run.run_pass``: one row per stage with the peak RSS after
    it and, while tracemalloc is on, its peak of traced allocations above what
    was held when it started."""

    def __init__(self):
        self.rows: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        traced = tracemalloc.is_tracing()
        if traced:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        yield
        row = {"stage": name.removeprefix("cli."), "rss_mb": peak_rss_mb()}
        if traced:
            row["traced_mb"] = (tracemalloc.get_traced_memory()[1] - held) / 2**20
        self.rows.append(row)


def run_pass(workload, seed: int, tracks: str, pass_dir: str) -> list[dict]:
    """Every stage of `workload` once, in this process, as the benchmark runs
    them; one row per stage. Raises RuntimeError if a stage fails."""
    meter, ledger = StageMeter(), run.Ledger()
    result = run.run_pass(workload, tracks, seed, pass_dir, ledger, meter)
    if result is None:
        raise RuntimeError(ledger.failures[-1])
    for row in meter.rows:
        row["seconds"] = result["times"][row["stage"]]
        output = result["outputs"].get(row["stage"])
        row["sha256"] = digest(output) if output else ""
    return meter.rows


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="stage-memory-") as work:
        tracks = workloads.write_inputs(workload, args.seed, ROOT, work)
        setup_mb = peak_rss_mb()
        try:
            rows = run_pass(workload, args.seed, tracks, os.path.join(work, "pass"))
            tracemalloc.start()
            traced = run_pass(workload, args.seed, tracks, os.path.join(work, "traced"))
            tracemalloc.stop()
        except RuntimeError as exc:
            print(f"FAIL {exc}")
            return 1
    w, h = workload.canvas
    print(f"{workload.name}, seed {args.seed}, canvas {w}x{h}")
    print(f"{'stage':<12} {'rss_mb':>8} {'seconds':>8} {'traced_mb':>10}  output sha256")
    print(f"{'setup':<12} {setup_mb:>8.2f}")
    for row, again in zip(rows, traced):
        print(f"{row['stage']:<12} {row['rss_mb']:>8.2f} {row['seconds']:>8.3f} "
              f"{again['traced_mb']:>10.2f}  {row['sha256']}")
    peak = rows[-1]["rss_mb"]
    setter = next((row["stage"] for row in rows if setup_mb < row["rss_mb"] == peak), "setup")
    print(f"peak RSS {peak:.2f} MB, set by {setter}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
