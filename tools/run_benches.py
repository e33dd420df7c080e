"""Run every ``benchmarks/bench_*.py`` in parallel and merge the results.

Each bench file runs in its own worker process (a multiprocessing pool
sized to the machine), so one slow figure doesn't serialize the suite
and a crash in one bench can't take down the rest.  Per-bench status,
wall-clock, and output tails are merged into one summary table and
written to ``benchmarks/results/run_benches.json``.

Usage::

    PYTHONPATH=src python tools/run_benches.py             # all benches
    PYTHONPATH=src python tools/run_benches.py fig4 fig5   # name filters
    PYTHONPATH=src python tools/run_benches.py -j 2        # pool size

or ``make bench-all``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"
SUMMARY_PATH = RESULTS_DIR / "run_benches.json"

#: lines of captured output kept per bench in the merged summary.
TAIL_LINES = 15

#: pytest exit code -> status.  Exit 5 ("no tests collected") is a
#: script-mode bench such as bench_serving.py, run as
#: ``python benchmarks/<file>``; it is not a failure.
_STATUS = {0: "ok", 5: "script"}


def discover(filters: list[str]) -> list[pathlib.Path]:
    """All bench_*.py files, optionally filtered by substring."""
    paths = sorted(BENCH_DIR.glob("bench_*.py"))
    if filters:
        paths = [p for p in paths if any(f in p.name for f in filters)]
    return paths


def run_one(path_str: str) -> dict:
    """Worker: run one bench file under pytest, capture the outcome."""
    path = pathlib.Path(path_str)
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(path),
                "--benchmark-only",
                "-q",
                "-s",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=1800,
        )
        status = _STATUS.get(proc.returncode, f"exit {proc.returncode}")
        output = proc.stdout + proc.stderr
    except subprocess.TimeoutExpired as exc:
        status = "timeout"
        output = (exc.stdout or "") + (exc.stderr or "")
    wall = time.perf_counter() - t0
    tail = output.strip().splitlines()[-TAIL_LINES:]
    return {
        "bench": path.name,
        "status": status,
        "wall_s": round(wall, 2),
        "tail": tail,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("filters", nargs="*", help="substring filters on bench file names")
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=max(1, (os.cpu_count() or 1)),
        help="worker processes (default: CPU count)",
    )
    args = parser.parse_args()

    benches = discover(args.filters)
    if not benches:
        print(f"no benchmarks match {args.filters!r} under {BENCH_DIR}")
        return 2
    jobs = max(1, min(args.jobs, len(benches)))
    print(f"running {len(benches)} benches with {jobs} worker(s)...")

    t0 = time.perf_counter()
    if jobs == 1:
        results = [run_one(str(p)) for p in benches]
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(run_one, [str(p) for p in benches])
    total_wall = time.perf_counter() - t0

    width = max(len(r["bench"]) for r in results)
    failed = [r for r in results if r["status"] not in _STATUS.values()]
    scripts = sum(r["status"] == "script" for r in results)
    for r in results:
        print(f"  {r['bench']:<{width}}  {r['status']:>8}  {r['wall_s']:8.2f}s")
    print(
        f"{len(results) - scripts - len(failed)}/{len(results) - scripts} ok, "
        f"{scripts} script-mode, in {total_wall:.1f}s wall ({jobs} worker(s))"
    )
    for r in failed:
        print(f"\n-- {r['bench']} ({r['status']}) --")
        print("\n".join(r["tail"]))

    RESULTS_DIR.mkdir(exist_ok=True)
    summary = {
        "jobs": jobs,
        "total_wall_s": round(total_wall, 2),
        "results": results,
    }
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {SUMMARY_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
