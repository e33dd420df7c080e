"""Open-loop serving benchmark: tail latency vs offered load.

Probes each data path's saturation capacity with a short overload burst,
then sweeps the ``xenloop_serving`` cell at 0.5x / 0.8x / 0.95x of that
capacity -- the classic open-loop load/latency curve: p50 barely moves,
p99/p999 inflate as the offered load approaches saturation and queueing
dominates.  Each cell runs in a **forked child** so its ``peak_rss_kb``
is that cell's high-water mark alone (and proves the streaming
histogram holds memory flat at any request count: no per-sample list
exists anywhere on the hot path).

Prints one line per cell: its latency percentiles, SLO violations,
events/s and peak RSS.  ``--smoke`` shrinks the request counts for CI
(``make serving-smoke``); the full run drives >= 100k open-loop
requests through the FIFO path.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

#: offered-load fractions of the probed capacity swept per data path.
LOAD_FRACTIONS = (0.5, 0.8, 0.95)

#: requests per sweep cell (full / smoke).  The full FIFO sweep alone
#: is 3 x 35,000 = 105,000 open-loop requests.
FULL_REQUESTS = {"fifo": 35_000, "netfront": 4_000}
SMOKE_REQUESTS = {"fifo": 800, "netfront": 300}

#: requests in the capacity probe (overload burst; completed/duration
#: is the saturation throughput).
FULL_PROBE = {"fifo": 4_000, "netfront": 600}
SMOKE_PROBE = {"fifo": 500, "netfront": 150}

#: probe offered rate -- far beyond either path's capacity, so the
#: achieved rate is service-limited, not arrival-limited.
PROBE_RATE = 1_000_000.0


def _cell_label(data_path: str, fraction: float) -> str:
    return f"serving/{data_path}/load{fraction:g}"


def _measure(data_path: str, requests: int, rate: float) -> dict:
    """Run one serving cell; returns its summary plus peak RSS.

    Runs inside the forked child (see :func:`_measure_forked`) so
    ``peak_rss_kb`` is this cell's high-water mark alone.
    """
    import resource

    from repro.scenarios import run_serving_cell

    t0 = time.perf_counter()
    summary = run_serving_cell(data_path=data_path, requests=requests, rate=rate)
    wall = time.perf_counter() - t0
    summary["wall_s"] = round(wall, 6)
    summary["events_per_sec"] = (
        round(summary["events"] / wall, 1) if wall > 0 else 0.0
    )
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return summary


def _measure_forked(data_path: str, requests: int, rate: float) -> dict:
    """Run :func:`_measure` in a forked child, piping the result back.

    ``ru_maxrss`` is a process-lifetime high-water mark, so measuring
    every sweep point in one process would report the largest cell's
    footprint for all of them.  Falls back to in-process measurement
    where ``os.fork`` is unavailable.
    """
    if not hasattr(os, "fork"):
        entry = _measure(data_path, requests, rate)
        entry["rss_shared_process"] = True
        return entry

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(_measure(data_path, requests, rate)).encode()
            os.write(write_fd, payload)
            os.close(write_fd)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    while True:
        chunk = os.read(read_fd, 65536)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_fd)
    _, wait_status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(wait_status) != 0 or not chunks:
        raise RuntimeError(f"serving child ({data_path}) died without a result")
    return json.loads(b"".join(chunks))


def probe_capacity(data_path: str, smoke: bool) -> float:
    """Saturation throughput (req/s) of one data path: offer requests
    far faster than the path can serve and measure the achieved rate."""
    requests = (SMOKE_PROBE if smoke else FULL_PROBE)[data_path]
    summary = _measure_forked(data_path, requests, PROBE_RATE)
    return summary["throughput_rps"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized cells")
    parser.add_argument(
        "--data-paths", default="fifo,netfront",
        help="comma-separated data paths to sweep (default: fifo,netfront)",
    )
    args = parser.parse_args()

    requests_by_path = SMOKE_REQUESTS if args.smoke else FULL_REQUESTS
    for data_path in args.data_paths.split(","):
        capacity = probe_capacity(data_path, smoke=args.smoke)
        print(f"{data_path}: capacity {capacity:,.0f} req/s")
        for fraction in LOAD_FRACTIONS:
            label = _cell_label(data_path, fraction)
            rate = capacity * fraction
            summary = _measure_forked(data_path, requests_by_path[data_path], rate)
            print(
                f"  {label:<26} rate={rate:>9,.0f}/s  "
                f"p50={summary['p50_us']:>8.1f}us  p99={summary['p99_us']:>9.1f}us  "
                f"p999={summary['p999_us']:>9.1f}us  "
                f"slo_viol={summary['slo_violations']}  "
                f"{summary['events_per_sec']:>10,.0f} events/s  "
                f"rss={summary['peak_rss_kb']:,}kB"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
