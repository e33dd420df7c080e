"""Engine-throughput regression bench (events/sec + wall-clock).

Not a paper figure: this tracks the *simulator's* own speed on the
profiled workload from the fast-path PR -- ``udp_stream`` over the
``xenloop`` scenario, 4 KB messages, 0.5 s simulated -- so the perf
trajectory is visible from PR to PR.  Results append to
``BENCH_engine.json`` at the repo root: one history entry per run,
keyed by git SHA (events processed, wall-clock, events/sec,
serialization-cache counters, plus the simulated result so determinism
drift is also visible).

The timed run is preceded by an untimed warmup pass so one-time costs
(module bytecode, the lazy ``numpy.random`` import on the virq-jitter
path) don't land inside the measured window -- the figure tracks the
steady-state engine, not interpreter start-up.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

or as part of the bench suite (``make bench-smoke`` / ``pytest
benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import time

from repro import report, scenarios, trace
from repro.net.packet import WIRE_STATS
from repro.workloads import netperf
from repro.xen.event_channel import NOTIFY_STATS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_engine.json"

#: fields copied from a legacy (single-payload) BENCH_engine.json when
#: converting it into the first history entry.
_LEGACY_FIELDS = ("events", "sim_time", "wall_s", "events_per_sec", "result")


def _git_sha() -> str:
    """Short SHA of HEAD, or 'unknown' outside a usable git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _load_history(output: pathlib.Path) -> list[dict]:
    """Existing history entries (converting the pre-history format)."""
    if not output.exists():
        return []
    try:
        data = json.loads(output.read_text())
    except (ValueError, OSError):
        return []
    if isinstance(data, dict) and isinstance(data.get("history"), list):
        return data["history"]
    if isinstance(data, dict) and "events" in data:
        # Legacy format: the whole file was one run's payload.
        entry = {k: data[k] for k in _LEGACY_FIELDS if k in data}
        entry["sha"] = data.get("sha", "pre-history")
        return [entry]
    return []


def _detect_data_path(serialization: dict) -> str:
    """Which data path the measured workload actually exercised.

    The history had a silent gap: ``fifo_bytes_*``/``pool_*``/
    ``drain_batches`` recorded 0 because the default bench never warms
    XenLoop channels up (0.5 s simulated < the 5 s discovery period), so
    every message rode the xennet ring.  Annotating the entry makes
    the active path explicit instead of looking like broken counters.
    """
    return "fifo" if serialization.get("fifo_bytes_in", 0) > 0 else "xennet-ring"


def run(
    scenario: str = "xenloop",
    msg_size: int = 4096,
    duration: float = 0.5,
    output: pathlib.Path = DEFAULT_OUTPUT,
    reps: int = 3,
    data_path: str = "auto",
) -> dict:
    """Run the fixed workload, print and append the engine stats.

    The workload is deterministic, so every rep simulates the identical
    event stream; the recorded wall-clock is the best of ``reps`` runs
    (min-of-N, the standard way to strip scheduler noise from a
    throughput figure on a shared machine).  Returns the history entry
    recorded for this run.

    ``data_path="fifo"`` warms the XenLoop channels up inside the timed
    region (build + warmup + stream) so the measured traffic rides the
    shared-FIFO path; serialization/notify counters are reset after the
    warmup, so they describe the stream only.  The default leaves the
    workload on the xennet ring and annotates the entry accordingly.
    """
    # Untimed warmup pass: a short run of the same workload on a throwaway
    # scenario triggers every lazy import and warms the interpreter.  The
    # timed runs below build a FRESH scenario with the same seed, so the
    # simulated results are unaffected.
    warm = scenarios.build(scenario)
    if data_path == "fifo":
        warm.warmup()
    netperf.udp_stream(warm, msg_size=msg_size, duration=0.01)

    best = None
    for _ in range(max(1, reps)):
        WIRE_STATS.reset()  # count serialization work for this rep only
        NOTIFY_STATS.reset()  # and notify/suppression work likewise
        t0 = time.perf_counter()
        scn = scenarios.build(scenario)
        if data_path == "fifo":
            scn.warmup()
            WIRE_STATS.reset()
            NOTIFY_STATS.reset()
        result = netperf.udp_stream(scn, msg_size=msg_size, duration=duration)
        wall = time.perf_counter() - t0
        rep_stats = trace.engine_stats(scn.sim, wall_s=wall)
        if best is None or wall < best[0]:
            best = (wall, rep_stats, result)
    _wall, stats, result = best
    entry = {
        "sha": _git_sha(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "reps": max(1, reps),
        "data_path": _detect_data_path(stats["serialization"]),
        "events": stats["events"],
        "sim_time": stats["sim_time"],
        "wall_s": round(stats["wall_s"], 4),
        "events_per_sec": round(stats["events_per_sec"], 1),
        "result": {
            "bytes_received": result.bytes_received,
            "mbps": result.mbps,
            "messages_sent": result.messages_sent,
            "drops": result.drops,
        },
        "serialization": stats["serialization"],
        "notify": stats["notify"],
    }
    if data_path == "fifo" and entry["data_path"] != "fifo":
        raise RuntimeError("fifo bench variant did not exercise the FIFO path")
    workload = {"scenario": scenario, "msg_size": msg_size, "duration": duration}
    history = _load_history(output)
    history.append(entry)
    output.write_text(
        json.dumps({"workload": workload, "history": history}, indent=2) + "\n"
    )
    print(report.format_engine_stats(stats))
    print(f"simulated: {result.mbps:,.1f} Mbit/s, {result.drops} drops")
    print(f"wrote {output} ({len(history)} history entries)")
    return entry


def test_engine_throughput(run_once, benchmark):
    entry = run_once(run)
    benchmark.extra_info["events"] = entry["events"]
    benchmark.extra_info["events_per_sec"] = entry["events_per_sec"]
    benchmark.extra_info["wall_s"] = entry["wall_s"]
    assert entry["events"] > 0
    assert entry["result"]["bytes_received"] > 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="xenloop")
    parser.add_argument("--msg-size", type=int, default=4096)
    parser.add_argument("--duration", type=float, default=0.5)
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--reps", type=int, default=3, help="timed reps; best wall-clock is recorded")
    parser.add_argument(
        "--data-path", choices=("auto", "fifo"), default="auto",
        help="'fifo' warms XenLoop channels up so the measured stream rides "
        "the shared-FIFO path",
    )
    args = parser.parse_args()
    run(
        args.scenario, args.msg_size, args.duration, args.output,
        reps=args.reps, data_path=args.data_path,
    )


if __name__ == "__main__":
    main()
