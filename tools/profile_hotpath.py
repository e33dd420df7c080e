"""Reproduce the simulation-engine hot-path profile on demand.

Runs the engine-throughput workload (``udp_stream`` on a scenario) under
cProfile and prints the hottest functions, the view that motivated the
fast-path work: immediate run queue, allocation-free resume, single-shot
CPU completions, and batched cost charging.  A serialization-cost
breakdown (pack/parse/copy time) follows the profile, attributing the
packet data path's share of the wall, and then the run's counters as
rendered by :func:`repro.report.format_engine_stats`.

Usage::

    PYTHONPATH=src python tools/profile_hotpath.py
    PYTHONPATH=src python tools/profile_hotpath.py --duration 0.1 --sort cumulative
    PYTHONPATH=src python tools/profile_hotpath.py -o hotpath.pstats  # for snakeviz etc.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time

from repro import report, scenarios, trace
from repro.net.packet import WIRE_STATS
from repro.workloads import netperf, serving
from repro.xen.event_channel import NOTIFY_STATS

#: (bucket, filename substring, function-name substrings): how profiled
#: functions map onto the serialization-cost categories.
_SER_BUCKETS = (
    ("pack", "net/packet.py", ("to_bytes", "to_l3_bytes", "to_l3_parts", "_pack")),
    ("parse", "net/packet.py", ("from_bytes", "from_l3_bytes")),
    ("copy", "core/fifo.py", ("push", "pop", "peek_view", "_write_stream")),
)


def serialization_breakdown(ps: pstats.Stats, wall: float) -> str:
    """Aggregate profiled tottime into pack/parse/copy buckets."""
    totals = {name: 0.0 for name, _, _ in _SER_BUCKETS}
    for (filename, _lineno, funcname), (_cc, _nc, tottime, _ct, _callers) in ps.stats.items():
        for bucket, file_part, fn_parts in _SER_BUCKETS:
            if file_part in filename and any(p in funcname for p in fn_parts):
                totals[bucket] += tottime
                break
    lines = ["serialization cost breakdown:"]
    total = sum(totals.values())
    for bucket in totals:
        share = 100.0 * totals[bucket] / wall if wall else 0.0
        lines.append(f"  {bucket:>5}: {totals[bucket] * 1e3:8.1f} ms  ({share:4.1f}% of wall)")
    lines.append(
        f"  total: {total * 1e3:8.1f} ms  ({100.0 * total / wall if wall else 0.0:4.1f}% of wall)"
    )
    return "\n".join(lines)


#: (bucket, filename substring): where a serving run's tottime lands --
#: the arrival generator + workers, the network stack, and the engine's
#: calendar loop.
_SERVING_BUCKETS = (
    ("workload", "workloads/serving.py"),
    ("net-stack", "/net/"),
    ("engine", "sim/engine.py"),
)


def serving_breakdown(ps: pstats.Stats, wall: float) -> str:
    """Aggregate profiled tottime into the serving-path buckets."""
    totals = {name: 0.0 for name, _ in _SERVING_BUCKETS}
    for (filename, _lineno, _funcname), (_cc, _nc, tottime, _ct, _callers) in ps.stats.items():
        for bucket, file_part in _SERVING_BUCKETS:
            if file_part in filename:
                totals[bucket] += tottime
                break
    lines = ["serving cost breakdown:"]
    for bucket, total in totals.items():
        share = 100.0 * total / wall if wall else 0.0
        lines.append(f"  {bucket:>11}: {total * 1e3:8.1f} ms  ({share:4.1f}% of wall)")
    return "\n".join(lines)


def profile_serving(args) -> None:
    """The open-loop serving variant: profile one ``xenloop_serving``
    cell and attribute the wall to workload / stack / engine -- the view
    that shows the workload and its streaming histogram staying out of
    the way at high request rates."""
    data_path = args.scenario if args.scenario in ("fifo", "netfront") else "fifo"
    WIRE_STATS.reset()
    NOTIFY_STATS.reset()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    scn = scenarios.xenloop_serving(data_path=data_path)
    scn.warmup()
    result = serving.open_loop_rr(
        scn, server="srv", clients=["c1", "c2"], requests=args.requests, rate=args.rate
    )
    profiler.disable()
    wall = time.perf_counter() - t0

    print(
        f"xenloop_serving data_path={data_path} "
        f"requests={args.requests:,} rate={args.rate:,.0f}/s: "
        f"p50={result.p50_us:.1f}us  p99={result.p99_us:.1f}us  "
        f"p999={result.p999_us:.1f}us  slo_viol={result.slo_violations}\n"
    )
    ps = pstats.Stats(profiler)
    ps.sort_stats(args.sort).print_stats(args.limit)
    print(serving_breakdown(ps, wall))
    print()
    print(report.format_engine_stats(trace.engine_stats(scn.sim, wall_s=wall)))
    if args.output:
        ps.dump_stats(args.output)
        print(f"raw profile written to {args.output}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="xenloop")
    parser.add_argument("--msg-size", type=int, default=4096)
    parser.add_argument("--duration", type=float, default=0.5)
    parser.add_argument(
        "--sort", default="tottime", choices=["tottime", "cumulative", "ncalls"]
    )
    parser.add_argument("--limit", type=int, default=25, help="rows to print")
    parser.add_argument(
        "--warm", action="store_true",
        help="run scenario warmup (XenLoop channels connected) before the "
        "stream; the warmup wall lands in the setup share of the split",
    )
    parser.add_argument("-o", "--output", help="also dump raw pstats to this file")
    parser.add_argument(
        "--serving", action="store_true",
        help="profile an open-loop xenloop_serving cell instead of the "
        "udp_stream workload (use --scenario fifo|netfront, --requests, --rate)",
    )
    parser.add_argument(
        "--requests", type=int, default=5000,
        help="request count for --serving (default: 5000)",
    )
    parser.add_argument(
        "--rate", type=float, default=20000.0,
        help="offered load in req/s for --serving (default: 20000)",
    )
    args = parser.parse_args()

    if args.serving:
        profile_serving(args)
        return

    WIRE_STATS.reset()
    NOTIFY_STATS.reset()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    scn = scenarios.build(args.scenario)
    if args.warm:
        scn.warmup()
    setup_wall = time.perf_counter() - t0
    result = netperf.udp_stream(scn, msg_size=args.msg_size, duration=args.duration)
    profiler.disable()
    wall = time.perf_counter() - t0

    stats = trace.engine_stats(scn.sim, wall_s=wall)
    print(
        f"{args.scenario} udp_stream msg_size={args.msg_size} "
        f"duration={args.duration}: {result.mbps:,.1f} Mbit/s simulated"
    )
    print(
        f"{stats['events']:,} events in {wall:.2f}s wall "
        f"= {stats['events_per_sec']:,.0f} events/s"
    )
    # Setup vs measured split: how much of the wall is build (+warmup)
    # rather than the measured stream.
    measured_wall = wall - setup_wall
    setup_what = "build+warmup" if args.warm else "build"
    print(
        f"wall split: setup ({setup_what}) {setup_wall:.3f}s "
        f"({100.0 * setup_wall / wall if wall else 0.0:.1f}%) vs "
        f"measured stream {measured_wall:.3f}s "
        f"({100.0 * measured_wall / wall if wall else 0.0:.1f}%)\n"
    )
    ps = pstats.Stats(profiler)
    ps.sort_stats(args.sort).print_stats(args.limit)
    print(serialization_breakdown(ps, wall))
    print()
    print(report.format_engine_stats(stats))
    if args.output:
        ps.dump_stats(args.output)
        print(f"raw profile written to {args.output}")


if __name__ == "__main__":
    main()
