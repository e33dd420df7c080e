"""Control-plane scaling bench: the thousand-guest cluster.

Not a paper figure: the paper's evaluation stops at a handful of
guests, but the roadmap's north star is a control plane that survives
three orders of magnitude more.  This bench builds reduced and full
variants of the ``xenloop_bigcluster`` scenario (delta discovery,
sparse rosters, per-guest channel budget) and prints, per guest
count:

* engine events/sec over build + warmup + churn (the control plane IS
  the workload here -- there is no bulk data stream);
* control-plane message counts (scans, delta/full-sync frames, WhoIs
  queries) so O(changes)-per-scan behaviour is visible in the output;
* peak RSS, measured in a **forked child per size** so each figure is
  the high-water mark of exactly one cluster, not of the largest one
  measured earlier in the same process.

Run standalone (the full sweep, one line printed per size)::

    PYTHONPATH=src python benchmarks/bench_cluster_scale.py

or as the CI smoke (`make bigcluster-smoke`): a single ~100-guest run
that asserts the scale invariants -- control frames O(1) per scan
(so total receptions are O(n), where announce mode would be O(n^2)),
channel tables bounded by the budget, sparse per-guest mappings --
and exits nonzero when any fails::

    PYTHONPATH=src python benchmarks/bench_cluster_scale.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

DEFAULT_SIZES = (100, 300, 1000)

#: Discovery period for the bench (seconds, simulated).  The churn
#: schedule fires at t=0.5..1.5 s, so the default 5 s paper period
#: would batch every churn event into one scan; 0.2 s gives the
#: scanner a realistic chance to observe each change separately.
BENCH_DISCOVERY_PERIOD = 0.2


def _measure(n_guests: int, settle: float, seed: int) -> dict:
    """Build + warm up + churn one bigcluster; return the raw figures.

    Runs inside the forked child (see :func:`_measure_forked`) so the
    returned ``peak_rss_kb`` is this cluster's high-water mark alone.
    """
    from repro.calibration import DEFAULT_COSTS
    from repro.scenarios import bigcluster_spec

    costs = DEFAULT_COSTS.replace(discovery_period=BENCH_DISCOVERY_PERIOD)
    t0 = time.perf_counter()
    scn = bigcluster_spec(n_guests=n_guests).build(costs, seed=seed)
    build_wall = time.perf_counter() - t0
    scn.warmup()
    scn.run_churn(settle=settle)
    wall = time.perf_counter() - t0

    budgets = [
        module.channel_budget
        for module in scn.modules.values()
        if module.channel_budget is not None
    ]
    channels_max = max(len(m.channels) for m in scn.modules.values())
    mapping_max = max(len(m.mapping) for m in scn.modules.values())
    control = {
        "scans": sum(d.scans for d in scn.discoveries),
        "frames": sum(d.announcements_sent for d in scn.discoveries),
        "deltas": sum(d.deltas_sent for d in scn.discoveries),
        "full_syncs": sum(d.full_syncs_sent for d in scn.discoveries),
        "quiescent_scans": sum(d.quiescent_scans for d in scn.discoveries),
        "whois_sent": sum(m.control.whois_sent for m in scn.modules.values()),
        "whois_answered": sum(d.whois_answered for d in scn.discoveries),
    }
    return {
        "n_guests": n_guests,
        "machines": len(scn.machines),
        "events": scn.sim.event_count,
        "sim_time": round(scn.sim.now, 4),
        "build_wall_s": round(build_wall, 4),
        "wall_s": round(wall, 4),
        "events_per_sec": round(scn.sim.event_count / wall, 1) if wall > 0 else 0.0,
        "control": control,
        "channels_max": channels_max,
        "channel_budget": max(budgets) if budgets else None,
        "mapping_max": mapping_max,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _measure_forked(n_guests: int, settle: float, seed: int) -> dict:
    """Run :func:`_measure` in a forked child, piping the result back.

    A fresh child per size keeps ``ru_maxrss`` honest: the counter is a
    process-lifetime high-water mark, so measuring three cluster sizes
    in one process would report the largest cluster's footprint for all
    of them.  Falls back to in-process measurement where ``os.fork`` is
    unavailable.
    """
    if not hasattr(os, "fork"):
        entry = _measure(n_guests, settle, seed)
        entry["rss_shared_process"] = True
        return entry

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(_measure(n_guests, settle, seed)).encode()
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
        raise RuntimeError(
            f"cluster-scale child (n_guests={n_guests}) died without a result"
        )
    return json.loads(b"".join(chunks))


def check_scale_invariants(measured: dict) -> list[str]:
    """The smoke assertions: O(changes) discovery, bounded channels.

    Returns a list of human-readable violations (empty = all good).
    """
    problems = []
    control = measured["control"]
    n_machines = measured["machines"]
    # Delta discovery sends at most one RosterDelta plus one FullSync
    # per scan per machine: O(1) frames per scan, so total receptions
    # are O(n) over the run.  Announce mode sends one frame per guest
    # per scan (each flooded machine-wide): O(n) frames, O(n^2)
    # receptions.  The factor-2 bound cleanly separates the regimes for
    # any cluster bigger than a handful of guests.
    frame_ceiling = 2 * control["scans"] + n_machines
    if control["frames"] > frame_ceiling:
        problems.append(
            f"control frames not O(changes): {control['frames']} frames for "
            f"{control['scans']} scans (ceiling {frame_ceiling}; announce mode "
            f"would send ~{measured['n_guests'] // n_machines} per scan)"
        )
    if control["quiescent_scans"] == 0:
        problems.append(
            "no quiescent scans observed -- the empty-delta fast path never ran"
        )
    budget = measured["channel_budget"]
    if budget is not None and measured["channels_max"] > budget:
        problems.append(
            f"channel table exceeded budget: {measured['channels_max']} > {budget}"
        )
    # Sparse rosters: a guest resolves only the peers it talks to.
    if measured["mapping_max"] >= measured["n_guests"] // 2:
        problems.append(
            f"guest mapping not sparse: {measured['mapping_max']} entries for "
            f"{measured['n_guests']} guests"
        )
    return problems


def run(
    sizes: tuple[int, ...] = DEFAULT_SIZES, settle: float = 2.0, seed: int = 7
) -> list[dict]:
    """Measure every size in a fresh child and print one line per size."""
    entries = []
    for n_guests in sizes:
        measured = _measure_forked(n_guests, settle, seed)
        entries.append(measured)
        control = measured["control"]
        print(
            f"n={n_guests:>5}: {measured['events']:,} events in "
            f"{measured['wall_s']:.2f}s ({measured['events_per_sec']:,.0f}/s), "
            f"{control['frames']} ctrl frames / {control['scans']} scans "
            f"({control['quiescent_scans']} quiescent), "
            f"channels<= {measured['channels_max']}, "
            f"peak RSS {measured['peak_rss_kb'] / 1024:.0f} MB"
        )
    return entries


def run_smoke(n_guests: int = 100) -> int:
    """The CI smoke: one reduced-size run gated on the scale invariants."""
    entries = run(sizes=(n_guests,))
    problems = check_scale_invariants(entries[0])
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        control = entries[0]["control"]
        print(
            f"OK: {control['frames']} control frames over {control['scans']} "
            f"scans at n={n_guests} -- O(changes) per scan, channels bounded"
        )
    return 1 if problems else 0


def test_cluster_scale(run_once, benchmark):
    entries = run_once(lambda: run(sizes=(100,), settle=1.0))
    entry = entries[0]
    benchmark.extra_info["events_per_sec"] = entry["events_per_sec"]
    benchmark.extra_info["control_frames"] = entry["control"]["frames"]
    benchmark.extra_info["peak_rss_kb"] = entry["peak_rss_kb"]
    assert not check_scale_invariants(entry)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="guest counts to sweep (default: 100 300 1000)",
    )
    parser.add_argument("--settle", type=float, default=2.0,
                        help="simulated seconds to run past the last churn action")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--smoke", action="store_true",
        help="single ~100-guest run asserting the scale invariants "
        "(exit 1 on violation)",
    )
    args = parser.parse_args()
    if args.smoke:
        return run_smoke()
    run(tuple(args.sizes), args.settle, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
