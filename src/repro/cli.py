"""Command-line interface: regenerate the paper's headline results
without pytest.

Usage::

    python -m repro list
    python -m repro ping [scenario]
    python -m repro tables              # Tables 1-3 in one run
    python -m repro fig11               # migration timeline
    python -m repro bypass              # future-work socket bypass
    python -m repro faults              # fault-injection matrix sweep
    python -m repro snapshot save ...   # checkpoint a built simulator
    python -m repro snapshot replay ... # replay a checkpoint N times
"""

from __future__ import annotations

import argparse
import inspect

from repro import experiments, report, scenarios
from repro.experiments import SCENARIO_ORDER
from repro.workloads import pingpong


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _warm(name: str, **kwargs):
    scn = scenarios.build(name, **kwargs)
    scn.warmup()
    return scn


def cmd_list(_args) -> int:
    """List scenarios and available commands."""
    print("scenarios:")
    print(report.scenario_catalog())
    print("\ncommands: list, ping, tables, fig11, bypass, trace, faults, snapshot")
    print("full benchmark harness: pytest benchmarks/ --benchmark-only -s")
    return 0


def cmd_ping(args) -> int:
    """Flood-ping one scenario or all four."""
    names = [args.scenario] if args.scenario else SCENARIO_ORDER
    for name in names:
        scn = _warm(name)
        res = pingpong.flood_ping(scn, count=args.count)
        print(f"{name:20s} {res.rtt_us:8.1f} us RTT  "
              f"(min {res.min_us:.1f}, max {res.max_us:.1f}, {res.count} pings)")
    return 0


def cmd_tables(_args) -> int:
    """Measure Tables 1-3 at the benches' sizes; prints exactly
    ``benchmarks/results/table2_bandwidth.txt`` and ``table3_latency.txt``."""
    for table in experiments.TABLES:
        print(experiments.render(table, experiments.measure(table)))
    return 0


def cmd_fig11(_args) -> int:
    """Print the Fig. 11 migration timeline as ASCII."""
    res = experiments.fig11_migration()
    peak = max(v for _t, v in res.rates())
    for t, rate in res.rates():
        print(f"{t:6.1f}s {rate:8.0f} trans/s  {'#' * int(40 * rate / peak)}")
    print(f"\nmigrate in at t={res.migrate_in_at:.1f}s, away at t={res.migrate_away_at:.1f}s")
    return 0


def cmd_trace(args) -> int:
    """Print a traced ping's hop-by-hop timeline per scenario."""
    from repro import trace

    names = [args.scenario] if args.scenario else SCENARIO_ORDER
    for name in names:
        scn = _warm(name)
        records = trace.traced_ping(scn)
        print(f"\n{name}: echo-request hop timeline")
        prev = 0.0
        for stage, t_us in records:
            print(f"  {t_us:8.2f} us  (+{t_us - prev:6.2f})  {stage}")
            prev = t_us
    return 0


def cmd_bypass(_args) -> int:
    """Compare the shipped design against the future-work socket bypass."""
    print(experiments.render_bypass(experiments.socket_bypass()))
    return 0


def cmd_faults(args) -> int:
    """Run the fault-injection matrix; nonzero exit on any failed cell."""
    from repro.scenarios.fault_matrix import run_fault_matrix

    results = run_fault_matrix(seed=args.seed)
    print(report.format_fault_matrix(results))
    return 0 if all(r["ok"] for r in results) else 1


def _cell(name: str):
    """The fault-matrix cell called ``name`` (exits on an unknown name)."""
    from repro.scenarios.fault_matrix import matrix_cells

    cells = {c.name: c for c in matrix_cells()}
    if name not in cells:
        raise SystemExit(f"unknown fault cell {name!r}; choose from {sorted(cells)}")
    return cells[name]


def _snapshot_recipe(args) -> dict:
    """Translate the ``snapshot save`` flags into a rebuild recipe."""
    from repro.scenarios.fault_matrix import MATRIX_COSTS
    from repro.sim.snapshot import scenario_recipe

    if args.cell:
        return scenario_recipe(
            "fault_matrix", MATRIX_COSTS, seed=args.seed, kwargs=_cell(args.cell).pair_kwargs
        )
    warm = {"max_wait": 30.0} if args.warm else None
    return scenario_recipe(args.scenario, seed=args.seed, warm=warm)


def cmd_snapshot(args) -> int:
    """Checkpoint tooling: save/restore/replay/inspect a built simulator.

    ``save`` builds from a recipe (a registered scenario, or the
    ``fault_matrix`` pair a ``--cell`` runs on) and writes the
    digest-carrying manifest; ``restore`` replays the recipe and
    verifies the digest; ``replay`` restores N times and runs
    the named fault cell (or a short UDP probe) on each digest-verified
    replay, checking the runs are bit-identical -- the time-travel loop
    for debugging a failing cell; and ``inspect`` prints the captured
    state summary without rebuilding.
    """
    from repro.sim.snapshot import SimSnapshot

    if args.action == "save":
        recipe = _snapshot_recipe(args)
        from repro.sim.snapshot import build_from_recipe

        cluster = build_from_recipe(recipe)
        snap = SimSnapshot.capture(cluster, recipe=recipe, label=args.label)
        snap.save(args.out)
        print(snap.inspect())
        print(f"saved {args.out}")
        return 0

    snap = SimSnapshot.load(args.path)
    if args.action == "inspect":
        print(snap.inspect())
        return 0

    if args.action == "restore":
        snap.restore()
        print(f"restore OK: digest {snap.digest[:16]}... verified by replay")
        print(snap.inspect())
        return 0

    # replay: N digest-verified restores, probe results must be identical.
    recipe = snap.recipe or {}
    seed = recipe.get("seed", 0)
    if recipe.get("name") == "fault_matrix":
        from repro.scenarios.fault_matrix import _run_cell_on, fault_matrix, matrix_cells

        name = args.cell or matrix_cells()[0].name
        cell = _cell(name)
        # A recipe saved with --scenario fault_matrix has no kwargs: it
        # holds the builder's defaults.
        params = inspect.signature(fault_matrix).parameters
        kwargs = recipe.get("kwargs") or {}
        built = {k: kwargs.get(k, params[k].default) for k in cell.pair_kwargs}
        need = {k: v for k, v in cell.pair_kwargs.items() if built[k] != v}
        if need:
            had = {k: built[k] for k in need}
            raise SystemExit(
                f"cell {name!r} needs the pair built with {need}, but the "
                f"snapshot's pair has {had}"
            )

        def probe(cluster):
            return _run_cell_on(cluster, cell, seed)

        what = f"fault cell {name!r}"
    else:

        def probe(cluster):
            from repro.workloads import netperf as np

            res = np.udp_stream(cluster, msg_size=4096, duration=0.02)
            return {
                "bytes_received": res.bytes_received,
                "mbps": res.mbps,
                "messages_sent": res.messages_sent,
                "drops": res.drops,
            }

        what = "udp_stream probe"

    runs = [probe(snap.restore()) for _ in range(args.runs)]
    print(f"restore OK: digest {snap.digest[:16]}... verified by {args.runs} replays")
    for i, r in enumerate(runs):
        print(f"run {i}: {r}")
    if all(r == runs[0] for r in runs[1:]):
        print(f"{args.runs} replayed runs of the {what}: bit-identical")
        return 0
    print(f"DIVERGENCE across replayed runs of the {what}")
    return 1


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="XenLoop reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list scenarios and commands")
    ping = sub.add_parser("ping", help="flood-ping one or all scenarios")
    ping.add_argument("scenario", nargs="?", choices=list(scenarios.SCENARIO_BUILDERS))
    ping.add_argument("--count", type=_positive_int, default=100)
    sub.add_parser("tables", help="Tables 1-3 in one run")
    sub.add_parser("fig11", help="migration timeline (Fig. 11)")
    sub.add_parser("bypass", help="future-work socket bypass comparison")
    tr = sub.add_parser("trace", help="hop-by-hop ping timeline per path")
    tr.add_argument("scenario", nargs="?", choices=list(scenarios.SCENARIO_BUILDERS))
    flt = sub.add_parser("faults", help="fault-injection matrix sweep")
    flt.add_argument("--seed", type=int, default=0)
    snp = sub.add_parser(
        "snapshot", help="checkpoint tooling: save/restore/replay/inspect"
    )
    snp_sub = snp.add_subparsers(dest="action", required=True)
    save = snp_sub.add_parser("save", help="build from a recipe and checkpoint it")
    save.add_argument("--scenario", default="xenloop",
                      choices=list(scenarios.SCENARIO_BUILDERS))
    save.add_argument("--cell", default=None,
                      help="checkpoint the fault_matrix pair this cell runs "
                      "on instead")
    save.add_argument("--seed", type=int, default=0)
    save.add_argument("--warm", action="store_true",
                      help="run warmup (channels connected) before capturing")
    save.add_argument("--label", default="")
    save.add_argument("--out", required=True, help="manifest path to write")
    for action, hlp in (
        ("restore", "replay the recipe and verify the digest"),
        ("replay", "restore N times and check the runs are bit-identical"),
        ("inspect", "print the captured state summary"),
    ):
        p = snp_sub.add_parser(action, help=hlp)
        p.add_argument("path", help="manifest written by 'snapshot save'")
        if action == "replay":
            p.add_argument("--runs", type=int, default=2)
            p.add_argument("--cell", default=None,
                           help="fault cell to replay (fault_matrix snapshots)")

    args = parser.parse_args(argv)
    handlers = {
        "list": cmd_list,
        "ping": cmd_ping,
        "tables": cmd_tables,
        "fig11": cmd_fig11,
        "bypass": cmd_bypass,
        "trace": cmd_trace,
        "faults": cmd_faults,
        "snapshot": cmd_snapshot,
    }
    if args.command is None:
        parser.print_help()
        return 2
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
