"""Figure 11: TCP request-response transactions/sec during live migration.

Two guests on different machines run netperf TCP_RR; one migrates onto
the other's machine (rate jumps once discovery + channel bootstrap
complete) and later migrates away (rate returns to the inter-machine
level).  The paper measures roughly 5,500 trans/s apart and 21,000
trans/s together.
"""

from repro import report
from repro.experiments import fig11_migration

from _bench_utils import emit


def test_fig11_migration_timeline(run_once, benchmark):
    res = run_once(fig11_migration)
    rates = res.rates()
    times = [round(t, 2) for t, _ in rates]
    values = [v for _, v in rates]
    text = report.format_series(
        "Fig. 11: TCP_RR transactions/sec during migration "
        f"(migrate in at t={res.migrate_in_at:.1f}s, away at t={res.migrate_away_at:.1f}s)",
        "time_s",
        times,
        {"trans/sec": values},
        precision=0,
    )
    emit("fig11_migration", text)

    def mean_rate(t0, t1):
        vals = [v for t, v in rates if t0 <= t <= t1]
        return sum(vals) / len(vals)

    apart_before = mean_rate(1.0, res.migrate_in_at)
    together = mean_rate(res.migrate_in_at + 3.0, res.migrate_away_at)
    apart_after = mean_rate(res.migrate_away_at + 2.0, rates[-1][0])
    benchmark.extra_info["apart_before"] = round(apart_before)
    benchmark.extra_info["together"] = round(together)
    benchmark.extra_info["apart_after"] = round(apart_after)
    # Paper shape: ~4x jump when co-resident, reverse after leaving.
    assert together > 2.5 * apart_before
    assert apart_after < together / 2
