"""Open-loop serving cells end to end: pinned goldens, same-seed
bit-identity, and the tail-latency behaviour the scenario exists to
show (queueing under churn, FIFO vs netfront, SLO accounting).

Every value pinned here was produced by a deterministic run; a diff is
a real behaviour change (intentional changes re-pin with a comment in
the commit).  ``make serving-smoke`` runs this file before the bench
cells.
"""

import math

import pytest

from repro import scenarios, trace
from repro.report import format_engine_stats
from repro.workloads import serving

# Small, CI-sized cells -- the bench uses bigger request counts.
FIFO_KW = dict(data_path="fifo", requests=600, rate=15_000.0)
CHURN_KW = dict(data_path="fifo", requests=600, rate=15_000.0, churn=True)
NETLOSS_KW = dict(data_path="netfront", requests=400, rate=10_000.0, loss=0.01)
NETFRONT_KW = dict(data_path="netfront", requests=400, rate=10_000.0)


@pytest.fixture(scope="module")
def fifo_cell():
    return scenarios.run_serving_cell(**FIFO_KW)


@pytest.fixture(scope="module")
def churn_cell():
    return scenarios.run_serving_cell(**CHURN_KW)


@pytest.fixture(scope="module")
def netloss_cell():
    return scenarios.run_serving_cell(**NETLOSS_KW)


@pytest.fixture(scope="module")
def netfront_cell():
    return scenarios.run_serving_cell(**NETFRONT_KW)


class TestDeterminism:
    """Same seed -> bit-identical summary dict.  The arrival process,
    the churn schedule, and the loss plan's RNG are all seeded."""

    def test_fifo(self, fifo_cell):
        assert scenarios.run_serving_cell(**FIFO_KW) == fifo_cell

    def test_fifo_with_churn(self, churn_cell):
        assert scenarios.run_serving_cell(**CHURN_KW) == churn_cell

    def test_netfront_with_loss(self, netloss_cell):
        assert scenarios.run_serving_cell(**NETLOSS_KW) == netloss_cell


class TestCellGoldens:
    """``slo_violations`` is decided at completion (latency > slo), so
    the SLO puts nothing on the calendar and no ``events`` count
    includes it."""

    def test_fifo_golden(self, fifo_cell):
        assert fifo_cell == {
            "scenario": "serving",
            "data_path": "fifo",
            "arrival": "poisson",
            "requests": 600,
            "rate": 15000.0,
            "n_clients": 2,
            "churn": False,
            "loss": 0.0,
            "events": 56314,
            "offered": 600,
            "completed": 600,
            "errors": 0,
            "duration": 0.040125487,
            "throughput_rps": 14953.089,
            "p50_us": 55.909,
            "p99_us": 163.555,
            "p999_us": 422.478,
            "p50_idx": -1686,
            "p99_idx": -1493,
            "slo_violations": 0,
            "reconnects": 0,
        }

    def test_fifo_churn_golden(self, churn_cell):
        """The fault-plan variant: a client live-migrates out and back
        mid-run (FIFO teardown -> netfront fallback -> channel
        re-establishment) while a bystander crash/restarts.  The p99
        jumps three orders of magnitude over the quiet cell above and
        the requests stalled behind the migration blow the 2 ms SLO.
        Each churn rule runs in its own process, so the bystander's
        crash (20 ms) and restart (35 ms) land while the first
        migration is still in flight."""
        assert churn_cell == {
            "scenario": "serving",
            "data_path": "fifo",
            "arrival": "poisson",
            "requests": 600,
            "rate": 15000.0,
            "n_clients": 2,
            "churn": True,
            "loss": 0.0,
            "events": 62445,
            "offered": 600,
            "completed": 600,
            "errors": 0,
            "duration": 0.231067079,
            "throughput_rps": 2596.649,
            "p50_us": 55.909,
            "p99_us": 197753.906,
            "p999_us": 199707.031,
            "p50_idx": -1686,
            "p99_idx": -182,
            "slo_violations": 78,
            "reconnects": 0,
            "frames_dropped": 0,
        }

    def test_netfront_loss_golden(self, netloss_cell):
        """Forced split-driver path with 1% bridge loss: the FIFO cells
        are structurally exempt from bridge loss; here every request
        crosses the bridge twice and retransmission delays land in the
        tail."""
        assert netloss_cell == {
            "scenario": "serving",
            "data_path": "netfront",
            "arrival": "poisson",
            "requests": 400,
            "rate": 10000.0,
            "n_clients": 2,
            "churn": False,
            "loss": 0.01,
            "events": 62687,
            "offered": 400,
            "completed": 400,
            "errors": 0,
            "duration": 0.615966595,
            "throughput_rps": 649.386,
            "p50_us": 390.053,
            "p99_us": 576171.875,
            "p999_us": 576171.875,
            "p50_idx": -1332,
            "p99_idx": 19,
            "slo_violations": 172,
            "reconnects": 0,
            "frames_dropped": 21,
        }


class TestServingBehavior:
    """The shapes the scenario exists to show, asserted as inequalities
    so they survive re-pinning."""

    def test_fifo_beats_netfront_latency(self, fifo_cell, netfront_cell):
        # The paper's story at the median and in the tail: the
        # shared-memory FIFO skips Dom0 and the bridge both ways.
        assert fifo_cell["p50_us"] < netfront_cell["p50_us"] / 3
        assert fifo_cell["p99_us"] < netfront_cell["p99_us"]

    def test_churn_inflates_tail_not_median(self, fifo_cell, churn_cell):
        # The migration stall lives in the tail; the median request
        # never sees it.
        assert churn_cell["p99_us"] > 100 * fifo_cell["p99_us"]
        assert churn_cell["p50_us"] == pytest.approx(fifo_cell["p50_us"], rel=0.05)
        assert churn_cell["slo_violations"] > 0
        assert fifo_cell["slo_violations"] == 0

    def test_all_cells_complete_every_request(
        self, fifo_cell, churn_cell, netloss_cell
    ):
        for cell in (fifo_cell, churn_cell, netloss_cell):
            assert cell["completed"] == cell["offered"] == cell["requests"]


class TestChurnPlan:
    def test_churn_rules_migrate_out_and_back_and_restart_bystander(self):
        """The churn cell's plan on its own: three time-anchored rules,
        all fired, the bystander restarted and the client home again."""
        from repro.faults import FaultPlan
        from repro.scenarios.serving import serving_churn_schedule

        scn = scenarios.xenloop_serving(churn=True)
        scn.warmup()
        spare = scn.guests["spare"]
        FaultPlan(serving_churn_schedule("c1")).bind(scn)
        scn.sim.run(until=scn.sim.now + 0.100)
        faults = trace.engine_stats(scn.sim)["faults"]
        assert faults["injected"] == {"crash": 1, "migrate": 2}
        assert faults["recovered"] == {"guest_restart": 1}
        assert scn.guests["c1"].machine is scn.machines_by_name["xenhost"]
        assert scn.guests["spare"] is not spare and scn.guests["spare"].alive


class TestSloCount:
    """One SLO count, decided at completion: it never changes timing,
    and a request counts only when its latency is strictly over."""

    def test_slo_changes_only_the_violation_count(self):
        kw = dict(data_path="fifo", requests=300, rate=15_000.0)
        loose = scenarios.run_serving_cell(slo=0.002, **kw)
        tight = scenarios.run_serving_cell(slo=50e-6, **kw)
        assert loose["slo_violations"] == 0 < tight["slo_violations"]
        del loose["slo_violations"], tight["slo_violations"]
        assert loose == tight  # ``events`` included

    def test_violation_is_strictly_over_the_slo(self):
        def run(slo):
            scn = scenarios.xenloop_serving()
            scn.warmup()
            return serving.open_loop_rr(
                scn, server="srv", clients=["c1", "c2"], requests=100, slo=slo
            )

        worst = run(0.002).probe.hist.max
        at_max = run(worst)
        assert at_max.probe.hist.max == worst
        assert at_max.slo_violations == 0
        assert run(math.nextafter(worst, 0)).slo_violations >= 1


class TestArguments:
    @pytest.mark.parametrize("slo", [0, -1e-3, math.nan, math.inf])
    def test_bad_slo_rejected_before_any_work(self, slo):
        scn = scenarios.xenloop_serving()
        events = scn.sim.event_count
        with pytest.raises(ValueError, match="slo"):
            serving.open_loop_rr(scn, server="srv", clients=["c1"], slo=slo)
        assert scn.sim.event_count == events

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_pareto_alpha_without_finite_mean_rejected(self, alpha):
        # alpha <= 1 has no finite mean gap: the same-mean scale factor
        # goes to zero or below and every arrival would land at t=0.
        scn = scenarios.xenloop_serving()
        with pytest.raises(ValueError, match="pareto_alpha"):
            serving.open_loop_rr(
                scn, server="srv", clients=["c1"], arrival="pareto", pareto_alpha=alpha
            )


class TestStatsPlumbing:
    """engine_stats / report integration on a live simulator."""

    def test_engine_stats_and_report_lines(self):
        scn = scenarios.xenloop_serving()
        scn.warmup()
        serving.open_loop_rr(scn, server="srv", clients=["c1", "c2"], requests=200)
        stats = trace.engine_stats(scn.sim)
        assert stats["serving"]["offered"] == 200
        assert stats["serving"]["completed"] == 200
        rendered = format_engine_stats(stats)
        assert "serving: offered=200" in rendered
