"""Congestion cells end to end: pinned goldens, same-seed bit-identity,
the ACK-drop livelock regression, and RTO recovery under migration.

Every value pinned here was produced by a deterministic run; a diff is
a real behaviour change (intentional changes re-pin with a comment in
the commit).  ``make congestion-smoke`` runs this file before the
bench cells.
"""

import pytest

from repro import scenarios
from repro.faults import PKT_LOSS, FaultPlan, FaultRule
from repro.workloads import congestion
from repro.xen.migration import live_migrate

# Small, CI-sized cells -- the bench uses bigger transfers.
INCAST_BYTES = 1 << 17
FAIRNESS_DURATION = 0.05


class TestDeterminism:
    """Same seed -> bit-identical summary dict, loss included (the
    fault plan's RNG is seeded per plan, not global)."""

    def test_incast_fifo(self):
        a = scenarios.run_incast_cell(data_path="fifo", bytes_per_flow=INCAST_BYTES)
        b = scenarios.run_incast_cell(data_path="fifo", bytes_per_flow=INCAST_BYTES)
        assert a == b

    def test_incast_netfront_with_loss(self):
        a = scenarios.run_incast_cell(
            data_path="netfront", loss=0.02, bytes_per_flow=INCAST_BYTES
        )
        b = scenarios.run_incast_cell(
            data_path="netfront", loss=0.02, bytes_per_flow=INCAST_BYTES
        )
        assert a == b

    def test_fairness_netfront_with_loss(self):
        a = scenarios.run_fairness_cell(
            data_path="netfront", loss=0.01, duration=FAIRNESS_DURATION
        )
        b = scenarios.run_fairness_cell(
            data_path="netfront", loss=0.01, duration=FAIRNESS_DURATION
        )
        assert a == b


class TestCellGoldens:
    def test_incast_fifo_golden(self):
        got = scenarios.run_incast_cell(
            data_path="fifo", bytes_per_flow=INCAST_BYTES
        )
        assert got == {
            "scenario": "incast",
            "data_path": "fifo",
            "loss": 0.0,
            "n_flows": 4,
            "duration": 0.002226619,
            "events": 3580,
            "aggregate_mbps": 1883.71,
            "fairness": 0.952657,
            "retransmissions": 0,
            "fast_retransmits": 0,
            "rto_retransmits": 0,
            "tcp": {
                "conns": 8,
                "backlog_drops": 0,
                "rsts_sent": 0,
                "retransmissions": 0,
                "fast_retransmits": 0,
                "rto_retransmits": 0,
                "dup_acks": 0,
                "dup_segments": 0,
            },
        }

    def test_incast_netfront_loss_golden(self):
        """2% bridge loss on the netfront path: the FIFO cell above is
        structurally exempt (XenLoop traffic never crosses the bridge);
        here the same transfer pays real retransmissions."""
        got = scenarios.run_incast_cell(
            data_path="netfront", loss=0.02, bytes_per_flow=INCAST_BYTES
        )
        assert got == {
            "scenario": "incast",
            "data_path": "netfront",
            "loss": 0.02,
            "n_flows": 4,
            "duration": 0.401048942,
            "events": 4111,
            "aggregate_mbps": 10.458,
            "fairness": 0.746875,
            "retransmissions": 2,
            "fast_retransmits": 0,
            "rto_retransmits": 2,
            "tcp": {
                "conns": 8,
                "backlog_drops": 0,
                "rsts_sent": 0,
                "retransmissions": 2,
                "fast_retransmits": 0,
                "rto_retransmits": 2,
                "dup_acks": 1,
                "dup_segments": 0,
            },
            "frames_dropped": 3,
        }

    def test_fairness_netfront_loss_golden(self):
        got = scenarios.run_fairness_cell(
            data_path="netfront", loss=0.01, duration=FAIRNESS_DURATION
        )
        assert got == {
            "scenario": "fairness",
            "data_path": "netfront",
            "loss": 0.01,
            "n_flows": 5,
            "duration": 0.253794937,
            "elephant_mbps": 261.839,
            "mice_mbps": 12.911,
            "fairness_elephants": 0.67905,
            "events": 65617,
            "aggregate_mbps": 0.0,
            "fairness": 0.315582,
            "retransmissions": 10,
            "fast_retransmits": 7,
            "rto_retransmits": 2,
            "tcp": {
                "conns": 10,
                "backlog_drops": 0,
                "rsts_sent": 0,
                "retransmissions": 11,
                "fast_retransmits": 7,
                "rto_retransmits": 3,
                "dup_acks": 137,
                "dup_segments": 0,
            },
            "frames_dropped": 23,
        }

    def test_fifo_path_nearly_loss_immune(self):
        """A loss plan scoped to the bridge cannot touch steady-state
        FIFO traffic -- only the bootstrap window is exposed, while TCP
        crosses the bridge before the XenLoop channels connect.  At 2%
        exactly one early frame dies (one RTO recovers it); the
        netfront cell pays 3 drops on the same transfer."""
        lossy = scenarios.run_incast_cell(
            data_path="fifo", loss=0.02, bytes_per_flow=INCAST_BYTES
        )
        assert lossy["frames_dropped"] == 1  # bootstrap-era frame only
        assert lossy["retransmissions"] == 1
        assert lossy["rto_retransmits"] == 1
        # Steady state rides the FIFO: still an order of magnitude
        # faster than the lossy netfront cell's 10.5 Mbit/s.
        assert lossy["aggregate_mbps"] > 20.0


class TestAckDropRegression:
    """The PR's headline bugfix, end to end on the bridge path: drop
    the close sequence's final pure ACK via the fault plan.  The sink
    is left in LAST_ACK; its FIN retransmission must draw a RST from
    the peer's demux miss and stop -- not go-back-N into the void once
    per RTO forever."""

    def _run(self, skip):
        scn = scenarios.xenloop_incast(n_senders=1, data_path="netfront")
        plan = FaultPlan(
            [
                FaultRule(
                    kind=PKT_LOSS,
                    message="tcp_ack",
                    guest="xenhost",
                    skip=skip,
                    times=1,
                )
            ],
            seed=0,
        ).bind(scn)
        scn.warmup()
        result = congestion.tcp_incast(
            scn, server="sink", senders=["src1"], bytes_per_flow=1 << 16
        )
        # The workload returns on the sender's close; keep the world
        # running so the abandoned sink side plays out its recovery.
        scn.sim.run(until=scn.sim.now + 1.0)  # 5 RTOs
        return scn, plan, result

    def test_final_ack_drop_converges_with_one_retransmission(self):
        # This 64 KiB transfer crosses the bridge with exactly 8 pure
        # ACKs; skip=7 kills the last one -- the sender's ACK of the
        # sink's FIN (re-pin the skip if the traffic pattern changes).
        scn, plan, result = self._run(skip=7)
        assert plan.injected[PKT_LOSS] == 1
        assert result.flows[0].bytes == 1 << 16  # payload unharmed
        sink = scn.guests["sink"].stack.tcp
        src = scn.guests["src1"].stack.tcp
        # Exactly one FIN retransmission at the RTO, answered by RST.
        assert sink.congestion_totals()["retransmissions"] == 1
        assert sink.congestion_totals()["rto_retransmits"] == 1
        assert src.congestion_totals()["rsts_sent"] == 1
        # No livelock leftovers: both demux tables fully drained.
        assert not sink.connections
        assert not src.connections

    def test_midstream_ack_drop_is_free(self):
        """A dropped ACK with traffic behind it costs nothing: the next
        cumulative ACK covers it."""
        scn, plan, result = self._run(skip=3)
        assert plan.injected[PKT_LOSS] == 1
        assert result.flows[0].bytes == 1 << 16
        sink = scn.guests["sink"].stack.tcp
        src = scn.guests["src1"].stack.tcp
        assert src.congestion_totals()["retransmissions"] == 0
        assert sink.congestion_totals()["retransmissions"] == 0
        assert not sink.connections and not src.connections


class TestRtoUnderMigration:
    FAST_MIG = scenarios.DEFAULT_COSTS.replace(
        discovery_period=0.2,
        bootstrap_timeout=0.01,
        migration_duration=0.3,
        migration_downtime=0.05,
    )

    def test_rr_over_migration_pays_exactly_one_rto(self):
        """TCP_RR across a live migration: frames in flight during the
        downtime window are the only organic loss in the simulator, and
        recovering them must cost exactly one RTO retransmission --
        pinned, so RTO regressions under migration can't slip by."""
        scn = scenarios.migration_pair(self.FAST_MIG)
        scn.warmup()
        sim = scn.sim
        machine_a, _ = scn.machines
        state = {"stop": False, "count": 0}
        conns = {}

        def server():
            listener = scn.node_b.stack.tcp_listen(5470)
            conn = yield from listener.accept()
            conns["server"] = conn
            while True:
                try:
                    yield from conn.recv_exactly(1)
                except OSError:
                    return
                yield from conn.send(b"y")

        def client():
            conn = yield from scn.node_a.stack.tcp_connect((scn.ip_b, 5470))
            conns["client"] = conn
            while not state["stop"]:
                yield from conn.send(b"x")
                yield from conn.recv_exactly(1)
                state["count"] += 1
            yield from conn.close()

        sim.process(server())
        client_proc = sim.process(client())

        def orchestrate():
            yield sim.timeout(0.05)  # RR running steadily first
            yield from live_migrate(scn.node_b, machine_a)
            state["stop"] = True

        proc = sim.process(orchestrate())
        sim.run_until_complete(proc, timeout=60)
        sim.run_until_complete(client_proc, timeout=60)

        client_conn = conns["client"]
        assert state["count"] == 1342  # golden transaction count
        assert client_conn.retransmissions == 1
        assert client_conn.rto_retransmits == 1
        assert client_conn.fast_retransmits == 0
        assert conns["server"].dup_segments == 0
