"""Unit tests for the deterministic fault-injection plan."""

import pytest

from repro import faults, scenarios, topology
from repro.calibration import DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.xen.domain import RUNNING, SUSPENDED


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.FaultRule("meteor_strike")

    def test_prob_out_of_range(self):
        with pytest.raises(ValueError, match="prob"):
            faults.FaultRule(faults.CONTROL_DROP, prob=1.5)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            faults.FaultRule(faults.CRASH, phase="warp")

    def test_migrate_needs_target(self):
        with pytest.raises(ValueError, match="to_machine"):
            faults.FaultRule(faults.MIGRATE, phase="connected")

    def test_phase_kinds_need_phase(self):
        with pytest.raises(ValueError, match="needs a phase"):
            faults.FaultRule(faults.CRASH)

    def test_phase_gate_counts_only_phase_rules(self):
        # A time-anchored rule never fires from the handshake tap, so
        # it must not turn the control plane's phase tap on.
        timed = faults.FaultRule(faults.CRASH, guest="vm2", delay=0.01)
        assert not faults.FaultPlan((timed,)).has_phase_rules
        anchored = faults.FaultRule(faults.CRASH, phase="connected")
        assert faults.FaultPlan((timed, anchored)).has_phase_rules

    def test_pkt_loss_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="pkt_loss traffic class"):
            faults.FaultRule(faults.PKT_LOSS, message="carrier_pigeon")

    def test_pkt_loss_classes_accepted(self):
        for cls in (None, "tcp", "tcp_ack", "tcp_data", "udp", "icmp"):
            faults.FaultRule(faults.PKT_LOSS, message=cls)

    def test_loss_rules_gate(self):
        # The bridge's hot path consults has_loss_rules before matching.
        assert faults.FaultPlan(
            (faults.FaultRule(faults.PKT_LOSS),)
        ).has_loss_rules
        assert not faults.FaultPlan(
            (faults.FaultRule(faults.NOTIFY_DROP),)
        ).has_loss_rules


class TestGating:
    def test_skip_then_times(self):
        plan = faults.FaultPlan(
            (faults.FaultRule(faults.NOTIFY_DROP, skip=2, times=3),)
        )
        fired = [plan.notify_lost("vm1") for _ in range(8)]
        assert fired == [False, False, True, True, True, False, False, False]
        assert plan.injected[faults.NOTIFY_DROP] == 3

    def test_times_none_is_unlimited(self):
        plan = faults.FaultPlan((faults.FaultRule(faults.MAP_FAIL, times=None),))
        assert all(plan.map_fails("vm1") for _ in range(20))

    def test_guest_filter(self):
        plan = faults.FaultPlan(
            (faults.FaultRule(faults.NOTIFY_DROP, guest="vm2", times=None),)
        )
        assert not plan.notify_lost("vm1")
        assert plan.notify_lost("vm2")
        assert not plan.notify_lost(None)

    def test_prob_draws_are_seed_deterministic(self):
        def draws(seed):
            plan = faults.FaultPlan(
                (faults.FaultRule(faults.NOTIFY_DROP, prob=0.5, times=None),),
                seed=seed,
            )
            return [plan.notify_lost("vm1") for _ in range(64)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)
        assert any(draws(7)) and not all(draws(7))

    def test_control_rules_compose(self):
        plan = faults.FaultPlan(
            (
                faults.FaultRule(faults.CONTROL_DELAY, message="Announce", delay=0.01),
                faults.FaultRule(faults.CONTROL_DELAY, message="Announce", delay=0.02),
                faults.FaultRule(faults.CONTROL_DUP, message="Announce"),
            )
        )
        deliver, delay, dup = plan.on_control("dom0", "Announce")
        assert deliver
        assert delay == pytest.approx(0.03)
        assert dup == 1
        # Message-type filter: other frames pass untouched.
        assert plan.on_control("dom0", "CreateChannel") == (True, 0.0, 0)

    def test_drop_wins_over_delay(self):
        plan = faults.FaultPlan(
            (
                faults.FaultRule(faults.CONTROL_DROP, message="ChannelAck"),
                faults.FaultRule(faults.CONTROL_DELAY, message="ChannelAck", delay=0.5),
            )
        )
        deliver, _delay, _dup = plan.on_control("vm1", "ChannelAck")
        assert not deliver


class TestInstallAndSnapshot:
    def test_install_sets_sim_attribute(self):
        sim = Simulator(seed=0)
        plan = faults.FaultPlan().install(sim)
        assert sim.fault_plan is plan

    def test_snapshot_shape(self):
        plan = faults.FaultPlan((faults.FaultRule(faults.NOTIFY_DROP),))
        plan.notify_lost("vm1")
        snap = plan.snapshot()
        assert snap == {
            "rules": 1,
            "injected": {faults.NOTIFY_DROP: 1},
            "recovered": {},
            "degraded": {},
        }

    def test_notes_are_noops_without_plan(self):
        sim = Simulator(seed=0)
        faults.note_recovered(sim, "bootstrap_retry")
        faults.note_degraded(sim, "bootstrap_abort")
        assert sim.fault_plan is None

    def test_notes_accumulate_with_plan(self):
        sim = Simulator(seed=0)
        plan = faults.FaultPlan().install(sim)
        faults.note_recovered(sim, "fallback_resend", 3)
        faults.note_degraded(sim, "bootstrap_abort")
        assert plan.recovered["fallback_resend"] == 3
        assert plan.degraded["bootstrap_abort"] == 1

    def test_engine_stats_surface_counters(self):
        from repro import trace

        sim = Simulator(seed=0)
        stats = trace.engine_stats(sim)
        assert "faults" not in stats
        faults.FaultPlan((faults.FaultRule(faults.MAP_FAIL),)).install(sim)
        stats = trace.engine_stats(sim)
        assert stats["faults"]["rules"] == 1

    def test_format_engine_stats_renders_faults_line(self):
        from repro import report

        stats = {
            "events": 10,
            "faults": {
                "rules": 2,
                "injected": {"control_drop": 1},
                "recovered": {"bootstrap_retry": 1},
                "degraded": {},
            },
        }
        out = report.format_engine_stats(stats)
        assert "faults:" in out
        assert "control_drop=1" in out
        assert "bootstrap_retry=1" in out


class TestTimeAnchoredRules:
    """Crash/migrate rules without a phase fire ``delay`` seconds after
    ``bind``, each in its own process."""

    COSTS = DEFAULT_COSTS.replace(
        discovery_period=0.2,
        bootstrap_timeout=0.01,
        migration_duration=0.030,
        migration_downtime=0.010,
    )

    def _pair(self):
        spec = topology.ClusterSpec(
            name="pair",
            machines=(
                topology.MachineSpec(
                    name="xenA",
                    guests=(topology.GuestSpec("vm1"), topology.GuestSpec("vm2")),
                ),
                topology.MachineSpec(name="xenB", guests=(topology.GuestSpec("vm3"),)),
            ),
        )
        cluster = spec.build(self.COSTS)
        cluster.warmup(max_wait=10.0)
        return cluster

    def test_crash_and_restart_land_while_migration_in_flight(self):
        cluster = self._pair()
        mover, victim = cluster.guests["vm1"], cluster.guests["vm3"]
        plan = faults.FaultPlan(
            (
                faults.FaultRule(faults.MIGRATE, guest="vm1", to_machine="xenB", delay=0.010),
                faults.FaultRule(faults.CRASH, guest="vm3", delay=0.020, restart_after=0.015),
            )
        ).bind(cluster)
        sim, t0, eps = cluster.sim, cluster.sim.now, 1e-6

        sim.run(until=t0 + 0.020 - eps)
        assert victim.alive
        sim.run(until=t0 + 0.020 + eps)
        assert not victim.alive
        assert mover.state == RUNNING and mover.machine.name == "xenA"  # pre-copy

        sim.run(until=t0 + 0.035 - eps)
        assert cluster.guests["vm3"] is victim
        sim.run(until=t0 + 0.035 + eps)
        restarted = cluster.guests["vm3"]
        assert restarted is not victim and restarted.alive
        assert mover.state == SUSPENDED  # stop-and-copy downtime, 30-40 ms

        sim.run(until=t0 + 0.045)
        assert mover.state == RUNNING and mover.machine.name == "xenB"
        assert plan.snapshot()["injected"] == {faults.CRASH: 1, faults.MIGRATE: 1}
        assert plan.snapshot()["recovered"] == {"guest_restart": 1}

    def test_victim_resolved_by_name_when_rule_fires(self):
        # The migrate rule fires after a restart, so it must move the
        # new incarnation, not the dead one.
        cluster = self._pair()
        plan = faults.FaultPlan(
            (
                faults.FaultRule(faults.CRASH, guest="vm3", delay=0.001, restart_after=0.001),
                faults.FaultRule(faults.MIGRATE, guest="vm3", to_machine="xenA", delay=0.010),
            )
        ).bind(cluster)
        cluster.sim.run(until=cluster.sim.now + 0.050)
        assert cluster.guests["vm3"].machine.name == "xenA"
        assert plan.injected[faults.MIGRATE] == 1

    def test_migrate_that_moves_nothing_is_not_injected(self):
        # vm1 already lives on xenA: the rule fires, nothing migrates.
        cluster = self._pair()
        plan = faults.FaultPlan(
            (faults.FaultRule(faults.MIGRATE, guest="vm1", to_machine="xenA", delay=0.001),)
        ).bind(cluster)
        cluster.sim.run(until=cluster.sim.now + 0.010)
        assert cluster.guests["vm1"].machine.name == "xenA"
        assert plan.injected[faults.MIGRATE] == 0

    def test_bind_rejects_unknown_machine(self):
        cluster = scenarios.xenloop(self.COSTS)
        rule = faults.FaultRule(
            faults.MIGRATE, guest="vm2", phase="connected", to_machine="nowhere"
        )
        with pytest.raises(ValueError, match="nowhere"):
            faults.FaultPlan((rule,)).bind(cluster)

    def test_install_without_cluster_rejects_them(self):
        plan = faults.FaultPlan((faults.FaultRule(faults.CRASH, guest="vm2", delay=0.01),))
        with pytest.raises(ValueError, match="bind"):
            plan.install(Simulator(seed=0))

    def test_bind_rejects_unknown_guest(self):
        cluster = scenarios.xenloop(self.COSTS)
        plan = faults.FaultPlan((faults.FaultRule(faults.CRASH, guest="nosuch"),))
        with pytest.raises(ValueError, match="nosuch"):
            plan.bind(cluster)
