"""Scenario builders: topology invariants and warmup behaviour."""

import pytest

from repro import scenarios
from repro.core.channel import ChannelState
from repro.sim.engine import SimulationError

FAST = scenarios.DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)


class TestBuilders:
    def test_build_by_name(self):
        for name in scenarios.SCENARIO_BUILDERS:
            scn = scenarios.build(name, FAST)
            assert scn.name == name
            assert scn.node_a.stack is not None
            scn.warmup()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenarios.build("warp_drive")

    def test_native_loopback_single_node(self):
        scn = scenarios.native_loopback(FAST)
        assert scn.node_a is scn.node_b
        assert scn.ip_a == scn.ip_b

    def test_inter_machine_two_machines(self):
        scn = scenarios.inter_machine(FAST)
        assert scn.node_a is not scn.node_b
        assert scn.switch is not None
        assert len(scn.machines) == 2

    def test_netfront_shares_one_machine(self):
        scn = scenarios.netfront_netback(FAST)
        assert len(scn.machines) == 1
        assert scn.node_a.machine is scn.node_b.machine
        assert not scn.modules

    def test_xenloop_has_modules_and_discovery(self):
        scn = scenarios.xenloop(FAST)
        assert set(scn.modules) == {"vm1", "vm2"}
        assert len(scn.discoveries) == 1

    def test_xenloop_fifo_order_plumbed(self):
        scn = scenarios.xenloop(FAST, fifo_order=10)
        assert all(m.fifo_order == 10 for m in scn.modules.values())

    def test_migration_pair_topology(self):
        scn = scenarios.migration_pair(FAST)
        assert len(scn.machines) == 2
        assert scn.node_a.machine is not scn.node_b.machine
        assert not scn.expect_channels

    def test_guest_macs_globally_unique(self):
        scn = scenarios.migration_pair(FAST)
        assert scn.node_a.mac != scn.node_b.mac


class TestWarmup:
    def test_warmup_connects_channels(self):
        scn = scenarios.xenloop(FAST)
        scn.warmup(max_wait=10.0)
        for module in scn.modules.values():
            assert any(
                ch.state is ChannelState.CONNECTED for ch in module.channels.values()
            )

    def test_warmup_resolves_arp(self):
        scn = scenarios.inter_machine(FAST)
        scn.warmup()
        assert scn.node_a.stack.arp.lookup(scn.ip_b) is not None

    def test_warmup_timeout_raises(self):
        scn = scenarios.xenloop(FAST)
        # sabotage: unload one module so channels can never connect
        module = scn.modules["vm2"]
        proc = scn.sim.process(module.unload())
        scn.sim.run_until_complete(proc, timeout=5)
        with pytest.raises(SimulationError, match="never connected"):
            scn.warmup(max_wait=1.5)

    def test_migration_pair_warmup_skips_channel_check(self):
        scn = scenarios.migration_pair(FAST)
        scn.warmup()  # must not raise despite no channels possible
