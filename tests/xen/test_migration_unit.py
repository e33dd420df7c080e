"""Live-migration mechanics at the Xen layer (without XenLoop loaded)."""

import pytest

from repro.calibration import DEFAULT_COSTS
from repro.net.addr import IPv4Addr, MacAddr
from repro.net.nic import EthernetSwitch
from repro.sim.engine import Simulator
from repro.xen.domain import RUNNING, SUSPENDED
from repro.xen.machine import XenMachine
from repro.xen.migration import live_migrate

COSTS = DEFAULT_COSTS.replace(migration_duration=0.5, migration_downtime=0.1)


@pytest.fixture
def world(sim):
    switch = EthernetSwitch(sim, COSTS)
    ma = XenMachine(sim, COSTS, "ma", n_cores=2)
    mb = XenMachine(sim, COSTS, "mb", n_cores=2, guest_macs=ma.guest_macs)
    ma.attach_network(switch, MacAddr("00:02:b3:00:00:0a"))
    mb.attach_network(switch, MacAddr("00:02:b3:00:00:0b"))
    vm = mb.create_guest("guest", ip=IPv4Addr("10.0.0.9"))
    return ma, mb, vm


class TestMechanics:
    def test_precopy_keeps_guest_running(self, sim, world):
        ma, mb, vm = world
        proc = sim.process(live_migrate(vm, ma))
        sim.run(until=COSTS.migration_duration - COSTS.migration_downtime - 0.05)
        assert vm.state == RUNNING
        assert vm.machine is mb  # not moved yet

    def test_downtime_window_suspends(self, sim, world):
        ma, mb, vm = world
        sim.process(live_migrate(vm, ma))
        sim.run(
            until=COSTS.migration_duration - COSTS.migration_downtime / 2
        )
        assert vm.state == SUSPENDED
        assert vm.netfront.suspended

    def test_resume_on_target(self, sim, world):
        ma, _mb, vm = world
        proc = sim.process(live_migrate(vm, ma))
        sim.run_until_complete(proc, timeout=10)
        assert vm.state == RUNNING
        assert not vm.netfront.suspended
        assert vm.machine is ma
        assert vm.cpus is ma.cpus

    def test_same_machine_rejected(self, sim, world):
        _ma, mb, vm = world
        with pytest.raises(ValueError):
            gen = live_migrate(vm, mb)
            next(gen)

    def test_callbacks_ordering(self, sim, world):
        ma, _mb, vm = world
        order = []

        def pre():
            order.append(("pre", vm.machine.name, vm.state))
            yield sim.timeout(0)

        def post():
            order.append(("post", vm.machine.name, vm.state))
            yield sim.timeout(0)

        vm.pre_migrate_callbacks.append(pre)
        vm.post_migrate_callbacks.append(post)
        proc = sim.process(live_migrate(vm, ma))
        sim.run_until_complete(proc, timeout=10)
        assert order[0][0] == "pre" and order[0][1] == "mb"
        assert order[1][0] == "post" and order[1][1] == "ma"
        assert order[1][2] == RUNNING

    def test_vcpu_limit_carried_to_target(self, sim, world):
        ma, _mb, vm = world
        proc = sim.process(live_migrate(vm, ma))
        sim.run_until_complete(proc, timeout=10)
        assert ma.cpus._vcpu_limit[vm.sched_key] == 1

    def test_gratuitous_arp_reteaches_switch(self, sim, world):
        ma, mb, vm = world
        # make the switch learn vm's MAC on mb's port
        vm.stack.arp.announce()
        sim.run(until=sim.now + 0.01)
        switch = mb.nic.switch
        assert switch._fdb[vm.mac].nic is mb.nic
        proc = sim.process(live_migrate(vm, ma))
        sim.run_until_complete(proc, timeout=10)
        sim.run(until=sim.now + 0.05)
        assert switch._fdb[vm.mac].nic is ma.nic

    def test_round_trip_returns_home(self, sim, world):
        ma, mb, vm = world
        proc = sim.process(live_migrate(vm, ma))
        sim.run_until_complete(proc, timeout=10)
        proc = sim.process(live_migrate(vm, mb))
        sim.run_until_complete(proc, timeout=10)
        assert vm.machine is mb
        assert vm.state == RUNNING

    def test_domids_never_reused_on_target(self, sim, world):
        ma, _mb, vm = world
        other = ma.create_guest("resident", ip=IPv4Addr("10.0.0.8"))
        proc = sim.process(live_migrate(vm, ma))
        sim.run_until_complete(proc, timeout=10)
        assert vm.domid != other.domid
        assert set(ma.domains) >= {0, other.domid, vm.domid}
