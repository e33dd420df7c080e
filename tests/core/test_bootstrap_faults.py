"""Bootstrap retry-ladder and recovery tests, driven by the fault
injector: lost CREATE_CHANNEL (retry then abort), lost CHANNEL_ACK
(duplicate-create re-ack), lost CONNECT_REQUEST (announce-driven
connector retry), injected map failure, guest crash mid-handshake, and
lost event-channel notifies."""

import pytest

from repro import faults, scenarios
from repro.core.channel import ENTRY_IPV4, Channel, ChannelDeadError, ChannelState
from repro.core.control import ChannelEvent
from repro.core.protocol import CreateChannel

from .conftest import FAST, first_channel, udp_once

PAYLOAD = b"fault-injected-datagram!"


def _plan(scn, *rules, seed=0):
    return faults.FaultPlan(rules, seed=seed).bind(scn)


def _drive_until_connected(scn, module, view=None, deadline=3.0):
    """Interleave datagrams with simulated time until the module holds a
    CONNECTED channel.  Bootstrap only initiates on traffic that arrives
    after a discovery announcement has populated the mapping table, so a
    single early datagram is not enough."""
    view = view if view is not None else scn
    sim = scn.sim
    end = sim.now + deadline
    while sim.now < end:
        assert udp_once(view, PAYLOAD) == PAYLOAD
        if any(ch.state is ChannelState.CONNECTED for ch in module.channels.values()):
            return True
        sim.run(until=sim.now + 0.1)
    return False


def _channel_ports(machine):
    """Event-channel ports whose handler is bound to a Channel."""
    return [
        p
        for p in machine.hypervisor.evtchn._ports.values()
        if isinstance(getattr(p.handler, "__self__", None), Channel)
    ]


def _guest_grants(machine):
    """Grant entries granted guest-to-guest (XenLoop's, not netfront's)."""
    dom0 = machine.dom0.domid
    return [
        (domid, gref)
        for domid, table in machine.hypervisor.grant_tables.items()
        for gref, entry in table._entries.items()
        if entry.granted_to != dom0
    ]


class TestRetryLadder:
    def test_dropped_create_channel_recovers_on_retry(self):
        scn = scenarios.xenloop(FAST)
        plan = _plan(
            scn, faults.FaultRule(faults.CONTROL_DROP, message="CreateChannel")
        )
        assert udp_once(scn, PAYLOAD) == PAYLOAD  # first packet: netfront path
        module = scn.xenloop_module(scn.node_a)
        assert _drive_until_connected(scn, module)
        listener = first_channel(scn, scn.node_a)
        assert listener.ctrl.attempts == 2  # one resend consumed
        assert plan.injected["control_drop"] == 1
        assert plan.recovered["bootstrap_retry"] == 1
        assert udp_once(scn, PAYLOAD * 2) == PAYLOAD * 2

    def test_all_creates_dropped_aborts_to_failed_and_falls_back(self):
        scn = scenarios.xenloop(FAST)
        plan = _plan(
            scn,
            faults.FaultRule(faults.CONTROL_DROP, message="CreateChannel", times=None),
        )
        # Traffic completes via the standard netfront path throughout
        # (spaced across announce periods so bootstrap attempts happen).
        for _ in range(4):
            assert udp_once(scn, PAYLOAD) == PAYLOAD
            scn.sim.run(until=scn.sim.now + 0.2)
        # The listener burned its ladder: bootstrap_retries sends, then
        # FAILED -- and the failed channel left the table.
        assert plan.injected["control_drop"] >= FAST.bootstrap_retries
        assert plan.degraded["bootstrap_abort"] >= 1
        module = scn.xenloop_module(scn.node_a)
        assert not any(
            ch.state is ChannelState.CONNECTED for ch in module.channels.values()
        )
        # A clean abort leaks nothing: grants revoked, ports closed.
        machine = scn.machines[0]
        assert _guest_grants(machine) == []
        assert _channel_ports(machine) == []

    def test_dropped_ack_recovers_via_duplicate_create(self):
        scn = scenarios.xenloop(FAST)
        plan = _plan(
            scn, faults.FaultRule(faults.CONTROL_DROP, message="ChannelAck")
        )
        module = scn.xenloop_module(scn.node_a)
        assert _drive_until_connected(scn, module)
        # The connector was CONNECTED all along; the listener's retry hit
        # the duplicate-CREATE path and got a fresh ack.
        assert plan.injected["control_drop"] == 1
        assert plan.recovered["ack_resend"] == 1
        assert plan.recovered["bootstrap_retry"] == 1
        for node in (scn.node_a, scn.node_b):
            ch = first_channel(scn, node)
            assert ch.state is ChannelState.CONNECTED
        assert udp_once(scn, PAYLOAD) == PAYLOAD

    def test_dropped_connect_request_retried_from_announcement(self):
        scn = scenarios.xenloop(FAST)
        plan = _plan(
            scn, faults.FaultRule(faults.CONTROL_DROP, message="ConnectRequest")
        )
        # vm2 -> vm1: the larger-domid sender is the connector and must
        # open with CONNECT_REQUEST (which the plan eats).
        view = scn.view("vm2", "vm1")
        module = scn.xenloop_module(scn.guests["vm2"])
        assert _drive_until_connected(scn, module, view=view)
        assert plan.injected["control_drop"] == 1
        assert plan.recovered["connreq_resend"] == 1

    def test_connector_retry_exhaustion_fails_cleanly_and_falls_back(self):
        """Every CONNECT_REQUEST is lost: the connector resends on the
        announcement clock until ``bootstrap_retries`` sends are spent,
        then aborts to FAILED, leaves both tables, fails its parked
        entries and blocked senders, and traffic keeps flowing over
        netfront."""
        scn = scenarios.xenloop(FAST)
        plan = _plan(
            scn,
            faults.FaultRule(faults.CONTROL_DROP, message="ConnectRequest", times=None),
        )
        sim = scn.sim
        view = scn.view("vm2", "vm1")  # vm2 (larger domid) is the connector
        module = scn.xenloop_module(scn.guests["vm2"])
        control = module.control
        end = sim.now + 3.0
        while not module.channels and sim.now < end:
            assert udp_once(view, PAYLOAD) == PAYLOAD
            sim.run(until=sim.now + 0.1)
        (ch,) = module.channels.values()
        assert not ch.is_listener
        assert ch.state is ChannelState.BOOTSTRAPPING
        assert control.channels_by_domid[ch.peer_domid] is ch
        # Stage a scatter-gather entry (joined on park) and block a sender
        # on the waiting list, as a backpressured channel would.
        ch._park(ENTRY_IPV4, (b"head", memoryview(b"payload")))
        waiter = ch.wait_waiting_space()

        retries = FAST.bootstrap_retries
        end = sim.now + FAST.discovery_period * (retries + 2)
        while ch.state is ChannelState.BOOTSTRAPPING and sim.now < end:
            sim.run(until=sim.now + FAST.discovery_period)
        assert ch.state is ChannelState.FAILED
        assert ch.ctrl.fsm.history[-1][0] is ChannelEvent.ACK_TIMEOUT
        assert ch.ctrl.attempts == retries
        assert plan.injected["control_drop"] == retries
        assert plan.recovered["connreq_resend"] == retries - 1
        assert plan.degraded["bootstrap_abort"] == 1
        assert ch not in control.channels.values()
        assert ch.peer_domid not in control.channels_by_domid
        assert not ch.waiting_list and ch.waiting_bytes == 0
        assert waiter.triggered and not waiter.ok
        assert isinstance(waiter.value, ChannelDeadError)

        via_channel = module.pkts_via_channel
        assert udp_once(view, PAYLOAD * 2) == PAYLOAD * 2
        assert module.pkts_via_channel == via_channel == 0

    def test_map_failure_aborts_then_fresh_channel_connects(self):
        scn = scenarios.xenloop(FAST)
        plan = _plan(scn, faults.FaultRule(faults.MAP_FAIL, times=1))
        module = scn.xenloop_module(scn.node_a)
        assert _drive_until_connected(scn, module)
        assert plan.injected["map_fail"] == 1
        assert plan.degraded["map_failed"] == 1
        # The listener's retry ladder re-sent CREATE_CHANNEL to a fresh
        # connector-side channel, which mapped cleanly.
        assert plan.recovered["bootstrap_retry"] == 1
        machine = scn.machines[0]
        # Only the live channel's grants remain (no leftovers from the
        # aborted first mapping).
        connected = [
            ch
            for ch in module.channels.values()
            if ch.state is ChannelState.CONNECTED
        ]
        assert connected
        assert len(_channel_ports(machine)) == 2  # one bound pair


class TestCreateFromVanishedPeer:
    def test_create_from_domid_without_grant_table_fails_cleanly(self):
        """A CREATE_CHANNEL whose sender's domain is gone (its grant
        table dropped with it) cannot be mapped: the connector fails the
        fresh channel, leaves both tables, notes ``map_failed`` and
        holds no grant or port."""
        scn = scenarios.xenloop(FAST)
        plan = _plan(scn)
        sim = scn.sim
        vm1, vm2 = scn.guests["vm1"], scn.guests["vm2"]
        assert vm1.domid < vm2.domid  # vm2 is the connector
        machine = scn.machines[0]
        dead_domid, dead_mac = vm1.domid, vm1.mac
        vm1.crash()
        assert dead_domid not in machine.hypervisor.grant_tables

        control = scn.xenloop_module(vm2).control
        control.handle_create_channel(
            CreateChannel(sender_domid=dead_domid, gref_out=1, gref_in=2, evtchn_port=3),
            dead_mac,
        )
        ch = control.channels[dead_mac]
        assert not ch.is_listener
        sim.run(until=sim.now + 0.01)

        assert ch.state is ChannelState.FAILED
        assert ch.ctrl.fsm.history[-1][0] is ChannelEvent.MAP_FAILED
        assert ch not in control.channels.values()
        assert dead_domid not in control.channels_by_domid
        assert plan.degraded["map_failed"] == 1
        assert _guest_grants(machine) == []
        assert _channel_ports(machine) == []


class TestCrashDuringBootstrap:
    def test_survivor_converges_without_leaks(self):
        scn = scenarios.xenloop(FAST)
        plan = _plan(
            scn,
            faults.FaultRule(faults.CRASH, guest="vm2", phase="bootstrapping"),
        )
        sim = scn.sim
        client = scn.node_a.stack.udp_socket()

        def drive():
            for _ in range(10):
                yield from client.sendto(PAYLOAD, (scn.ip_b, 7300))
                yield sim.timeout(0.05)

        proc = sim.process(drive(), name="crash-traffic")
        sim.run_until_complete(proc, timeout=30.0)
        sim.run(until=sim.now + 1.0)  # several announce periods to settle

        assert plan.injected["crash"] == 1
        assert not scn.guests["vm2"].alive
        # The survivor gave up cleanly (FAILED via the retry ladder
        # and/or the announce prune) and holds no channel state.
        module = scn.xenloop_module(scn.node_a)
        assert not any(
            ch.state is ChannelState.CONNECTED for ch in module.channels.values()
        )
        machine = scn.machines[0]
        assert _guest_grants(machine) == []
        assert _channel_ports(machine) == []
        assert scn.node_a.stack.arp._waiters == {}


class TestNotifyLoss:
    def test_dropped_notifies_recovered_by_drain_recheck(self):
        scn = scenarios.xenloop(FAST)
        scn.warmup(max_wait=10.0)
        # Install the plan only now: every notify from here on is
        # channel traffic, not bootstrap-era netfront ring wakeups.
        plan = _plan(scn, faults.FaultRule(faults.NOTIFY_DROP, times=3))
        sim = scn.sim
        server = scn.node_b.stack.udp_socket(7301)
        received = []

        def srv():
            while True:
                data, _ = yield from server.recvfrom()
                received.append(data)

        sim.process(srv(), name="notify-server")
        client = scn.node_a.stack.udp_socket()

        def drive():
            for _ in range(10):
                yield from client.sendto(PAYLOAD, (scn.ip_b, 7301))
                yield sim.timeout(0.01)

        proc = sim.process(drive(), name="notify-traffic")
        sim.run_until_complete(proc, timeout=30.0)
        sim.run(until=sim.now + 0.5)
        assert plan.injected["notify_drop"] == 3
        assert len(received) == 10


class TestDeterminism:
    @pytest.mark.parametrize("cell_name", ["drop:ChannelAck", "crash:bootstrapping"])
    def test_same_seed_same_plan_is_bit_identical(self, cell_name):
        from repro.scenarios.fault_matrix import matrix_cells, run_cell

        cell = next(c for c in matrix_cells() if c.name == cell_name)
        first = run_cell(cell, seed=3)
        second = run_cell(cell, seed=3)
        assert first == second  # counters, delivery, AND event count
        assert first["ok"]
