"""Event-channel notification suppression: protocol and race tests.

The suppression protocol is consumer-owns-flag: only the receiver sets
and clears CONSUMER_WAITING in the shared FIFO descriptor; the sender
reads it right after a push (no yield point in between) and skips the
notify hypercall when it is clear.  These tests pin the three things
that make it safe:

* the pre-sleep race -- an entry pushed after the receiver armed the
  flag but before it blocked is found by the final occupancy re-check,
  never stranded until the idle reaper fires;
* suppression actually suppresses -- a connected-channel burst sends
  far fewer notifies than messages;
* no lost wakeup under fault-injected notify loss, for arbitrary
  traffic interleavings (hypothesis property test): every datagram is
  eventually delivered, if necessary by the teardown drain.
"""

import pytest

from repro import scenarios
from repro.core.channel import ENTRY_STREAM
from repro.faults import NOTIFY_DROP, FaultPlan, FaultRule
from tests.conftest import run_gen
from tests.core.conftest import FAST, first_channel


class TestPreSleepRace:
    def test_entry_pushed_in_rearm_window_is_not_stranded(self, xl):
        """A push that lands exactly in the window between the drain
        worker arming CONSUMER_WAITING and blocking (so its notify was
        suppressed -- the producer read the flag as clear) must be
        delivered by the worker's final occupancy re-check, not sit in
        the FIFO until the idle-channel reaper tears the channel down."""
        sim = xl.sim
        ch_a = first_channel(xl, xl.node_a)
        ch_b = first_channel(xl, xl.node_b)
        got = []
        ch_b.stream_handler = got.append

        fifo = ch_b.in_fifo
        orig_arm = fifo.set_consumer_waiting
        raced = {"done": False}

        def arm_then_race():
            orig_arm()
            if not raced["done"]:
                raced["done"] = True
                # The racing producer: its push landed, its flag read
                # came back clear, so it sent no notify.
                assert fifo.push((b"raced",), ENTRY_STREAM)

        fifo.set_consumer_waiting = arm_then_race

        notifies_before = ch_a.notifies
        run_gen(sim, ch_a.send_entry_parts(ENTRY_STREAM, (b"first",)))
        sim.run(until=sim.now + 0.01)

        assert raced["done"], "drain worker never re-armed"
        assert got == [b"first", b"raced"]
        # Exactly one notify moved both entries: the explicit send's.
        assert ch_a.notifies == notifies_before + 1
        # The worker went back to sleep armed, FIFO fully drained.
        assert fifo.is_empty
        assert fifo.consumer_waiting

    def test_suppressed_entry_while_draining_is_delivered(self, xl):
        """A push from inside the drain worker's own delivery phase (the
        flag is clear, so the notify is suppressed) is picked up by the
        same drain pass."""
        sim = xl.sim
        ch_a = first_channel(xl, xl.node_a)
        ch_b = first_channel(xl, xl.node_b)
        got = []

        def handler(payload):
            got.append(payload)
            if payload == b"first":
                # Mid-drain push, CONSUMER_WAITING is clear: suppressed.
                assert not ch_b.in_fifo.consumer_waiting
                assert ch_b.in_fifo.push((b"mid-drain",), ENTRY_STREAM)

        ch_b.stream_handler = handler
        run_gen(sim, ch_a.send_entry_parts(ENTRY_STREAM, (b"first",)))
        sim.run(until=sim.now + 0.01)
        assert got == [b"first", b"mid-drain"]
        assert ch_b.in_fifo.is_empty


class TestSuppressionEfficacy:
    def test_burst_suppresses_most_notifies(self, xl):
        """While the receiver's drain worker is awake, pushes skip the
        notify hypercall entirely: a connected-channel burst must send
        strictly fewer notifies than messages and record suppressions."""
        sim = xl.sim
        ch_a = first_channel(xl, xl.node_a)
        server = xl.node_b.stack.udp_socket(7104, rcvbuf=1 << 22)
        client = xl.node_a.stack.udp_socket()
        n = 200

        def cli():
            for _ in range(n):
                yield from client.sendto(bytes(1000), (xl.ip_b, 7104))

        proc = sim.process(cli())
        sim.run_until_complete(proc, timeout=30)
        sim.run(until=sim.now + 0.1)
        assert server.rx_msgs == n
        sent = ch_a.pkts_sent
        assert ch_a.notifies < sent
        assert ch_a.notifies_suppressed > 0
        assert ch_a.notifies + ch_a.notifies_suppressed >= sent

    def test_drain_batches_counted(self, xl):
        sim = xl.sim
        ch_b = first_channel(xl, xl.node_b)
        server = xl.node_b.stack.udp_socket(7105, rcvbuf=1 << 22)
        client = xl.node_a.stack.udp_socket()

        def cli():
            for _ in range(50):
                yield from client.sendto(bytes(500), (xl.ip_b, 7105))

        proc = sim.process(cli())
        sim.run_until_complete(proc, timeout=30)
        sim.run(until=sim.now + 0.1)
        assert ch_b.drain_entries >= 50
        assert 0 < ch_b.drain_batches <= ch_b.drain_entries


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestNoLostWakeupProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        gaps=st.lists(
            st.sampled_from([0.0, 1e-5, 2e-4, 5e-3, 0.06]),
            min_size=3,
            max_size=12,
        ),
        skip=st.integers(min_value=0, max_value=10),
        times=st.integers(min_value=1, max_value=4),
    )
    def test_all_datagrams_survive_notify_loss(self, gaps, skip, times):
        """Arbitrary push/drain/sleep interleavings (driven by the gap
        pattern) with fault-injected notify loss: every pushed entry is
        eventually received -- through flag-armed retry on the next push,
        the pre-sleep re-check, or the teardown drain when the lost
        notify was the last one and the module is unloaded."""
        scn = scenarios.xenloop(FAST, seed=7)
        scn.warmup(max_wait=10.0)
        plan = FaultPlan(
            (FaultRule(kind=NOTIFY_DROP, times=times, skip=skip),), seed=1
        ).install(scn.sim)
        sim = scn.sim
        server = scn.node_b.stack.udp_socket(7201, rcvbuf=1 << 22)
        client = scn.node_a.stack.udp_socket()

        def cli():
            for i, gap in enumerate(gaps):
                yield from client.sendto(i.to_bytes(2, "big"), (scn.ip_b, 7201))
                if gap:
                    yield sim.timeout(gap)

        proc = sim.process(cli())
        sim.run_until_complete(proc, timeout=60)
        sim.run(until=sim.now + 0.5)
        if server.rx_msgs < len(gaps):
            # The lost notify was the final one and no later traffic
            # healed it: "received or torn down" -- unload both modules;
            # the teardown drain delivers what is still in the FIFO.
            for node in (scn.node_a, scn.node_b):
                module = scn.xenloop_module(node)
                if module.loaded:
                    unload = sim.process(module.unload())
                    sim.run_until_complete(unload, timeout=30)
            sim.run(until=sim.now + 0.5)
        assert server.rx_msgs == len(gaps)
        assert sum(plan.snapshot()["injected"].values()) >= 0  # plan active
