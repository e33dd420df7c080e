"""Hypothesis stateful tests: grant-table and FIFO state machines.

These drive random legal operation sequences against a reference model
and assert the invariants XenLoop's control plane depends on after
every step.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.fifo import Fifo, fifo_pages_for_order
from repro.xen.grant_table import GrantError, GrantTable
from repro.xen.page import Page, SharedRegion


class GrantTableMachine(RuleBasedStateMachine):
    """Model: dict gref -> (granted_to, mapped_by set)."""

    def __init__(self):
        super().__init__()
        self.table = GrantTable(domid=1)
        self.model: dict[int, tuple[int, set[int]]] = {}

    domids = st.integers(min_value=2, max_value=5)

    @rule(remote=domids)
    def grant(self, remote):
        gref = self.table.grant_foreign_access(remote, Page(owner=1))
        assert gref not in self.model
        self.model[gref] = (remote, set())

    @precondition(lambda self: self.model)
    @rule(data=st.data(), mapper=domids)
    def map_grant(self, data, mapper):
        gref = data.draw(st.sampled_from(sorted(self.model)))
        granted_to, mapped_by = self.model[gref]
        if mapper == granted_to:
            page = self.table.map_grant(gref, mapper)
            assert page.owner == 1
            mapped_by.add(mapper)
        else:
            with pytest.raises(GrantError):
                self.table.map_grant(gref, mapper)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def unmap(self, data):
        gref = data.draw(st.sampled_from(sorted(self.model)))
        granted_to, mapped_by = self.model[gref]
        if mapped_by:
            self.table.unmap_grant(gref, granted_to)
            mapped_by.discard(granted_to)
        else:
            with pytest.raises(GrantError):
                self.table.unmap_grant(gref, granted_to)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def revoke(self, data):
        gref = data.draw(st.sampled_from(sorted(self.model)))
        _granted_to, mapped_by = self.model[gref]
        if mapped_by:
            with pytest.raises(GrantError):
                self.table.end_foreign_access(gref)
        else:
            self.table.end_foreign_access(gref)
            del self.model[gref]

    @rule(remote=domids)
    def revoke_all_unmapped_for(self, remote):
        any_mapped = any(
            mapped and granted == remote
            for granted, mapped in self.model.values()
        )
        if any_mapped:
            with pytest.raises(GrantError):
                self.table.revoke_all_for(remote)
            self.table.revoke_all_for(remote, force=True)
        else:
            self.table.revoke_all_for(remote)
        self.model = {
            g: v for g, v in self.model.items() if v[0] != remote
        }

    @invariant()
    def entry_count_matches(self):
        assert self.table.active_entries == len(self.model)


class FifoMachine(RuleBasedStateMachine):
    """Model: list of (type, payload) against the shared-memory FIFO,
    operated through two views (producer and consumer) like the two
    guests do."""

    K = 6  # 64 slots

    def __init__(self):
        super().__init__()
        region = SharedRegion(1, 1 + fifo_pages_for_order(self.K))
        self.producer = Fifo(region, k=self.K)
        self.consumer = Fifo(region)  # peer view over the same memory
        self.model: list[tuple[int, bytes]] = []

    def _push(self, parts, msg_type):
        payload = b"".join(parts)
        used = sum(Fifo.slots_needed(len(p)) for _t, p in self.model)
        fits = Fifo.slots_needed(len(payload)) <= (1 << self.K) - used
        assert self.producer.push(parts, msg_type) == fits
        if fits:
            self.model.append((msg_type, payload))

    @rule(payload=st.binary(max_size=300), msg_type=st.integers(1, 10))
    def push(self, payload, msg_type):
        self._push((payload,), msg_type)

    @rule(
        parts=st.lists(st.binary(max_size=120), min_size=2, max_size=4),
        msg_type=st.integers(1, 10),
    )
    def push_scatter_gather(self, parts, msg_type):
        """A multi-part entry (headers + payload, some as memoryviews)
        lands as its joined bytes, wrapping the ring edge like any other."""
        self._push([memoryview(p) if i % 2 else p for i, p in enumerate(parts)], msg_type)

    @rule()
    def pop(self):
        got = self.consumer.pop()
        if self.model:
            assert got == self.model.pop(0)
        else:
            assert got is None

    @rule()
    def peek_then_advance(self):
        entry = self.consumer.peek_view()
        if self.model:
            msg_type, payload = self.model.pop(0)
            assert entry is not None
            assert entry[0] == msg_type and b"".join(entry[1]) == payload
            self.consumer.advance(entry[2])
        else:
            assert entry is None

    @invariant()
    def views_agree(self):
        assert self.producer.front == self.consumer.front
        assert self.producer.back == self.consumer.back
        assert self.producer.used_slots == sum(
            Fifo.slots_needed(len(p)) for _t, p in self.model
        )

    @invariant()
    def flags_intact(self):
        assert self.producer.active  # data ops never clobber the flags


TestGrantTableStateMachine = GrantTableMachine.TestCase
TestGrantTableStateMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)

TestFifoStateMachine = FifoMachine.TestCase
TestFifoStateMachine.settings = settings(
    max_examples=30, stateful_step_count=60, deadline=None
)
