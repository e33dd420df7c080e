"""RosterView: epoch tracking, sparse footprint, convergence.

The property tests are the satellite's convergence claim: ANY
interleaving of joins, leaves, identity reuse, and dropped/duplicated
delta frames converges to the scanner's roster after one full-sync
epoch -- a mirroring view converges exactly; a sparse view converges
on every peer it tracks and never resurrects one that left.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import FullSync, RosterDelta
from repro.core.roster import RosterView
from repro.net.addr import MacAddr

OWN = MacAddr("00:16:3e:00:00:99")


def _mac(i: int) -> MacAddr:
    return MacAddr(0x00163E000000 + i)


class TestEpochs:
    def test_in_order_deltas_apply(self):
        view = RosterView(OWN, track_all=True)
        assert view.apply_delta(RosterDelta(0, 1, [(4, _mac(4))], [])) is not None
        assert view.apply_delta(RosterDelta(0, 2, [(5, _mac(5))], [])) is not None
        assert view.entries == {_mac(4): 4, _mac(5): 5}
        assert view.epoch == 2 and not view.desynced

    def test_duplicate_delta_ignored(self):
        view = RosterView(OWN, track_all=True)
        frame = RosterDelta(0, 1, [(4, _mac(4))], [])
        assert view.apply_delta(frame) is not None
        assert view.apply_delta(frame) is None  # receive-side dup fault
        assert view.deltas_ignored == 1
        assert view.entries == {_mac(4): 4}

    def test_gap_desyncs_until_full_sync(self):
        view = RosterView(OWN, track_all=True)
        view.apply_delta(RosterDelta(0, 1, [(4, _mac(4))], []))
        assert view.apply_delta(RosterDelta(0, 3, [(5, _mac(5))], [])) is None
        assert view.desynced and view.deltas_gapped == 1
        # even the "right" next epoch is refused while desynced
        assert view.apply_delta(RosterDelta(0, 4, [(6, _mac(6))], [])) is None
        retire = view.apply_full_sync(FullSync(0, 4, [(6, _mac(6))]))
        assert retire == [_mac(4)]
        assert not view.desynced and view.epoch == 4
        assert view.entries == {_mac(6): 6}

    def test_stale_full_sync_ignored(self):
        view = RosterView(OWN, track_all=True)
        view.apply_full_sync(FullSync(0, 5, [(4, _mac(4))]))
        assert view.apply_full_sync(FullSync(0, 3, [])) is None
        assert view.entries == {_mac(4): 4}

    def test_own_mac_never_tracked(self):
        view = RosterView(OWN, track_all=True)
        view.apply_delta(RosterDelta(0, 1, [(9, OWN), (4, _mac(4))], []))
        view.track(OWN, 9)
        assert OWN not in view.entries


class TestSparseMode:
    def test_untracked_churn_flows_through(self):
        view = RosterView(OWN)  # sparse: nothing materialized yet
        retire = view.apply_delta(RosterDelta(0, 1, [(4, _mac(4))], []))
        assert retire == [] and view.entries == {}
        assert view.epoch == 1  # the epoch still advances

    def test_tracked_peer_leave_reported(self):
        view = RosterView(OWN)
        view.track(_mac(4), 4)
        retire = view.apply_delta(RosterDelta(0, 1, [], [(4, _mac(4))]))
        assert retire == [_mac(4)]
        assert _mac(4) not in view.entries

    def test_domid_change_is_leave_plus_join(self):
        view = RosterView(OWN)
        view.track(_mac(4), 4)
        retire = view.apply_delta(RosterDelta(0, 1, [(7, _mac(4))], []))
        # the old identity's channel retires; the MAC stays, re-keyed
        assert retire == [_mac(4)]
        assert view.entries == {_mac(4): 7}

    def test_join_clears_negative_cache(self):
        view = RosterView(OWN)
        view.note_negative(_mac(4))
        view.apply_delta(RosterDelta(0, 1, [(4, _mac(4))], []))
        assert _mac(4) not in view.negative

    def test_full_sync_clears_negative_cache(self):
        view = RosterView(OWN)
        view.note_negative(_mac(4))
        view.apply_full_sync(FullSync(0, 1, []))
        assert view.negative == set()

    def test_full_sync_prunes_vanished_tracked_peer(self):
        view = RosterView(OWN)
        view.track(_mac(4), 4)
        retire = view.apply_full_sync(FullSync(0, 2, [(5, _mac(5))]))
        assert retire == [_mac(4)]
        assert view.entries == {}


class TestReconcile:
    def test_announce_is_epoch_free_full_sync(self):
        """An announce-mode mirror applies each Announce's roster with
        ``reconcile``: the view becomes the roster, the epoch is untouched,
        and peers that left or changed guest-ID come back to retire."""
        view = RosterView(OWN, track_all=True)
        assert view.reconcile([(4, _mac(4)), (5, _mac(5)), (9, OWN)]) == []
        assert view.entries == {_mac(4): 4, _mac(5): 5}
        retire = view.reconcile([(7, _mac(4)), (6, _mac(6))])
        assert retire == [_mac(4), _mac(5)]
        assert view.entries == {_mac(4): 7, _mac(6): 6}
        assert view.epoch == 0 and view.full_syncs_applied == 0


# One scripted step of cluster churn: (op, guest-index, drop, dup).
_steps = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "rejoin"]),
        st.integers(min_value=0, max_value=7),
        st.booleans(),  # drop this step's delta frame
        st.booleans(),  # duplicate this step's delta frame
    ),
    max_size=40,
)


def _run_interleaving(steps, views):
    """Drive a scanner through ``steps``, delivering each changed scan's
    delta to every view (unless dropped); returns the final roster and
    the scanner's epoch."""
    roster: dict[MacAddr, int] = {}
    next_domid = 100
    epoch = 0
    for op, idx, drop, dup in steps:
        mac = _mac(idx)
        joins, leaves = [], []
        if op == "join" and mac not in roster:
            roster[mac] = next_domid = next_domid + 1
            joins.append((roster[mac], mac))
        elif op == "leave" and mac in roster:
            leaves.append((roster.pop(mac), mac))
        elif op == "rejoin" and mac in roster:
            # crash + restart reusing the MAC: same key, fresh domid
            roster[mac] = next_domid = next_domid + 1
            joins.append((roster[mac], mac))
        if not joins and not leaves:
            continue  # quiescent scan: no frame, no epoch bump
        epoch += 1
        frame = RosterDelta(0, epoch, joins, leaves)
        if drop:
            continue
        for view in views:
            view.apply_delta(frame)
            if dup:
                view.apply_delta(frame)
    return roster, epoch


class TestConvergence:
    @settings(deadline=None)
    @given(steps=_steps)
    def test_mirror_converges_after_one_full_sync(self, steps):
        view = RosterView(OWN, track_all=True)
        roster, epoch = _run_interleaving(steps, [view])
        view.apply_full_sync(
            FullSync(0, epoch, [(d, m) for m, d in roster.items()])
        )
        assert view.entries == {m: d for m, d in roster.items() if m != OWN}
        assert view.epoch == epoch and not view.desynced

    @settings(deadline=None)
    @given(steps=_steps, tracked=st.sets(st.integers(0, 7), max_size=4))
    def test_sparse_view_is_consistent_subset(self, steps, tracked):
        """A sparse view that materialized some peers up front ends, after
        the full sync, as an exact subset of the scanner's roster: right
        domid for every entry it still holds, no entry for peers that
        left, regardless of which deltas were dropped in between."""
        view = RosterView(OWN)
        for idx in tracked:
            view.track(_mac(idx), 0)  # domid 0: pre-churn placeholder
        roster, epoch = _run_interleaving(steps, [view])
        view.apply_full_sync(
            FullSync(0, epoch, [(d, m) for m, d in roster.items()])
        )
        assert set(view.entries) <= set(roster)
        for mac, domid in view.entries.items():
            assert roster[mac] == domid
        assert not view.desynced
