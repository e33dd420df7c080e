"""Fork-equivalence goldens for the checkpoint subsystem.

A *fork* of a snapshot is an independent cluster rebuilt from it by
:meth:`SimSnapshot.restore` (recipe replay, then digest check).  The
contracts the snapshot feature rests on:

* a fork of a warm cluster, run with the same workload, reproduces the
  pinned goldens of ``test_fastpath_determinism.py`` -- results, wire
  counters, notify counters;
* forks are deterministic -- N forks give N identical replays;
* capturing and forking are read-only for the parent, which continues
  exactly as it would have uncaptured;
* a fault cell run on a fork of a saved pair equals the same cell on a
  fresh build, processed-event count included.
"""

import pytest

from repro import scenarios
from repro.net.packet import WIRE_STATS
from repro.scenarios import fault_matrix as fm
from repro.sim.snapshot import SimSnapshot, scenario_recipe
from repro.workloads.netperf import udp_stream
from repro.xen.event_channel import NOTIFY_STATS
from tests.integration.test_fastpath_determinism import (
    FAST,
    GOLDEN_NOTIFY_COUNTERS,
    GOLDEN_UDP_WARM_XENLOOP,
    GOLDEN_WIRE_COUNTERS,
)

WARM = {"max_wait": 20.0}


def _stream_with_counters(cluster):
    WIRE_STATS.reset()
    NOTIFY_STATS.reset()
    r = udp_stream(cluster, msg_size=4096, duration=0.02)
    return (
        (r.bytes_received, r.mbps, r.messages_sent, r.drops),
        WIRE_STATS.snapshot(),
        NOTIFY_STATS.snapshot(),
    )


def _warm_parent():
    """A warm xenloop cluster and a snapshot of it that can be forked."""
    scn = scenarios.build("xenloop", FAST, seed=7)
    scn.warmup(max_wait=WARM["max_wait"])
    recipe = scenario_recipe("xenloop", FAST, seed=7, warm=WARM)
    return scn, SimSnapshot.capture(scn, recipe=recipe, label="warm xenloop seed=7")


@pytest.fixture(scope="module")
def warm_snap():
    return _warm_parent()[1]


class TestForkEquivalence:
    def test_fork_replays_warm_goldens(self, warm_snap):
        """One fork reproduces the pinned warm-xenloop goldens:
        simulated result AND serialization AND notify counters."""
        result, wire, notify = _stream_with_counters(warm_snap.restore())
        assert result == GOLDEN_UDP_WARM_XENLOOP
        assert wire == GOLDEN_WIRE_COUNTERS
        assert notify == GOLDEN_NOTIFY_COUNTERS

    def test_repeated_forks_identical(self, warm_snap):
        """N forks of one snapshot are N bit-identical replays."""
        a = _stream_with_counters(warm_snap.restore())
        b = _stream_with_counters(warm_snap.restore())
        assert a == b

    def test_parent_untouched_by_forks(self):
        """Capturing and forking leave the parent's clock and event count
        alone, and the parent then continues to the same goldens."""
        parent, snap = _warm_parent()
        before = (parent.sim.now, parent.sim.event_count)
        assert (snap.sim_time, snap.event_count) == before
        fork = snap.restore()
        assert fork is not parent
        _stream_with_counters(fork)
        assert (parent.sim.now, parent.sim.event_count) == before

        result, wire, notify = _stream_with_counters(parent)
        assert result == GOLDEN_UDP_WARM_XENLOOP
        assert wire == GOLDEN_WIRE_COUNTERS
        assert notify == GOLDEN_NOTIFY_COUNTERS


class TestFaultMatrixForking:
    def test_forked_cell_equals_cold_cell(self, tmp_path):
        """A fault cell run on two forks of a saved pair snapshot
        reproduces :func:`run_cell` exactly, including the
        processed-event count (the determinism check)."""
        cell = next(c for c in fm.matrix_cells() if c.name == "drop:CreateChannel")
        recipe = scenario_recipe("fault_matrix", fm.MATRIX_COSTS, kwargs=cell.pair_kwargs)
        cluster = fm.fault_matrix(fm.MATRIX_COSTS, 0, **cell.pair_kwargs)
        path = tmp_path / "pair.json"
        SimSnapshot.capture(cluster, recipe=recipe).save(path)

        snap = SimSnapshot.load(path)
        forked = [fm._run_cell_on(snap.restore(), cell, 0) for _ in range(2)]
        cold = fm.run_cell(cell, seed=0)
        assert forked == [cold, cold]
