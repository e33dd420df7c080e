"""Unit coverage for the checkpoint subsystem: capture determinism,
digest verification, and persistence.

The replay-equivalence goldens (capture is read-only; a restored pair
runs a fault cell exactly like a fresh build) live in
``tests/integration/test_snapshot_fork.py``; this file covers the
snapshot mechanics themselves.
"""

import json

import pytest

from repro import scenarios
from repro.sim.snapshot import (
    SNAPSHOT_FORMAT,
    SimSnapshot,
    SnapshotError,
    SnapshotMismatch,
    build_from_recipe,
    capture_state,
    fault_pair_recipe,
    scenario_recipe,
    state_digest,
)

FAST = scenarios.DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)


def _warm_recipe(seed=7):
    return scenario_recipe("xenloop", costs=FAST, seed=seed, warm={"max_wait": 20.0})


class TestCaptureDeterminism:
    def test_same_seed_builds_same_digest(self):
        """Two same-recipe builds in ONE process capture identically --
        the property restore() relies on (guards against process-global
        leakage like the guest MAC counter)."""
        a = capture_state(build_from_recipe(_warm_recipe()))
        b = capture_state(build_from_recipe(_warm_recipe()))
        assert state_digest(a) == state_digest(b)
        assert a == b

    def test_different_seed_different_digest(self):
        a = capture_state(build_from_recipe(_warm_recipe(seed=7)))
        b = capture_state(build_from_recipe(_warm_recipe(seed=8)))
        assert state_digest(a) != state_digest(b)

    def test_capture_is_read_only(self):
        """Capturing twice back-to-back yields the same tree and does
        not advance the simulator."""
        scn = build_from_recipe(_warm_recipe())
        before = (scn.sim.now, scn.sim.event_count)
        a = capture_state(scn)
        b = capture_state(scn)
        assert a == b
        assert (scn.sim.now, scn.sim.event_count) == before

    def test_state_is_canonical_json(self):
        state = capture_state(build_from_recipe(_warm_recipe()))
        json.dumps(state)  # no tuples, sets, numpy scalars, non-str keys

    def test_fault_pair_recipe_roundtrip(self):
        recipe = fault_pair_recipe(seed=3, machines=2)
        a = capture_state(build_from_recipe(recipe))
        b = capture_state(build_from_recipe(recipe))
        assert state_digest(a) == state_digest(b)
        assert len(a["machines"]) == 2


class TestPersistence:
    def test_save_load_restore_roundtrip(self, tmp_path):
        recipe = _warm_recipe()
        snap = SimSnapshot.capture(build_from_recipe(recipe), recipe=recipe)
        path = tmp_path / "snap.json"
        snap.save(path)

        loaded = SimSnapshot.load(path)
        assert loaded.digest == snap.digest
        assert loaded.sim_time == snap.sim_time
        assert loaded.cluster is None
        cluster = loaded.restore()
        assert cluster is loaded.cluster
        assert cluster.sim.now == snap.sim_time
        assert cluster.sim.event_count == snap.event_count

    def test_tampered_manifest_raises_mismatch(self, tmp_path):
        recipe = _warm_recipe()
        snap = SimSnapshot.capture(build_from_recipe(recipe), recipe=recipe)
        path = tmp_path / "snap.json"
        snap.save(path)
        doc = json.loads(path.read_text())
        doc["digest"] = "0" * 64
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotMismatch):
            SimSnapshot.load(path).restore()

    def test_unknown_format_rejected(self, tmp_path):
        recipe = _warm_recipe()
        snap = SimSnapshot.capture(build_from_recipe(recipe), recipe=recipe)
        path = tmp_path / "snap.json"
        snap.save(path)
        doc = json.loads(path.read_text())
        # a future format, format 1 (before the engine lost its "wheel"
        # key and announce guests gained a roster view), format 2
        # (whose recipe costs still carry a TCP initial-window field),
        # format 3 (whose calendar names the old CPU completion kinds),
        # format 4 (whose state has no metrics snapshot), format 5
        # (whose serving metrics still count deadline timer fires),
        # format 6 (whose module tree has a staging pool) and format 7
        # (whose recipe costs carry a netfilter hook cost)
        for fmt in (SNAPSHOT_FORMAT + 1, 1, 2, 3, 4, 5, 6, 7):
            doc["format"] = fmt
            path.write_text(json.dumps(doc))
            with pytest.raises(SnapshotError):
                SimSnapshot.load(path)

    def test_restore_without_recipe_rejected(self):
        snap = SimSnapshot.capture(build_from_recipe(_warm_recipe()))
        with pytest.raises(SnapshotError):
            snap.restore()

    def test_unknown_recipe_kind_rejected(self):
        with pytest.raises(SnapshotError):
            build_from_recipe({"kind": "nonsense"})


class TestClusterApi:
    def test_cluster_snapshot_and_from_snapshot(self, tmp_path):
        recipe = _warm_recipe()
        scn = build_from_recipe(recipe)
        snap = scn.snapshot(recipe=recipe, label="via Cluster")
        assert snap.digest == state_digest(capture_state(scn))
        path = tmp_path / "snap.json"
        snap.save(path)
        from repro.topology import Cluster

        rebuilt = Cluster.from_snapshot(str(path))
        assert rebuilt.sim.now == scn.sim.now
        assert rebuilt.sim.event_count == scn.sim.event_count

    def test_inspect_mentions_engine_and_digest(self):
        recipe = _warm_recipe()
        snap = SimSnapshot.capture(build_from_recipe(recipe), recipe=recipe)
        text = snap.inspect()
        assert "engine:" in text
        assert snap.digest in text
        assert "vm1" in text
