"""Seeded-RNG helpers: state save/restore.

The snapshot subsystem leans on the contract proven here: a captured
generator state restores bit-identically mid-stream.
"""

import numpy as np

from repro.sim.rng import (
    DEFAULT_SEED,
    make_rng,
    rng_state,
    set_rng_state,
)


class TestRngState:
    def test_roundtrip_is_json_plain(self):
        """State dicts hold only plain Python scalars (snapshot digests
        serialize them as canonical JSON)."""
        import json

        state = rng_state(make_rng(42))
        json.dumps(state)  # would raise on numpy scalars

    def test_mid_stream_restore_is_bit_identical(self):
        """Capture after N draws; the restored generator produces exactly
        the draws a never-interrupted one would have."""
        rng = make_rng(7)
        rng.random(100)  # advance mid-stream
        saved = rng_state(rng)
        expected = rng.random(50)
        expected_ints = rng.integers(0, 1 << 62, size=20)

        other = make_rng(999)  # arbitrary state, fully overwritten
        set_rng_state(other, saved)
        assert np.array_equal(other.random(50), expected)
        assert np.array_equal(other.integers(0, 1 << 62, size=20), expected_ints)

    def test_restore_into_same_generator_rewinds(self):
        rng = make_rng(3)
        saved = rng_state(rng)
        first = rng.random(10)
        set_rng_state(rng, saved)
        assert np.array_equal(rng.random(10), first)

    def test_state_capture_does_not_advance(self):
        rng = make_rng(5)
        twin = make_rng(5)
        rng_state(rng)
        rng_state(rng)
        assert rng.random() == twin.random()
