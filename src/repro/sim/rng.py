"""Seeded randomness helpers.

All stochastic behaviour in the simulation draws from a generator
obtained here so that every scenario run is reproducible from a single
seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "rng_state", "set_rng_state"]

DEFAULT_SEED = 0x5EED


def rng_state(rng: np.random.Generator) -> dict:
    """The generator's full bit-generator state as plain Python values.

    The returned dict is JSON-serializable (PCG64 state words are plain
    ints) and round-trips through :func:`set_rng_state` bit-identically:
    restoring mid-stream reproduces exactly the draws a never-interrupted
    generator would have produced.  Used by the snapshot subsystem
    (:mod:`repro.sim.snapshot`) to capture every RNG stream.
    """

    def _plain(value):
        if isinstance(value, dict):
            return {k: _plain(v) for k, v in value.items()}
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        return value

    return _plain(rng.bit_generator.state)


def set_rng_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a state captured by :func:`rng_state` into ``rng``."""
    rng.bit_generator.state = state


def make_rng(seed=None) -> np.random.Generator:
    """Return a numpy Generator seeded deterministically.

    ``None`` maps to the project-wide default seed (not OS entropy) --
    simulations must be reproducible by default.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)
