"""Seeded randomness: a pure-Python PCG64 generator.

All stochastic behaviour in the simulation draws from a generator
obtained here so that every scenario run is reproducible from a single
seed.  :class:`Generator` reproduces NumPy's ``default_rng(seed)`` bit
for bit for the three draws the model uses -- ``random()``,
``exponential(scale)`` and ``pareto(a)`` -- and its state is NumPy's
``bit_generator.state`` dict, so results and snapshot digests do not
depend on an installed NumPy (whose ``Generator`` streams NEP 19 does
not guarantee across versions) and the simulator needs none:

* seeding is NumPy's ``SeedSequence``: the seed's 32-bit words are
  hash-mixed into a 4-word pool, which ``generate_state(4, uint64)``
  expands into the PCG64 initial state and stream increment;
* the bit generator is PCG64 (128-bit LCG, XSL-RR 64-bit output);
* ``random()`` takes the top 53 bits; the exponential is NumPy's
  256-section ziggurat over the tables in :mod:`repro.sim.ziggurat`.

``tests/sim/test_rng.py`` checks draws and states against NumPy itself.
"""

from __future__ import annotations

from math import exp, expm1, log1p
from operator import index

from repro.sim.ziggurat import FE, KE, WE, ZIGGURAT_EXP_R

__all__ = ["Generator", "make_rng", "rng_state", "set_rng_state"]

DEFAULT_SEED = 0x5EED

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_TWO_M53 = 1.0 / 9007199254740992.0

# SeedSequence hash constants (NumPy ``bit_generator.pyx``).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _seed_state(seed: int) -> tuple[int, int]:
    """NumPy's ``SeedSequence(seed).generate_state(4, uint64)``, as the
    PCG64 ``(initstate, initseq)`` pair it seeds."""
    seed = index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        out.append(value ^ (value >> 16))
    s0, s1, s2, s3 = (out[2 * j] | out[2 * j + 1] << 32 for j in range(4))
    return s0 << 64 | s1, s2 << 64 | s3


class Generator:
    """PCG64 with NumPy ``Generator``'s scalar ``random``,
    ``exponential`` and ``pareto``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        # pcg_setseq_128_srandom_r: state 0, step, add initstate, step.
        inc = self._inc = (initseq << 1 | 1) & _M128
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _M128

    def random(self) -> float:
        """Uniform on [0, 1): the top 53 bits of one output."""
        # One PCG64 output, written out here and in standard_exponential
        # (a method call would cost a third of the draw): step the LCG,
        # then XSL-RR -- xor the halves, rotate right by the top 6 bits.
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64) ^ (s & _M64)
        rot = s >> 122
        return ((((x >> rot) | (x << (64 - rot))) & _M64) >> 11) * _TWO_M53

    def standard_exponential(self) -> float:
        """Exp(1) by the 256-section ziggurat (NumPy's
        ``random_standard_exponential``)."""
        while True:
            s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
            x = (s >> 64) ^ (s & _M64)
            rot = s >> 122
            ri = (((x >> rot) | (x << (64 - rot))) & _M64) >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return x  # ~98.9% of draws
            if idx == 0:
                return ZIGGURAT_EXP_R - log1p(-self.random())
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < exp(-x):
                return x

    def exponential(self, scale: float = 1.0) -> float:
        """Exponential with mean ``scale``."""
        if not scale >= 0.0:
            raise ValueError(f"scale must be >= 0, got {scale}")
        return scale * self.standard_exponential()

    def pareto(self, a: float) -> float:
        """Pareto II (Lomax) with shape ``a``: ``expm1(Exp(1) / a)``."""
        if not a > 0.0:
            raise ValueError(f"a must be > 0, got {a}")
        return expm1(self.standard_exponential() / a)

    @property
    def state(self) -> dict:
        """NumPy's ``PCG64.state`` dict (plain ints), a fresh copy.

        NumPy's buffered half-word (``has_uint32``/``uinteger``) serves
        only 32-bit draws, which this generator does not make, so it is
        always empty."""
        return {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": 0,
            "uinteger": 0,
        }

    @state.setter
    def state(self, value: dict) -> None:
        if value.get("bit_generator") != "PCG64":
            raise ValueError("state must be for a PCG64 RNG")
        words = value["state"]
        self._state = int(words["state"]) & _M128
        self._inc = int(words["inc"]) & _M128


def rng_state(rng: Generator) -> dict:
    """The generator's full state as a JSON-plain dict.

    It is NumPy's ``bit_generator.state`` layout and round-trips through
    :func:`set_rng_state` bit-identically: restoring mid-stream
    reproduces exactly the draws a never-interrupted generator would
    have produced.  Used by the snapshot subsystem
    (:mod:`repro.sim.snapshot`) to capture every RNG stream.
    """
    return rng.state


def set_rng_state(rng: Generator, state: dict) -> None:
    """Restore a state captured by :func:`rng_state` into ``rng``."""
    rng.state = state


def make_rng(seed=None) -> Generator:
    """Return a PCG64 generator seeded deterministically, equal in
    stream and state to NumPy's ``default_rng(seed)``.

    ``None`` maps to the project-wide default seed (not OS entropy) --
    simulations must be reproducible by default.
    """
    return Generator(DEFAULT_SEED if seed is None else seed)
