"""Deterministic 64-bit seed derivation.

Every source of randomness in this package is an explicit 64-bit seed fed
to numpy's PCG64. Every ``seed=`` argument and ``--seed`` take an integer
in [0, 2^64); ``model.generator`` checks that and is the one place a
generator is built. Derived streams (per trial, per oracle) come from
``derive_seed``, a splitmix64-style mix with published constants, so any
run is reproducible from a single master seed. The exact function is part
of the external contract: results files can be regenerated bit-for-bit by
an independent implementation of the same mix.
"""

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(z: int) -> int:
    """One splitmix64 output step (finalizer of Steele et al.)."""
    z = (z + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Derive the ``index``-th child seed of ``seed``.

    derive_seed(s, i) = splitmix64((s + i * GAMMA) mod 2^64) with
    GAMMA = 0x9E3779B97F4A7C15. Collision-resistant across the index
    range used here (trial counts, sub-stream ids).
    """
    return splitmix64((seed + (index * _GAMMA)) & MASK64)
