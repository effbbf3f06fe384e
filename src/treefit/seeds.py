"""Deterministic 64-bit seed derivation.

All randomness in treefit flows from one master seed: instance generation
and the paper library's colour coding and sampling rounds (`solve` draws
none).  Child seeds are derived with splitmix64 over (parent, stream
index), so runs are reproducible across platforms and independent work
units (trials, rounds, instances) can be reseeded without sharing
generator state.
"""

from __future__ import annotations

import random

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def child_seed(seed: int, *indices: int) -> int:
    """Derive a child seed for a numbered stream (and sub-streams)."""
    out = seed & _MASK
    for index in indices:
        out = _splitmix64(out ^ _splitmix64(index & _MASK))
    return out


def rng_from(seed: int, *indices: int) -> random.Random:
    """A fresh generator for the given (seed, stream…) coordinates."""
    return random.Random(child_seed(seed, *indices) if indices else seed & _MASK)
