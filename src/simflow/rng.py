"""Counter-based deterministic random numbers.

Every random draw in a simulation is keyed on integers such as
(seed, phase, step, rule index, entity id, draw counter), so results do
not depend on the order in which entities are visited, and any entity's
stream can be regenerated in isolation.  The mixer is splitmix64 applied
over the key sequence.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(z):
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def keyed_bits(*keys):
    """64 pseudo-random bits from a sequence of integer keys."""
    h = 0
    for k in keys:
        h = _mix((h + _GAMMA + (int(k) & _MASK)) & _MASK)
    return h


def keyed_uniform(*keys):
    """Deterministic uniform double in [0, 1) from integer keys."""
    return (keyed_bits(*keys) >> 11) * 2.0 ** -53


def keyed_int(n, *keys):
    """Deterministic integer in [0, n)."""
    return int(keyed_uniform(*keys) * n)


def keyed_uniform_array(ids, *keys, tail=()):
    """Vectorized keyed_uniform over an array of entity ids.

    Bitwise identical to ``[keyed_uniform(*keys, i, *tail) for i in ids]``;
    ``tail`` carries keys that follow the id (e.g. a draw counter).  A
    tail key may be an integer array shaped like ``ids``, one key per id,
    so draw ``count[i]`` of ``DrawStream(*keys, ids[i])`` is
    ``keyed_uniform_array(ids, *keys, tail=(count,))[i]``.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    h = np.uint64(0)
    with np.errstate(over="ignore"):
        for k in keys:
            h = _mix_np(h + np.uint64(_GAMMA) + np.uint64(int(k) & _MASK))
        h = np.broadcast_to(h, ids.shape).copy()
        h = _mix_np(h + np.uint64(_GAMMA) + ids)
        for k in tail:
            h = _mix_np(h + np.uint64(_GAMMA) + _tail_key(k))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _tail_key(k):
    if isinstance(k, np.ndarray):
        return k.astype(np.int64).astype(np.uint64)  # wraps like & _MASK
    return np.uint64(int(k) & _MASK)


def _mix_np(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


class DrawStream:
    """A per-invocation stream: fixed key prefix plus a draw counter."""

    def __init__(self, *keys):
        self.keys = tuple(int(k) for k in keys)
        self.count = 0

    def uniform(self):
        u = keyed_uniform(*self.keys, self.count)
        self.count += 1
        return u

    def int_below(self, n):
        return int(self.uniform() * n)
