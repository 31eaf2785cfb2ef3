"""Counter-based deterministic random number generation.

Every draw is a pure function of (seed, counter): the generator feeds
``seed + (counter+1) * GOLDEN`` through the SplitMix64 finalizer
(Steele, Lea & Flood's mixing constants). There is no hidden state
beyond the counter, so identical seed + identical call sequence gives
bit-identical streams on every platform, streams can be forked with
`child`, and a generator position is two u64s in a checkpoint.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64, matching the scalar path bit for bit
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class CounterRng:
    """SplitMix64 counter generator; see module docstring for the algorithm."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.counter = int(counter)

    def state(self) -> tuple[int, int]:
        return (self.seed, self.counter)

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64(self.seed + self.counter * _GOLDEN)

    def next_u64_array(self, n: int) -> np.ndarray:
        base = np.uint64(self.seed)
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return _mix64_array(base + idx * np.uint64(_GOLDEN))

    def uniform(self) -> float:
        """One float64 in [0, 1), from the top 53 bits of a draw."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def uniform_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        u = self.next_u64_array(n) >> np.uint64(11)
        return (u / float(1 << 53)).reshape(shape)

    def normal_array(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller; consumes 2 draws per value."""
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        return normal_arrays([self], n)[0].reshape(shape)

    def truncated_normal_array(self, shape, std: float = 1.0, bound: float = 2.0) -> np.ndarray:
        """Normals with |z| > bound resampled (per element, fixed retry order)."""
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        out = self.normal_array(n)
        for _ in range(64):
            bad = np.abs(out) > bound
            if not bad.any():
                break
            out[bad] = self.normal_array(int(bad.sum()))
        return (out * std).reshape(shape)

    def randbelow(self, n: int) -> int:
        """Integer in [0, n) via modulo; bias is < n / 2^64, documented and accepted."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return self.next_u64() % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n); see `permutations`."""
        return permutations([self], n)[0]

    def child(self, *tags) -> "CounterRng":
        """Fork an independent stream keyed by (seed, *tags).

        Tags (ints or strings) are folded through BLAKE2b-64 so the child
        seed depends only on the parent seed and the tag tuple, never on
        how many draws the parent has made.
        """
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<Q", self.seed))
        for t in tags:
            if isinstance(t, (int, np.integer)):
                h.update(b"i" + struct.pack("<q", int(t)))
            elif isinstance(t, str):
                raw = t.encode("utf-8")
                h.update(b"s" + struct.pack("<I", len(raw)) + raw)
            else:
                raise TypeError(f"child tag must be int or str, got {type(t).__name__}")
        return CounterRng(struct.unpack("<Q", h.digest())[0])


def permutations(rngs: list[CounterRng], n: int) -> np.ndarray:
    """Row i is a Fisher-Yates shuffle of arange(n) drawn from rngs[i].

    Swap t (t = 0 .. n-2) exchanges slot n-1-t with slot draw_t % (n-t),
    where draw_t is the rng's next u64 in turn, so each row and each final
    counter equal n-1 successive `randbelow(n)`, ..., `randbelow(2)` calls.
    All draws come from one vectorized mix; only the swaps run in Python.
    """
    swaps = max(n - 1, 0)
    seeds = np.array([r.seed for r in rngs], dtype=np.uint64)[:, None]
    counters = np.array([r.counter for r in rngs], dtype=np.uint64)[:, None]
    idx = counters + np.arange(1, swaps + 1, dtype=np.uint64)
    idx *= np.uint64(_GOLDEN)  # array arithmetic wraps mod 2^64 without a warning
    draws = _mix64_array(seeds + idx)
    draws %= np.arange(n, 1, -1, dtype=np.uint64)
    for r in rngs:
        r.counter += swaps
    rows = []
    for row in draws.tolist():
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), row):
            perm[i], perm[j] = perm[j], perm[i]
        rows.append(perm)
    return np.array(rows, dtype=np.int64).reshape(len(rngs), n)


def normal_arrays(rngs: list[CounterRng], n: int) -> np.ndarray:
    """Row i is n standard normals drawn from rngs[i] by Box-Muller.

    A row's first n draws give u1 and its next n give u2, and each counter
    advances by 2n, so row i and its final counter equal what one
    `rngs[i].normal_array(n)` call gives. Each of u1 and u2 comes from one
    vectorized mix over all rows.
    """
    seeds = np.array([r.seed for r in rngs], dtype=np.uint64)[:, None]
    counters = np.array([r.counter for r in rngs], dtype=np.uint64)[:, None]

    def draws(first: int) -> np.ndarray:  # the top 53 bits of draws first .. first+n-1
        idx = counters + np.arange(first, first + n, dtype=np.uint64)
        idx *= np.uint64(_GOLDEN)  # array arithmetic wraps mod 2^64 without a warning
        return _mix64_array(seeds + idx) >> np.uint64(11)

    u1 = (draws(1) + np.uint64(1)) / float(1 << 53)  # in (0, 1]: log is finite
    u2 = draws(n + 1) / float(1 << 53)
    for r in rngs:
        r.counter += 2 * n
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
