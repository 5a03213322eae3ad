"""Pinned, reproducible random number generation.

Every randomized stage of the pipeline (majority undersampling, train/test
partition, per-tree feature subsampling and projection bootstraps) draws from
a PCG32 stream derived from one master seed. The algorithms are pinned so the
same seed produces the same bytes on any platform or language:

* ``mix64`` is the output finalizer of the splitmix64 generator (Steele,
  Lea & Flood 2014; the constants are the ones in Vigna's reference
  ``splitmix64.c``). ``mix64(k * GOLDEN_GAMMA mod 2^64)`` is that
  generator's k-th output from seed 0.
* ``derive_key(master, *path)`` absorbs a tuple of non-negative stream
  indices into the master seed, one ``mix64`` application per index:
  ``key <- mix64(key + (index + 1) * 0x9E3779B97F4A7C15 mod 2^64)``.
  The master seed lies in [0, 2^64 - 1]; any other raises ValueError, since
  reducing it mod 2^64 would silently rerun a seed inside that range.
* ``Pcg32`` is the 64-bit-state / 32-bit-output PCG XSH-RR generator from
  O'Neill's ``pcg_basic.c``, seeded with ``(key, mix64(key))``.
* ``Pcg32.randbelow_array`` draws many bounded values at once by jump-ahead.
  The state k steps after ``s`` is ``A_k * s + C_k * inc (mod 2^64)`` with
  ``A_k = M^k`` and ``C_k = M^(k-1) + ... + M + 1`` (Brown 1994, "Random
  number generation with arbitrary strides"; ``pcg32_advance`` in O'Neill's
  C library). One table of ``A_k``, ``C_k`` for k up to ``_BLOCK`` is built
  per process. A block of ``_BLOCK`` states is then one multiply-add in
  wrapping uint64 numpy, and XSH-RR runs on the whole block. Each generator
  keeps its current block of raw outputs and serves the following draws from
  it, across calls; longer draws chain block by block, so memory does not
  grow with the draw count.
* Bounded draws keep ``pcg32_boundedrand_r``'s rejection rule exactly: draw
  i takes the first raw value at or above ``2^32 mod bound_i`` that comes
  after draw i-1's accepted value and returns it ``mod bound_i``, and the
  stream advances by exactly the raw values consumed. Bounds lie in
  [1, 2^32]. ``bootstrap_indices``, ``sample_without_replacement`` and
  ``shuffle`` therefore return the values, and leave the state, of the
  scalar loop of ``pcg32_boundedrand_r`` calls that defines them; the test
  suite keeps that loop as its oracle.

Stream indices used by the pipeline (first element of the path):

=============  =====  ==================================================
BALANCE_STREAM   0    undersampling the majority class
SPLIT_STREAM     1    train/test partition
FOREST_STREAM    2    tree induction; full path is (2, tree_index)
=============  =====  ==================================================
"""

from __future__ import annotations

import functools

import numpy as np

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

GOLDEN_GAMMA = 0x9E3779B97F4A7C15

BALANCE_STREAM = 0
SPLIT_STREAM = 1
FOREST_STREAM = 2


def mix64(z: int) -> int:
    """splitmix64 output finalizer: a bijective avalanche on 64-bit ints."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_key(master_seed: int, *path: int) -> int:
    """Map (master seed, stream index path) to a 64-bit sub-stream key."""
    if not 0 <= master_seed <= MASK64:
        raise ValueError(f"master seed must lie in [0, 2**64 - 1], got {master_seed}")
    key = master_seed
    for index in path:
        if index < 0:
            raise ValueError("stream indices must be non-negative")
        key = mix64((key + (index + 1) * GOLDEN_GAMMA) & MASK64)
    return key


class Pcg32:
    """PCG XSH-RR 64/32 (pcg32), O'Neill's reference constants.

    ``next_u32`` reproduces ``pcg32_random_r``; the constructor reproduces
    ``pcg32_srandom_r(initstate, initseq)``.
    """

    MULTIPLIER = 6364136223846793005

    def __init__(self, init_state: int, init_seq: int):
        self._state = 0
        self._inc = ((init_seq << 1) | 1) & MASK64
        self.next_u32()
        self._state = (self._state + init_state) & MASK64
        self.next_u32()
        # Raw outputs computed ahead by randbelow_array: the block that starts
        # at state _ahead_base, of which the first _ahead_pos are consumed.
        # They are the stream's next values only while _state is _ahead_state.
        self._ahead = np.empty(0, dtype=np.uint32)
        self._ahead_base = 0
        self._ahead_pos = 0
        self._ahead_state: int | None = None

    @classmethod
    def from_key(cls, key: int) -> "Pcg32":
        return cls(key & MASK64, mix64(key))

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * self.MULTIPLIER + self._inc) & MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & MASK32

    def randbelow_array(self, bounds) -> np.ndarray:
        """One unbiased integer in [0, bounds[i]) per entry, in order, as int64.

        Equal, value for value and in the state left behind, to calling
        ``pcg32_boundedrand_r`` on each bound in turn.
        """
        bounds = np.asarray(bounds)
        if bounds.size and (bounds.min() < 1 or bounds.max() > 1 << 32):
            raise ValueError("bound must lie in [1, 2**32]")
        return self._bounded(bounds.shape[0], bounds.astype(np.int64, copy=False))

    def _bounded(self, count: int, bounds) -> np.ndarray:
        """count bounded draws under an int64 array of count bounds, or under
        one np.int64 bound for them all.

        Raw values come from blocks computed ahead by jump-ahead; a rejected
        raw value is skipped and the draws after it shift one position along
        the stream.
        """
        const = bounds.ndim == 0
        thresholds = (1 << 32) % bounds
        out = np.empty(count, dtype=np.int64)
        done = 0
        while done < count:
            if self._state != self._ahead_state or self._ahead_pos == _BLOCK:
                self._compute_ahead()
            raw = self._ahead[self._ahead_pos : self._ahead_pos + count - done]
            length = raw.shape[0]
            ok = raw >= (thresholds if const else thresholds[done : done + length])
            accepted = length if ok.all() else int(ok.argmin())
            out[done : done + accepted] = raw[:accepted] % (
                bounds if const else bounds[done : done + accepted]
            )
            done += accepted
            self._consume(accepted + (accepted < length))  # with the rejected value
        return out

    def _compute_ahead(self) -> None:
        """The next _BLOCK raw values: states A_k * s + C_k * inc, then XSH-RR."""
        a, c = _jump_table()
        states = a[:_BLOCK] * np.uint64(self._state) + c[:_BLOCK] * np.uint64(self._inc)
        self._ahead = _xsh_rr(states)
        self._ahead_base = self._state
        self._ahead_pos = 0
        self._ahead_state = self._state

    def _consume(self, count: int) -> None:
        """Move the stream past the next count raw values of the current block."""
        a, c = _jump_table()
        self._ahead_pos += count
        k = self._ahead_pos
        self._state = (int(a[k]) * self._ahead_base + int(c[k]) * self._inc) & MASK64
        self._ahead_state = self._state

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle of a list or 1-D array, descending index order."""
        picks = self.randbelow_array(np.arange(len(items), 1, -1))
        values = items.tolist() if isinstance(items, np.ndarray) else items
        for i, j in zip(range(len(values) - 1, 0, -1), picks.tolist()):
            values[i], values[j] = values[j], values[i]
        if values is not items:
            items[:] = values

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), partial Fisher-Yates order."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        picks = self.randbelow_array(np.arange(n, n - k, -1))
        pool = list(range(n))
        for i, j in enumerate(picks.tolist()):
            j += i
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(pool[:k], dtype=np.int64)

    def bootstrap_indices(self, n: int) -> np.ndarray:
        """n draws from range(n) with replacement, all under the one bound n."""
        if not 0 <= n <= 1 << 32:
            raise ValueError("need 0 <= n <= 2**32")
        return self._bounded(n, np.int64(max(n, 1)))  # n = 0 draws nothing


_BLOCK = 1024


@functools.cache
def _jump_table() -> tuple[np.ndarray, np.ndarray]:
    """A_k = M^k and C_k = M^(k-1) + ... + M + 1 (mod 2^64) for k = 0.._BLOCK.

    The PCG32 state k steps after s is A_k * s + C_k * inc (mod 2^64).
    """
    a, c = [1], [0]
    for _ in range(_BLOCK):
        a.append(a[-1] * Pcg32.MULTIPLIER & MASK64)
        c.append((c[-1] * Pcg32.MULTIPLIER + 1) & MASK64)
    a, c = np.array(a, dtype=np.uint64), np.array(c, dtype=np.uint64)
    a.flags.writeable = c.flags.writeable = False  # shared by every generator
    return a, c


def _xsh_rr(states: np.ndarray) -> np.ndarray:
    """PCG32's XSH-RR output of each uint64 state (``next_u32`` on arrays)."""
    xorshifted = (((states >> 18) ^ states) >> 27).astype(np.uint32)
    rot = (states >> 59).astype(np.uint32)
    return (xorshifted >> rot) | (xorshifted << (-rot & 31))


def stream(master_seed: int, *path: int) -> Pcg32:
    """PCG32 stream for one pipeline stage, keyed by (master seed, path)."""
    return Pcg32.from_key(derive_key(master_seed, *path))
