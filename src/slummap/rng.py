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
* ``Pcg32`` is the 64-bit-state / 32-bit-output PCG XSH-RR generator from
  O'Neill's ``pcg_basic.c``, seeded with ``(key, mix64(key))``.

Stream indices used by the pipeline (first element of the path):

=============  =====  ==================================================
BALANCE_STREAM   0    undersampling the majority class
SPLIT_STREAM     1    train/test partition
FOREST_STREAM    2    tree induction; full path is (2, tree_index)
=============  =====  ==================================================
"""

from __future__ import annotations

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
    key = master_seed & MASK64
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

    @classmethod
    def from_key(cls, key: int) -> "Pcg32":
        return cls(key & MASK64, mix64(key))

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * self.MULTIPLIER + self._inc) & MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & MASK32

    def randbelow(self, bound: int) -> int:
        """Unbiased integer in [0, bound) by rejection (pcg32_boundedrand_r)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 32) % bound
        while True:
            r = self.next_u32()
            if r >= threshold:
                return r % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, descending index order."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates order."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def bootstrap_indices(self, n: int, size: int | None = None) -> list[int]:
        """size draws from range(n) with replacement (default size = n)."""
        if size is None:
            size = n
        return [self.randbelow(n) for _ in range(size)]


def stream(master_seed: int, *path: int) -> Pcg32:
    """PCG32 stream for one pipeline stage, keyed by (master seed, path)."""
    return Pcg32.from_key(derive_key(master_seed, *path))
