import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slummap.rng import (
    _BLOCK,
    BALANCE_STREAM,
    FOREST_STREAM,
    GOLDEN_GAMMA,
    MASK64,
    SPLIT_STREAM,
    Pcg32,
    derive_key,
    mix64,
    stream,
)

from .oracles import (
    bootstrap_oracle,
    randbelow_oracle,
    sample_without_replacement_oracle,
    shuffle_oracle,
)

KEYS = (0, derive_key(1, FOREST_STREAM, 0), derive_key(2024, SPLIT_STREAM))
SIZES = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK)


def test_splitmix64_reference_vector():
    # First outputs for seed 0, from Vigna's splitmix64.c test values: the
    # k-th output is mix64 of the state after k golden-gamma increments.
    outputs = [mix64((k * GOLDEN_GAMMA) & MASK64) for k in (1, 2, 3)]
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_pcg32_reference_vector():
    # pcg32_srandom_r(42, 54) demo output from pcg_basic.
    rng = Pcg32(42, 54)
    expected = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]
    assert [rng.next_u32() for _ in range(6)] == expected


def test_derive_key_is_order_and_index_sensitive():
    keys = {
        derive_key(0),
        derive_key(0, 0),
        derive_key(0, 1),
        derive_key(0, 0, 1),
        derive_key(0, 1, 0),
        derive_key(1, 0),
    }
    assert len(keys) == 6


def test_streams_are_deterministic_and_distinct():
    a = stream(0, FOREST_STREAM, 3)
    b = stream(0, FOREST_STREAM, 3)
    c = stream(0, FOREST_STREAM, 4)
    seq_a = [a.next_u32() for _ in range(8)]
    assert seq_a == [b.next_u32() for _ in range(8)]
    assert seq_a != [c.next_u32() for _ in range(8)]
    assert {BALANCE_STREAM, SPLIT_STREAM, FOREST_STREAM} == {0, 1, 2}


def test_randbelow_range_and_rough_uniformity():
    rng = Pcg32.from_key(derive_key(7))
    draws = rng.randbelow_array(np.full(20000, 10))
    assert draws.min() == 0 and draws.max() == 9
    counts = np.bincount(draws, minlength=10)
    assert counts.min() > 1700  # expectation 2000 per bucket

    with pytest.raises(ValueError):
        rng.randbelow_array([0])


def test_shuffle_is_a_permutation():
    rng = stream(3, SPLIT_STREAM)
    items = list(range(100))
    rng.shuffle(items)
    assert sorted(items) == list(range(100))
    assert items != list(range(100))


def test_sample_without_replacement_distinct_and_exhaustive():
    rng = stream(5, BALANCE_STREAM)
    picked = rng.sample_without_replacement(50, 20)
    assert len(picked) == 20
    assert len(set(picked)) == 20
    assert all(0 <= i < 50 for i in picked)
    assert sorted(rng.sample_without_replacement(7, 7)) == list(range(7))


def test_bootstrap_indices_size_and_range():
    rng = stream(9, FOREST_STREAM, 0)
    idx = rng.bootstrap_indices(13)
    assert len(idx) == 13
    assert all(0 <= i < 13 for i in idx)


def test_bound_above_2_32_is_rejected_without_drawing():
    rng = Pcg32.from_key(KEYS[1])
    state = rng._state
    for bad in ([0], [1 << 32 | 1], [5, 1 << 33], [1 << 70]):
        with pytest.raises(ValueError):
            rng.randbelow_array(bad)
    assert rng._state == state
    oracle = Pcg32.from_key(KEYS[1])
    assert rng.randbelow_array([1 << 32]).tolist() == [randbelow_oracle(oracle, 1 << 32)]
    assert rng._state == oracle._state


# 2**31 + 1 rejects every raw value below 2**31 - 1: about half of them.
@pytest.mark.parametrize("bound", [1, 7, 2**31 + 1, 2**32])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("key", KEYS)
def test_bootstrap_indices_equal_scalar_oracle(key, size, bound):
    # A bootstrap is a run of draws under one constant bound.
    rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
    got = rng.randbelow_array(np.full(size, bound, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == bootstrap_oracle(oracle, bound, size)
    assert rng._state == oracle._state


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("key", KEYS)
def test_sample_without_replacement_equals_scalar_oracle(key, size):
    for n, k in ((size, size), (size + 5, size // 2)):
        rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
        assert rng.sample_without_replacement(n, k).tolist() == (
            sample_without_replacement_oracle(oracle, n, k)
        )
        assert rng._state == oracle._state


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("key", KEYS)
def test_shuffle_equals_scalar_oracle_on_lists_and_arrays(key, size):
    rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
    expected = list(range(size))
    shuffle_oracle(oracle, expected)
    as_list = list(range(size))
    rng.shuffle(as_list)
    assert as_list == expected
    assert rng._state == oracle._state
    as_array = np.arange(size)
    Pcg32.from_key(key).shuffle(as_array)
    assert as_array.tolist() == expected


def test_mixed_bounds_across_rejections_equal_scalar_oracle():
    # Alternate a bound that rejects half the raw values with small ones, so
    # rejections land inside, at the end of and across draw blocks.
    bounds = [2**31 + 1 if i % 3 else 1 + i % 11 for i in range(3 * _BLOCK + 7)]
    for key in KEYS:
        rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
        assert rng.randbelow_array(bounds).tolist() == [
            randbelow_oracle(oracle, b) for b in bounds
        ]
        assert rng._state == oracle._state


def test_successive_calls_and_scalar_steps_equal_scalar_oracle():
    # Later calls are served from the block an earlier call computed, until a
    # scalar next_u32 step moves the stream past it.
    rng, oracle = Pcg32.from_key(KEYS[2]), Pcg32.from_key(KEYS[2])
    for size in (5, 1, _BLOCK - 7, 3, 2 * _BLOCK + 1, 0, 4):
        assert rng.randbelow_array(np.full(size, 9)).tolist() == bootstrap_oracle(oracle, 9, size)
        assert rng.sample_without_replacement(size + 2, 2).tolist() == (
            sample_without_replacement_oracle(oracle, size + 2, 2)
        )
        items, expected = list(range(size)), list(range(size))
        rng.shuffle(items)
        shuffle_oracle(oracle, expected)
        assert items == expected
        assert rng._state == oracle._state
        if size % 2:
            assert rng.next_u32() == oracle.next_u32()


def test_raw_value_equal_to_its_threshold_is_accepted():
    # For r < 2**31, 2**32 % (2**32 - r) == r: the bound puts the stream's
    # first raw value exactly on its rejection threshold.
    key = next(k for k in range(100) if Pcg32.from_key(k).next_u32() < 2**31)
    first = Pcg32.from_key(key).next_u32()
    rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
    bounds = [2**32 - first, 3]
    got = rng.randbelow_array(bounds).tolist()
    assert got == [randbelow_oracle(oracle, b) for b in bounds]
    assert got[0] == first
    assert rng._state == oracle._state


@settings(max_examples=60, deadline=None)
@given(
    key=st.integers(0, 2**64 - 1),
    bound=st.one_of(st.integers(1, 64), st.integers(1, 2**32)),
    size=st.integers(0, 2 * _BLOCK + 3),
)
def test_block_draws_equal_scalar_oracle_property(key, bound, size):
    rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
    got = rng.randbelow_array(np.full(size, bound, dtype=np.int64))
    assert got.tolist() == bootstrap_oracle(oracle, bound, size)
    assert rng._state == oracle._state


@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("key", KEYS)
def test_bootstrap_indices_method_equals_scalar_oracle(key, n):
    # bootstrap_indices draws under one scalar bound, not through randbelow_array.
    rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
    rng.next_u32(), oracle.next_u32()  # start off a block boundary
    got = rng.bootstrap_indices(n)
    assert got.dtype == np.int64
    assert got.tolist() == bootstrap_oracle(oracle, n, n)
    assert rng._state == oracle._state
    assert rng.bootstrap_indices(n).tolist() == bootstrap_oracle(oracle, n, n)
    assert rng._state == oracle._state


@pytest.mark.parametrize("bound", [7, 2**31 + 1, 2**32])
@pytest.mark.parametrize("key", KEYS)
def test_one_bound_for_all_draws_equals_scalar_oracle_across_rejections(key, bound):
    # The path bootstrap_indices takes, under bounds that reject half the raw
    # values (2**31 + 1) or none (2**32).
    size = 2 * _BLOCK + 5
    rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
    assert rng._bounded(size, np.int64(bound)).tolist() == bootstrap_oracle(oracle, bound, size)
    assert rng._state == oracle._state


def test_bootstrap_indices_of_nothing_draws_nothing():
    rng = Pcg32.from_key(KEYS[1])
    state = rng._state
    assert rng.bootstrap_indices(0).tolist() == []
    assert rng._state == state
    with pytest.raises(ValueError):
        rng.bootstrap_indices(-1)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("key", KEYS)
def test_shuffle_of_an_array_equals_scalar_oracle_and_keeps_its_dtype(key, size):
    rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
    expected = list(range(size))
    shuffle_oracle(oracle, expected)
    items = np.arange(size, dtype=np.int32)
    rng.shuffle(items)
    assert items.dtype == np.int32
    assert items.tolist() == expected
    assert rng._state == oracle._state


@pytest.mark.parametrize("n", [1, 2, 3, 28, _BLOCK + 1])
@pytest.mark.parametrize("key", KEYS)
def test_sample_without_replacement_with_k_near_n_equals_scalar_oracle(key, n):
    for k in {0, max(n - 2, 0), n - 1, n}:
        rng, oracle = Pcg32.from_key(key), Pcg32.from_key(key)
        got = rng.sample_without_replacement(n, k)
        assert got.dtype == np.int64
        assert got.tolist() == sample_without_replacement_oracle(oracle, n, k)
        assert rng._state == oracle._state
