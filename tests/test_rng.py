import numpy as np
import pytest

from slummap.rng import (
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
    draws = [rng.randbelow(10) for _ in range(20000)]
    assert min(draws) == 0 and max(draws) == 9
    counts = np.bincount(draws, minlength=10)
    assert counts.min() > 1700  # expectation 2000 per bucket

    with pytest.raises(ValueError):
        rng.randbelow(0)


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
