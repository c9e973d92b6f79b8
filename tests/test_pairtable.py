"""Tests for the phase-concurrent pair table + §4.5 sizing heuristic."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pairtable import PairTable, heuristic_capacity, next_pow2


def keys(*ks) -> np.ndarray:
    return np.array(ks, dtype=np.int64)


def test_next_pow2():
    assert next_pow2(1) == 2
    assert next_pow2(16) == 16
    assert next_pow2(17) == 32
    assert next_pow2(1000) == 1024


def test_insert_rejects_a_repeated_or_held_key():
    t = PairTable(100)
    assert t.insert(keys(3 * 100 + 7, 5)) == 2
    with pytest.raises(ValueError):
        t.insert(keys(1, 2, 1))  # repeats within the call
    with pytest.raises(ValueError):
        t.insert(keys(8, 5))  # 5 is already held
    assert t.snapshot() == {307, 5}
    assert t.insert(keys()) == 0


def test_pairs_roundtrip():
    t = PairTable(64)
    want = {(v, s) for v in range(10) for s in range(5)}
    t.insert(np.array([v * 64 + s for v, s in want], dtype=np.int64))
    pv, ps = t.pairs()
    assert set(zip(pv.tolist(), ps.tolist())) == want


def test_grows_under_load():
    t = PairTable(10_000, capacity=16)
    t.insert(np.arange(500, dtype=np.int64) * 10_000)
    assert t.capacity >= 500
    assert t.rehash_cost > 0
    assert t.snapshot() == set(range(0, 500 * 10_000, 10_000))


def test_sized_table_does_not_rehash_until_three_quarters_load():
    """A table made at c > 64 slots charges no rebuild for being made, and
    none until an insert passes 3/4 load."""
    t = PairTable(10_000, capacity=4096)
    assert (t.capacity, t.rehash_cost) == (4096, 0)
    t.insert(np.arange(3071, dtype=np.int64))
    t.insert(keys(3071))  # 3072 = 3/4 of 4096 held: still no rebuild
    assert (t.size, t.capacity, t.rehash_cost) == (3072, 4096, 0)
    t.insert(keys(3072))
    assert (t.capacity, t.rehash_cost) == (8192, 4096 + 8192)


def test_heuristic_capacity_is_at_least_64():
    """The sized table is never smaller than the grow-on-demand one."""
    assert heuristic_capacity(0, 0) == 64
    assert PairTable(10).capacity == 64


def test_snapshot_holds_packed_keys():
    """Kernels test a pair (v, s) against the snapshot as ``v * n + s in keys``."""
    t = PairTable(77)
    t.insert(keys(10 * 77 + 20, 0))
    ks = t.snapshot()
    assert 10 * 77 + 20 in ks
    assert 0 in ks
    assert 20 * 77 + 10 not in ks
    assert len(ks) == t.size == 2


def test_capacity_model():
    """Capacity and rebuild cost of the open-addressing table, by hand: a
    rebuild from c to c' slots costs c + c', and a key inserted at 3/4
    load doubles the table first."""
    t = PairTable(100, capacity=20)  # next_pow2(20) = 32, made, not rebuilt
    assert (t.capacity, t.rehash_cost) == (32, 0)
    t.insert(np.arange(24, dtype=np.int64))  # up to 24 / 32 = 3/4 load
    assert (t.size, t.capacity, t.rehash_cost) == (24, 32, 0)
    t.insert(keys(24))  # 32 + 64
    assert (t.size, t.capacity, t.rehash_cost) == (25, 64, 96)
    t.insert(np.arange(25, 97, dtype=np.int64))  # 64 + 128 at 48, 128 + 256 at 96
    assert (t.size, t.capacity, t.rehash_cost) == (97, 256, 672)


def test_heuristic_capacity_formula():
    """max(0.3 b, 1.5 a) rounded up (plus load-factor headroom)."""
    cap = heuristic_capacity(prev_frontier_pairs=1000, unfinished=100)
    assert cap >= 1.5 * 1000
    cap2 = heuristic_capacity(prev_frontier_pairs=0, unfinished=10_000)
    assert cap2 >= 0.3 * 10_000
    assert heuristic_capacity(0, 0) >= 16


def one_key_at_a_time(capacity: int, sizes: list[int]) -> list[tuple[int, int]]:
    """Reference model: (capacity, rehash_cost) after each batch when its
    keys go in one at a time, each doubling a table at 3/4 load first."""
    cap, cost, size, out = next_pow2(capacity), 0, 0, []
    for k in sizes:
        for _ in range(k):
            if size * 4 >= cap * 3:
                cost += cap + 2 * cap
                cap *= 2
            size += 1
        out.append((cap, cost))
    return out


@settings(max_examples=50, deadline=None)
@given(capacity=st.integers(2, 300), sizes=st.lists(st.integers(0, 120), max_size=12))
@example(capacity=64, sizes=[48, 1])  # the first batch's last key reaches 3/4 load
@example(capacity=64, sizes=[47, 2])  # ... and here the second one's
def test_property_batches_grow_like_single_keys(capacity, sizes):
    t = PairTable(10_000, capacity)
    got, lo = [], 0
    for k in sizes:
        t.insert(np.arange(lo, lo + k, dtype=np.int64)[::-1])
        lo += k
        got.append((t.capacity, t.rehash_cost))
    assert got == one_key_at_a_time(capacity, sizes)
    assert t.size == lo


@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 199), st.integers(0, 199)), unique=True, max_size=300
    ),
    cut=st.integers(0, 300),
)
def test_property_set_semantics(pairs, cut):
    t = PairTable(200, capacity=16)
    ks = np.array([v * 200 + s for v, s in pairs], dtype=np.int64)
    assert t.insert(ks[:cut]) + t.insert(ks[cut:]) == len(pairs)
    if len(pairs):
        with pytest.raises(ValueError):
            t.insert(ks[-1:])
    pv, ps = t.pairs()
    assert set(zip(pv.tolist(), ps.tolist())) == set(pairs)
    assert t.size == len(pairs)
