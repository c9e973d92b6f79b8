"""Tests for the phase-concurrent pair table + §4.5 sizing heuristic."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairtable import PairTable, heuristic_capacity, next_pow2


def test_next_pow2():
    assert next_pow2(1) == 2
    assert next_pow2(16) == 16
    assert next_pow2(17) == 32
    assert next_pow2(1000) == 1024


def test_insert_new_and_duplicate():
    t = PairTable(100)
    assert t.insert(3, 7) is True
    assert t.insert(3, 7) is False
    assert t.size == 1


def test_contains():
    t = PairTable(50)
    t.insert(1, 2)
    assert (1, 2) in t
    assert (2, 1) not in t


def test_pairs_roundtrip():
    t = PairTable(64)
    want = {(v, s) for v in range(10) for s in range(5)}
    for v, s in want:
        t.insert(v, s)
    pv, ps = t.pairs()
    assert set(zip(pv.tolist(), ps.tolist())) == want


def test_grows_under_load():
    t = PairTable(10_000, capacity=16)
    for v in range(500):
        t.insert(v, 0)
    assert t.capacity >= 500
    assert t.rehash_cost > 0
    for v in range(500):
        assert (v, 0) in t


def test_reserve_avoids_rehash():
    t = PairTable(10_000, capacity=16)
    t.reserve(4096)
    base = t.rehash_cost
    for v in range(500):
        t.insert(v, 0)
    assert t.rehash_cost == base  # no further growth needed


def test_reserve_never_shrinks():
    t = PairTable(100, capacity=1024)
    t.reserve(16)
    assert t.capacity == 1024


def test_snapshot_holds_packed_keys():
    """Kernels test a pair (v, s) against the snapshot as ``v * n + s in keys``."""
    t = PairTable(77)
    t.insert(10, 20)
    t.insert(0, 0)
    keys = t.snapshot()
    assert 10 * 77 + 20 in keys
    assert 0 in keys
    assert 20 * 77 + 10 not in keys
    assert len(keys) == t.size == 2


def test_capacity_model():
    """Capacity and rebuild cost of the open-addressing table, by hand: a
    rebuild from c to c' slots costs c + c', and every insert call at 3/4
    load doubles the table first, duplicates included."""
    t = PairTable(100, capacity=16)
    assert (t.capacity, t.rehash_cost) == (16, 0)
    t.reserve(20)  # next_pow2(20) = 32: 16 + 32
    assert (t.capacity, t.rehash_cost) == (32, 48)
    t.reserve(8)  # never shrinks
    assert (t.capacity, t.rehash_cost) == (32, 48)
    for v in range(24):  # up to 24 / 32 = 3/4 load, no rebuild
        t.insert(v, 0)
    assert (t.size, t.capacity, t.rehash_cost) == (24, 32, 48)
    assert t.insert(0, 0) is False  # a duplicate at 3/4 load: 32 + 64
    assert (t.size, t.capacity, t.rehash_cost) == (24, 64, 144)
    for v in range(24, 48):
        t.insert(v, 0)
    assert (t.size, t.capacity, t.rehash_cost) == (48, 64, 144)
    assert t.insert(48, 0) is True  # 64 + 128
    assert (t.size, t.capacity, t.rehash_cost) == (49, 128, 336)


def test_heuristic_capacity_formula():
    """max(0.3 b, 1.5 a) rounded up (plus load-factor headroom)."""
    cap = heuristic_capacity(prev_frontier_pairs=1000, unfinished=100)
    assert cap >= 1.5 * 1000
    cap2 = heuristic_capacity(prev_frontier_pairs=0, unfinished=10_000)
    assert cap2 >= 0.3 * 10_000
    assert heuristic_capacity(0, 0) >= 16


@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 199), st.integers(0, 199)), unique=True, max_size=300
    )
)
def test_property_set_semantics(pairs):
    t = PairTable(200, capacity=16)
    for v, s in pairs:
        assert t.insert(v, s) is True
    for v, s in pairs:
        assert t.insert(v, s) is False
    pv, ps = t.pairs()
    assert set(zip(pv.tolist(), ps.tolist())) == set(pairs)
    assert t.size == len(pairs)
