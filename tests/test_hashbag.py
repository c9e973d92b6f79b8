"""Unit + property + concurrency tests for the parallel hash bag (§3.3)."""
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashbag import HashBag


def test_empty_bag():
    bag = HashBag(100)
    assert len(bag) == 0
    assert bag.extract_all().size == 0


def test_invalid_n():
    with pytest.raises(ValueError):
        HashBag(0)


def test_negative_insert_rejected():
    with pytest.raises(ValueError):
        HashBag(10).insert(-1)


def test_zero_is_storable():
    """Values are shifted by +1 internally so v=0 is a legal element."""
    bag = HashBag(10, seed=0)
    bag.insert(0)
    assert bag.extract_all().tolist() == [0]


def test_insert_extract_roundtrip():
    bag = HashBag(1000, seed=1)
    for v in range(500):
        bag.insert(v)
    got = sorted(bag.extract_all().tolist())
    assert got == list(range(500))


def test_extract_clears():
    bag = HashBag(100, seed=2)
    for v in range(50):
        bag.insert(v)
    bag.extract_all()
    assert len(bag) == 0
    assert bag.r == 0
    assert bag.sample.sum() == 0


def test_reusable_after_extract():
    bag = HashBag(200, seed=3)
    for rounds in range(3):
        for v in range(100):
            bag.insert(v)
        assert sorted(bag.extract_all().tolist()) == list(range(100))


def test_chunks_double():
    bag = HashBag(10_000, lam=16)
    tails = bag.tail
    assert tails[0] == 16
    assert all(tails[i] == 2 * tails[i - 1] for i in range(1, len(tails)))


def test_capacity_covers_n_over_alpha():
    bag = HashBag(1000, lam=16, alpha=0.5)
    assert bag.tail[-1] >= (1000 + 16) / 0.5


def test_sampling_triggers_resize():
    """With a small first chunk, inserting far more than lambda elements
    must advance the chunk pointer r (sampling-based resizing)."""
    bag = HashBag(5000, lam=32, sigma=5, seed=4)
    for v in range(2000):
        bag.insert(v)
    assert bag.r > 0
    assert sorted(bag.extract_all().tolist()) == list(range(2000))


def test_used_prefix_is_linear_in_size():
    """Thm 3.1: s elements live in the first O(s + lambda) slots."""
    bag = HashBag(100_000, lam=1024, seed=5)
    for v in range(2000):
        bag.insert(v)
    # Generous constant: load factor alpha=0.5 and chunk-doubling give
    # at most ~4x headroom over s + lambda.
    assert bag.used_prefix <= 8 * (2000 + 1024)
    assert bag.used_prefix < bag.tail[-1]  # far less than full O(n) scan


def test_probe_bound_forces_resize():
    """A tiny chunk with sampling disabled (huge sigma) must still resize
    via the kappa probe bound instead of looping forever."""
    bag = HashBag(500, lam=8, sigma=10**9, kappa=4, seed=6)
    for v in range(400):
        bag.insert(v)
    assert bag.r > 0
    assert sorted(bag.extract_all().tolist()) == list(range(400))


def test_len_tracks_inserts():
    bag = HashBag(100, seed=8)
    for i in range(30):
        bag.insert(i)
        assert len(bag) == i + 1


@pytest.mark.parametrize("n_threads", [2, 4, 8])
def test_concurrent_inserts_no_loss_no_dup(n_threads):
    """CAS emulation: concurrent disjoint inserts lose nothing and
    duplicate nothing."""
    per = 400
    bag = HashBag(n_threads * per + 10, lam=64, sigma=10)

    def worker(t):
        for v in range(t * per, (t + 1) * per):
            bag.insert(v)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    got = bag.extract_all().tolist()
    assert sorted(got) == list(range(n_threads * per))


@settings(max_examples=25, deadline=None)
@given(
    vals=st.lists(st.integers(min_value=0, max_value=10_000), unique=True, max_size=300),
    lam=st.sampled_from([8, 64, 1024]),
    sigma=st.sampled_from([3, 50]),
)
def test_property_roundtrip(vals, lam, sigma):
    bag = HashBag(10_001, lam=lam, sigma=sigma, seed=0)
    for v in vals:
        bag.insert(v)
    assert sorted(bag.extract_all().tolist()) == sorted(vals)


def test_full_capacity_insert():
    """Insert exactly n elements — the preallocated bound — succeeds."""
    n = 700
    bag = HashBag(n, lam=16, sigma=5, seed=9)
    for v in range(n):
        bag.insert(v)
    assert sorted(bag.extract_all().tolist()) == list(range(n))


def test_deterministic_given_seed():
    def run():
        bag = HashBag(500, seed=11)
        for v in range(200):
            bag.insert(v)
        return bag.bag.copy(), bag.r
    b1, r1 = run()
    b2, r2 = run()
    assert np.array_equal(b1, b2) and r1 == r2
