import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genreclf.rng import GOLDEN, SeededRng, derive_seed

MASK = (1 << 64) - 1


def splitmix64_reference(seed, n):
    """Independent pure-int splitmix64 (Steele/Vigna reference semantics)."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + GOLDEN) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z = z ^ (z >> 31)
        out.append(z)
    return out


def test_matches_reference_stream():
    for seed in (0, 1, 1234567, 2**63 + 17):
        got = [int(x) for x in SeededRng(seed).raw(8)]
        assert got == splitmix64_reference(seed, 8)


def test_known_answer_seed_zero():
    # canonical first splitmix64 output for state 0
    assert int(SeededRng(0).raw(1)[0]) == 0xE220A8397B1DCDAF


def test_stream_continuation_matches_block_draw():
    a = SeededRng(42)
    first = a.raw(5)
    second = a.raw(5)
    assert np.array_equal(np.concatenate([first, second]), SeededRng(42).raw(10))


def test_same_seed_same_values():
    r1, r2 = SeededRng(7), SeededRng(7)
    assert np.array_equal(r1.uniform((100,)), r2.uniform((100,)))
    assert np.array_equal(r1.normal((50, 3)), r2.normal((50, 3)))
    assert np.array_equal(r1.permutation(31), r2.permutation(31))


def test_uniform_bounds_and_moments():
    u = SeededRng(3).uniform((200000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_moments():
    z = SeededRng(4).normal((200000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_permutation_is_a_permutation():
    p = SeededRng(9).permutation(1000)
    assert np.array_equal(np.sort(p), np.arange(1000))


def test_subsample_sorted():
    rng = SeededRng(11)
    idx = rng.subsample_sorted(100, 10)
    assert len(idx) == 10
    assert np.all(np.diff(idx) > 0)
    assert rng.subsample_sorted(5, 10).tolist() == [0, 1, 2, 3, 4]


@settings(max_examples=200, deadline=None)
@example(seed=0, counter=0, n=3, d=4, rows=[0, 2])
@example(seed=5, counter=2**40, n=6, d=3, rows=[5, 0, 3, 3])
@example(seed=1, counter=0, n=4, d=2, rows=[])
@example(seed=2, counter=2**64 - 3, n=2, d=3, rows=[1, 0])   # the counter wraps past 2**64
@given(seed=st.integers(0, 2**64 - 1), counter=st.integers(0, 2**48), n=st.integers(1, 12),
       d=st.integers(1, 6), rows=st.lists(st.integers(0, 11), max_size=12))
def test_uniform_of_rows_indexes_the_full_draw(seed, counter, n, d, rows):
    rows = np.array([r for r in rows if r < n], dtype=np.int64)
    full, picked = SeededRng(seed, counter), SeededRng(seed, counter)
    want = full.uniform((n, d))[rows]
    got = picked.uniform((n, d), rows=rows)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert picked.counter == full.counter == (counter + n * d) % 2**64


def test_uniform_of_rows_of_rank_one_and_four():
    rows = np.array([3, 0, 1])
    for shape in ((4,), (4, 5, 3, 2)):
        want = SeededRng(8, 3).uniform(shape)[rows]
        assert SeededRng(8, 3).uniform(shape, rows=rows).tobytes() == want.tobytes()


def test_uniform_of_no_rows_advances_past_the_shape():
    rng = SeededRng(4, 9)
    got = rng.uniform((5, 3), rows=np.array([], dtype=np.int64))
    assert got.shape == (0, 3) and got.dtype == np.float64
    assert rng.counter == 9 + 15


@pytest.mark.parametrize("rows", [[3], [-1], [0, 3]])
def test_uniform_of_rows_outside_the_shape_refused(rows):
    # row 3 of a (3, 2) draw would be the next draw's first row, and -1 would wrap
    rng = SeededRng(2)
    with pytest.raises(ValueError, match="rows must index axis 0"):
        rng.uniform((3, 2), rows=np.array(rows))
    assert rng.counter == 0


def test_uniform_of_rows_between_low_and_high():
    rows = np.array([2, 2, 0])
    want = SeededRng(6, 1).uniform((3, 4), -2.5, 7.0)[rows]
    got = SeededRng(6, 1).uniform((3, 4), -2.5, 7.0, rows=rows)
    assert got.tobytes() == want.tobytes()
    assert np.all((got >= -2.5) & (got < 7.0))


def test_state_round_trip_resumes_stream():
    rng = SeededRng(123)
    rng.raw(17)
    resumed = SeededRng.from_state(rng.state())
    assert np.array_equal(rng.raw(10), resumed.raw(10))


def test_derive_seed_distinct_and_stable():
    seeds = {derive_seed(0, "a"), derive_seed(0, "b"), derive_seed(1, "a"),
             derive_seed(0, "a", 1), derive_seed(0, "a", 2)}
    assert len(seeds) == 5
    assert derive_seed(5, "shuffle", 3) == derive_seed(5, "shuffle", 3)


def test_counter_wraps_as_the_stream_arithmetic_does():
    # the outputs past counter 2**64 are those past counter 0
    rng = SeededRng(5, 2**64 - 2)
    out = rng.raw(4)
    assert rng.counter == 2
    assert out[2:].tolist() == SeededRng(5).raw(2).tolist()
