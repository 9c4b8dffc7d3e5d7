"""RngStream and RowStreams frame picks against numpy's own Generator, row for row."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcretrieval import RngStream, ValidationError, rng
from mcretrieval.rng import RowStreams, choice_rows

U64 = st.integers(0, 2**64 - 1)


def lengths_for(n):
    """Row lengths that take every path of choice(length, n)."""
    paths = [
        st.integers(1, n),  # with replacement below n, Floyd's algorithm at n
        st.just(n),
        st.integers(n + 1, 3 * n + 2),  # Floyd's algorithm
        # bounds just past 2**31: Lemire's method rejects about half of
        # the draws, so rows end at different word positions
        st.integers(2**31 + 2, 2**31 + 2**20),
        st.integers(2**32 - 2**20, 2**32),
        st.just(2**32),  # Floyd's last bound is 2**32 - 1, the largest 32-bit one
        st.integers(2**32 + 1, 2**40),  # bounds past 32 bits: numpy's own choice
    ]
    if n > 200:
        paths.append(st.integers(10_001, 50 * n - 1))  # numpy's tail shuffle: its own choice
    return st.one_of(paths)


def numpy_picks(gen, length, n):
    return np.sort(gen.choice(length, size=n, replace=length < n))


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.tuples(U64, U64), min_size=1, max_size=6),
       rng_bytes=st.one_of(st.integers(8, 2048), st.just(rng.RNG_BYTES)),
       data=st.data())
def test_rows_draw_what_numpy_draws(keys, rng_bytes, data):
    gens = [np.random.Generator(np.random.Philox(key=np.array(k, np.uint64))) for k in keys]
    rows = len(keys)
    with pytest.MonkeyPatch.context() as mp:
        # a small buffer puts refills inside and between requests
        mp.setattr(rng, "RNG_BYTES", rng_bytes)
        streams = RowStreams(keys)
        for _ in range(data.draw(st.integers(1, 8))):
            if data.draw(st.booleans()):
                k = data.draw(st.integers(1, 300))
                got = streams.uniform((rows, k))
                want = np.array([g.random(k) for g in gens])
            else:
                n = data.draw(st.one_of(st.integers(1, 8), st.integers(201, 240)))
                lengths = data.draw(st.lists(lengths_for(n), min_size=rows, max_size=rows))
                got = streams.frame_picks(lengths, n)
                want = np.array([numpy_picks(g, length, n) for g, length in zip(gens, lengths)])
                assert got.dtype == np.intp
            assert np.array_equal(got, want)
        # and every row stands where numpy's generator stands
        assert np.array_equal(streams.uniform((rows, 3)), np.array([g.random(3) for g in gens]))


def test_rows_at_different_positions_stay_exact():
    # bounds just past 2**31 reject about half of their draws: the rows fall
    # out of step, and every later request gathers each row's words from its own column
    keys = [(7, j) for j in range(16)]
    streams = RowStreams(keys)
    gens = [np.random.Generator(np.random.Philox(key=np.array(k, np.uint64))) for k in keys]
    lengths = [2**31 + 6 + j for j in range(15)] + [2**32]
    got = streams.frame_picks(lengths, 5)
    assert np.array_equal(got, [numpy_picks(g, length, 5) for g, length in zip(gens, lengths)])
    assert len(set(streams._pos.tolist())) > 1
    assert np.array_equal(streams.uniform((16, 40)), [g.random(40) for g in gens])


@settings(max_examples=60, deadline=None)
@given(key=st.tuples(U64, U64), data=st.data())
def test_rngstream_picks_draw_what_row_by_row_choice_draws(key, data):
    stream = RngStream(*key)
    gen = np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))
    for _ in range(data.draw(st.integers(1, 3))):
        # a bound below 2**32 takes a half word, so a call may start on numpy's held upper half
        for high in data.draw(st.lists(st.integers(1, 2**33), max_size=3)):
            assert stream._gen.integers(high) == gen.integers(high)
        n = data.draw(st.one_of(st.integers(1, 8), st.integers(201, 240)))
        lengths = data.draw(st.lists(lengths_for(n), min_size=1, max_size=6))
        got = stream.frame_picks(lengths, n)
        assert got.dtype == np.intp
        assert np.array_equal(got, [numpy_picks(gen, length, n) for length in lengths])
        # and the stream stands where numpy's generator stands, held half word included
        assert stream.uniform() == gen.random()
        assert stream._gen.integers(2**20) == gen.integers(2**20)


def test_rejections_redo_with_numpy_in_both_classes(monkeypatch):
    # bounds just past 2**31 may reject about half of their draws, so some rows go to numpy's own choice
    redone = []

    def recording(*args):
        picks, counts, redo = choice_rows(*args)
        redone.append(int(redo.sum()))
        return picks, counts, redo

    monkeypatch.setattr(rng, "choice_rows", recording)
    lengths = [2**31 + 6 + j for j in range(15)] + [7]
    keys = [(11, j) for j in range(16)]
    gens = [np.random.Generator(np.random.Philox(key=np.array(k, np.uint64))) for k in keys]
    got = RowStreams(keys).frame_picks(lengths, 5)
    assert np.array_equal(got, [numpy_picks(g, length, 5) for g, length in zip(gens, lengths)])
    gen = np.random.Generator(np.random.Philox(key=np.array(keys[0], np.uint64)))
    got = RngStream(*keys[0]).frame_picks(lengths, 5)
    assert np.array_equal(got, [numpy_picks(gen, length, 5) for length in lengths])
    assert len(redone) == 2 and min(redone) > 0


def test_rngstream_frame_picks_draw_row_after_row():
    lengths = [4, 2, 9, 3]
    got = RngStream(3, 1).frame_picks(lengths, 3)
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 1], np.uint64)))
    assert np.array_equal(got, [numpy_picks(gen, length, 3) for length in lengths])


def test_shape_checks():
    streams = RowStreams([(1, 2), (3, 4)])
    with pytest.raises(ValidationError):
        streams.uniform((3, 4))
    with pytest.raises(ValidationError):
        streams.frame_picks([5, 5, 5], 2)
    with pytest.raises(ValidationError):
        RowStreams([1, 2, 3])
