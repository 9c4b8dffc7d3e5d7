"""Counter-based random streams.

Every stochastic component draws from an RngStream identified by a
(seed, stream_id) pair. Streams with distinct ids are statistically
independent and the value sequence for a given pair is fixed, so any
piece of work can be replayed or run concurrently without sharing
generator state.

A mask source is whatever a forward draws its dropout masks and frame
picks from: one RngStream serves every row of a batch, as training
uses, while RowStreams gives each batch row a stream of its own.
"""

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)

# bytes of Philox words a RowStreams buffers across all its rows, and words it buffers per row at most
RNG_BYTES = 4 << 20
ROW_WORDS = 2048


class RngStream:
    """A named, replayable random stream backed by the Philox counter generator."""

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValidationError(f"seed and stream_id must be non-negative, got ({seed}, {stream_id})")
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        # key = (seed, stream_id): distinct pairs give independent streams
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def substream(self, k: int) -> "RngStream":
        """Derive an independent child stream; k values must be unique per parent."""
        child = (self.stream_id * 0x9E3779B97F4A7C15 + k + 1) & _MASK64
        return RngStream(self.seed, child)

    def uniform(self, shape=None) -> np.ndarray:
        return self._gen.random(size=shape)

    def normal(self, shape=None) -> np.ndarray:
        return self._gen.normal(0.0, 1.0, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def shuffle(self, seq: list) -> None:
        self._gen.shuffle(seq)

    def choice(self, n, size, replace: bool) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def frame_picks(self, lengths, n: int) -> np.ndarray:
        """[rows, n] frame indices, each row ascending: choice(length, n) per row, in row order, from one fetch."""
        bitgen = self._gen.bit_generator
        state = bitgen.state
        held = state["has_uint32"]

        def halves(counts):
            # the fetch leaves the generator holding what one choice per row would leave it
            drawn = int(counts.sum()) - held
            words = bitgen.random_raw(max(drawn + 1, 0) // 2)
            after = bitgen.state
            after["has_uint32"] = drawn % 2
            after["uinteger"] = int(words[-1] >> np.uint64(32)) if len(words) else after["uinteger"]
            bitgen.state = after
            return np.array([[state["uinteger"]]], np.uint64), words[None], 1 - held + np.cumsum(counts) - counts

        picks, _, redo = choice_rows(lengths, n, halves)
        if redo.any():  # one choice per row, from the state before the call
            bitgen.state = state
            return np.array([np.sort(self._gen.choice(length, size=n, replace=length < n))
                             for length in lengths], dtype=np.intp)
        return picks


def choice_rows(lengths, n: int, halves):
    """Generator.choice(length, n, replace=length < n) per row as array ops: (picks, half words drawn, rows to redo).

    numpy draws n times on [0, length - 1] with replacement; without, on [0, j] for j = length - n, ...,
    length - 1 (Floyd: a repeat takes j), then on [0, i] for i = n - 1, ..., 1 to shuffle. A draw is Lemire's:
    half word h gives h * (bound + 1) >> 32; a 0 bound takes none. halves(counts) gives (held, words, start):
    a [rows or 1, 1] held upper half, then [rows or 1, k] words; row r's half words start at column start[r].
    Rows to redo with numpy's own choice: those off Floyd's path (length > 10000 and n > length // 50, or a
    bound past 32 bits), given no half words, and those Lemire's method might reject (low half below bound + 1).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    replace = lengths < n
    off = ~replace & (((lengths > 10000) & (n > lengths // 50)) | (lengths > 1 << 32))
    t = np.arange(2 * n - 1)
    bounds = np.where(replace[:, None], np.where(t < n, lengths[:, None] - 1, 0),
                      np.where(t < n, lengths[:, None] - n + t, 2 * n - 1 - t)) * ~off[:, None]
    live = bounds != 0
    counts = live.sum(axis=1)
    held, words, start = halves(counts)
    # next_uint32's order: the held upper half, then each word's lower and upper half
    stream = np.concatenate([held, words.astype("<u8", copy=False).view("<u4")], axis=-1)
    excl = bounds.astype(np.uint64) + np.uint64(1)
    # a 0 bound takes no half word: its value is 0 whatever word it is shown
    m = np.take_along_axis(stream, start[:, None] + np.cumsum(live, axis=1) - 1, axis=1) * excl
    # numpy rejects a low half below (2**32 - excl) % excl; this redoes every row that might reject
    redo = off | ((m & _LOW32) < excl).any(axis=1)
    picks = (m[:, :n] >> np.uint64(32)).astype(np.intp)
    for k in range(1, n):
        repeat = ~replace & (picks[:, :k] == picks[:, k, None]).any(axis=1)
        picks[:, k] = np.where(repeat, lengths - n + k, picks[:, k])
    picks.sort(axis=1)
    return picks, counts, redo


class RowStreams:
    """Row r draws exactly what Generator(Philox(key=keys[r])) would, for a [rows, 2] uint64 key array.

    One shared Philox serves every row: Philox is counter-based, so it is
    moved to a row's key and word position by setting its state, and it
    then hands over the row's next words with one random_raw call. The
    words wait in a [rows, W] buffer, W = max(request, min(RNG_BYTES // (8 * rows), ROW_WORDS)),
    and each row keeps its own cursor into it and numpy's buffered upper
    half word. uniform() and frame_picks() turn words into doubles and
    bounded integers with array ops across rows.
    """

    def __init__(self, keys):
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.ndim != 2 or keys.shape[1] != 2:
            raise ValidationError(f"need a [rows, 2] key array, got shape {keys.shape}")
        rows = len(keys)
        self._rows = np.arange(rows)
        self._pos = np.zeros(rows, np.int64)  # words each row has drawn
        self._start = np.zeros(rows, np.int64)  # stream word held in each row's buffer column 0
        self._words = np.empty((rows, 0), np.uint64)
        self._has_half = np.zeros(rows, bool)
        self._half = np.zeros(rows, np.uint64)
        self._bitgen = np.random.Philox(0)
        # plain ints set a Philox state about three times faster than arrays
        self._keys = keys.tolist()
        self._state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def _seek(self, r: int, pos: int, has_half: int = 0, half: int = 0) -> int:
        """Put the shared Philox at the 4-word block holding word pos of row r; returns pos's offset in it."""
        state = self._state
        state["state"]["key"] = self._keys[r]
        state["state"]["counter"][0] = pos // 4
        state["has_uint32"], state["uinteger"] = has_half, half
        self._bitgen.state = state
        return pos % 4

    def _refill(self, rows, k: int):
        """Buffer at least k words of each of rows, from the row's position on."""
        width = max(k, min(RNG_BYTES // (8 * len(self._rows)), ROW_WORDS))
        if width > self._words.shape[1]:
            # a wider buffer: every row fetches again from where it stands
            self._words = np.empty((len(self._rows), width), np.uint64)
            rows = self._rows
        width = self._words.shape[1]
        for r, pos in zip(rows.tolist(), self._pos[rows].tolist()):
            lead = self._seek(r, pos)
            self._words[r] = self._bitgen.random_raw(width + lead)[lead:]
        self._start[rows] = self._pos[rows]

    def _take(self, k: int) -> np.ndarray:
        """The next k words of every row, [rows, k]."""
        col = self._pos - self._start
        short = col + k > self._words.shape[1]
        if short.any():
            self._refill(self._rows[short], k)
            col = self._pos - self._start
        self._pos += k
        if len(col) and col.min() == col.max():
            # rows in step, the common case: a slice, not a gather
            return self._words[:, col[0]:col[0] + k]
        return np.take_along_axis(self._words, col[:, None] + np.arange(k), axis=1)

    def _numpy_choice(self, r: int, length: int, n: int) -> np.ndarray:
        """Row r's choice(length, n) from numpy itself, on the row's exact state."""
        lead = self._seek(r, int(self._pos[r]), int(self._has_half[r]), int(self._half[r]))
        self._bitgen.random_raw(lead)
        picks = np.random.Generator(self._bitgen).choice(length, size=n, replace=length < n)
        state = self._bitgen.state
        self._pos[r] = 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4
        self._has_half[r] = state["has_uint32"]
        self._half[r] = state["uinteger"]
        return picks

    def uniform(self, shape) -> np.ndarray:
        """Row r of a [rows, k] draw holds the next k doubles of stream r."""
        if len(shape) != 2 or shape[0] != len(self._rows):
            raise ValidationError(f"need a [{len(self._rows)}, k] shape, got {tuple(shape)}")
        return (self._take(shape[1]) >> np.uint64(11)) * 2.0 ** -53

    def frame_picks(self, lengths, n: int) -> np.ndarray:
        """[rows, n] frame indices, row r ascending: choice(lengths[r], n) on stream r, from one _take.

        Each row gives back the words it did not draw; a row to redo runs numpy's own choice.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != self._rows.shape:
            raise ValidationError(f"need {len(self._rows)} row lengths, got shape {lengths.shape}")
        has = self._has_half
        words = self._take(n)  # a row draws at most 2n - 1 half words
        picks, counts, redo = choice_rows(lengths, n, lambda counts: (self._half[:, None], words, 1 - has))
        need = np.where(redo, 0, (np.maximum(counts - has, 0) + 1) // 2)
        self._pos -= n - need
        self._has_half = np.where(redo, has, (counts - has) % 2 == 1)
        drew = need > 0
        self._half[drew] = words[drew, need[drew] - 1] >> np.uint64(32)
        for r in np.flatnonzero(redo).tolist():
            picks[r] = np.sort(self._numpy_choice(r, int(lengths[r]), n))
        return picks
