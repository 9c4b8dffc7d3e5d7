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

# bytes of Philox words a RowStreams buffers across all its rows
RNG_BYTES = 4 << 20


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
        """[rows, n] frame indices, each row ascending: one choice per row length, in row order.

        A row draws without replacement unless its length is below n.
        """
        return np.array([np.sort(self._gen.choice(length, size=n, replace=length < n))
                         for length in lengths], dtype=np.intp)


class RowStreams:
    """Row r draws exactly what Generator(Philox(key=keys[r])) would, for a [rows, 2] uint64 key array.

    One shared Philox serves every row: Philox is counter-based, so it is
    moved to a row's key and word position by setting its state, and it
    then hands over the row's next words with one random_raw call. The
    words wait in a [rows, W] buffer, W = max(request, RNG_BYTES // (8 * rows)),
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
        width = max(k, RNG_BYTES // (8 * len(self._rows)))
        if width > self._words.shape[1]:
            # a wider buffer: every row fetches again from where it stands
            self._words = np.empty((len(self._rows), width), np.uint64)
            rows = self._rows
        width = self._words.shape[1]
        for r, pos in zip(rows.tolist(), self._pos[rows].tolist()):
            lead = self._seek(r, pos)
            self._words[r] = self._bitgen.random_raw(width + lead)[lead:]
        self._start[rows] = self._pos[rows]

    def _take(self, rows, k: int) -> np.ndarray:
        """The next k words of each of rows (distinct indices), [len(rows), k]."""
        col = self._pos[rows] - self._start[rows]
        short = col + k > self._words.shape[1]
        if short.any():
            self._refill(rows[short], k)
            col = self._pos[rows] - self._start[rows]
        self._pos[rows] += k
        if len(col) and col.min() == col.max():
            # rows in step, the common case: a slice, not a gather
            return self._words[rows, col[0]:col[0] + k]
        return self._words[rows[:, None], col[:, None] + np.arange(k)]

    def _next_uint32(self, rows) -> np.ndarray:
        """numpy's next_uint32 per row: the held upper half of the last word, else the lower half of a new one."""
        has = self._has_half[rows]
        out = np.empty(len(rows), np.uint64)
        out[has] = self._half[rows[has]]
        fresh = rows[~has]
        words = self._take(fresh, 1)[:, 0]
        out[~has] = words & _LOW32
        self._half[fresh] = words >> np.uint64(32)
        self._has_half[rows] = ~has
        return out

    def _bounded(self, rows, bounds) -> np.ndarray:
        """numpy's bounded draw on [0, bound] per row, bound < 2**32: Lemire's method; a 0 bound draws nothing."""
        out = np.zeros(len(rows), np.uint64)
        live = np.flatnonzero(bounds)
        excl = bounds[live].astype(np.uint64) + np.uint64(1)
        threshold = (np.uint64(1 << 32) - excl) % excl
        while len(live):
            # a rejected row draws again on its own
            m = self._next_uint32(rows[live]) * excl
            out[live] = m >> np.uint64(32)
            again = (m & _LOW32) < threshold
            live, excl, threshold = live[again], excl[again], threshold[again]
        return out

    def _numpy_choice(self, r: int, length: int, n: int) -> np.ndarray:
        """Row r's choice(length, n, replace=False) from numpy itself, on the row's exact state."""
        lead = self._seek(r, int(self._pos[r]), int(self._has_half[r]), int(self._half[r]))
        self._bitgen.random_raw(lead)
        picks = np.random.Generator(self._bitgen).choice(length, size=n, replace=False)
        state = self._bitgen.state
        self._pos[r] = 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4
        self._has_half[r] = state["has_uint32"]
        self._half[r] = state["uinteger"]
        return picks

    def uniform(self, shape) -> np.ndarray:
        """Row r of a [rows, k] draw holds the next k doubles of stream r."""
        if len(shape) != 2 or shape[0] != len(self._rows):
            raise ValidationError(f"need a [{len(self._rows)}, k] shape, got {tuple(shape)}")
        return (self._take(self._rows, shape[1]) >> np.uint64(11)) * 2.0 ** -53

    def frame_picks(self, lengths, n: int) -> np.ndarray:
        """[rows, n] frame indices, row r ascending: Generator.choice(lengths[r], n) on stream r.

        A row draws without replacement unless its length is below n.
        This reproduces the draws numpy's choice consumes: integers in
        [0, length) with replacement; Floyd's algorithm and then a
        shuffle of the n picks without. A row numpy would take off
        Floyd's path (length > 10000 and n > length // 50), or whose
        bounds pass 32 bits, runs numpy's own choice.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != self._rows.shape:
            raise ValidationError(f"need {len(self._rows)} row lengths, got shape {lengths.shape}")
        picks = np.empty((len(self._rows), n), np.intp)
        with_replacement = lengths < n
        alone = ~with_replacement & (((lengths > 10000) & (n > lengths // 50)) | (lengths > 1 << 32))
        rows = self._rows[with_replacement]
        for t in range(n):
            picks[rows, t] = self._bounded(rows, lengths[rows] - 1)
        rows = self._rows[~with_replacement & ~alone]
        for t in range(n):
            # Floyd: draw from [0, j] for j = length - n, ..., length - 1; a repeat takes j itself
            j = lengths[rows] - n + t
            val = self._bounded(rows, j).astype(np.int64)
            repeat = (picks[rows, :t] == val[:, None]).any(axis=1)
            picks[rows, t] = np.where(repeat, j, val)
        for i in range(n - 1, 0, -1):
            self._bounded(rows, np.full(len(rows), i))
        for r in np.flatnonzero(alone).tolist():
            picks[r] = self._numpy_choice(r, int(lengths[r]), n)
        picks.sort(axis=1)
        return picks
