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

    def row(self, r: int) -> "RngStream":
        """The stream batch row r draws from: a single stream serves every row."""
        return self

    def uniform(self, shape=None) -> np.ndarray:
        return self._gen.random(size=shape)

    def normal(self, shape=None, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def shuffle(self, seq: list) -> None:
        self._gen.shuffle(seq)

    def choice(self, n, size, replace: bool) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


class RowStreams:
    """One RngStream per batch row, so row r replays exactly what a batch of one on stream r draws."""

    def __init__(self, streams):
        self.streams = list(streams)

    def row(self, r: int) -> RngStream:
        return self.streams[r]

    def uniform(self, shape) -> np.ndarray:
        """Row r of a [rows, k] draw holds the next k values of stream r."""
        if len(shape) != 2 or shape[0] != len(self.streams):
            raise ValidationError(f"need a [{len(self.streams)}, k] shape, got {tuple(shape)}")
        out = np.empty(shape)
        for stream, dest in zip(self.streams, out):
            stream._gen.random(out=dest)
        return out
