"""Deterministic child seeds derived from one root seed and string labels.

Every stochastic component takes its stream from the run's single seed
plus a stable label, so re-running any experiment with the same config
reproduces it bit for bit, including when cells run out of order.
"""
from __future__ import annotations

import hashlib

import numpy as np


def labeled_seed(root: int, *labels) -> int:
    """A 63-bit child seed from the root seed and a label path."""
    digest = hashlib.blake2b(
        repr((int(root),) + tuple(str(l) for l in labels)).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") >> 1


def labeled_rng(root: int, *labels) -> np.random.Generator:
    """Generator seeded by :func:`labeled_seed`."""
    return np.random.default_rng(labeled_seed(root, *labels))


# Normals a stream's buffer starts with, and the unit its capacity grows by.
_STREAM_BLOCK = 256


class NormalStreams:
    """Standard normals of several generators, read by rows at their own cursors.

    Row i reads stream ``streams[i]`` from the stream's start, so rows that
    share a stream see the same numbers however many each consumes: the
    common random numbers of rows that share a replica.  Each stream's
    normals are drawn in blocks, the first on construction, into its segment
    of one flat buffer; a block draw continues a Generator's scalar
    ``standard_normal()`` stream exactly, so a row reads what scalar draws
    from its generator give.  A segment keeps the normals from its rearmost
    row's cursor on and grows only when its rows need more at once.

    ``peek`` reads a block from distinct rows' cursors and leaves them;
    ``advance`` moves them past what the rows consumed; ``next`` reads one
    row's normal and moves past it, the read of a one-row loop, and
    ``next_all`` every row's, the first trial of a multi-row sampler.
    """

    def __init__(self, generators, streams):
        self._generators = tuple(generators)
        self.streams = streams = np.asarray(streams, dtype=np.intp)
        count = len(self._generators)
        if streams.ndim != 1 or streams.size and not (0 <= streams.min() <= streams.max() < count):
            raise ValueError("streams must be a 1-D array of generator indices")
        self._rows_of = None  # each stream's rows, found by the first refill that drops normals
        self._capacity = np.full(count, _STREAM_BLOCK, dtype=np.intp)
        self._start = np.arange(count, dtype=np.intp) * _STREAM_BLOCK
        self._fill = self._capacity.copy()
        self._buffer = np.array([g.standard_normal(_STREAM_BLOCK) for g in self._generators]).ravel()
        # Per row: the buffer index of its cursor and the end of its segment's normals.
        self._pos = self._start[self.streams]
        self._end = self._pos + _STREAM_BLOCK

    def peek(self, rows: np.ndarray, width: int) -> np.ndarray:
        """(len(rows), width) normals from each row's cursor on; the cursors stay."""
        pos = self._pos[rows]
        if np.any(pos + width > self._end[rows]):
            self._refill(rows, width)
            pos = self._pos[rows]
        return self._buffer[pos[:, None] + np.arange(width)]

    def next(self, row: int) -> float:
        """The normal at one row's cursor, which moves past it; a refill is peek's."""
        pos = self._pos.item(row)
        if pos >= self._end.item(row):
            self._refill(np.array([row]), 1)
            pos = self._pos.item(row)
        self._pos[row] = pos + 1
        return self._buffer.item(pos)

    def next_all(self) -> np.ndarray:
        """The normal at every row's cursor; each cursor moves past it.  A refill is peek's."""
        if (self._pos >= self._end).any():
            self._refill(np.arange(self.streams.size), 1)
        out = self._buffer[self._pos]
        self._pos += 1
        return out

    def advance(self, rows: np.ndarray, counts) -> None:
        """Move distinct rows' cursors past the normals they consumed."""
        self._pos[rows] += counts

    def _refill(self, rows: np.ndarray, width: int) -> None:
        count = len(self._generators)
        offsets = self._pos - self._start[self.streams]
        need = np.zeros(count, dtype=np.intp)
        np.maximum.at(need, self.streams[rows], offsets[rows] + width)
        short = np.nonzero(need > self._fill)[0]
        if short.size and self._rows_of is None:
            self._rows_of = [np.nonzero(self.streams == s)[0] for s in range(count)]
        # Drop what every row of a short stream has read, grow the segments
        # that still cannot hold their rows' blocks, then fill them up.
        for s in short:
            members = self._rows_of[s]
            drop = int(offsets[members].min())
            fill = int(self._fill[s])
            seg = self._buffer[self._start[s] : self._start[s] + fill]
            if drop > fill:
                # every row advanced past normals never drawn: skip them
                self._generators[s].standard_normal(drop - fill)
            kept = max(fill - drop, 0)
            seg[:kept] = seg[fill - kept :].copy()
            self._fill[s] = kept
            offsets[members] -= drop
            need[s] -= drop
        if np.any(need > self._capacity):
            self._grow(need)
        for s in short:
            seg = self._buffer[self._start[s] : self._start[s] + self._capacity[s]]
            self._generators[s].standard_normal(out=seg[self._fill[s] :])
            self._fill[s] = self._capacity[s]
        self._pos = self._start[self.streams] + offsets
        self._end = (self._start + self._fill)[self.streams]

    def _grow(self, need: np.ndarray) -> None:
        capacity = self._capacity.copy()
        while np.any(need > capacity):
            capacity = np.where(need > capacity, 2 * capacity, capacity)
        start = np.concatenate([[0], np.cumsum(capacity)[:-1]])
        buffer = np.empty(int(capacity.sum()))
        for old, new, fill in zip(self._start, start, self._fill):
            buffer[new : new + fill] = self._buffer[old : old + fill]
        self._buffer, self._start, self._capacity = buffer, start, capacity
