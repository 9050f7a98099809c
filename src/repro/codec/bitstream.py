"""Byte-exact bitstream serialisation for the toy codec.

The encoded video is a real byte string with a magic number, versioned
header and per-frame records. Everything a *partial decoder* needs to
exercise is here: headers must be parsed, frame records must be walked,
and the DC coefficient of each block is the first value of each block
record, so a DC-only decoder can skip the AC tail without dequantising
it.

Layout::

    magic    4 bytes  b"RVC1"
    header   8 varints: width, height, block_size, quality, gop_size,
             n_frames, fps_millis (frames per second * 1000, rounded),
             format flags (bit 0: entropy-coded payloads; others unknown)
    frames   n_frames records:
        frame_type   1 byte   b"I" (intra), b"P" (frame difference) or
                              b"M" (motion-compensated difference)
        n_blocks     varint   must equal the block grid size
      byte-aligned format (flags bit 0 clear), n_blocks block records:
        vector       2 signed varints (dy, dx)       -- b"M" frames only
        n_values     varint   >= 1 in an I frame (the DC is always kept)
        levels       n_values signed varints: the zig-zag scan with its
                     trailing zeros truncated; the first one is the DC
      entropy-coded format (flags bit 0 set):
        n_bytes      varint   length of the payload that follows -- the
                              slice resync marker: a predicted frame is
                              skipped in one seek
        payload      n_bytes of exponential-Golomb codes
                     (:mod:`repro.codec.entropy`): per block the vector
                     (b"M" only), the DC, then zero-run/level pairs

Varints are unsigned LEB128; signed values are zig-zag mapped first. A
byte below 0x80 ends a varint, and the three frame-type bytes are below
0x80 too, so the whole byte-aligned body reads as one varint sequence --
which is what lets :func:`decode_uvarints` locate and decode every value
of a chunk in a few array passes instead of one call per value.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from repro.errors import BitstreamError

__all__ = [
    "BitstreamReader",
    "BitstreamWriter",
    "MAGIC",
    "Uvarints",
    "decode_uvarints",
]

MAGIC = b"RVC1"

#: Longest varint :meth:`BitstreamReader.read_uvarint` takes: 11 x 7 =
#: 77 bits. :func:`decode_uvarints` marks longer ones broken.
_MAX_VARINT_BYTES = 11

#: Longest varint decoded in :func:`decode_uvarints`' int64 array pass:
#: 9 x 7 = 63 bits. The 10- and 11-byte ones are decoded one by one.
_MAX_ARRAY_VARINT_BYTES = 9

_INT64_MAX = (1 << 63) - 1

_CONTINUATION_BYTES = bytes(range(0x80, 0x100))


def _zigzag_encode_int(value: int) -> int:
    """Map a signed int to an unsigned one (protobuf zig-zag trick)."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _zigzag_decode_int(value: int) -> int:
    """Inverse of :func:`_zigzag_encode_int`."""
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


class BitstreamWriter:
    """Append-only writer producing the serialised byte string."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def write_magic(self) -> None:
        """Emit the 4-byte magic number."""
        self._chunks.append(MAGIC)

    def write_bytes(self, data: bytes) -> None:
        """Emit raw bytes."""
        self._chunks.append(data)

    def write_uvarint(self, value: int) -> None:
        """Emit an unsigned LEB128 varint."""
        if value < 0:
            raise BitstreamError(f"uvarint cannot encode negative {value}")
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self._chunks.append(bytes(out))

    def write_svarint(self, value: int) -> None:
        """Emit a signed varint (zig-zag mapped LEB128)."""
        self.write_uvarint(_zigzag_encode_int(value))

    def getvalue(self) -> bytes:
        """Return everything written so far as one byte string."""
        return b"".join(self._chunks)


class BitstreamReader:
    """Sequential reader over a serialised byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def position(self) -> int:
        """Current byte offset."""
        return self._pos

    @property
    def exhausted(self) -> bool:
        """Whether every byte has been consumed."""
        return self._pos >= len(self._data)

    def seek(self, offset: int) -> None:
        """Jump to an absolute byte offset (the resync scanner's hook)."""
        if not 0 <= offset <= len(self._data):
            raise BitstreamError(
                f"cannot seek to offset {offset} in a "
                f"{len(self._data)}-byte stream"
            )
        self._pos = offset

    def read_magic(self) -> None:
        """Consume and verify the magic number."""
        found = self.read_bytes(len(MAGIC))
        if found != MAGIC:
            raise BitstreamError(
                f"bad magic: expected {MAGIC!r}, found {found!r}"
            )

    def read_bytes(self, count: int) -> bytes:
        """Consume exactly ``count`` raw bytes."""
        if self._pos + count > len(self._data):
            raise BitstreamError(
                f"truncated stream: wanted {count} bytes at offset {self._pos}, "
                f"only {len(self._data) - self._pos} remain"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def read_uvarint(self) -> int:
        """Consume one unsigned LEB128 varint."""
        result = 0
        shift = 0
        while True:
            if self._pos >= len(self._data):
                raise BitstreamError("truncated varint at end of stream")
            byte = self._data[self._pos]
            self._pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise BitstreamError("varint longer than 11 bytes; corrupt stream")

    def read_svarint(self) -> int:
        """Consume one signed (zig-zag) varint."""
        return _zigzag_decode_int(self.read_uvarint())


class Uvarints(NamedTuple):
    """Every varint of a byte run, as :func:`decode_uvarints` returns it.

    Nearly all varints of a real stream are one byte long, so the values
    are kept one byte each and the few longer ones listed on the side.
    Varint ``i`` ends at the ``i``-th byte below 0x80 of the run.
    """

    #: Per varint, in stream order: its value when it is one byte long
    #: (so below 0x80), :attr:`LONG` otherwise.
    small: bytearray
    #: Indices (ascending) and values of the longer varints. A value past
    #: the int64 range (only a 10- or 11-byte varint holds one) reads as
    #: the int64 maximum here and exactly in :attr:`huge`.
    long_at: np.ndarray
    long_values: np.ndarray
    #: Index -> exact value of the varints past the int64 range.
    huge: Dict[int, int]
    #: Indices (ascending) of the varints over 11 bytes, which
    #: ``read_uvarint`` refuses: a record that covers one is corrupt.
    broken: List[int]

    LONG = 0xFF

    def take(self, indices: Sequence[int]) -> np.ndarray:
        """The values (int64) of the varints at ``indices``."""
        indices = np.asarray(indices, dtype=np.intp)
        values = np.frombuffer(self.small, dtype=np.uint8)[indices].astype(
            np.int64
        )
        long = np.flatnonzero(values == self.LONG)
        values[long] = self.long_values[
            np.searchsorted(self.long_at, indices[long])
        ]
        return values

    def value(self, index: int) -> int:
        """The value of the long varint at ``index`` (as :meth:`take`)."""
        return int(self.long_values[self.long_at.searchsorted(index)])


def decode_uvarints(data: bytes, offset: int = 0) -> Uvarints:
    """Decode the varints of ``data[offset:]`` in a few array passes.

    Entry ``i`` of the result is what the ``i``-th consecutive
    :meth:`BitstreamReader.read_uvarint` call from ``offset`` would
    return, or, for a varint over 11 bytes, where that call raises
    (:attr:`Uvarints.broken`). An unterminated tail is no varint.
    """
    body = np.frombuffer(data, dtype=np.uint8, offset=offset)
    # Dropping the continuation bytes leaves each varint's last byte,
    # which for a one-byte varint is its value.
    small = bytearray(data[offset:].translate(None, _CONTINUATION_BYTES))
    continuation_at = np.flatnonzero(body >= 0x80)
    # A run of continuation bytes and the terminator after it are one
    # long varint. ``run`` indexes the run starts within
    # ``continuation_at``, which is also how many continuation bytes
    # precede the run -- hence its varint index, ``first - run``.
    run = np.flatnonzero(np.diff(continuation_at, prepend=-2) != 1)
    first = continuation_at[run]
    tail = np.diff(run, append=continuation_at.size)
    at = first - run
    last = first + tail
    if last.size and last[-1] >= body.size:
        # Continuation bytes up to the end: an unterminated tail.
        first, tail, at, last = first[:-1], tail[:-1], at[:-1], last[:-1]
    short = np.minimum(tail, _MAX_ARRAY_VARINT_BYTES - 1)
    values = body[last].astype(np.int64) << (7 * short)
    for k in range(int(short.max(initial=0))):
        rows = np.flatnonzero(short > k)
        values[rows] |= (body[first[rows] + k] & 0x7F).astype(np.int64) << (7 * k)
    huge: Dict[int, int] = {}
    broken: List[int] = []
    for row in np.flatnonzero(tail >= _MAX_ARRAY_VARINT_BYTES).tolist():
        index = int(at[row])
        if tail[row] >= _MAX_VARINT_BYTES:
            broken.append(index)
            values[row] = _INT64_MAX
            continue
        start = offset + int(first[row])
        value = 0
        for k, byte in enumerate(data[start : offset + int(last[row]) + 1]):
            value |= (byte & 0x7F) << (7 * k)
        if value > _INT64_MAX:
            huge[index] = value
            value = _INT64_MAX
        values[row] = value
    np.frombuffer(small, dtype=np.uint8)[at] = Uvarints.LONG
    return Uvarints(small, at, values, huge, broken)
