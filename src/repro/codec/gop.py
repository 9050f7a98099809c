"""Group-of-pictures encoder and the full / partial decoders.

Encoding follows the classic intra/predicted split:

* every ``gop_size``-th frame is an **I frame**: level-shifted, tiled into
  blocks, DCT-transformed, quantised and stored;
* the frames in between are **P frames**: the residual against the
  *reconstructed* previous frame is transformed and quantised, so decoder
  drift matches a real codec's behaviour.

Two decoders are provided:

* :func:`decode_video` — the full inverse pipeline (parse, dequantise,
  inverse DCT, motion-free prediction add-back).
* :func:`decode_dc_coefficients` — the **partial decoder** the paper's
  feature extractor uses: it reads only the first (DC) level of every
  block of every I frame, skips all AC levels and all P frames, and never
  performs an inverse DCT. For an orthonormal N x N DCT the dequantised
  DC relates to the block mean as ``DC = N * mean``, which is all the
  fingerprint needs. A byte-aligned stream is scanned a chunk at a time
  (:class:`_VarintRecords`: every varint decoded in one array pass, then
  one hop per block in varint-index space); an exp-Golomb stream is
  walked a record at a time (:class:`_GolombRecords`). The resync
  scanner (:mod:`repro.codec.resync`) that damaged chunks go to walks
  the same two.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.codec.bitstream import (
    BitstreamReader,
    BitstreamWriter,
    Uvarints,
    _zigzag_decode_int,
    decode_uvarints,
)
from repro.codec.blocks import assemble_blocks, pad_to_blocks, split_into_blocks
from repro.codec.dct import dct2, idct2
from repro.codec.entropy import (
    BitReader,
    BitWriter,
    decode_block_scan,
    encode_block_scan,
    skip_block_scan_keep_dc,
)
from repro.codec.motion import compensate, motion_search
from repro.codec.quantize import dequantize_block, quantization_matrix, quantize_block
from repro.codec.zigzag import zigzag_order, zigzag_restore
from repro.errors import BitstreamError, CodecError

__all__ = [
    "EncodedVideo",
    "decode_dc_coefficients",
    "decode_video",
    "encode_video",
]


@dataclass(frozen=True)
class EncodedVideo:
    """A serialised video bitstream plus its parsed header.

    Attributes
    ----------
    data:
        The raw byte string (magic + header + frame records).
    width, height:
        Original frame size in pixels (before block padding).
    block_size:
        Side of the square transform blocks.
    quality:
        JPEG-style quality factor in [1, 100] used at encode time.
    gop_size:
        Distance between consecutive I frames (1 = all-intra).
    num_frames:
        Total number of frames in the stream.
    fps:
        Nominal frame rate, for converting frame indices to seconds.
    entropy_coding:
        Whether block data is packed with exponential-Golomb codes
        (bit-level) instead of byte-aligned varints.
    """

    data: bytes
    width: int
    height: int
    block_size: int
    quality: int
    gop_size: int
    num_frames: int
    fps: float
    entropy_coding: bool = False

    @property
    def num_keyframes(self) -> int:
        """Number of I frames in the stream."""
        if self.num_frames == 0:
            return 0
        return 1 + (self.num_frames - 1) // self.gop_size

    @property
    def size_bytes(self) -> int:
        """Length of the serialised bitstream."""
        return len(self.data)


def _encode_levels(writer: BitstreamWriter, levels: np.ndarray) -> None:
    """Write one block's quantised levels as a truncated zig-zag scan."""
    scan = zigzag_order(levels)
    nonzero = np.nonzero(scan)[0]
    keep = int(nonzero[-1]) + 1 if nonzero.size else 1  # always keep the DC
    writer.write_uvarint(keep)
    for value in scan[:keep]:
        writer.write_svarint(int(value))


def _decode_levels(reader: BitstreamReader, block_size: int) -> np.ndarray:
    """Read one block's scan back into a square level array."""
    keep = reader.read_uvarint()
    total = block_size * block_size
    if keep > total:
        raise BitstreamError(
            f"block scan claims {keep} values but a block holds {total}"
        )
    scan = np.zeros(total, dtype=np.int64)
    for position in range(keep):
        scan[position] = reader.read_svarint()
    return zigzag_restore(scan, block_size)


def encode_video(
    frames: np.ndarray,
    fps: float,
    quality: int = 75,
    gop_size: int = 12,
    block_size: int = 8,
    use_motion: bool = False,
    search_range: int = 4,
    entropy_coding: bool = False,
) -> EncodedVideo:
    """Encode a grayscale frame stack into a toy-MPEG bitstream.

    Parameters
    ----------
    frames:
        Array of shape ``(n, height, width)``; values are interpreted as
        luminance in [0, 255] (floats are fine).
    fps:
        Nominal frame rate, stored in the header.
    quality:
        JPEG-style quality in [1, 100]. Lower quality = coarser
        quantisation = stronger re-compression attack.
    gop_size:
        I-frame period (frame 0 is always an I frame).
    block_size:
        Transform block side.
    use_motion:
        Encode predicted frames with block motion compensation ("M"
        records carrying one ``(dy, dx)`` vector per block ahead of the
        residual scan) instead of plain frame differencing. Smaller
        residuals for panning/moving content at the cost of the motion
        search.
    search_range:
        Motion-search radius in pixels (only with ``use_motion``).
    entropy_coding:
        Pack block data with bit-level exponential-Golomb codes (DC +
        zero-run/level pairs) instead of byte-aligned varints — tighter
        streams, and a partial decoder that must genuinely walk
        variable-length codes. Each frame's coded payload is preceded by
        its byte length, playing the role of MPEG's slice resync marker.
    """
    if frames.ndim != 3:
        raise CodecError(f"expected (n, h, w) frames, got shape {frames.shape}")
    if frames.shape[0] == 0:
        raise CodecError("cannot encode an empty frame stack")
    if gop_size <= 0:
        raise CodecError(f"gop_size must be positive, got {gop_size}")
    if fps <= 0:
        raise CodecError(f"fps must be positive, got {fps}")

    num_frames, height, width = frames.shape
    q_matrix = quantization_matrix(quality, block_size)

    writer = BitstreamWriter()
    writer.write_magic()
    for value in (width, height, block_size, quality, gop_size, num_frames):
        writer.write_uvarint(value)
    writer.write_uvarint(round(fps * 1000))
    writer.write_uvarint(1 if entropy_coding else 0)  # format flags

    previous_reconstruction: np.ndarray | None = None
    vectors: np.ndarray | None = None
    for frame_index in range(num_frames):
        frame = frames[frame_index].astype(np.float64)
        is_intra = frame_index % gop_size == 0
        prediction: np.ndarray | None = None
        if is_intra:
            source = frame - 128.0
            writer.write_bytes(b"I")
        elif use_motion:
            assert previous_reconstruction is not None
            padded_reference = pad_to_blocks(previous_reconstruction, block_size)
            padded_frame = pad_to_blocks(frame, block_size)
            vectors = motion_search(
                padded_reference, padded_frame, block_size, search_range
            )
            prediction = compensate(padded_reference, vectors, block_size)
            source = padded_frame - prediction
            writer.write_bytes(b"M")
        else:
            assert previous_reconstruction is not None
            source = frame - previous_reconstruction
            writer.write_bytes(b"P")

        block_grid = split_into_blocks(source, block_size)
        grid_rows, grid_cols = block_grid.shape[:2]
        writer.write_uvarint(grid_rows * grid_cols)

        bit_writer = BitWriter() if entropy_coding else None
        reconstructed_blocks = np.empty_like(block_grid)
        for row in range(grid_rows):
            for col in range(grid_cols):
                if prediction is not None:
                    assert vectors is not None
                    if bit_writer is not None:
                        bit_writer.write_se(int(vectors[row, col, 0]))
                        bit_writer.write_se(int(vectors[row, col, 1]))
                    else:
                        writer.write_svarint(int(vectors[row, col, 0]))
                        writer.write_svarint(int(vectors[row, col, 1]))
                coefficients = dct2(block_grid[row, col])
                levels = quantize_block(coefficients, q_matrix)
                if bit_writer is not None:
                    encode_block_scan(bit_writer, zigzag_order(levels))
                else:
                    _encode_levels(writer, levels)
                reconstructed_blocks[row, col] = idct2(
                    dequantize_block(levels, q_matrix)
                )
        if bit_writer is not None:
            payload = bit_writer.getvalue()
            writer.write_uvarint(len(payload))
            writer.write_bytes(payload)

        padded_shape = (grid_rows * block_size, grid_cols * block_size)
        reconstruction = assemble_blocks(reconstructed_blocks, padded_shape)
        if is_intra:
            previous_reconstruction = reconstruction[:height, :width] + 128.0
        elif prediction is not None:
            previous_reconstruction = (
                prediction + reconstruction
            )[:height, :width]
        else:
            assert previous_reconstruction is not None
            previous_reconstruction = (
                previous_reconstruction + reconstruction[:height, :width]
            )
        previous_reconstruction = np.clip(previous_reconstruction, 0.0, 255.0)

    return EncodedVideo(
        data=writer.getvalue(),
        width=width,
        height=height,
        block_size=block_size,
        quality=quality,
        gop_size=gop_size,
        num_frames=num_frames,
        fps=fps,
        entropy_coding=entropy_coding,
    )


#: Sanity ceilings applied to parsed headers. A flipped bit in a varint
#: can turn a small field into an astronomically large one; decoding must
#: fail with a typed :class:`BitstreamError` *before* any allocation is
#: attempted, not with a numpy ``MemoryError``.
_MAX_FRAME_SIDE = 1 << 14
_MAX_BLOCK_SIZE = 256


def _read_header(
    reader: BitstreamReader,
    data_length: int = 0,
) -> Tuple[int, int, int, int, int, int, float, bool]:
    """Parse magic + header, returning the eight header fields.

    ``data_length`` (when non-zero) enables plausibility checks that
    bound the claimed stream dimensions by what the byte string could
    possibly encode — the typed-error guarantee for corrupt headers.
    """
    reader.read_magic()
    width = reader.read_uvarint()
    height = reader.read_uvarint()
    block_size = reader.read_uvarint()
    quality = reader.read_uvarint()
    gop_size = reader.read_uvarint()
    num_frames = reader.read_uvarint()
    fps = reader.read_uvarint() / 1000.0
    flags = reader.read_uvarint()
    if width <= 0 or height <= 0 or block_size <= 0 or gop_size <= 0 or fps <= 0:
        raise BitstreamError("corrupt header: non-positive structural field")
    if width > _MAX_FRAME_SIDE or height > _MAX_FRAME_SIDE:
        raise BitstreamError(
            f"corrupt header: implausible frame size {width}x{height}"
        )
    if block_size > _MAX_BLOCK_SIZE:
        raise BitstreamError(
            f"corrupt header: implausible block size {block_size}"
        )
    if not 1 <= quality <= 100:
        raise BitstreamError(
            f"corrupt header: quality {quality} outside [1, 100]"
        )
    if flags > 1:
        raise BitstreamError(f"unknown format flags {flags}")
    if data_length:
        # Every frame record costs at least two bytes (type byte + block
        # count), and every block at least two bits under entropy coding.
        grid_blocks = (-(-width // block_size)) * (-(-height // block_size))
        if num_frames > data_length:
            raise BitstreamError(
                f"corrupt header: {num_frames} frames cannot fit in "
                f"{data_length} bytes"
            )
        if num_frames * grid_blocks > 8 * data_length:
            raise BitstreamError(
                "corrupt header: claimed block count exceeds what the "
                "stream could encode"
            )
    return (width, height, block_size, quality, gop_size, num_frames, fps,
            bool(flags & 1))


def _read_dc_layout(
    reader: BitstreamReader, data_length: int
) -> Tuple[int, int, int, int, float, bool]:
    """Parse the header into what a DC-only decoder needs.

    Returns ``(grid_rows, grid_cols, gop_size, num_frames, dc_quant_step,
    entropy)``, all from the in-band header, and leaves the reader at
    the first frame record.
    """
    (width, height, block_size, quality, gop_size, num_frames, _fps,
     entropy) = _read_header(reader, data_length)
    dc_quant_step = float(quantization_matrix(quality, block_size)[0, 0])
    grid_rows = -(-height // block_size)
    grid_cols = -(-width // block_size)
    return grid_rows, grid_cols, gop_size, num_frames, dc_quant_step, entropy


_INTRA, _MOTION = b"I"[0], b"M"[0]
_FRAME_TYPES = b"IPM"


class _VarintRecords:
    """A byte-aligned body as one varint sequence, walked in index space.

    :func:`decode_uvarints` decodes every varint of the body at once;
    a record is then hopped in *varint-index* space -- a block record
    spans ``1 + n_values`` varints, two more with a motion vector --
    noting where each I block's DC sits, with every check the serial
    reader makes: type byte, block count, ``n_values >= 1`` in an I
    block, records running past the last complete varint, and varints
    over 11 bytes. The type bytes are below 0x80, so a record starting
    at any type byte -- the stream's next one, or a resync candidate --
    reads exactly the varints of this one parse from there on.

    :func:`_scan_dc_levels` walks the records from the body's first
    varint; :func:`~repro.codec.resync.resilient_dc_scan` walks them
    from byte offsets (:meth:`walk_at`) and resynchronises with
    :meth:`resync`, over the same decode.
    """

    #: The records of the last strict scan that failed, kept for the
    #: resilient scan of the same chunk (:meth:`of`); a scan that
    #: succeeds leaves none. Shared so, the instances change only in
    #: their lazy caches.
    _failed: Optional["_VarintRecords"] = None

    def __init__(self, data: bytes, offset: int, num_blocks: int) -> None:
        self.data = data
        self.offset = offset
        self.num_blocks = num_blocks
        self.varints = decode_uvarints(data, offset)
        self.steps = self.varints.small
        self._ends: Optional[np.ndarray] = None
        self._candidates: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def of(cls, data: bytes, offset: int, num_blocks: int) -> "_VarintRecords":
        """The failed strict scan's records if of these bytes (kept alive
        by the memo, so identity is equality), offset and block count,
        taken from the memo; else new."""
        failed, cls._failed = cls._failed, None
        if (failed is None or failed.data is not data
                or (failed.offset, failed.num_blocks) != (offset, num_blocks)):
            failed = cls(data, offset, num_blocks)
        return failed

    def walk(self, kind: int, at: int, dc_at: List[int]) -> int:
        """Hop one record of type ``kind`` whose block count is varint
        ``at``; returns the index one past its last varint.

        Appends the varint index of every I block's DC level to
        ``dc_at``. Raises :class:`BitstreamError` where the serial
        reader would.
        """
        varints, steps, long = self.varints, self.steps, Uvarints.LONG
        num_blocks = self.num_blocks
        start = at
        try:
            claimed = steps[at]
            if claimed == long:
                claimed = varints.value(at)
            if claimed != num_blocks:
                raise BitstreamError(
                    f"expected {num_blocks} blocks, record claims {claimed}"
                )
            at += 1
            if kind == _INTRA:
                for _ in range(num_blocks):
                    keep = steps[at]
                    if keep == long:
                        keep = varints.value(at)
                    if not keep:
                        raise BitstreamError(
                            "block record with zero stored values"
                        )
                    dc_at.append(at + 1)
                    at += 1 + keep
            else:
                # Predicted frames are most of the stream: hop from one
                # block's count to the next, over the motion vector (two
                # varints ahead of the count) where there is one.
                lead = 2 if kind == _MOTION else 0
                at += lead
                for _ in range(num_blocks):
                    keep = steps[at]
                    if keep == long:
                        keep = varints.value(at)
                    at += 1 + keep + lead
                at -= lead
        except IndexError:
            at = len(steps) + 1
        if at > len(steps):
            raise BitstreamError(
                "record runs past the last complete varint (the stream is "
                "truncated)"
            )
        broken = varints.broken
        if broken and bisect_left(broken, start) < bisect_left(broken, at):
            raise BitstreamError("varint longer than 11 bytes; corrupt stream")
        return at

    def levels(self, dc_at: List[int]) -> np.ndarray:
        """The signed DC levels at ``dc_at``, as float64."""
        values = self.varints.take(dc_at)
        levels = ((values >> 1) ^ -(values & 1)).astype(np.float64)
        huge = self.varints.huge
        if huge:
            for row, index in enumerate(dc_at):
                if index in huge:
                    levels[row] = float(_zigzag_decode_int(huge[index]))
        return levels

    # -- byte offsets: the resync scanner's view ------------------------

    @property
    def ends(self) -> np.ndarray:
        """Absolute byte offset of every varint's last byte."""
        if self._ends is None:
            body = np.frombuffer(self.data, dtype=np.uint8, offset=self.offset)
            self._ends = np.flatnonzero(body < 0x80) + self.offset
        return self._ends

    def walk_at(self, position: int) -> Tuple[int, Optional[np.ndarray], int]:
        """Walk the record whose type byte is at byte ``position``:
        ``(type byte, DC levels of an I frame or None, next position)``."""
        kind = self.data[position]
        if kind not in _FRAME_TYPES:
            raise BitstreamError(f"unknown frame type byte {kind:#04x}")
        ends = self.ends
        dc_at: List[int] = []
        # A type byte is below 0x80: it ends varint ``searchsorted``.
        end = self.walk(kind, int(ends.searchsorted(position)) + 1, dc_at)
        levels = self.levels(dc_at) if kind == _INTRA else None
        return kind, levels, int(ends[end - 1]) + 1

    def resync(self, position: int) -> Optional[int]:
        """Byte offset of the first ``I`` byte at or after ``position``
        from which a whole I record parses, or ``None``."""
        if self._candidates is None:
            body = np.frombuffer(self.data, dtype=np.uint8, offset=self.offset)
            found = np.flatnonzero(body == _INTRA) + self.offset
            count_at = self.ends.searchsorted(found) + 1
            inside = count_at < len(self.steps)
            found, count_at = found[inside], count_at[inside]
            # Only a candidate whose block count is right can parse.
            right = self.varints.take(count_at) == self.num_blocks
            self._candidates = (found[right], count_at[right])
        found, count_at = self._candidates
        first = int(found.searchsorted(position))
        for candidate, at in zip(
            found[first:].tolist(), count_at[first:].tolist()
        ):
            try:
                self.walk(_INTRA, at, [])
            except BitstreamError:
                continue
            return candidate
        return None


def _scan_dc_levels(
    data: bytes, offset: int, num_frames: int, num_blocks: int
) -> Tuple[List[int], np.ndarray]:
    """DC levels of every I frame of a byte-aligned body, in one scan.

    Exactly ``num_frames`` serial record walks from ``offset``, without
    a call per varint: the records are hopped in varint-index space
    (:class:`_VarintRecords`). Returns the frame indices of the I
    records and their ``(len(indices), num_blocks)`` float64 levels;
    raises :class:`BitstreamError` where the serial walk would.
    """
    records = _VarintRecords._failed = _VarintRecords(data, offset, num_blocks)
    steps, walk = records.steps, records.walk
    keyframes: List[int] = []
    dc_at: List[int] = []
    at = 0
    for frame_index in range(num_frames):
        if at >= len(steps):
            raise BitstreamError(
                f"frame {frame_index}: records run past the last complete "
                "varint (the stream is truncated)"
            )
        kind = steps[at]
        if kind not in _FRAME_TYPES:  # a long varint is no type byte
            raise BitstreamError(
                f"frame {frame_index}: unknown frame type byte {kind:#04x}"
            )
        try:
            at = walk(kind, at + 1, dc_at)
        except BitstreamError as error:
            raise BitstreamError(f"frame {frame_index}: {error}") from error
        if kind == _INTRA:
            keyframes.append(frame_index)
    _VarintRecords._failed = None
    return keyframes, records.levels(dc_at).reshape(len(keyframes), num_blocks)


class _GolombRecords:
    """An exp-Golomb body walked a record at a time.

    Each record's payload is prefixed by its byte length, so a predicted
    frame is one seek; an I frame's payload is walked block by block
    for its DC levels. Same byte-offset interface as
    :class:`_VarintRecords`, for the resync scanner.
    """

    def __init__(self, data: bytes, num_blocks: int) -> None:
        self.data = data
        self.num_blocks = num_blocks
        self.reader = BitstreamReader(data)

    def walk_at(self, position: int) -> Tuple[int, Optional[np.ndarray], int]:
        """Walk the record at byte ``position``: ``(type byte, DC levels
        of an I frame or None, next position)``."""
        reader = self.reader
        reader.seek(position)
        frame_type = reader.read_bytes(1)
        if frame_type not in (b"I", b"P", b"M"):
            raise BitstreamError(f"unknown frame type {frame_type!r}")
        claimed = reader.read_uvarint()
        if claimed != self.num_blocks:
            raise BitstreamError(
                f"expected {self.num_blocks} blocks, record claims {claimed}"
            )
        payload = reader.read_bytes(reader.read_uvarint())
        levels = None
        if frame_type == b"I":
            bit_reader = BitReader(payload)
            levels = np.asarray(
                [
                    skip_block_scan_keep_dc(bit_reader)
                    for _ in range(self.num_blocks)
                ],
                dtype=np.float64,
            )
        return frame_type[0], levels, reader.position

    def resync(self, position: int) -> Optional[int]:
        """Byte offset of the first ``I`` byte at or after ``position``
        from which a whole I record parses, or ``None``."""
        data = self.data
        while True:
            candidate = data.find(b"I", position)
            if candidate < 0:
                return None
            try:
                kind, _levels, _end = self.walk_at(candidate)
            except BitstreamError:
                pass
            else:
                if kind == _INTRA:
                    return candidate
            position = candidate + 1


def decode_video(encoded: EncodedVideo) -> np.ndarray:
    """Fully decode a bitstream back to a ``(n, h, w)`` float frame stack.

    Frames are the encoder's reconstructions (quantisation loss included),
    clipped to [0, 255].
    """
    reader = BitstreamReader(encoded.data)
    (width, height, block_size, quality, gop_size, num_frames, _fps,
     entropy) = _read_header(reader, len(encoded.data))
    q_matrix = quantization_matrix(quality, block_size)
    frames = np.empty((num_frames, height, width), dtype=np.float64)

    previous: np.ndarray | None = None
    for frame_index in range(num_frames):
        frame_type = reader.read_bytes(1)
        num_blocks = reader.read_uvarint()
        grid_cols = -(-width // block_size)
        grid_rows = -(-height // block_size)
        if num_blocks != grid_rows * grid_cols:
            raise BitstreamError(
                f"frame {frame_index}: expected {grid_rows * grid_cols} blocks, "
                f"header claims {num_blocks}"
            )
        blocks = np.empty((grid_rows, grid_cols, block_size, block_size))
        vectors = (
            np.zeros((grid_rows, grid_cols, 2), dtype=np.int64)
            if frame_type == b"M"
            else None
        )
        bit_reader: BitReader | None = None
        if entropy:
            payload = reader.read_bytes(reader.read_uvarint())
            bit_reader = BitReader(payload)
        for row in range(grid_rows):
            for col in range(grid_cols):
                if bit_reader is not None:
                    if vectors is not None:
                        vectors[row, col, 0] = bit_reader.read_se()
                        vectors[row, col, 1] = bit_reader.read_se()
                    scan = decode_block_scan(
                        bit_reader, block_size * block_size
                    )
                    levels = zigzag_restore(scan, block_size)
                else:
                    if vectors is not None:
                        vectors[row, col, 0] = reader.read_svarint()
                        vectors[row, col, 1] = reader.read_svarint()
                    levels = _decode_levels(reader, block_size)
                blocks[row, col] = idct2(dequantize_block(levels, q_matrix))
        padded_shape = (grid_rows * block_size, grid_cols * block_size)
        padded = assemble_blocks(blocks, padded_shape)
        if frame_type == b"I":
            current = padded[:height, :width] + 128.0
        elif frame_type == b"P":
            if previous is None:
                raise BitstreamError("P frame before any I frame")
            current = previous + padded[:height, :width]
        elif frame_type == b"M":
            if previous is None:
                raise BitstreamError("M frame before any I frame")
            assert vectors is not None
            reference = pad_to_blocks(previous, block_size)
            prediction = compensate(reference, vectors, block_size)
            current = (prediction + padded)[:height, :width]
        else:
            raise BitstreamError(f"unknown frame type {frame_type!r}")
        current = np.clip(current, 0.0, 255.0)
        frames[frame_index] = current
        previous = current
    return frames


def decode_dc_coefficients(
    encoded: EncodedVideo,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Partially decode: yield per-I-frame grids of dequantised DC values.

    This is the paper's compressed-domain entry point: no inverse DCT is
    computed and P frames are skipped wholesale. Each yielded item is
    ``(frame_index, dc_grid)`` where ``dc_grid`` has shape
    ``(grid_rows, grid_cols)`` and holds the dequantised DC coefficient of
    each block (level-shift of -128 still applied, exactly as stored).

    The block *mean* luminance is recoverable as
    ``dc_grid / block_size + 128`` because the orthonormal DCT's DC equals
    ``block_size * mean`` for a square block.

    The stream's own format flag picks the decoder. A byte-aligned body
    goes through :func:`_scan_dc_levels` whole, so its grids are views of
    one ``(keyframes, grid_rows, grid_cols)`` array and a malformed
    record raises :class:`BitstreamError` before the first grid is
    yielded; a caller that wants what is left of a damaged stream hands
    it to :func:`repro.codec.resync.resilient_dc_scan`. An exp-Golomb
    body is walked record by record (its P frames are one seek each
    already).
    """
    reader = BitstreamReader(encoded.data)
    (grid_rows, grid_cols, _gop_size, num_frames, dc_quant_step,
     entropy) = _read_dc_layout(reader, len(encoded.data))
    num_blocks = grid_rows * grid_cols

    if not entropy:
        keyframes, levels = _scan_dc_levels(
            encoded.data, reader.position, num_frames, num_blocks
        )
        dc_grids = levels.reshape(-1, grid_rows, grid_cols) * dc_quant_step
        yield from zip(keyframes, dc_grids)
        return
    records = _GolombRecords(encoded.data, num_blocks)
    position = reader.position
    for frame_index in range(num_frames):
        try:
            kind, levels, position = records.walk_at(position)
        except BitstreamError as error:
            raise BitstreamError(f"frame {frame_index}: {error}") from error
        if kind == _INTRA:
            yield frame_index, (
                levels.reshape(grid_rows, grid_cols) * dc_quant_step
            )
