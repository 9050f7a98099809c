"""The one DC scan against the record-at-a-time serial walker.

``decode_dc_coefficients`` and ``resilient_dc_scan`` hop a byte-aligned
chunk's records in varint-index space, over one ``decode_uvarints``
pass, damaged or not. The contract is that nobody downstream can tell:
``ResilientDecoder.decode_chunk`` returns what a decoder built only from
the serial walker below — one ``read_uvarint`` call per value, the path
every chunk took before the array scan existed — returns for the same
bytes, damaged or not, and ``resilient_dc_scan`` recovers the same
segments. The serial walker lives here, as the oracle; no byte-aligned
record walker is left in ``src/``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.bitstream import (
    BitstreamReader,
    BitstreamWriter,
    MAGIC,
    decode_uvarints,
)
from repro.codec.entropy import BitReader, skip_block_scan_keep_dc
from repro.codec.gop import (
    EncodedVideo,
    _read_dc_layout,
    _read_header,
    decode_dc_coefficients,
    encode_video,
)
from repro.codec.quantize import quantization_matrix
from repro.codec.resync import (
    DCSegment,
    ResilientScanResult,
    _validate_anchor,
    resilient_dc_scan,
    resync_to_next_gop,
)
from repro.errors import BitstreamError, CodecError, FeatureError
from repro.features.pipeline import FingerprintExtractor
from repro.ingest import (
    FAULT_PRESETS,
    EncodedChunkSource,
    FaultInjector,
    FaultPlan,
    ResilientDecoder,
    StreamChunk,
    SyntheticSource,
)
from repro.ingest.decoder import DecodedChunk, _place_segments

EXTRACTOR = FingerprintExtractor()
DECODER = ResilientDecoder(EXTRACTOR)


# -- the serial oracle -------------------------------------------------


def skip_uvarints(reader: BitstreamReader, count: int) -> None:
    """Skip ``count`` varints without decoding their values."""
    for _ in range(count):
        reader.read_uvarint()


def _skip_block_keep_dc(reader: BitstreamReader) -> int:
    """Read only the DC level of a block record, skipping the AC tail."""
    keep = reader.read_uvarint()
    if keep < 1:
        raise BitstreamError("block record with zero stored values")
    dc = reader.read_svarint()
    skip_uvarints(reader, keep - 1)
    return dc


def _skip_block(reader: BitstreamReader) -> None:
    """Skip a whole block record without decoding any level."""
    skip_uvarints(reader, reader.read_uvarint())


def walk_dc_record(
    reader: BitstreamReader,
    num_blocks: int,
    entropy: bool,
) -> Tuple[bytes, Optional[List[int]]]:
    """Walk exactly one frame record from the reader's current position:
    ``(frame_type, dc_levels)``, the levels ``None`` for a predicted
    frame. Raises :class:`BitstreamError` if the record is malformed,
    truncated, or its block count disagrees with ``num_blocks``."""
    frame_type = reader.read_bytes(1)
    if frame_type not in (b"I", b"P", b"M"):
        raise BitstreamError(f"unknown frame type {frame_type!r}")
    claimed = reader.read_uvarint()
    if claimed != num_blocks:
        raise BitstreamError(
            f"expected {num_blocks} blocks, record claims {claimed}"
        )
    if frame_type == b"I":
        dc_levels: List[int] = []
        if entropy:
            payload = reader.read_bytes(reader.read_uvarint())
            bit_reader = BitReader(payload)
            for _ in range(num_blocks):
                dc_levels.append(skip_block_scan_keep_dc(bit_reader))
        else:
            for _ in range(num_blocks):
                dc_levels.append(_skip_block_keep_dc(reader))
        return frame_type, dc_levels
    if entropy:
        reader.read_bytes(reader.read_uvarint())
    else:
        for _ in range(num_blocks):
            if frame_type == b"M":
                skip_uvarints(reader, 2)  # the block's motion vector
            _skip_block(reader)
    return frame_type, None


def serial_resync(
    data: bytes, offset: int, num_blocks: int, entropy: bool
) -> Optional[int]:
    """The first ``I`` byte at or after ``offset`` from which
    :func:`walk_dc_record` walks a whole I record."""
    reader = BitstreamReader(data)
    position = max(0, offset)
    while True:
        candidate = data.find(b"I", position)
        if candidate < 0:
            return None
        reader.seek(candidate)
        try:
            frame_type, dc_levels = walk_dc_record(reader, num_blocks, entropy)
        except BitstreamError:
            pass
        else:
            if frame_type == b"I" and dc_levels is not None:
                return candidate
        position = candidate + 1


def serial_resilient_scan(encoded: EncodedVideo) -> ResilientScanResult:
    """``resilient_dc_scan`` as it walked before the one scan: one
    :func:`walk_dc_record` per record, one :func:`serial_resync` per
    error."""
    data = encoded.data
    reader = BitstreamReader(data)
    (grid_rows, grid_cols, gop_size, num_frames, dc_quant_step,
     entropy) = _read_dc_layout(reader, len(data))
    num_blocks = grid_rows * grid_cols
    expected_keyframes = encoded.num_keyframes
    segments: List[DCSegment] = []
    segment_types: List[List[int]] = []
    decode_errors = resyncs = bytes_skipped = 0
    reached_end = False
    segment = DCSegment(kf_slots=[])
    frame_types: List[int] = []
    records_walked = keyframes_decoded = 0

    def close_segment() -> None:
        if segment.record_count:
            segments.append(segment)
            segment_types.append(frame_types)

    while records_walked < num_frames:
        if reader.exhausted:
            reached_end = True
            break
        record_start = reader.position
        try:
            frame_type, dc_levels = walk_dc_record(reader, num_blocks, entropy)
        except CodecError:
            decode_errors += 1
            close_segment()
            segment = DCSegment(kf_slots=None)
            frame_types = []
            if keyframes_decoded >= expected_keyframes:
                break
            next_gop = serial_resync(data, record_start + 1, num_blocks, entropy)
            if next_gop is None:
                bytes_skipped += len(data) - record_start
                break
            bytes_skipped += next_gop - record_start
            reader.seek(next_gop)
            resyncs += 1
            continue
        segment.record_count += 1
        records_walked += 1
        frame_types.append(frame_type[0])
        if frame_type == b"I":
            if keyframes_decoded >= expected_keyframes:
                decode_errors += 1
                segment.record_count -= 1
                records_walked -= 1
                frame_types.pop()
                close_segment()
                segment = DCSegment(kf_slots=None)
                frame_types = []
                break
            segment.dc_grids.append(
                np.asarray(dc_levels, dtype=np.float64).reshape(
                    grid_rows, grid_cols
                ) * dc_quant_step
            )
            keyframes_decoded += 1
    else:
        reached_end = reader.exhausted
    close_segment()
    if segments and segments[0].kf_slots is not None:
        segments[0].kf_slots = [
            offset // gop_size
            for offset, kind in enumerate(segment_types[0]) if kind == b"I"[0]
        ]
    if reached_end and len(segments) > 1 and segments[-1].kf_slots is None:
        tail = segments[-1]
        anchor = num_frames - tail.record_count
        if _validate_anchor(anchor, segment_types[-1], gop_size):
            slots = [
                (anchor + offset) // gop_size
                for offset, kind in enumerate(segment_types[-1])
                if kind == b"I"[0]
            ]
            head_slots = segments[0].kf_slots or []
            if not head_slots or not slots or slots[0] > head_slots[-1]:
                tail.kf_slots = slots
    return ResilientScanResult(
        segments=segments,
        decode_errors=decode_errors,
        resyncs=resyncs,
        bytes_skipped=bytes_skipped,
        reached_end=reached_end,
    )


def _serial_dc_grids(encoded: EncodedVideo):
    """The partial decoder as one ``walk_dc_record`` call per frame."""
    reader = BitstreamReader(encoded.data)
    (width, height, block_size, quality, _gop, num_frames, _fps,
     entropy) = _read_header(reader, len(encoded.data))
    step = float(quantization_matrix(quality, block_size)[0, 0])
    rows, cols = -(-height // block_size), -(-width // block_size)
    indices, grids = [], []
    for frame_index in range(num_frames):
        frame_type, levels = walk_dc_record(reader, rows * cols, entropy)
        if frame_type == b"I":
            indices.append(frame_index)
            grids.append(
                np.asarray(levels, dtype=np.float64).reshape(rows, cols) * step
            )
    return indices, grids


def _oracle_decode(encoded: EncodedVideo) -> DecodedChunk:
    """``ResilientDecoder._decode_encoded`` with the serial walker in
    place of ``decode_dc_coefficients`` and ``resilient_dc_scan``."""
    expected = encoded.num_keyframes
    try:
        _indices, grids = _serial_dc_grids(encoded)
        ids = EXTRACTOR.cell_ids_from_dc_grids(grids, encoded.block_size)
    except (CodecError, FeatureError):
        pass
    else:
        if ids.shape[0] == expected:
            return DecodedChunk(
                expected_keyframes=expected, segments=[(0, ids)]
            )
    try:
        scan = serial_resilient_scan(encoded)
    except CodecError:
        scan = None
    if scan is None or not (scan.segments or scan.decode_errors):
        return DecodedChunk(
            expected_keyframes=expected, decode_errors=1, header_lost=True
        )
    decoded = DecodedChunk(
        expected_keyframes=expected,
        decode_errors=scan.decode_errors,
        resyncs=scan.resyncs,
        bytes_skipped=scan.bytes_skipped,
    )
    for start, grids in _place_segments(scan.segments, expected):
        decoded.segments.append(
            (start, EXTRACTOR.cell_ids_from_dc_grids(grids, encoded.block_size))
        )
    return decoded


def _outcome(decode, argument):
    """Everything a session reads off a decoded chunk. No damage makes
    ``decode`` raise: an unprotected header damaged into something no
    fingerprint fits (zero frames, say) is a lost chunk like any other."""
    decoded = decode(argument)
    return decoded, (
        decoded.expected_keyframes,
        [(start, ids.tolist()) for start, ids in decoded.segments],
        decoded.decode_errors,
        decoded.resyncs,
        decoded.bytes_skipped,
        decoded.header_lost,
    )


def _scan_view(scan):
    return (
        [
            (s.kf_slots, s.record_count, [g.tobytes() for g in s.dc_grids])
            for s in scan.segments
        ],
        scan.decode_errors,
        scan.resyncs,
        scan.bytes_skipped,
        scan.reached_end,
    )


def _assert_equivalent(encoded: EncodedVideo):
    """``decode_chunk`` equals the oracle's, and so does the resilient
    scan itself (or both refuse the header)."""
    decoded, flat = _outcome(DECODER.decode_chunk, StreamChunk(0, 0, encoded))
    assert flat == _outcome(_oracle_decode, encoded)[1]
    try:
        want = _scan_view(serial_resilient_scan(encoded))
    except CodecError as error:
        with pytest.raises(type(error)):
            resilient_dc_scan(encoded)
    else:
        assert _scan_view(resilient_dc_scan(encoded)) == want
    return decoded


def _assert_scan_matches_walker(encoded: EncodedVideo) -> bool:
    """The scan accepts exactly what the walker accepts, with the same
    grids; returns whether it accepted."""
    try:
        scanned = list(decode_dc_coefficients(encoded))
    except CodecError:
        with pytest.raises(CodecError):
            _serial_dc_grids(encoded)
        return False
    indices, grids = _serial_dc_grids(encoded)
    assert [index for index, _ in scanned] == indices
    for (_, got), want in zip(scanned, grids):
        assert got.tobytes() == want.tobytes()
    return True


# -- streams to damage -------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pool():
    """Byte-aligned chunks that between them use every record shape."""
    rng = np.random.default_rng(5)
    noise = rng.uniform(0, 255, size=(8, 48, 48))
    ramp = np.clip(
        np.linspace(0, 255, 128)[None, None, :]
        + rng.normal(0, 30, size=(6, 96, 128)), 0, 255
    )
    return (
        # the benchmark's own chunks: 48 blocks, P records
        SyntheticSource(0, seed=11, num_chunks=2).encode_chunk(0),
        SyntheticSource(0, seed=11, num_chunks=2).encode_chunk(1),
        # M records (a motion vector ahead of every block)
        encode_video(noise, fps=12.0, gop_size=4, use_motion=True,
                     search_range=2),
        # 192 blocks: the block count is a two-byte varint
        encode_video(ramp, fps=12.0, gop_size=3),
        # 16x16 blocks of noise at high quality: n_values up to 256, so
        # block counts and many levels are two-byte varints too
        encode_video(noise, fps=12.0, gop_size=2, block_size=16, quality=98),
    )


@functools.lru_cache(maxsize=None)
def _golomb():
    """An exp-Golomb chunk: the record walker's format."""
    noise = np.random.default_rng(6).uniform(0, 255, size=(8, 32, 32))
    return encode_video(noise, fps=12.0, gop_size=3, entropy_coding=True)


def _header_end(encoded: EncodedVideo) -> int:
    reader = BitstreamReader(encoded.data)
    _read_header(reader)
    return reader.position


def _damage(encoded, flips, cut, protect):
    data = bytearray(encoded.data)
    floor = _header_end(encoded) if protect else 0
    if cut is not None:
        del data[floor + int(cut * (len(data) - floor)):]
    for where, bit in flips:
        if len(data) > floor:
            data[floor + int(where * (len(data) - floor - 1))] ^= 1 << bit
    return dataclasses.replace(encoded, data=bytes(data))


def test_pool_has_every_record_shape():
    pool = _pool()
    for encoded in pool:
        assert not encoded.entropy_coding
        assert _assert_scan_matches_walker(encoded)
        assert _assert_equivalent(encoded).clean
    assert b"M" in pool[2].data
    long_counts = [
        decode_uvarints(e.data, _header_end(e)).long_at.size for e in pool
    ]
    assert long_counts[3] > 0 and long_counts[4] > 100


@settings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, 4),
    flips=st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 7)), min_size=0, max_size=4
    ),
    cut=st.one_of(st.none(), st.floats(0, 1)),
    protect=st.booleans(),
)
def test_decode_chunk_equals_the_serial_oracle(which, flips, cut, protect):
    damaged = _damage(_pool()[which], flips, cut, protect)
    _assert_equivalent(damaged)
    _assert_scan_matches_walker(damaged)


@settings(max_examples=20, deadline=None)
@given(preset=st.sampled_from(["light", "heavy"]), seed=st.integers(0, 10**6))
def test_fault_presets_equal_the_serial_oracle(preset, seed):
    source = EncodedChunkSource(0, list(_pool()[:2]) * 4)
    for chunk in FaultInjector(source, FAULT_PRESETS[preset], seed=seed):
        _assert_equivalent(chunk.payload)


# -- named cases, on a stream written by hand --------------------------

WIDTH = HEIGHT = 24  # 3 x 3 blocks of 8 x 8: the smallest grid that fingerprints
NUM_BLOCKS = 9


def _uv(value: int) -> bytes:
    writer = BitstreamWriter()
    writer.write_uvarint(value)
    return writer.getvalue()


def _block(levels) -> bytes:
    writer = BitstreamWriter()
    writer.write_uvarint(len(levels))
    for level in levels:
        writer.write_svarint(level)
    return writer.getvalue()


def _stream(records, num_frames=None, gop_size=2, tail=b""):
    """``records``: one ``(type byte, [block bytes, ...])`` per frame."""
    num_frames = len(records) if num_frames is None else num_frames
    writer = BitstreamWriter()
    writer.write_bytes(MAGIC)
    for value in (WIDTH, HEIGHT, 8, 75, gop_size, num_frames, 12000, 0):
        writer.write_uvarint(value)
    for frame_type, blocks in records:
        writer.write_bytes(frame_type + _uv(len(blocks)) + b"".join(blocks))
    return EncodedVideo(
        data=writer.getvalue() + tail, width=WIDTH, height=HEIGHT,
        block_size=8, quality=75, gop_size=gop_size, num_frames=num_frames,
        fps=12.0,
    )


def _records():
    """I P I P; DC levels vary per block so the fingerprint is not flat."""
    def intra(base):
        return (b"I", [_block([base + 5 * b, 3, -2]) for b in range(NUM_BLOCKS)])
    predicted = (b"P", [_block([1, 0, -1, 2]) for _ in range(NUM_BLOCKS)])
    return [intra(-20), predicted, intra(10), predicted]


def _record_offsets(encoded) -> List[int]:
    """Byte offset of every record, walked serially."""
    reader = BitstreamReader(encoded.data)
    _read_header(reader)
    offsets = []
    for _ in range(encoded.num_frames):
        offsets.append(reader.position)
        walk_dc_record(reader, NUM_BLOCKS, False)
    return offsets


def _first_dc_offset(encoded) -> int:
    return _header_end(encoded) + 3  # type byte, block count, n_values


def test_hand_written_stream_is_sound():
    encoded = _stream(_records())
    assert _assert_scan_matches_walker(encoded)
    decoded = _assert_equivalent(encoded)
    assert decoded.clean and decoded.segments[0][1].shape == (2,)


def test_flip_inside_a_dc_value_is_accepted_with_the_new_value():
    encoded = _stream(_records())
    data = bytearray(encoded.data)
    data[_first_dc_offset(encoded)] ^= 0x20
    damaged = dataclasses.replace(encoded, data=bytes(data))
    assert _assert_scan_matches_walker(damaged)
    assert _assert_equivalent(damaged).clean
    (_, before), *_ = decode_dc_coefficients(encoded)
    (_, after), *_ = decode_dc_coefficients(damaged)
    assert before[0, 0] != after[0, 0]
    assert np.array_equal(before.ravel()[1:], after.ravel()[1:])


def test_continuation_bit_flip_merges_varints_and_falls_back():
    encoded = _stream(_records())
    data = bytearray(encoded.data)
    data[_first_dc_offset(encoded)] |= 0x80  # DC now swallows the next level
    damaged = dataclasses.replace(encoded, data=bytes(data))
    with pytest.raises(BitstreamError):
        list(decode_dc_coefficients(damaged))
    decoded = _assert_equivalent(damaged)
    assert decoded.decode_errors >= 1 and not decoded.clean


@pytest.mark.parametrize(
    "length, scan_accepts, walker_accepts",
    [(9, True, True), (10, True, True), (11, True, True), (12, False, False)],
)
def test_varint_length_limits(length, scan_accepts, walker_accepts):
    """``read_uvarint`` takes 11 bytes, and so does the scan: the 10- and
    11-byte varints, past its int64 array pass, are decoded one by one;
    a longer one is broken, and so is any record that covers it."""
    long_dc = b"\x81" + b"\x80" * (length - 2) + b"\x00"  # the value 1
    reader = BitstreamReader(long_dc)
    if walker_accepts:
        assert reader.read_uvarint() == 1 and reader.exhausted
    else:
        with pytest.raises(BitstreamError, match="longer than 11 bytes"):
            reader.read_uvarint()
    decoded = decode_uvarints(long_dc)
    assert len(decoded.small) == 1
    assert decoded.broken == ([] if scan_accepts else [0])
    if scan_accepts:
        assert decoded.take([0]).tolist() == [1]

    records = _records()
    records[0][1][0] = _uv(3) + long_dc + _block([3, -2])[1:]
    encoded = _stream(records)
    assert _assert_scan_matches_walker(encoded) == scan_accepts
    assert _assert_equivalent(encoded).clean == walker_accepts
    # In a predicted block the varint is skipped, not read: still one
    # the reader refuses past 11 bytes.
    records = _records()
    records[1][1][2] = _uv(2) + long_dc + _uv(0)
    encoded = _stream(records)
    assert _assert_scan_matches_walker(encoded) == scan_accepts
    assert _assert_equivalent(encoded).clean == walker_accepts


def test_dc_past_the_int64_range_is_exact():
    """A 10-byte DC level can pass 2**63: its grid value is the serial
    walker's float of the exact integer."""
    for top in (0x00, 0x01, 0x7F):
        huge_dc = b"\xff" * 9 + bytes([top])
        value = BitstreamReader(huge_dc).read_uvarint()
        assert (value > (1 << 63) - 1) == (top > 0x00)
        records = _records()
        records[2][1][3] = _uv(2) + huge_dc + _uv(4)
        encoded = _stream(records)
        assert _assert_scan_matches_walker(encoded)
        assert _assert_equivalent(encoded).clean


def test_flip_in_a_block_count_varint():
    encoded = _stream(_records())
    offsets = _record_offsets(encoded)
    data = bytearray(encoded.data)
    data[offsets[1] + 1] ^= 0x02  # the P record claims 11 blocks, not 9
    damaged = dataclasses.replace(encoded, data=bytes(data))
    with pytest.raises(BitstreamError, match="record claims 11"):
        list(decode_dc_coefficients(damaged))
    decoded = _assert_equivalent(damaged)
    assert decoded.decode_errors == 1 and decoded.resyncs == 1
    assert decoded.bytes_skipped == offsets[2] - offsets[1]
    assert decoded.keyframes_decoded == 2  # head I + back-anchored tail I


def test_continuation_bit_merge_across_a_record_boundary():
    """The first record's last byte swallows the next type byte: the I
    record still parses (one level changed), the one after it does
    not."""
    encoded = _stream(_records())
    offsets = _record_offsets(encoded)
    data = bytearray(encoded.data)
    data[offsets[1] - 1] |= 0x80
    damaged = dataclasses.replace(encoded, data=bytes(data))
    with pytest.raises(BitstreamError, match="frame 1"):
        list(decode_dc_coefficients(damaged))
    decoded = _assert_equivalent(damaged)
    assert decoded.decode_errors >= 1 and decoded.resyncs == 1
    scan = resilient_dc_scan(damaged)
    assert scan.segments[0].record_count == 1


def test_resync_passes_a_stray_i_byte_that_fails_its_record():
    """A P block holding the level -37 (0x49, ``I``) followed by -5
    (0x09, the block count) offers a candidate whose count is right but
    whose record is not; the resync must pass it for the true I."""
    records = _records()
    stray_block = _block([-37, -5, 0, 3])
    records[1][1][0] = stray_block
    records[1][1][1] = _uv(0)  # zero values: no I block may hold this
    encoded = _stream(records)
    offsets = _record_offsets(encoded)
    stray = encoded.data.index(b"I\x09", offsets[1])
    assert stray < offsets[2]
    data = bytearray(encoded.data)
    data[offsets[1]] = 0x00  # smash the P record's type byte
    damaged = dataclasses.replace(encoded, data=bytes(data))
    num_blocks, entropy = NUM_BLOCKS, False
    assert serial_resync(damaged.data, offsets[1] + 1, num_blocks, entropy) == (
        offsets[2]
    )
    assert resync_to_next_gop(
        damaged.data, offsets[1] + 1, num_blocks=num_blocks, entropy=entropy
    ) == offsets[2]
    assert resync_to_next_gop(
        damaged.data, stray, num_blocks=num_blocks, entropy=entropy
    ) == offsets[2]
    decoded = _assert_equivalent(damaged)
    assert decoded.resyncs == 1
    assert decoded.bytes_skipped == offsets[2] - offsets[1]


def test_damage_in_the_last_gop_back_anchors_the_tail():
    records = _records() + _records()[2:]  # I P I P I P
    encoded = _stream(records)
    offsets = _record_offsets(encoded)
    data = bytearray(encoded.data)
    data[offsets[3]] = 0x00  # the second GOP's P record
    damaged = dataclasses.replace(encoded, data=bytes(data))
    scan = resilient_dc_scan(damaged)
    assert [s.kf_slots for s in scan.segments] == [[0, 1], [2]]
    assert scan.reached_end
    decoded = _assert_equivalent(damaged)
    assert decoded.clean is False and decoded.keyframes_damaged == 0
    # Damage in the last GOP's own P record: every key frame is in hand
    # before it, so the scan stops there without a resync.
    data = bytearray(encoded.data)
    data[offsets[5]] = 0x00
    damaged = dataclasses.replace(encoded, data=bytes(data))
    scan = resilient_dc_scan(damaged)
    assert scan.resyncs == 0 and scan.keyframes_decoded == 3
    _assert_equivalent(damaged)


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(0, 4),
    flips=st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 7)), min_size=1, max_size=3
    ),
    start=st.floats(0, 1),
)
def test_resync_equals_the_serial_resync(which, flips, start):
    damaged = _damage(_pool()[which], flips, None, True)
    reader = BitstreamReader(damaged.data)
    layout = _read_dc_layout(reader, len(damaged.data))
    num_blocks = layout[0] * layout[1]
    body = reader.position
    offset = body + int(start * (len(damaged.data) - body))
    assert resync_to_next_gop(
        damaged.data, offset, num_blocks=num_blocks, entropy=False
    ) == serial_resync(damaged.data, offset, num_blocks, False)


@settings(max_examples=60, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 7)), min_size=0, max_size=3
    ),
    cut=st.one_of(st.none(), st.floats(0, 1)),
)
def test_exp_golomb_chunks_equal_the_serial_oracle(flips, cut):
    _assert_equivalent(_damage(_golomb(), flips, cut, True))


def test_truncated_tail():
    encoded = _stream(_records())
    damaged = dataclasses.replace(encoded, data=encoded.data[:-7])
    with pytest.raises(BitstreamError):
        list(decode_dc_coefficients(damaged))
    decoded = _assert_equivalent(damaged)
    assert decoded.keyframes_decoded == 2 and decoded.decode_errors == 1
    # ... and cut inside a varint: the unterminated tail is no varint.
    records = _records()
    records[3][1][-1] = _block([1, 0, -1, 200])
    encoded = _stream(records)
    assert encoded.data[-1] < 0x80 <= encoded.data[-2]
    _assert_equivalent(dataclasses.replace(encoded, data=encoded.data[:-1]))


def test_trailing_bytes_after_the_last_record_are_ignored():
    encoded = _stream(_records(), tail=b"\x00I\x09\xff\xff\xff")
    assert _assert_scan_matches_walker(encoded)
    assert _assert_equivalent(encoded).clean


def test_zero_values_in_a_predicted_block_but_not_an_intra_block():
    records = _records()
    records[1][1][4] = _uv(0)
    assert _assert_scan_matches_walker(_stream(records))
    assert _assert_equivalent(_stream(records)).clean
    records[2][1][4] = _uv(0)
    damaged = _stream(records)
    with pytest.raises(BitstreamError, match="zero stored values"):
        list(decode_dc_coefficients(damaged))
    decoded = _assert_equivalent(damaged)
    assert decoded.keyframes_decoded == 1 and decoded.decode_errors == 1


def test_more_i_frames_than_the_metadata_promises():
    encoded = _stream(_records())
    # The bytes hold two GOPs; the chunk's metadata announces one.
    short = dataclasses.replace(encoded, num_frames=2)
    assert len(list(decode_dc_coefficients(short))) == 2
    decoded = _assert_equivalent(short)
    assert decoded.expected_keyframes == 1
    assert decoded.keyframes_decoded == 1 and decoded.decode_errors == 1


def test_header_quality_is_read_in_band_by_both_paths():
    """``protect_header=False`` can flip the header's quality byte: the
    scan and the resync walker must dequantise with the same step."""
    encoded = SyntheticSource(0, seed=3, num_chunks=1).encode_chunk(0)
    quality_at = len(MAGIC) + 3  # width, height, block_size: one byte each
    assert encoded.data[quality_at] == encoded.quality == 75
    data = bytearray(encoded.data)
    data[quality_at] ^= 0x08  # 67: still a legal quality, a coarser step
    damaged = dataclasses.replace(encoded, data=bytes(data))
    scanned = [grid for _, grid in decode_dc_coefficients(damaged)]
    (segment,) = resilient_dc_scan(damaged).segments
    assert len(scanned) == len(segment.dc_grids) == encoded.num_keyframes
    for got, want in zip(segment.dc_grids, scanned):
        assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(
        EXTRACTOR.cell_ids_from_dc_grids(segment.dc_grids, encoded.block_size),
        EXTRACTOR.cell_ids_from_encoded(damaged),
    )
    # An injector that does not protect the header reaches such bytes.
    plan = FaultPlan(bit_flip=1.0, max_flips=4, protect_header=False)
    source = EncodedChunkSource(0, [encoded] * 8)
    for chunk in FaultInjector(source, plan, seed=9):
        _assert_equivalent(chunk.payload)


def test_damaged_chunk_decodes_its_varints_once(monkeypatch):
    """A byte-aligned chunk whose strict scan fails is scanned again by
    the resilient scan over the same varint decode: one
    ``decode_uvarints`` per chunk, and the oracle's outcome (segments,
    errors, resyncs, skipped bytes). No decode outlives its chunk: the
    resilient scan takes the failed scan's records, and a clean scan
    leaves none."""
    import repro.codec.gop as gop

    calls = []
    decode = gop.decode_uvarints

    def counted(data, offset=0):
        calls.append(offset)
        return decode(data, offset)

    monkeypatch.setattr(gop, "decode_uvarints", counted)
    damaged = 0
    for which in range(len(_pool())):
        for where in (0.3, 0.55, 0.8):
            encoded = _damage(_pool()[which], [(where, 7)], None, True)
            calls.clear()
            decoded, flat = _outcome(
                DECODER.decode_chunk, StreamChunk(0, 0, encoded)
            )
            assert flat == _outcome(_oracle_decode, encoded)[1]
            assert len(calls) == 1
            assert gop._VarintRecords._failed is None
            damaged += bool(decoded.decode_errors and decoded.segments)
    assert damaged
    DECODER.decode_chunk(StreamChunk(0, 0, _pool()[0]))
    assert gop._VarintRecords._failed is None
