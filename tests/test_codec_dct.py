"""Unit tests for the from-scratch DCT, quantiser, zig-zag and tiling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.blocks import assemble_blocks, pad_to_blocks, split_into_blocks
from repro.codec.dct import dct2, dct_matrix, idct2
from repro.codec.quantize import (
    dequantize_block,
    quantization_matrix,
    quantize_block,
)
from repro.codec.zigzag import zigzag_indices, zigzag_order, zigzag_restore
from repro.errors import CodecError


class TestDctMatrix:
    def test_orthogonality(self):
        m = dct_matrix(8)
        assert np.allclose(m @ m.T, np.eye(8), atol=1e-12)

    def test_first_row_constant(self):
        m = dct_matrix(8)
        assert np.allclose(m[0], np.full(8, 1.0 / np.sqrt(8)))

    def test_rejects_nonpositive(self):
        with pytest.raises(CodecError):
            dct_matrix(0)

    def test_cached_instance(self):
        assert dct_matrix(8) is dct_matrix(8)


class TestDct2:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        block = rng.uniform(-128, 127, size=(8, 8))
        assert np.allclose(idct2(dct2(block)), block, atol=1e-9)

    def test_dc_equals_scaled_mean(self):
        block = np.full((8, 8), 10.0)
        coefficients = dct2(block)
        # Orthonormal DCT: DC = N * mean for an N x N block.
        assert coefficients[0, 0] == pytest.approx(8 * 10.0)
        assert np.allclose(coefficients.flat[1:], 0.0, atol=1e-9)

    def test_parseval_energy_preserved(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(8, 8))
        assert np.sum(block**2) == pytest.approx(np.sum(dct2(block) ** 2))

    def test_non_square_blocks(self):
        rng = np.random.default_rng(2)
        block = rng.normal(size=(4, 6))
        assert np.allclose(idct2(dct2(block)), block, atol=1e-9)

    def test_linear(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        assert np.allclose(dct2(a + 2 * b), dct2(a) + 2 * dct2(b))

    def test_rejects_non_2d(self):
        with pytest.raises(CodecError):
            dct2(np.zeros(8))
        with pytest.raises(CodecError):
            idct2(np.zeros((2, 2, 2)))

    @settings(max_examples=25)
    @given(
        arrays(
            np.float64,
            (8, 8),
            elements=st.floats(-128, 127, allow_nan=False),
        )
    )
    def test_roundtrip_property(self, block):
        assert np.allclose(idct2(dct2(block)), block, atol=1e-6)

    def test_matches_scipy_reference(self):
        """Cross-validate the from-scratch transform against scipy's
        orthonormal DCT-II — an independent implementation."""
        scipy_fft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(9)
        for shape in ((8, 8), (4, 8), (16, 16)):
            block = rng.uniform(-128, 127, size=shape)
            reference = scipy_fft.dctn(block, type=2, norm="ortho")
            assert np.allclose(dct2(block), reference, atol=1e-10)
            assert np.allclose(
                idct2(reference),
                scipy_fft.idctn(reference, type=2, norm="ortho"),
                atol=1e-10,
            )


class TestQuantization:
    def test_quality_50_is_base_table(self):
        table = quantization_matrix(50)
        assert table[0, 0] == 16.0
        assert table[7, 7] == 99.0

    def test_higher_quality_finer(self):
        coarse = quantization_matrix(20)
        fine = quantization_matrix(90)
        assert (fine <= coarse).all()
        assert fine.sum() < coarse.sum()

    def test_quality_100_near_lossless(self):
        assert (quantization_matrix(100) == 1.0).all()

    def test_bounds_rejected(self):
        with pytest.raises(CodecError):
            quantization_matrix(0)
        with pytest.raises(CodecError):
            quantization_matrix(101)

    def test_non_8_block_size(self):
        table = quantization_matrix(50, block_size=4)
        assert table.shape == (4, 4)
        assert (table >= 1.0).all()

    def test_cached_and_read_only(self):
        """Every chunk header asks for the matrix: it is built once per
        (quality, block size) and shared, so nobody may write to it."""
        table = quantization_matrix(75, 8)
        assert quantization_matrix(75, 8) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_quantize_dequantize_bounded_error(self):
        rng = np.random.default_rng(4)
        coefficients = rng.uniform(-500, 500, size=(8, 8))
        table = quantization_matrix(75)
        recovered = dequantize_block(quantize_block(coefficients, table), table)
        assert (np.abs(recovered - coefficients) <= table / 2 + 1e-9).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CodecError):
            quantize_block(np.zeros((4, 4)), quantization_matrix(50))
        with pytest.raises(CodecError):
            dequantize_block(np.zeros((4, 4), dtype=np.int32), quantization_matrix(50))


class TestZigzag:
    def test_indices_8x8_start_and_end(self):
        order = zigzag_indices(8)
        assert order[0] == (0, 0)
        assert order[1] == (0, 1)
        assert order[2] == (1, 0)
        assert order[-1] == (7, 7)

    def test_indices_cover_all_cells(self):
        order = zigzag_indices(5)
        assert len(set(order)) == 25

    def test_adjacent_cells_touch(self):
        order = zigzag_indices(6)
        for (r1, c1), (r2, c2) in zip(order, order[1:]):
            assert abs(r1 - r2) <= 1 and abs(c1 - c2) <= 1

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        block = rng.integers(-10, 10, size=(8, 8))
        assert np.array_equal(zigzag_restore(zigzag_order(block), 8), block)

    def test_dc_is_first(self):
        block = np.zeros((8, 8))
        block[0, 0] = 42.0
        assert zigzag_order(block)[0] == 42.0

    def test_rejects_non_square(self):
        with pytest.raises(CodecError):
            zigzag_order(np.zeros((4, 8)))

    def test_restore_rejects_bad_length(self):
        with pytest.raises(CodecError):
            zigzag_restore(np.zeros(63), 8)


class TestBlocks:
    def test_pad_noop_when_aligned(self):
        frame = np.zeros((16, 24))
        assert pad_to_blocks(frame, 8) is frame

    def test_pad_extends_with_edge(self):
        frame = np.arange(6, dtype=float).reshape(2, 3)
        padded = pad_to_blocks(frame, 4)
        assert padded.shape == (4, 4)
        assert padded[3, 3] == frame[1, 2]

    def test_split_shape(self):
        frame = np.zeros((16, 24))
        blocks = split_into_blocks(frame, 8)
        assert blocks.shape == (2, 3, 8, 8)

    def test_split_content(self):
        frame = np.arange(64, dtype=float).reshape(8, 8)
        blocks = split_into_blocks(frame, 4)
        assert np.array_equal(blocks[0, 0], frame[:4, :4])
        assert np.array_equal(blocks[1, 1], frame[4:, 4:])

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        frame = rng.normal(size=(20, 28))
        blocks = split_into_blocks(frame, 8)
        recovered = assemble_blocks(blocks, frame.shape)
        assert np.allclose(recovered, frame)

    def test_assemble_rejects_bad_shape(self):
        with pytest.raises(CodecError):
            assemble_blocks(np.zeros((2, 2, 8, 4)), (16, 16))

    def test_assemble_rejects_oversized_target(self):
        with pytest.raises(CodecError):
            assemble_blocks(np.zeros((1, 1, 8, 8)), (16, 16))

    def test_rejects_non_2d_frame(self):
        with pytest.raises(CodecError):
            pad_to_blocks(np.zeros((2, 2, 2)), 8)
