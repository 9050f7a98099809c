"""Toy MPEG-like intra-frame codec (the "compressed domain" substrate).

The paper's feature extractor (Section III-A) *partially decodes* incoming
MPEG bitstreams: it reads only the DC coefficients of the key (I) frames,
never performing the inverse DCT. To make that a real code path rather than
a stub, this subpackage implements a small but genuine intra-only codec:

* :mod:`repro.codec.dct` — exact 8x8 (or NxN) type-II/III DCT built from
  first principles with numpy matrix products.
* :mod:`repro.codec.quantize` — JPEG-style luminance quantisation with a
  quality factor, which is how re-compression attacks change coefficients.
* :mod:`repro.codec.zigzag` — the classic zig-zag coefficient ordering.
* :mod:`repro.codec.blocks` — frame <-> 8x8 block tiling with edge padding.
* :mod:`repro.codec.bitstream` — a byte-exact serialised bitstream format
  with headers, so "decoding" really parses bytes.
* :mod:`repro.codec.gop` — group-of-pictures encoder marking I frames and
  (trivially delta-coded) P frames, plus the full and *partial* decoders.

The only consumer contract that matters downstream is
:func:`repro.codec.gop.decode_dc_coefficients`: given an encoded stream it
yields, per I frame, the dequantised DC coefficient of every 8x8 block —
without inverse DCT, exactly like the paper.
"""

from repro.codec.blocks import assemble_blocks, pad_to_blocks, split_into_blocks
from repro.codec.bitstream import BitstreamReader, BitstreamWriter
from repro.codec.dct import dct2, idct2
from repro.codec.entropy import (
    BitReader,
    BitWriter,
    decode_block_scan,
    encode_block_scan,
)
from repro.codec.gop import (
    EncodedVideo,
    decode_dc_coefficients,
    decode_video,
    encode_video,
)
from repro.codec.motion import compensate, motion_search
from repro.codec.resync import (
    DCSegment,
    ResilientScanResult,
    resilient_dc_scan,
    resync_to_next_gop,
)
from repro.codec.quantize import (
    dequantize_block,
    quantization_matrix,
    quantize_block,
)
from repro.codec.zigzag import zigzag_indices, zigzag_order, zigzag_restore

__all__ = [
    "BitReader",
    "BitWriter",
    "BitstreamReader",
    "BitstreamWriter",
    "DCSegment",
    "EncodedVideo",
    "ResilientScanResult",
    "assemble_blocks",
    "compensate",
    "dct2",
    "decode_block_scan",
    "decode_dc_coefficients",
    "decode_video",
    "dequantize_block",
    "encode_block_scan",
    "encode_video",
    "idct2",
    "motion_search",
    "pad_to_blocks",
    "quantization_matrix",
    "quantize_block",
    "resilient_dc_scan",
    "resync_to_next_gop",
    "split_into_blocks",
    "zigzag_indices",
    "zigzag_order",
    "zigzag_restore",
]
