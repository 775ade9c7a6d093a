"""A JPEG-flavoured image codec for the WubbleU workload.

The paper's example application decodes web images on the handheld ("there
may be special integrated circuits (GSM chips, JPEG chips)" — section 4).
This codec is the software equivalent: 8x8 block DCT, standard luminance
quantisation, zigzag scan, run-length coding of zeros, and a varint byte
stream instead of Huffman entropy coding (documented substitution — it
keeps the same computational shape while staying dependency-free).

Everything is deterministic, so encoded sizes — which the 66 KB page
budget depends on — are stable across runs and platforms.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Tuple

from ..core.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

BLOCK = 8

_MAGIC = b"PJ1"

@functools.cache
def _tables():
    """``(numpy, quant, dct, idct)``, built on first use so that importing
    this module does not load numpy: the standard JPEG luminance
    quantisation table (quality ~50), the 8x8 DCT matrix and its inverse."""
    import numpy as np

    quant = np.array([
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ], dtype=np.float64)
    k = np.arange(BLOCK)
    dct = np.sqrt(2.0 / BLOCK) * np.cos(np.pi * (2 * k[None, :] + 1)
                                        * k[:, None] / (2 * BLOCK))
    dct[0, :] = np.sqrt(1.0 / BLOCK)
    return np, quant, dct, dct.T


def _zigzag_order() -> List[Tuple[int, int]]:
    order = sorted(((r, c) for r in range(BLOCK) for c in range(BLOCK)),
                   key=lambda rc: (rc[0] + rc[1],
                                   rc[1] if (rc[0] + rc[1]) % 2 else rc[0]))
    return order


_ZIGZAG = _zigzag_order()


def _quality_scale(quality: int) -> np.ndarray:
    if not 1 <= quality <= 100:
        raise SimulationError(f"quality must be 1..100, got {quality}")
    if quality < 50:
        scale = 5000 / quality
    else:
        scale = 200 - 2 * quality
    np, quant, __, __ = _tables()
    table = np.floor((quant * scale + 50) / 100)
    return np.clip(table, 1, 255)


# ---------------------------------------------------------------------------
# varint + RLE byte layer
# ---------------------------------------------------------------------------

def _write_varint(out: bytearray, value: int) -> None:
    # zigzag-encode the sign, then 7-bit groups
    encoded = (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1
    while True:
        byte = encoded & 0x7F
        encoded >>= 7
        if encoded:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    shift = 0
    encoded = 0
    while True:
        if pos >= len(data):
            raise SimulationError("truncated varint in image stream")
        byte = data[pos]
        pos += 1
        encoded |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    value = -((encoded + 1) >> 1) if encoded & 1 else encoded >> 1
    return value, pos


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageInfo:
    width: int
    height: int
    quality: int
    blocks: int


def encode(image: np.ndarray, *, quality: int = 50) -> bytes:
    """Encode a greyscale uint8 image (dimensions multiples of 8)."""
    if image.ndim != 2:
        raise SimulationError("encode expects a 2-D greyscale image")
    height, width = image.shape
    if height % BLOCK or width % BLOCK:
        raise SimulationError(
            f"image dimensions must be multiples of {BLOCK}, "
            f"got {width}x{height}")
    table = _quality_scale(quality)
    np, __, dct, idct = _tables()
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<HHB", width, height, quality)
    pixels = image.astype(np.float64) - 128.0
    for top in range(0, height, BLOCK):
        for left in range(0, width, BLOCK):
            block = pixels[top:top + BLOCK, left:left + BLOCK]
            coeffs = dct @ block @ idct
            quantised = np.round(coeffs / table).astype(np.int64)
            scan = [int(quantised[r, c]) for r, c in _ZIGZAG]
            _encode_block(out, scan)
    return bytes(out)


def _encode_block(out: bytearray, scan: List[int]) -> None:
    """Emit tokens covering exactly ``len(scan)`` coefficients.

    The decoder stops as soon as the block is full, so an end-of-block
    token is written only for trailing zeros — never after a token that
    already completed the block.
    """
    index = 0
    while index < len(scan):
        if scan[index] == 0:
            run = 0
            while index < len(scan) and scan[index] == 0:
                run += 1
                index += 1
            if index >= len(scan):
                _write_varint(out, 0)      # end-of-block
                _write_varint(out, 0)
                return
            _write_varint(out, 0)          # zero-run marker
            _write_varint(out, run)
        else:
            _write_varint(out, scan[index])
            index += 1


def decode(blob: bytes) -> np.ndarray:
    """Decode back to a greyscale uint8 image."""
    if blob[:3] != _MAGIC:
        raise SimulationError("not a PJ1 image stream")
    width, height, quality = struct.unpack("<HHB", blob[3:8])
    table = _quality_scale(quality)
    np, __, dct, idct = _tables()
    pos = 8
    image = np.zeros((height, width), dtype=np.float64)
    for top in range(0, height, BLOCK):
        for left in range(0, width, BLOCK):
            scan, pos = _decode_block(blob, pos)
            quantised = np.zeros((BLOCK, BLOCK))
            for value, (r, c) in zip(scan, _ZIGZAG):
                quantised[r, c] = value
            coeffs = quantised * table
            block = idct @ coeffs @ dct
            image[top:top + BLOCK, left:left + BLOCK] = block
    return np.clip(np.round(image + 128.0), 0, 255).astype(np.uint8)


def _decode_block(data: bytes, pos: int) -> Tuple[List[int], int]:
    scan: List[int] = []
    while len(scan) < BLOCK * BLOCK:
        value, pos = _read_varint(data, pos)
        if value == 0:
            run, pos = _read_varint(data, pos)
            if run == 0:                       # end-of-block
                scan.extend([0] * (BLOCK * BLOCK - len(scan)))
                return scan, pos
            scan.extend([0] * run)
        else:
            scan.append(value)
    return scan, pos


def info(blob: bytes) -> ImageInfo:
    """Peek at an encoded stream's header."""
    if blob[:3] != _MAGIC:
        raise SimulationError("not a PJ1 image stream")
    width, height, quality = struct.unpack("<HHB", blob[3:8])
    return ImageInfo(width, height, quality,
                     (width // BLOCK) * (height // BLOCK))


def synthetic_image(width: int, height: int, *, seed: int = 0) -> np.ndarray:
    """A deterministic test card: gradients, checkers and some texture."""
    if width % BLOCK or height % BLOCK:
        raise SimulationError("dimensions must be multiples of 8")
    np = _tables()[0]
    ys, xs = np.mgrid[0:height, 0:width]
    gradient = (xs * 255.0 / max(width - 1, 1))
    checker = ((xs // 16 + ys // 16) % 2) * 60.0
    rng = np.random.default_rng(seed)
    texture = rng.normal(0.0, 12.0, size=(height, width))
    image = 0.55 * gradient + checker + texture + 40.0
    return np.clip(image, 0, 255).astype(np.uint8)
