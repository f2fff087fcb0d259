"""PNG writer with per-row adaptive filters, the way libpng chooses them.

ivfuse's own writer emits filter type 0 (None) on every row, which its
reader decodes in one vectorised step. Real-world PNGs mix all five filter
types (RFC 2083 section 6), and the reader walks Sub/Average/Paeth rows byte
by byte. This writer produces such files so the benchmark can measure the
decode path users actually hit. Only stdlib ``zlib`` and numpy are used.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")


def _paeth_predictor(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    a16, b16, c16 = (x.astype(np.int16) for x in (a, b, c))
    p = a16 + b16 - c16
    pa, pb, pc = np.abs(p - a16), np.abs(p - b16), np.abs(p - c16)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c)).astype(np.uint8)


def filter_candidates(rows: np.ndarray, bpp: int) -> np.ndarray:
    """All five filtered forms of raw scanlines: (5, height, stride) uint8.

    Encoder-side filters depend only on raw bytes of the row and the row
    above, so every row is filtered at once.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    up = np.zeros_like(rows)
    up[1:] = rows[:-1]
    left = np.zeros_like(rows)
    left[:, bpp:] = rows[:, :-bpp]
    up_left = np.zeros_like(rows)
    up_left[:, bpp:] = up[:, :-bpp]
    average = ((left.astype(np.uint16) + up) >> 1).astype(np.uint8)
    return np.stack([
        rows,
        rows - left,
        rows - up,
        rows - average,
        rows - _paeth_predictor(left, up, up_left),
    ])


def choose_filters(candidates: np.ndarray) -> np.ndarray:
    """libpng's heuristic: per row, the filter with the least sum of
    |byte as signed int8|; ties go to the lower filter type."""
    cost = np.abs(candidates.view(np.int8).astype(np.int64)).sum(axis=2)  # (5, height)
    return np.argmin(cost, axis=0).astype(np.uint8)


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def encode_png(pixels: np.ndarray, filters=None) -> tuple[bytes, np.ndarray]:
    """Encode 8-bit (H, W) gray or (H, W, 3) RGB pixels as a PNG.

    ``filters`` fixes the filter type of every row; by default each row
    gets the adaptive choice. Returns the file bytes and the per-row types.
    """
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    h, w, c = pixels.shape
    if c not in (1, 3):
        raise ValueError(f"encode_png: expected 1 or 3 channels, got {c}")
    rows = pixels.reshape(h, w * c)
    candidates = filter_candidates(rows, bpp=c)
    if filters is None:
        filters = choose_filters(candidates)
    filters = np.asarray(filters, dtype=np.uint8)
    if filters.shape != (h,) or filters.max(initial=0) > 4:
        raise ValueError("encode_png: need one filter type in 0..4 per row")
    chosen = candidates[filters, np.arange(h)]
    payload = np.concatenate([filters[:, None], chosen], axis=1).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if c == 1 else 2, 0, 0, 0)
    blob = (SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(payload, 6)) + _chunk(b"IEND", b""))
    return blob, filters
