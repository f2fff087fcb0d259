"""Round trip of the adaptive-filter PNG writer against a reference decoder.

The reference unfilters byte by byte exactly as RFC 2083 section 6 states,
with Python ints, so it shares no code with the writer.
"""

import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.pngfilter import (SIGNATURE, choose_filters, encode_png,  # noqa: E402
                                 filter_candidates)


def reference_decode(blob: bytes) -> tuple[np.ndarray, list[int]]:
    assert blob[:8] == SIGNATURE
    pos, idat, ihdr = 8, b"", None
    while pos < len(blob):
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        ctype, payload = blob[pos + 4:pos + 8], blob[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", blob[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(ctype + payload) & 0xFFFFFFFF
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif ctype == b"IDAT":
            idat += payload
        pos += 12 + length
    width, height, depth, color, _, _, _ = ihdr
    assert depth == 8 and color in (0, 2)
    bpp = 1 if color == 0 else 3
    stride = width * bpp
    raw = zlib.decompress(idat)
    rows, types, prev = [], [], [0] * stride
    for y in range(height):
        ftype = raw[y * (stride + 1)]
        line = list(raw[y * (stride + 1) + 1:(y + 1) * (stride + 1)])
        for x in range(stride):
            a = line[x - bpp] if x >= bpp else 0
            b = prev[x]
            c = prev[x - bpp] if x >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            line[x] = (line[x] + pred) & 0xFF
        rows.append(line)
        types.append(ftype)
        prev = line
    pixels = np.array(rows, dtype=np.uint8).reshape(height, width, bpp)
    return pixels, types


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("ftype", range(5))
def test_every_filter_type_round_trips(channels, ftype):
    gen = np.random.default_rng(ftype * 10 + channels)
    pixels = gen.integers(0, 256, size=(6, 5, channels), dtype=np.uint8)
    blob, filters = encode_png(pixels, filters=[ftype] * 6)
    decoded, types = reference_decode(blob)
    assert types == [ftype] * 6 and filters.tolist() == types
    assert np.array_equal(decoded, pixels)


def test_adaptive_choice_round_trips_and_mixes_types():
    h, w = 12, 9
    yy, xx = np.mgrid[0:h, 0:w]
    pixels = np.stack([(7 * xx + 3 * yy) % 256,        # planar: Paeth predicts it
                       np.full((h, w), 40),             # flat
                       (xx * yy) % 256], axis=-1).astype(np.uint8)
    pixels[:2] = 0                                       # black rows: None
    blob, filters = encode_png(pixels)
    decoded, types = reference_decode(blob)
    assert np.array_equal(decoded, pixels)
    assert types == filters.tolist()
    assert types[0] == 0


def test_choice_is_least_sum_of_signed_magnitudes():
    rows = np.array([[10, 10, 10, 10], [10, 10, 10, 10], [200, 0, 200, 0]], dtype=np.uint8)
    candidates = filter_candidates(rows, bpp=1)
    cost = np.abs(candidates.view(np.int8).astype(int)).sum(axis=2)
    chosen = choose_filters(candidates)
    for y in range(3):
        assert cost[chosen[y], y] == cost[:, y].min()
        assert chosen[y] == int(np.flatnonzero(cost[:, y] == cost[:, y].min())[0])
    assert chosen[1] == 2       # identical to the row above: Up


def test_writer_agrees_with_ivfuse_reader(tmp_path):
    imgio = pytest.importorskip("ivfuse.imgio")
    gen = np.random.default_rng(3)
    pixels = gen.integers(0, 256, size=(8, 7, 3), dtype=np.uint8)
    blob, _ = encode_png(pixels, filters=[0, 1, 2, 3, 4, 4, 3, 1])
    (tmp_path / "x.png").write_bytes(blob)
    decoded = imgio.load_image(tmp_path / "x.png")
    assert np.array_equal(np.round(decoded * 255).astype(np.uint8).transpose(1, 2, 0), pixels)
