"""Raster image I/O: binary PGM/PPM and PNG (gray/RGB, 8- or 16-bit).

Both codecs are implemented here against the published formats (zlib from
the standard library does the PNG compression), so round trips are exact
and auditable: an 8-bit image saved and reloaded is bit-identical. Loaded
pixels are float64 in [0, 1], channel-first (1|3, H, W); 16-bit samples
scale by 65535, 8-bit by 255.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class ImageFormatError(ValueError):
    """Unsupported or corrupt raster file."""


# -- PNM (binary PGM "P5" and PPM "P6") --------------------------------------


def _read_pnm(raw: bytes, path) -> np.ndarray:
    if raw[:2] not in (b"P5", b"P6"):
        raise ImageFormatError(f"{path}: not a binary PGM/PPM file")
    channels = 1 if raw[:2] == b"P5" else 3
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError(f"{path}: truncated PNM header")
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if not all(f.isdigit() and int(f) > 0 for f in fields):
        raise ImageFormatError(f"{path}: PNM header fields {fields} are not positive integers")
    width, height, maxval = (int(f) for f in fields)
    if maxval > 65535:
        raise ImageFormatError(f"{path}: unsupported maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    count = width * height * channels
    if len(raw) - pos < count * dtype.itemsize:
        raise ImageFormatError(f"{path}: pixel payload truncated")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    if data.max() > maxval:
        raise ImageFormatError(f"{path}: PNM sample {data.max()} exceeds maxval {maxval}")
    img = data.reshape(height, width, channels).astype(np.float64) / maxval
    return np.ascontiguousarray(img.transpose(2, 0, 1))


def _write_pnm(img: np.ndarray, path, bit_depth: int) -> None:
    c, h, w = img.shape
    maxval = 255 if bit_depth == 8 else 65535
    magic = b"P5" if c == 1 else b"P6"
    quant = np.round(np.clip(img, 0.0, 1.0) * maxval)
    payload = quant.transpose(1, 2, 0).astype(np.uint8 if bit_depth == 8 else ">u2").tobytes()
    with open(path, "wb") as f:
        f.write(magic + b"\n" + f"{w} {h}\n{maxval}\n".encode())
        f.write(payload)


# -- PNG (color types 0 and 2, bit depths 8 and 16, no interlace) ---------------


def _unfilter(data: bytes, height: int, stride: int, bpp: int, path) -> np.ndarray:
    rows = np.frombuffer(data, dtype=np.uint8).reshape(height, stride + 1)
    ftypes = rows[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        raise ImageFormatError(
            f"{path}: unknown PNG filter type {ftypes[bad[0]]} in row {bad[0]}")
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y, ftype in enumerate(ftypes.tolist()):
        cur = rows[y, 1:]
        if ftype == 0:
            out[y] = cur
        elif ftype == 1:
            # uint8 accumulation wraps mod 256; each of the bpp byte lanes
            # is an independent running sum along the row
            np.add.accumulate(cur.reshape(-1, bpp), axis=0, dtype=np.uint8,
                              out=out[y].reshape(-1, bpp))
        elif ftype == 2:
            np.add(cur, prev, out=out[y])
        else:
            # Average and Paeth depend on the byte just decoded, so they run
            # sequentially, on Python ints: a numpy scalar per byte costs far
            # more. The bpp leading zeros are the bytes left of column 0.
            line = bytearray(bpp) + cur.tobytes()
            up = bytes(bpp) + prev.tobytes()
            if ftype == 3:
                for x in range(bpp, bpp + stride):
                    line[x] = (line[x] + ((line[x - bpp] + up[x]) >> 1)) & 0xFF
            else:
                for x in range(bpp, bpp + stride):
                    a, b, c = line[x - bpp], up[x], up[x - bpp]
                    # |p - a|, |p - b|, |p - c| for the Paeth estimate p = a + b - c
                    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                    line[x] = (line[x] + pred) & 0xFF
            out[y] = np.frombuffer(line, dtype=np.uint8, offset=bpp)
        prev = out[y]
    return out


def _read_png(raw: bytes, path) -> np.ndarray:
    if raw[:8] != PNG_SIGNATURE:
        raise ImageFormatError(f"{path}: not a PNG file")
    pos = 8
    ihdr = None
    idat = bytearray()
    while True:
        if pos + 8 > len(raw):
            raise ImageFormatError(f"{path}: PNG ends without an IEND chunk")
        length, ctype = struct.unpack_from(">I4s", raw, pos)
        end = pos + 8 + length
        if end + 4 > len(raw):
            raise ImageFormatError(f"{path}: PNG chunk {ctype!r} runs past the end of the file")
        chunk = raw[pos + 8:end]
        if zlib.crc32(raw[pos + 4:end]) != struct.unpack_from(">I", raw, end)[0]:
            raise ImageFormatError(f"{path}: PNG chunk {ctype!r} fails its CRC check")
        pos = end + 4
        if (ctype == b"IHDR") != (ihdr is None):
            raise ImageFormatError(f"{path}: IHDR must be the first PNG chunk, and only once")
        if ctype == b"IHDR":
            if length != 13:
                raise ImageFormatError(f"{path}: IHDR is {length} bytes, not 13")
            ihdr = struct.unpack(">IIBBBBB", chunk)
        elif ctype == b"IDAT":
            idat.extend(chunk)
        elif ctype == b"IEND":
            break
    width, height, depth, color, comp, filt, interlace = ihdr
    if width == 0 or height == 0:
        raise ImageFormatError(f"{path}: PNG has zero size {width}x{height}")
    if comp != 0 or filt != 0:
        raise ImageFormatError(
            f"{path}: unknown PNG compression/filter method {comp}/{filt} (only 0/0)")
    if interlace != 0:
        raise ImageFormatError(f"{path}: interlaced PNG not supported")
    if color not in (0, 2):
        raise ImageFormatError(f"{path}: only grayscale/RGB PNG supported (color type {color})")
    if depth not in (8, 16):
        raise ImageFormatError(f"{path}: only 8/16-bit PNG supported (depth {depth})")
    channels = 1 if color == 0 else 3
    bpp = channels * depth // 8
    stride = width * bpp
    size = height * (stride + 1)
    inflate = zlib.decompressobj()
    try:
        # inflate at most one byte past the image, so a stream that expands
        # far beyond it is rejected without ever being held in memory
        decompressed = inflate.decompress(bytes(idat), min(size + 1, sys.maxsize))
    except zlib.error as e:
        raise ImageFormatError(f"{path}: corrupt PNG stream: {e}") from e
    if len(decompressed) != size or not inflate.eof:
        raise ImageFormatError(f"{path}: PNG image data is not one zlib stream of {size} bytes")
    flat = _unfilter(decompressed, height, stride, bpp, path)
    if depth == 8:
        img = flat.reshape(height, width, channels).astype(np.float64) / 255.0
    else:
        img = flat.view(">u2").reshape(height, width, channels).astype(np.float64) / 65535.0
    return np.ascontiguousarray(img.transpose(2, 0, 1))


def _png_chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def _write_png(img: np.ndarray, path, bit_depth: int) -> None:
    c, h, w = img.shape
    maxval = 255 if bit_depth == 8 else 65535
    color = 0 if c == 1 else 2
    quant = np.round(np.clip(img, 0.0, 1.0) * maxval)
    pixels = quant.transpose(1, 2, 0).astype(np.uint8 if bit_depth == 8 else ">u2")
    rows = pixels.reshape(h, -1).view(np.uint8).reshape(h, -1)
    filtered = np.concatenate([np.zeros((h, 1), dtype=np.uint8), rows], axis=1)
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color, 0, 0, 0)
    blob = (PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(filtered.tobytes(), 6))
            + _png_chunk(b"IEND", b""))
    with open(path, "wb") as f:
        f.write(blob)


# -- public surface ---------------------------------------------------------------


def load_image(path) -> np.ndarray:
    """Load a PGM/PPM/PNG file as float64 (1|3, H, W) scaled to [0, 1]."""
    if not os.path.exists(path):
        raise ImageFormatError(f"{path}: no such file")
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] == PNG_SIGNATURE:
        return _read_png(raw, path)
    if raw[:2] in (b"P5", b"P6"):
        return _read_pnm(raw, path)
    raise ImageFormatError(f"{path}: unrecognized format (supported: binary PGM/PPM, PNG)")


def save_image(img: np.ndarray, path, bit_depth: int = 8) -> None:
    """Write (1|3, H, W) [0,1] pixels; format chosen by file extension."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[None]
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise ImageFormatError(f"cannot save image of shape {img.shape}")
    if bit_depth not in (8, 16):
        raise ImageFormatError(f"unsupported bit depth {bit_depth}")
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".png":
        _write_png(img, path, bit_depth)
    elif ext in (".pgm", ".ppm", ".pnm"):
        _write_pnm(img, path, bit_depth)
    else:
        raise ImageFormatError(f"{path}: unsupported extension {ext!r} (use .png/.pgm/.ppm)")
