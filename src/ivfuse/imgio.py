"""Raster image I/O: reads binary PGM/PPM and PNG (gray/RGB, 8- or 16-bit)
and writes 8-bit PNG, all against the published formats (zlib from the
standard library does the PNG compression), so round trips are exact and
auditable: an 8-bit image saved and reloaded is bit-identical. Loaded
pixels are float64 in [0, 1], channel-first (1|3, H, W); 16-bit samples
scale by 65535, 8-bit by 255.

PNG rows filtered None, Sub or Up decode one numpy step per row; the block
from the first Average/Paeth row through the last decodes as a wavefront,
one numpy step per anti-diagonal, in bands of at most ``_BAND_ROWS`` rows
held in diagonal-major int16 arrays. ``_unfilter`` gives its costs: about
5x faster than a per-byte loop on mostly-Paeth images, slower on a lone
Paeth row or an image a few pixels wide.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib

import numpy as np
from numpy.lib.stride_tricks import as_strided

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class ImageFormatError(ValueError):
    """Unsupported or corrupt raster file."""


# -- PNM reader (binary PGM "P5" and PPM "P6") -------------------------------


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


# -- PNG (color types 0 and 2, bit depths 8 and 16, no interlace) ---------------


# Most rows one wavefront band decodes. A band of n rows and width w takes
# w + n - 1 numpy steps, one per diagonal, and O(n (n + w) bpp) scratch;
# unbanded, a 20000 x 1 gray image would need two 0.8 GB diagonal arrays.
# Measured on a 2-vCPU host, all-Paeth RGB 640x480 decoded in 33 ms at 256
# rows (two bands) and 28-33 ms at 512 (one band), with 3.5 MB against 7 MB
# of scratch; 128 rows took 72 ms and 64 rows 89 ms. At 256, 320x240 images
# take one band and 640x480 two.
_BAND_ROWS = 256


def _unfilter(data: bytes, height: int, stride: int, bpp: int, path) -> np.ndarray:
    """Undo the PNG scanline filters (RFC 2083 section 6): (height, stride) uint8.

    None, Sub and Up rows decode in one numpy step per row. An Average or
    Paeth byte needs the byte to its left in the same row, so the rows from
    the first Average/Paeth row through the last one, whatever their types,
    form a block decoded as a wavefront: byte (y, x) depends only on
    (y, x-1), (y-1, x) and (y-1, x-1), so all bytes on one anti-diagonal
    decode at once (Lamport's hyperplane method, CACM 17(2), 1974). The
    block runs in bands of at most ``_BAND_ROWS`` rows, each with the row
    above it as its ``prev``; ``_unfilter_band`` gives the layout.

    A step costs about 15 us however few pixels its diagonal holds. So an
    all-Paeth 320x240 RGB image takes about 13 ms (81 ms for a per-byte
    loop), but one Paeth row among Up rows costs a step per pixel: 4.5 ms at
    320x240 and 6.6 ms at 640x480, against 0.7 and 0.95 ms. Images a few
    pixels wide pay the same way: 20000 x 1 gray, all Paeth, about 250 ms
    against 78 ms.
    """
    rows = np.frombuffer(data, dtype=np.uint8).reshape(height, stride + 1)
    ftypes = rows[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        raise ImageFormatError(
            f"{path}: unknown PNG filter type {ftypes[bad[0]]} in row {bad[0]}")
    filtered = rows[:, 1:]
    out = np.empty((height, stride), dtype=np.uint8)
    zeros = np.zeros(stride, dtype=np.uint8)
    slow = np.flatnonzero(ftypes >= 3)
    first, last = (int(slow[0]), int(slow[-1]) + 1) if slow.size else (height, height)
    for y in range(first):
        _unfilter_row(filtered[y], ftypes[y], out[y - 1] if y else zeros, bpp, out[y])
    for start in range(first, last, _BAND_ROWS):
        stop = min(start + _BAND_ROWS, last)
        _unfilter_band(filtered[start:stop], ftypes[start:stop],
                       out[start - 1] if start else zeros, bpp, out[start:stop])
    for y in range(last, height):
        _unfilter_row(filtered[y], ftypes[y], out[y - 1], bpp, out[y])
    return out


def _unfilter_row(cur, ftype, prev, bpp, out) -> None:
    """Decode one None, Sub or Up row into ``out``."""
    if ftype == 0:
        out[:] = cur
    elif ftype == 1:
        # uint8 accumulation wraps mod 256; each of the bpp byte lanes is an
        # independent running sum along the row
        np.add.accumulate(cur.reshape(-1, bpp), axis=0, dtype=np.uint8,
                          out=out.reshape(-1, bpp))
    else:
        np.add(cur, prev, out=out)


def _unfilter_band(raw, ftypes, prev, bpp, out) -> None:
    """Decode n filtered rows ``raw`` (n, stride) of any types into ``out``.

    The filtered bytes and the output are held in diagonal-major int16
    arrays, bpp byte lanes last: filtered pixel (y, x) at ``diag[x + y, y]``
    and output pixel (y, x) at ``dec[x + y + 2, y + 1]``, where the padding
    row y = -1 holds ``prev`` and the padding column x = -1 stays zero (the
    a and c left of column 0). For the rows lo..hi (1-based) on diagonal k,
    a = (y, x-1), b = (y-1, x) and c = (y-1, x-1) are then the contiguous
    slices ``dec[k-1, lo:hi+1]``, ``dec[k-1, lo-1:hi]`` and
    ``dec[k-2, lo-1:hi]``; a ufunc on a strided column view costs about 8x
    more. Each diagonal computes the predictor of every filter type in the
    band, picks each row's with a mask and writes (raw + pred) & 0xFF.
    """
    n, stride = raw.shape
    w = stride // bpp
    diag = np.empty((w + n - 1, n, bpp), dtype=np.int16)
    s0, s1, s2 = diag.strides
    as_strided(diag, (n, w, bpp), (s0 + s1, s0, s2))[...] = raw.reshape(n, w, bpp)
    dec = np.zeros((w + n + 1, n + 1, bpp), dtype=np.int16)
    dec[1:w + 1, 0] = prev.reshape(w, bpp)
    # the first type present sets every row's predictor and the others
    # overwrite their own rows; Paeth goes first when present
    present = [t for t in (4, 3, 1, 2, 0) if (ftypes == t).any()]
    masks = [(present[0], True)] + [(t, (ftypes == t)[:, None]) for t in present[1:]]
    pred, pa, pb, pc = (np.empty((n, bpp), dtype=np.int16) for _ in range(4))
    le = np.empty((n, bpp), dtype=bool)
    for k in range(2, w + n + 1):
        lo, hi = max(1, k - w), min(n, k - 1)
        m = hi - lo + 1
        a, b, c = dec[k - 1, lo:hi + 1], dec[k - 1, lo - 1:hi], dec[k - 2, lo - 1:hi]
        p = pred[:m]
        for ftype, mask in masks:
            rows = mask if mask is True else mask[lo - 1:hi]
            if ftype == 4:
                # |p - a|, |p - b| and |p - c| for the Paeth estimate
                # p = a + b - c; ties go to a, then b, then c. qc becomes
                # min(|p - b|, |p - c|), so a wins when qa is at most both
                qa, qb, qc, use = pa[:m], pb[:m], pc[:m], le[:m]
                np.subtract(b, c, out=qa)
                np.subtract(a, c, out=qb)
                np.add(qa, qb, out=qc)
                np.abs(qa, out=qa)
                np.abs(qb, out=qb)
                np.abs(qc, out=qc)
                np.minimum(qb, qc, out=qc)
                np.copyto(p, c)
                np.copyto(p, b, where=np.less_equal(qb, qc, out=use))
                np.copyto(p, a, where=np.less_equal(qa, qc, out=use))
            elif ftype == 3:
                qa = pa[:m]
                np.add(a, b, out=qa)
                qa >>= 1
                np.copyto(p, qa, where=rows)
            elif ftype == 2:
                np.copyto(p, b, where=rows)
            elif ftype == 1:
                np.copyto(p, a, where=rows)
            else:
                np.copyto(p, 0, where=rows)
        cur = dec[k, lo:hi + 1]
        np.add(diag[k - 2, lo - 1:hi], p, out=cur)
        cur &= 0xFF
    t0, t1, t2 = dec.strides
    out.reshape(n, w, bpp)[...] = as_strided(dec[2, 1:], (n, w, bpp), (t0 + t1, t0, t2))


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
        elif not ctype[0] & 0x20 and ctype != b"PLTE":  # RFC 2083 3.3: critical
            raise ImageFormatError(f"{path}: unknown critical PNG chunk {ctype!r}")
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


def _write_png(img: np.ndarray, path) -> None:
    c, h, w = img.shape
    color = 0 if c == 1 else 2
    pixels = np.round(np.clip(img, 0.0, 1.0) * 255).transpose(1, 2, 0).astype(np.uint8)
    filtered = np.concatenate([np.zeros((h, 1), dtype=np.uint8), pixels.reshape(h, -1)], axis=1)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    blob = (PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(filtered.tobytes(), 6))
            + _png_chunk(b"IEND", b""))
    with open(path, "wb") as f:
        f.write(blob)


# -- public surface ---------------------------------------------------------------


def load_image(path) -> np.ndarray:
    """Load a PGM/PPM/PNG file as float64 (1|3, H, W) scaled to [0, 1]."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise ImageFormatError(f"{path}: no such file") from None
    except OSError as e:
        raise ImageFormatError(f"{path}: cannot read ({e.strerror})") from e
    if raw[:8] == PNG_SIGNATURE:
        return _read_png(raw, path)
    if raw[:2] in (b"P5", b"P6"):
        return _read_pnm(raw, path)
    raise ImageFormatError(f"{path}: unrecognized format (supported: binary PGM/PPM, PNG)")


def save_image(img: np.ndarray, path) -> None:
    """Write (1|3, H, W) [0,1] pixels as an 8-bit PNG; ``path`` must end in .png."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[None]
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise ImageFormatError(f"cannot save image of shape {img.shape}")
    ext = os.path.splitext(str(path))[1].lower()
    if ext != ".png":
        raise ImageFormatError(f"{path}: unsupported extension {ext!r} (only .png is written)")
    _write_png(img, path)
