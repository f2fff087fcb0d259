import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivfuse import imgio
from ivfuse.imgio import PNG_SIGNATURE, ImageFormatError, load_image, save_image
from mutation import MUTATION, mutate


def quantized(rng, channels, h, w, levels=255):
    return np.round(rng.random((channels, h, w)) * levels) / levels


def pnm_file(img, maxval):
    """Binary PGM/PPM bytes of (1|3, H, W) pixels in [0, 1], built here
    rather than by imgio, which writes PNG only."""
    c, h, w = img.shape
    samples = np.round(img * maxval).transpose(1, 2, 0)
    payload = samples.astype(np.uint8 if maxval == 255 else ">u2").tobytes()
    return (b"P5" if c == 1 else b"P6") + f"\n{w} {h}\n{maxval}\n".encode() + payload


def png16_file(img):
    """16-bit PNG bytes of (1|3, H, W) pixels in [0, 1], every row filtered None."""
    c, h, w = img.shape
    rows = np.round(img * 65535).transpose(1, 2, 0).astype(">u2").reshape(h, -1).view(np.uint8)
    filtered = np.concatenate([np.zeros((h, 1), dtype=np.uint8), rows], axis=1)
    return png_file(ihdr(w, h, 16, 0 if c == 1 else 2), filtered.tobytes())


def write_8bit(img, path):
    """PNG through ``save_image``; PGM/PPM as bytes built by ``pnm_file``."""
    if path.suffix == ".png":
        save_image(img, path)
    else:
        path.write_bytes(pnm_file(img, 255))


@pytest.mark.parametrize("ext", ["png", "ppm"])
def test_rgb_8bit_round_trip_exact(tmp_path, rng, ext):
    img = quantized(rng, 3, 9, 13)
    path = tmp_path / f"img.{ext}"
    write_8bit(img, path)
    np.testing.assert_array_equal(load_image(path), img)


@pytest.mark.parametrize("ext", ["png", "pgm"])
def test_gray_8bit_round_trip_exact(tmp_path, rng, ext):
    img = quantized(rng, 1, 7, 5)
    path = tmp_path / f"img.{ext}"
    write_8bit(img, path)
    np.testing.assert_array_equal(load_image(path), img)


@pytest.mark.parametrize("ext", ["png", "pgm"])
def test_16bit_gray_scaling(tmp_path, rng, ext):
    encode = png16_file if ext == "png" else (lambda img: pnm_file(img, 65535))
    img = quantized(rng, 1, 6, 6, levels=65535)
    path = tmp_path / f"img16.{ext}"
    path.write_bytes(encode(img))
    back = load_image(path)
    np.testing.assert_array_equal(back, img)
    full = np.ones((1, 2, 2))
    path.write_bytes(encode(full))
    assert load_image(path).max() == 1.0


def test_16bit_rgb_png(tmp_path, rng):
    img = quantized(rng, 3, 4, 4, levels=65535)
    path = tmp_path / "rgb16.png"
    path.write_bytes(png16_file(img))
    np.testing.assert_array_equal(load_image(path), img)


@pytest.mark.parametrize("ext", ["ppm", "pgm"])
def test_save_image_writes_png_only(tmp_path, ext):
    with pytest.raises(ImageFormatError, match=rf"\.{ext}"):
        save_image(np.zeros((1, 2, 2)), tmp_path / f"img.{ext}")
    assert not (tmp_path / f"img.{ext}").exists()


def test_save_clamps_out_of_range(tmp_path):
    img = np.array([[[-0.5, 2.0]]])
    path = tmp_path / "clamp.png"
    save_image(img, path)
    np.testing.assert_array_equal(load_image(path), [[[0.0, 1.0]]])


def test_corrupt_and_unsupported_rejected(tmp_path):
    bad = tmp_path / "bad.png"
    bad.write_bytes(b"not an image at all")
    with pytest.raises(ImageFormatError, match="bad.png"):
        load_image(bad)
    with pytest.raises(ImageFormatError, match="no such file"):
        load_image(tmp_path / "absent.png")
    with pytest.raises(ImageFormatError, match="extension"):
        save_image(np.zeros((1, 2, 2)), tmp_path / "img.jpg")
    truncated = tmp_path / "trunc.ppm"
    truncated.write_bytes(b"P6\n4 4\n255\n\x00\x00")
    with pytest.raises(ImageFormatError, match="truncated"):
        load_image(truncated)


# -- pure-Python reference PNG codec (RFC 2083 section 6), independent of imgio --


def _predict(ftype, a, b, c):
    if ftype == 0:
        return 0
    if ftype == 1:
        return a
    if ftype == 2:
        return b
    if ftype == 3:
        return (a + b) // 2
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    return a if pa <= pb and pa <= pc else (b if pb <= pc else c)


def ref_filter(rows, filters, bpp):
    """Filtered scanlines (type byte + bytes) for raw rows of equal length."""
    out = bytearray()
    prev = bytes(len(rows[0]))
    for row, ftype in zip(rows, filters):
        out.append(ftype)
        for x, v in enumerate(row):
            a = row[x - bpp] if x >= bpp else 0
            c = prev[x - bpp] if x >= bpp else 0
            out.append((v - _predict(ftype, a, prev[x], c)) & 0xFF)
        prev = row
    return bytes(out)


def ref_unfilter(data, height, stride, bpp):
    rows = []
    prev = bytes(stride)
    for y in range(height):
        ftype = data[y * (stride + 1)]
        enc = data[y * (stride + 1) + 1:(y + 1) * (stride + 1)]
        row = bytearray(stride)
        for x in range(stride):
            a = row[x - bpp] if x >= bpp else 0
            c = prev[x - bpp] if x >= bpp else 0
            row[x] = (enc[x] + _predict(ftype, a, prev[x], c)) & 0xFF
        rows.append(bytes(row))
        prev = row
    return rows


def chunk(ctype, payload, crc=None):
    if crc is None:
        crc = zlib.crc32(ctype + payload)
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def ihdr(width, height, depth=8, color=0, comp=0, filt=0, interlace=0):
    return struct.pack(">IIBBBBB", width, height, depth, color, comp, filt, interlace)


def png_file(header, filtered):
    return (PNG_SIGNATURE + chunk(b"IHDR", header) + chunk(b"IDAT", zlib.compress(filtered))
            + chunk(b"IEND", b""))


def wrapped_sums(filtered, rows, bpp):
    """How many decoded bytes come from a filter sum past 255."""
    stride = len(rows[0])
    prev = bytes(stride)
    count = 0
    for y, row in enumerate(rows):
        ftype = filtered[y * (stride + 1)]
        for x in range(stride):
            a = row[x - bpp] if x >= bpp else 0
            c = prev[x - bpp] if x >= bpp else 0
            count += filtered[y * (stride + 1) + 1 + x] + _predict(ftype, a, prev[x], c) > 255
        prev = row
    return count


# (depth, color type) -> bytes per pixel 1, 2, 3, 6
FORMATS = [(8, 0), (16, 0), (8, 2), (16, 2)]


def raw_to_image(rows, width, depth, color):
    channels = 1 if color == 0 else 3
    dtype = np.uint8 if depth == 8 else np.dtype(">u2")
    px = np.frombuffer(b"".join(rows), dtype=dtype).reshape(len(rows), width, channels)
    return px.transpose(2, 0, 1).astype(np.float64) / (255.0 if depth == 8 else 65535.0)


def test_png_filters_decoded(tmp_path, rng):
    """Every filter type at every supported bpp, against the reference codec;
    random bytes make Sub, Average and Paeth sums wrap past 255."""
    width, height = 7, 6
    for depth, color in FORMATS:
        bpp = (1 if color == 0 else 3) * depth // 8
        stride = width * bpp
        for filters in [[f] * height for f in range(5)] + [[0, 1, 2, 3, 4, 4]]:
            rows = [rng.integers(0, 256, stride, dtype=np.uint8).tobytes()
                    for _ in range(height)]
            filtered = ref_filter(rows, filters, bpp)
            assert ref_unfilter(filtered, height, stride, bpp) == rows
            if any(filters):
                assert wrapped_sums(filtered, rows, bpp) > 0
            path = tmp_path / f"f{depth}_{color}_{filters[0]}{filters[-1]}.png"
            path.write_bytes(png_file(ihdr(width, height, depth, color), filtered))
            np.testing.assert_array_equal(load_image(path),
                                          raw_to_image(rows, width, depth, color),
                                          err_msg=f"depth {depth} color {color} {filters}")


def decode_matches_reference(path, filtered, width, height, depth, color):
    """Write filtered scanlines as a PNG; load_image must decode them as
    ref_unfilter does."""
    stride = width * (1 if color == 0 else 3) * depth // 8
    want = ref_unfilter(filtered, height, stride, stride // width)
    path.write_bytes(png_file(ihdr(width, height, depth, color), filtered))
    np.testing.assert_array_equal(load_image(path), raw_to_image(want, width, depth, color))


def random_filtered(rng, filters, width, depth, color):
    """Random filtered bytes under the given row types: any bytes are valid."""
    stride = width * (1 if color == 0 else 3) * depth // 8
    return b"".join(bytes([f]) + rng.integers(0, 256, stride, dtype=np.uint8).tobytes()
                    for f in filters)


# Row filter types of 24-row images. The block is the rows from the first
# Average/Paeth (3/4) row through the last, decoded as one wavefront.
BLOCK_LAYOUTS = {
    "top": [4, 3, 4] + [1, 2, 0] * 7,
    "middle": [0, 1, 2] * 3 + [3, 4, 4, 3] + [2, 1] * 5 + [0],
    "bottom": [1, 2, 0] * 7 + [4, 4, 3],
    "single-paeth": [2] * 11 + [4] + [2] * 12,
    "single-average": [1] * 23 + [3],
    "other-types-inside": [1, 4, 0, 0, 4, 3, 0, 1, 2, 4, 0, 4] * 2,
    "all-paeth": [4] * 24,
    "all-average": [3] * 24,
}


@pytest.mark.parametrize("layout", sorted(BLOCK_LAYOUTS))
@pytest.mark.parametrize("depth, color", FORMATS)
def test_png_filter_blocks_decoded(tmp_path, rng, layout, depth, color):
    filters = BLOCK_LAYOUTS[layout]
    assert len(filters) == 24
    width = 9
    decode_matches_reference(tmp_path / "block.png",
                             random_filtered(rng, filters, width, depth, color),
                             width, len(filters), depth, color)


@pytest.mark.parametrize("width, filters", [
    (1, BLOCK_LAYOUTS["other-types-inside"]),
    (1, BLOCK_LAYOUTS["all-paeth"]),
    (9, [4]),
    (9, [3]),
    (1, [4]),
], ids=["width-1-mixed", "width-1-paeth", "height-1-paeth", "height-1-average", "1x1-paeth"])
@pytest.mark.parametrize("depth, color", FORMATS)
def test_png_one_pixel_wide_or_one_row_high_decoded(tmp_path, rng, width, filters, depth,
                                                    color):
    decode_matches_reference(tmp_path / "thin.png",
                             random_filtered(rng, filters, width, depth, color),
                             width, len(filters), depth, color)


@pytest.mark.parametrize("depth, color", FORMATS)
def test_png_block_longer_than_one_band_decoded(tmp_path, rng, monkeypatch, depth, color):
    """Rows 1-22 form the block, decoded in bands of 5 + 5 + 5 + 5 + 2 rows."""
    monkeypatch.setattr(imgio, "_BAND_ROWS", 5)
    filters = [2] + [4, 0, 0, 4, 3, 0, 1, 2, 4, 0] + [4] * 12 + [0]
    decode_matches_reference(tmp_path / "bands.png",
                             random_filtered(rng, filters, 7, depth, color),
                             7, len(filters), depth, color)


@st.composite
def filtered_scanlines(draw):
    depth, color = draw(st.sampled_from(FORMATS))
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    stride = width * (1 if color == 0 else 3) * depth // 8
    filters = draw(st.lists(st.integers(0, 4), min_size=height, max_size=height))
    data = draw(st.binary(min_size=stride * height, max_size=stride * height))
    filtered = b"".join(bytes([f]) + data[y * stride:(y + 1) * stride]
                        for y, f in enumerate(filters))
    return filtered, width, height, depth, color


@pytest.fixture(scope="module")
def decode_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("decoded")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=filtered_scanlines())
def test_png_decode_matches_reference_codec(decode_dir, case):
    decode_matches_reference(decode_dir / "img.png", *case)


def test_tall_narrow_png_decodes_in_bounded_memory(tmp_path, rng):
    """20000 x 1 gray, every row Paeth (40 kB inflated): a wavefront over the
    whole block at once would need two 20000 x 20000 int16 diagonal arrays."""
    height = 20000
    rows = [bytes([v]) for v in rng.integers(0, 256, height).tolist()]
    path = tmp_path / "tall.png"
    path.write_bytes(png_file(ihdr(1, height), ref_filter(rows, [4] * height, 1)))
    tracemalloc.start()
    try:
        img = load_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    np.testing.assert_array_equal(img, raw_to_image(rows, 1, 8, 0))


def test_png_unknown_filter_type_rejected(tmp_path):
    filtered = bytes([0, 1, 2]) + bytes([5, 1, 2])
    path = tmp_path / "f5.png"
    path.write_bytes(png_file(ihdr(2, 2), filtered))
    with pytest.raises(ImageFormatError, match="filter type 5 in row 1"):
        load_image(path)


def _framing_case(name):
    good_ihdr = ihdr(2, 2)
    idat = chunk(b"IDAT", zlib.compress(bytes(6)))
    iend = chunk(b"IEND", b"")
    if name == "crc":
        return PNG_SIGNATURE + chunk(b"IHDR", good_ihdr, crc=0) + idat + iend
    if name == "past-end":
        # IEND declares 64 data bytes; the file ends 8 bytes later
        return PNG_SIGNATURE + chunk(b"IHDR", good_ihdr) + idat \
            + struct.pack(">I", 64) + b"IEND" + bytes(8)
    if name == "ihdr-not-first":
        return PNG_SIGNATURE + idat + chunk(b"IHDR", good_ihdr) + iend
    if name == "ihdr-short":
        return PNG_SIGNATURE + chunk(b"IHDR", good_ihdr[:12]) + idat + iend
    if name == "compression-method":
        return PNG_SIGNATURE + chunk(b"IHDR", ihdr(2, 2, comp=1)) + idat + iend
    if name == "filter-method":
        return PNG_SIGNATURE + chunk(b"IHDR", ihdr(2, 2, filt=1)) + idat + iend
    if name == "zero-width":
        return PNG_SIGNATURE + chunk(b"IHDR", ihdr(0, 2)) \
            + chunk(b"IDAT", zlib.compress(bytes(2))) + iend
    if name == "zero-height":
        return PNG_SIGNATURE + chunk(b"IHDR", ihdr(2, 0)) \
            + chunk(b"IDAT", zlib.compress(b"")) + iend
    assert name == "no-iend"
    return PNG_SIGNATURE + chunk(b"IHDR", good_ihdr) + idat


@pytest.mark.parametrize("case, message", [
    ("crc", "CRC"),
    ("past-end", "past the end"),
    ("ihdr-not-first", "IHDR must be the first"),
    ("ihdr-short", "IHDR is 12 bytes"),
    ("compression-method", "compression/filter method 1/0"),
    ("filter-method", "compression/filter method 0/1"),
    ("zero-width", "zero size 0x2"),
    ("zero-height", "zero size 2x0"),
    ("no-iend", "without an IEND"),
])
def test_png_chunk_framing_rejected(tmp_path, case, message):
    path = tmp_path / f"{case}.png"
    path.write_bytes(_framing_case(case))
    with pytest.raises(ImageFormatError, match=message):
        load_image(path)



@pytest.mark.parametrize("ctype, loads", [
    (b"ZZZZ", False),  # critical (bit 5 of the first byte clear), unknown
    (b"zZZZ", True),   # ancillary
    (b"tEXt", True),
    (b"PLTE", True),   # critical and known: a suggested palette, unused here
])
def test_png_unknown_critical_chunk_rejected(tmp_path, ctype, loads):
    """RFC 2083 3.3: a decoder must not skip a critical chunk it does not
    know. Ancillary chunks, and ``PLTE``, are skipped."""
    path = tmp_path / "extra.png"
    path.write_bytes(PNG_SIGNATURE + chunk(b"IHDR", ihdr(2, 2)) + chunk(ctype, b"\x00" * 3)
                     + chunk(b"IDAT", zlib.compress(bytes(6))) + chunk(b"IEND", b""))
    if loads:
        np.testing.assert_array_equal(load_image(path), np.zeros((1, 2, 2)))
    else:
        with pytest.raises(ImageFormatError, match="unknown critical PNG chunk b'ZZZZ'"):
            load_image(path)

def test_png_stream_longer_than_image_rejected_in_bounded_memory(tmp_path):
    """A 1x1 image whose IDAT inflates to 16 MiB is rejected without holding it."""
    path = tmp_path / "inflates.png"
    path.write_bytes(png_file(ihdr(1, 1), bytes(16 * 2**20)))
    tracemalloc.start()
    try:
        with pytest.raises(ImageFormatError):
            load_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_png_of_largest_declared_size_rejected(tmp_path):
    """2^31 - 1 square RGB16, the largest IHDR allows, with a 2-byte stream."""
    path = tmp_path / "huge.png"
    path.write_bytes(png_file(ihdr(2**31 - 1, 2**31 - 1, 16, 2), bytes(2)))
    with pytest.raises(ImageFormatError, match="not one zlib stream"):
        load_image(path)


def test_unsupported_png_features_rejected(tmp_path):
    def make(color, depth, interlace=0):
        stride = 2 * (3 if color == 2 else 1) * depth // 8
        return png_file(ihdr(2, 2, depth, color, interlace=interlace), bytes((stride + 1) * 2))

    palette = tmp_path / "palette.png"
    palette.write_bytes(make(color=3, depth=8))
    with pytest.raises(ImageFormatError, match="color type"):
        load_image(palette)
    inter = tmp_path / "inter.png"
    inter.write_bytes(make(color=0, depth=8, interlace=1))
    with pytest.raises(ImageFormatError, match="interlaced"):
        load_image(inter)


@pytest.mark.parametrize("blob, message", [
    (b"P6\n-1 2\n255\n" + bytes(12), "not positive integers"),
    (b"P5\n0 0\n255\n", "not positive integers"),
    (b"P5\n2 +1\n255\n" + bytes(2), "not positive integers"),
    (b"P5\n2 1\n100\n" + bytes([7, 101]), "sample 101 exceeds maxval 100"),
], ids=["negative-width", "zero-size", "plus-sign", "sample-over-maxval"])
def test_malformed_pnm_rejected(tmp_path, blob, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(ImageFormatError, match=message):
        load_image(path)


# -- property test: mutated files decode to valid pixels or raise ImageFormatError --


@st.composite
def valid_png(draw):
    depth, color = draw(st.sampled_from(FORMATS))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    stride = width * (1 if color == 0 else 3) * depth // 8
    rows = [draw(st.binary(min_size=stride, max_size=stride)) for _ in range(height)]
    filters = draw(st.lists(st.integers(0, 4), min_size=height, max_size=height))
    return ihdr(width, height, depth, color), ref_filter(rows, filters, stride // width)


@st.composite
def valid_pnm(draw):
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    maxval = draw(st.sampled_from([1, 100, 255, 256, 1000, 65535]))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    count = width * height * (1 if magic == b"P5" else 3)
    samples = draw(st.lists(st.integers(0, maxval), min_size=count, max_size=count))
    dtype = np.uint8 if maxval <= 255 else np.dtype(">u2")
    return magic + f"\n{width} {height}\n{maxval}\n".encode() \
        + np.array(samples, dtype=dtype).tobytes()


@st.composite
def mutated_image(draw):
    """A valid PNG or PNM with bytes flipped, inserted, deleted or cut. PNG
    mutations land either in the file (chunk framing) or, re-framed with valid
    CRCs, in the IHDR fields or the filtered scanlines (the decoder proper)."""
    ops = draw(st.lists(MUTATION, min_size=1, max_size=4))
    kind = draw(st.sampled_from(["pnm", "png-file", "png-ihdr", "png-scanlines"]))
    if kind == "pnm":
        return mutate(draw(valid_pnm()), ops)
    header, filtered = draw(valid_png())
    if kind == "png-file":
        return mutate(png_file(header, filtered), ops)
    if kind == "png-ihdr":
        return png_file(mutate(header, ops), filtered)
    return png_file(header, mutate(filtered, ops))


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(blob=mutated_image())
def test_mutated_images_decode_or_raise_format_error(mutation_dir, blob):
    path = mutation_dir / "img"
    path.write_bytes(blob)
    try:
        img = load_image(path)
    except ImageFormatError:
        return
    assert img.ndim == 3 and img.shape[0] in (1, 3)
    assert np.all(np.isfinite(img)) and img.min() >= 0.0 and img.max() <= 1.0
