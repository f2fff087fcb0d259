"""Binary checkpoint container for parameters and optimizer state.

It loads into ``Parameter``s (moments and steps when asked for), which
``restore_parameters`` moves into a live model's.

Byte layout (all integers little-endian, payloads little-endian float64;
the full normative description lives in docs/file_formats.md):

    magic    8 bytes  b"IVFCKPT\\x00"
    version  u32      currently 1
    meta_len u32      length of the metadata block
    meta     bytes    UTF-8 "key=value" lines joined by "\\n"
    count    u32      number of parameters
    per parameter, in file order:
        name_len u32, name UTF-8 bytes
        step     u64
        ndim     u32, dims u32 * ndim
        data     f64 * prod(dims)  (parameter values)
        m        f64 * prod(dims)  (first moment; zero if never stepped)
        v        f64 * prod(dims)  (second moment; zero if never stepped)

Writes are atomic: the file is written to a temp sibling then renamed.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter

import numpy as np

from .optim import Parameter

MAGIC = b"IVFCKPT\x00"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _encode_meta(meta: dict[str, str]) -> bytes:
    lines = []
    for k, v in meta.items():
        k, v = str(k), str(v)
        if "=" in k or "\n" in k or "\n" in v:
            raise CheckpointError(f"metadata key/value not encodable: {k!r}={v!r}")
        lines.append(f"{k}={v}")
    return "\n".join(lines).encode("utf-8")


def _utf8(blob: bytes, what: str) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"checkpoint {what} is not UTF-8: {e}") from e


def _decode_meta(blob: bytes) -> dict[str, str]:
    meta: dict[str, str] = {}
    if not blob:
        return meta
    for line in _utf8(blob, "metadata").split("\n"):
        k, sep, v = line.partition("=")
        if not sep or k in meta:
            raise CheckpointError(f"checkpoint metadata line {line!r} is not key=value, new key")
        meta[k] = v
    return meta


def save_checkpoint(path, params, meta: dict[str, str] | None = None) -> None:
    """Serialize ``params`` (iterable of Parameter) plus metadata to ``path``.
    A parameter name given twice raises ``CheckpointError`` before anything
    is written."""
    params = list(params)
    twice = sorted(n for n, k in Counter(p.name for p in params).items() if k > 1)
    if twice:
        raise CheckpointError(f"parameter names given twice: {twice[:5]}")
    blob = _encode_meta(meta or {})
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(blob)), blob,
              struct.pack("<I", len(params))]
    for p in params:
        name = p.name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name)))
        chunks.append(name)
        chunks.append(struct.pack("<Q", p.step))
        dims = p.data.shape
        chunks.append(struct.pack("<I", len(dims)))
        chunks.append(struct.pack(f"<{len(dims)}I", *dims) if dims else b"")
        chunks.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        for arr in (p.m, p.v):
            chunks.append(bytes(8 * p.data.size) if arr is None
                          else np.ascontiguousarray(arr, dtype="<f8").tobytes())
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(b"".join(chunks))
    os.replace(tmp, path)


def load_checkpoint(path, moments: bool = True):
    """Read a checkpoint; returns (meta, {name: Parameter}). With
    ``moments`` False only the values are built (each ``Parameter`` has
    ``m``/``v`` None and step 0), but every byte and bound is checked as
    before. A NaN or infinite value or moment, or a file that cannot be
    read, raises ``CheckpointError`` too."""
    try:
        with open(path, "rb") as f:
            raw = f.read()  # one block: freeing it lifts glibc's mmap threshold, so ops reuse heap
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e.strerror}") from e
    view = memoryview(raw)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"checkpoint truncated at byte {pos}")
        piece = view[pos:pos + n]
        pos += n
        return piece

    if bytes(take(8)) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    meta = _decode_meta(bytes(take(meta_len)))
    (count,) = struct.unpack("<I", take(4))
    params: dict[str, Parameter] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = _utf8(bytes(take(name_len)), "parameter name")
        if name in params:
            raise CheckpointError(f"checkpoint holds parameter {name!r} twice")
        (step,) = struct.unpack("<Q", take(8))
        (ndim,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim)) if ndim else ()
        size = math.prod(dims)  # exact: a product past int64 must not wrap
        arrs = []
        for i in range(3):
            # the moments' bytes are bounds- and finite-checked even when skipped
            arr = np.frombuffer(take(8 * size), dtype="<f8")
            if not np.isfinite(arr).all():
                what = ("value", "first moment", "second moment")[i]
                raise CheckpointError(f"parameter {name!r} has a NaN or infinite {what}")
            if i and not moments:
                continue
            arr = arr.astype(np.float64)
            try:
                arrs.append(np.ascontiguousarray(arr.reshape(dims)))
            except ValueError as e:  # more dims than numpy supports
                raise CheckpointError(f"parameter {name!r}: {e}") from e
        p = params[name] = Parameter(name, arrs[0])
        if moments:
            p.m, p.v, p.step = arrs[1], arrs[2], step
    if pos != len(view):
        raise CheckpointError(f"{len(view) - pos} trailing bytes after checkpoint payload")
    return meta, params


def restore_parameters(params, states: dict[str, Parameter]) -> None:
    """Load saved state into live parameters, matching by name and shape.
    The parameters keep the given arrays; nothing is copied."""
    params = list(params)
    names = {p.name for p in params}
    missing = [p.name for p in params if p.name not in states]
    if missing:
        raise CheckpointError(f"checkpoint missing parameters: {missing[:5]}")
    extra = [n for n in states if n not in names]
    if extra:
        raise CheckpointError(f"checkpoint has unknown parameters: {extra[:5]}")
    for p in params:
        st = states[p.name]
        if st.data.shape != p.data.shape:
            raise CheckpointError(
                f"parameter {p.name}: checkpoint shape {st.data.shape} != model {p.data.shape}"
            )
        p.data, p.m, p.v, p.step = st.data, st.m, st.v, st.step
