"""Byte mutations of valid files, for reader robustness properties.

A mutation is ``(op, index, value)``: flip bit ``value`` of a byte, insert
byte ``value``, delete a byte, or truncate the file. ``index`` wraps
around the current length, so every drawn op lands somewhere.
"""

from __future__ import annotations

from hypothesis import strategies as st

MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.just(0)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.just(0)),
)


def mutate(blob, ops):
    data = bytearray(blob)
    for op, index, value in ops:
        i = index % (len(data) + 1)
        if op == "insert":
            data.insert(i, value)
        elif op == "truncate":
            del data[i:]
        elif i < len(data) and op == "flip":
            data[i] ^= 1 << value
        elif i < len(data):
            del data[i]
    return bytes(data)
