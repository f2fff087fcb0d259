import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivfuse.checkpoint import (CheckpointError, load_checkpoint,
                               restore_parameters, save_checkpoint)
from ivfuse.optim import Parameter
from mutation import MUTATION, mutate


def make_params(rng):
    a = Parameter("enc.weight", rng.standard_normal((3, 4)))
    b = Parameter("enc.bias", rng.standard_normal(4))
    a.m = rng.standard_normal((3, 4))
    a.v = np.abs(rng.standard_normal((3, 4)))
    a.step = 17
    return [a, b]


def test_round_trip_bytes_identical(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta={"variant": "full", "dim": "64"})
    first = path.read_bytes()

    meta, states = load_checkpoint(path)
    assert meta == {"variant": "full", "dim": "64"}
    fresh = [Parameter("enc.weight", np.zeros((3, 4))), Parameter("enc.bias", np.zeros(4))]
    restore_parameters(fresh, states)
    np.testing.assert_array_equal(fresh[0].data, params[0].data)
    np.testing.assert_array_equal(fresh[0].m, params[0].m)
    np.testing.assert_array_equal(fresh[0].v, params[0].v)
    assert fresh[0].step == 17

    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, fresh, meta=meta)
    assert path2.read_bytes() == first


def test_header_layout_is_as_documented(tmp_path):
    p = Parameter("w", np.array([1.5]))
    path = tmp_path / "one.ckpt"
    save_checkpoint(path, [p], meta={})
    raw = path.read_bytes()
    assert raw[:8] == b"IVFCKPT\x00"
    assert int.from_bytes(raw[8:12], "little") == 1      # version
    assert int.from_bytes(raw[12:16], "little") == 0     # empty meta
    assert int.from_bytes(raw[16:20], "little") == 1     # one parameter
    assert int.from_bytes(raw[20:24], "little") == 1     # name length
    assert raw[24:25] == b"w"
    assert np.frombuffer(raw[-24:], dtype="<f8")[0] == 1.5  # data payload first


def test_bad_magic_and_truncation_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTHING HERE")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, [Parameter("w", np.zeros(3))], meta={})
    clipped = good.read_bytes()[:-5]
    bad = tmp_path / "clipped.ckpt"
    bad.write_bytes(clipped)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)


def test_values_only_load_builds_no_moments(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, meta={"k": "v"})
    meta, states = load_checkpoint(path, moments=False)
    assert meta == {"k": "v"} and list(states) == ["enc.weight", "enc.bias"]
    for p in params:
        st = states[p.name]
        np.testing.assert_array_equal(st.data, p.data)
        assert st.m is None and st.v is None and st.step == 0
    fresh = [Parameter("enc.weight", np.zeros((3, 4))), Parameter("enc.bias", np.zeros(4))]
    restore_parameters(fresh, states)
    assert fresh[0].data is states["enc.weight"].data  # kept, not copied
    assert fresh[0].m is None and fresh[0].step == 0


def test_unstepped_parameter_saves_zero_moments(tmp_path):
    p = Parameter("w", np.array([1.5, -2.0]))
    path = tmp_path / "w.ckpt"
    save_checkpoint(path, [p], meta={})
    _, states = load_checkpoint(path)
    np.testing.assert_array_equal(states["w"].m, np.zeros(2))
    np.testing.assert_array_equal(states["w"].v, np.zeros(2))
    assert path.read_bytes()[-32:] == bytes(32)


@pytest.mark.parametrize("moments", [True, False])
def test_cut_inside_the_last_moment_or_trailing_bytes_rejected(tmp_path, rng, moments):
    """A values-only read still walks every byte: the moments' bounds and
    the end of the file are checked as in a full read."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, make_params(rng), meta={})
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])                  # inside the last parameter's v
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path, moments=moments)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(CheckpointError, match="1 trailing bytes"):
        load_checkpoint(path, moments=moments)


def test_restore_rejects_mismatches(tmp_path, rng):
    params = make_params(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, meta={})
    _, states = load_checkpoint(path)
    with pytest.raises(CheckpointError, match="missing"):
        restore_parameters([Parameter("other", np.zeros(2))] + params, states)
    with pytest.raises(CheckpointError, match="shape"):
        restore_parameters(
            [Parameter("enc.weight", np.zeros((4, 3))), Parameter("enc.bias", np.zeros(4))],
            states,
        )


def test_non_utf8_metadata_and_names_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [Parameter("w", np.zeros(1))], meta={"k": "v"})
    raw = path.read_bytes()
    assert raw[16:19] == b"k=v" and raw[27:28] == b"w"
    for at, what in ((18, "metadata"), (27, "parameter name")):
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        with pytest.raises(CheckpointError, match=f"{what} is not UTF-8"):
            load_checkpoint(path)


@pytest.mark.parametrize("blob, match", [
    (b"dim=8\ndim=16", "'dim=16' is not key=value"),
    (b"dim=8\ngarbage", "'garbage' is not key=value"),
])
def test_repeated_or_unsplittable_metadata_line_rejected(tmp_path, blob, match):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [], meta={})
    raw = path.read_bytes()
    path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16:])
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)



def test_parameter_name_given_twice_rejected(tmp_path):
    """Two entries named ``w`` are rejected; the later one does not replace
    the earlier one in silence."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [Parameter("w", np.zeros(2)), Parameter("v", np.ones(2))], meta={})
    named_v = struct.pack("<I", 1) + b"v"
    path.write_bytes(path.read_bytes().replace(named_v, struct.pack("<I", 1) + b"w"))
    with pytest.raises(CheckpointError, match="parameter 'w' twice"):
        load_checkpoint(path)


def test_save_rejects_a_parameter_name_given_twice(tmp_path):
    """``save_checkpoint`` raises before it writes: no file, no temp file."""
    with pytest.raises(CheckpointError, match=r"given twice: \['w'\]"):
        save_checkpoint(tmp_path / "m.ckpt",
                        [Parameter("w", np.zeros(2)), Parameter("w", np.ones(2))], meta={})
    assert list(tmp_path.iterdir()) == []


def test_unreadable_checkpoint_raises_checkpoint_error(tmp_path):
    (tmp_path / "dir.ckpt").mkdir()
    for path in (tmp_path / "missing.ckpt", tmp_path / "dir.ckpt"):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(path)


@pytest.mark.parametrize("moments", [True, False])
@pytest.mark.parametrize("which, bad", [("value", math.nan), ("first moment", math.inf),
                                        ("second moment", -math.inf)])
def test_non_finite_values_and_moments_rejected(tmp_path, moments, which, bad):
    """A NaN or infinite stored number is refused, naming the parameter,
    also in the moments a values-only read does not build."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [Parameter("w", np.zeros(2))], meta={})
    raw = bytearray(path.read_bytes())
    at = len(raw) - 48 + 16 * ("value", "first moment", "second moment").index(which) + 8
    raw[at:at + 8] = struct.pack("<d", bad)
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match=f"parameter 'w' has a NaN or infinite {which}"):
        load_checkpoint(path, moments=moments)


def test_dims_whose_product_overflows_int64_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [Parameter("w", np.zeros((1, 1, 1, 1)))], meta={})
    raw = path.read_bytes()
    dims_at = 20 + 4 + 1 + 8 + 4                       # count, name_len, name, step, ndim
    assert struct.unpack_from("<4I", raw, dims_at) == (1, 1, 1, 1)
    path.write_bytes(raw[:dims_at] + struct.pack("<4I", *(65536,) * 4) + raw[dims_at + 16:])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_more_dims_than_numpy_supports_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [Parameter("w", np.zeros((3, 3, 3)))], meta={})
    raw = bytearray(path.read_bytes())
    raw[20 + 4 + 1 + 8] = 67                  # ndim; the zero payload reads as zero dims
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="dimension"):
        load_checkpoint(path)


# -- property test: mutated checkpoints load or raise CheckpointError --------------


@st.composite
def checkpoint_contents(draw):
    """Metadata and small parameters (some all-zero, as fresh moments are)."""
    meta = draw(st.dictionaries(st.sampled_from(["variant", "global_step", "dim", "base_grid"]),
                                st.sampled_from(["full", "0", "8", "8,8", "é"]), max_size=3))
    shapes = draw(st.lists(st.lists(st.integers(0, 3), max_size=3).map(tuple), max_size=3))
    zeros = draw(st.booleans())
    return meta, [Parameter(f"enc{i}.wé", np.zeros(shape) if zeros else
                            np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape))
                  for i, shape in enumerate(shapes)]


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(contents=checkpoint_contents(), ops=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_checkpoints_load_or_raise_checkpoint_error(mutation_dir, contents, ops):
    meta, params = contents
    path = mutation_dir / "m.ckpt"
    save_checkpoint(path, params, meta=meta)
    path.write_bytes(mutate(path.read_bytes(), ops))
    try:
        got_meta, states = load_checkpoint(path)
    except CheckpointError:
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in got_meta.items())
    for state in states.values():
        assert state.data.shape == state.m.shape == state.v.shape
