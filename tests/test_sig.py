import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivfuse.providers import (HashTextEncoder, LookupCaptioner,
                              PlantedRegionDenoiser, Rect)
from ivfuse.sig import (KeywordSpec, MaskCacheError, MaskSemantics, ProviderError,
                        MaskSettings, SemanticGenerator, TextDescription,
                        embed_text, image_content_hash, mask_from_noise_diff,
                        otsu_threshold, read_mask, select_keyword,
                        strip_keyword, union_masks, write_mask)
from ivfuse.tensor import ShapeError
from mutation import MUTATION, mutate


def fixture_image(rng, channels=3, h=16, w=16):
    return rng.random((channels, h, w))


def captioner_for(image, text):
    return LookupCaptioner({image_content_hash(image): text})


# -- caption_for ----------------------------------------------------------


def caption_of(img, cap):
    return SemanticGenerator(cap, HashTextEncoder(8), None).caption_for(img)


def test_describe_passthrough_and_cache(rng):
    img = fixture_image(rng)
    cap = captioner_for(img, "a car parked on a street")
    gen = SemanticGenerator(cap, HashTextEncoder(8), None)
    first = gen.caption_for(img)
    assert first.text == "a car parked on a street"
    second = gen.caption_for(img)
    assert second == first


def test_describe_rejects_empty_caption(rng):
    img = fixture_image(rng)
    cap = captioner_for(img, "   ")
    with pytest.raises(ProviderError, match="empty"):
        caption_of(img, cap)


def test_describe_surfaces_provider_failure(rng):
    img = fixture_image(rng)
    cap = LookupCaptioner({})
    with pytest.raises(ProviderError, match="captioner failed"):
        caption_of(img, cap)


# -- keyword stripping ------------------------------------------------------


def test_strip_keyword_paper_example():
    t = TextDescription.from_text("a car parked on a street")
    assert strip_keyword(t, KeywordSpec("car", "config")).text == "a parked on a street"


def test_strip_keyword_absent_warns_and_is_noop():
    t = TextDescription.from_text("two people walking")
    with pytest.warns(UserWarning, match="car"):
        out = strip_keyword(t, KeywordSpec("car", "config"))
    assert out == t


def test_strip_keyword_multiple_whole_word():
    t = TextDescription.from_text("car near a red car")
    assert strip_keyword(t, KeywordSpec("car", "config")).text == "near a red"


def test_strip_keyword_case_insensitive():
    t = TextDescription.from_text("a Car on grass")
    assert strip_keyword(t, KeywordSpec("car", "config")).text == "a on grass"


def test_select_keyword_vocabulary_order():
    t = TextDescription.from_text("a bike beside a car")
    spec = select_keyword(t, ("person", "car", "bike"))
    assert spec == KeywordSpec("car", "vocabulary-match")
    assert select_keyword(t, ("person",)) is None
    assert select_keyword(t, ("person",), configured="bike") == KeywordSpec("bike", "config")


# -- mask from noise difference ----------------------------------------------


def planted_setup(rng, h=20, w=24, rect=Rect(4, 6, 8, 10)):
    img = rng.random((3, h, w))
    t = TextDescription.from_text("a car on a road")
    t_hat = TextDescription.from_text("a on a road")
    den = PlantedRegionDenoiser({"car": rect}, amplitude=0.7)
    return img, t, t_hat, den, rect


def test_identical_conditioning_gives_empty_mask(rng):
    img, t, _, den, _ = planted_setup(rng)
    mask = mask_from_noise_diff(img, t, t, den)
    np.testing.assert_array_equal(mask, np.zeros(mask.shape))


def test_planted_rectangle_recovered_exactly(rng):
    img, t, t_hat, den, rect = planted_setup(rng)
    mask = mask_from_noise_diff(img, t, t_hat, den)
    np.testing.assert_array_equal(mask, rect.indicator(20, 24))
    fixed = mask_from_noise_diff(img, t, t_hat, den,
                                 MaskSettings(threshold_policy="fixed", tau=0.5))
    np.testing.assert_array_equal(fixed, rect.indicator(20, 24))


def test_constant_difference_degenerates_to_empty(rng):
    img = rng.random((1, 8, 8))
    t = TextDescription.from_text("a car here")
    t_hat = TextDescription.from_text("a here")
    den = PlantedRegionDenoiser({"car": Rect(0, 0, 8, 8)})  # whole frame
    mask = mask_from_noise_diff(img, t, t_hat, den, MaskSettings(noise_seed=1))
    np.testing.assert_array_equal(mask, np.zeros((8, 8)))


def test_mask_deterministic_given_seed(rng):
    img, t, t_hat, den, _ = planted_setup(rng)
    a = mask_from_noise_diff(img, t, t_hat, den, MaskSettings(noise_seed=3))
    b = mask_from_noise_diff(img, t, t_hat, den, MaskSettings(noise_seed=3))
    np.testing.assert_array_equal(a, b)


def test_mask_invariant_to_affine_rescaling_of_difference(rng):
    class ScaledDenoiser:
        def __init__(self, inner, a, b):
            self.inner, self.a, self.b = inner, a, b

        def estimate_noise(self, noisy, text, level):
            return self.a * self.inner.estimate_noise(noisy, text, level) + self.b

    rect = Rect(2, 3, 5, 6)
    img = rng.random((3, 12, 14))
    t = TextDescription.from_text("one car outside")
    t_hat = TextDescription.from_text("one outside")
    base = PlantedRegionDenoiser({"car": rect}, amplitude=0.4)
    ref = mask_from_noise_diff(img, t, t_hat, base, MaskSettings(noise_seed=5))
    for a, b in [(2.0, 0.0), (7.3, -1.2), (0.01, 100.0)]:
        scaled = mask_from_noise_diff(img, t, t_hat, ScaledDenoiser(base, a, b),
                                      MaskSettings(noise_seed=5))
        np.testing.assert_array_equal(scaled, ref)


def test_denoiser_shape_mismatch_rejected(rng):
    class BadDenoiser:
        def estimate_noise(self, noisy, text, level):
            return np.zeros((1, 2, 2))

    img = rng.random((3, 8, 8))
    t = TextDescription.from_text("a car")
    t_hat = TextDescription.from_text("a")
    with pytest.raises(ShapeError, match="denoiser"):
        mask_from_noise_diff(img, t, t_hat, BadDenoiser())


# -- union -------------------------------------------------------------------


def test_union_with_full_and_idempotent(rng):
    zeros = np.zeros((5, 5))
    ones = np.ones((5, 5))
    assert np.array_equal(union_masks(zeros, ones).m, ones)
    m = (rng.random((5, 5)) > 0.5).astype(float)
    assert np.array_equal(union_masks(m, m).m, m)


def test_union_disjoint_rectangles_popcount():
    a = Rect(0, 0, 3, 4).indicator(10, 10)
    b = Rect(5, 5, 4, 3).indicator(10, 10)
    u = union_masks(a, b)
    assert u.m.sum() == a.sum() + b.sum()


def test_union_properties_random(rng):
    for _ in range(20):
        a = (rng.random((6, 7)) > 0.5).astype(float)
        b = (rng.random((6, 7)) > 0.5).astype(float)
        c = (rng.random((6, 7)) > 0.5).astype(float)
        ab = union_masks(a, b).m
        assert np.array_equal(ab, union_masks(b, a).m)
        assert np.array_equal(union_masks(ab, c).m, union_masks(a, union_masks(b, c).m).m)
        assert np.array_equal(union_masks(a, a).m, a)
        sem = union_masks(a, b)
        np.testing.assert_array_equal(sem.m + sem.m_bar, np.ones((6, 7)))


def test_union_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        union_masks(np.zeros((3, 3)), np.zeros((4, 4)))


def test_mask_semantics_validates_complement():
    with pytest.raises(ValueError, match="binary"):
        MaskSemantics(np.full((2, 2), 0.5))


# -- text embedding -----------------------------------------------------------


def test_embed_text_repeated_tokens_identical_rows():
    enc = HashTextEncoder(8)
    t = TextDescription.from_text("car on car")
    sem = embed_text(t, enc)
    assert sem.embeddings.shape == (3, 8)
    np.testing.assert_array_equal(sem.embeddings[0], sem.embeddings[2])
    assert not np.array_equal(sem.embeddings[0], sem.embeddings[1])


def test_embed_text_reproducible_across_instances():
    t = TextDescription.from_text("a car")
    a = embed_text(t, HashTextEncoder(8)).embeddings
    b = embed_text(t, HashTextEncoder(8)).embeddings
    np.testing.assert_array_equal(a, b)
    assert a.shape == (2, 8)


def test_embed_text_row_per_token(rng):
    enc = HashTextEncoder(16)
    words = ["w%d" % i for i in range(7)]
    t = TextDescription.from_text(" ".join(words))
    assert embed_text(t, enc).length == 7


# -- otsu ---------------------------------------------------------------------


def test_otsu_separates_bimodal(rng):
    values = np.concatenate([rng.normal(0.2, 0.02, 500), rng.normal(0.8, 0.02, 500)])
    thr = otsu_threshold(np.clip(values, 0, 1))
    assert 0.3 < thr < 0.7


# -- cache files ----------------------------------------------------------------


def test_mask_cache_round_trip(tmp_path, rng):
    mask = (rng.random((13, 17)) > 0.4).astype(float)
    path = tmp_path / "p.mask"
    write_mask(path, mask)
    raw = path.read_bytes()
    assert raw[:4] == b"IVM1"
    assert int.from_bytes(raw[4:6], "little") == 13
    assert int.from_bytes(raw[6:8], "little") == 17
    np.testing.assert_array_equal(read_mask(path), mask)


@pytest.mark.parametrize("keep", [0, 5, 8, 8 + 10, 8 + 31, 8 + 33])
def test_malformed_mask_cache_rejected(tmp_path, keep):
    """A 16x16 mask is exactly 8 + 32 bytes; any other length is refused."""
    path = tmp_path / "p.mask"
    write_mask(path, np.ones((16, 16)))
    raw = path.read_bytes()
    path.write_bytes(raw[:keep] if keep <= len(raw) else raw + b"\0" * (keep - len(raw)))
    with pytest.raises(MaskCacheError):
        read_mask(path)


def test_mask_cache_with_padding_bits_set_rejected(tmp_path):
    """The bits after the last pixel are zero: a 3x3 mask whose seven pad
    bits are set is refused, not read as nine ones."""
    path = tmp_path / "p.mask"
    write_mask(path, np.ones((3, 3)))
    raw = path.read_bytes()
    assert raw[-2:] == b"\xff\x80"
    path.write_bytes(raw[:-1] + b"\xff")
    with pytest.raises(MaskCacheError, match="padding bits"):
        read_mask(path)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bits=st.lists(st.lists(st.booleans(), min_size=1, max_size=12), min_size=1, max_size=12),
       ops=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_mask_cache_reads_or_raises_mask_cache_error(mutation_dir, bits, ops):
    width = min(len(row) for row in bits)
    path = mutation_dir / "p.mask"
    write_mask(path, np.array([row[:width] for row in bits], dtype=float))
    path.write_bytes(mutate(path.read_bytes(), ops))
    try:
        mask = read_mask(path)
    except MaskCacheError:
        return
    assert mask.ndim == 2 and set(np.unique(mask)) <= {0.0, 1.0}


def test_semantic_generator_uses_mask_cache(tmp_path, rng):
    rect = Rect(2, 2, 4, 4)
    vis = rng.random((3, 12, 12))
    ir = rng.random((1, 12, 12))
    cap = LookupCaptioner({image_content_hash(vis): "a car outside"})
    gen = SemanticGenerator(cap, HashTextEncoder(8), PlantedRegionDenoiser({"car": rect}),
                            MaskSettings(vocabulary=("car",)), cache_dir=str(tmp_path))
    first = gen.mask_for_pair(vis, ir, pair_id="p0")
    np.testing.assert_array_equal(first.m, rect.indicator(12, 12))
    key = gen._mask_key(image_content_hash(vis), image_content_hash(ir),
                        TextDescription.from_text("a car outside"))
    assert [p.name for p in (tmp_path / "masks").iterdir()] == [key + ".mask"]

    gen2 = SemanticGenerator(cap, HashTextEncoder(8), Exploding(),
                             MaskSettings(vocabulary=("car",)), cache_dir=str(tmp_path))
    second = gen2.mask_for_pair(vis, ir, pair_id="p0")
    np.testing.assert_array_equal(second.m, first.m)


def test_mask_cache_entry_with_padding_bits_set_is_rewritten(tmp_path, rng):
    """A 5x5 entry (25 bits) whose pad bits are set is a miss: the mask is
    computed again and the entry rewritten with zero pad bits."""
    vis = rng.random((3, 5, 5))
    ir = rng.random((1, 5, 5))
    cap = LookupCaptioner({image_content_hash(vis): "a car outside"})
    gen = SemanticGenerator(cap, HashTextEncoder(8), PlantedRegionDenoiser({"car": Rect(1, 1, 2, 2)}),
                            MaskSettings(vocabulary=("car",)), cache_dir=str(tmp_path))
    first = gen.mask_for_pair(vis, ir, pair_id="p0")
    (entry,) = (tmp_path / "masks").iterdir()
    good = entry.read_bytes()
    entry.write_bytes(good[:-1] + bytes([good[-1] | 0x7F]))
    np.testing.assert_array_equal(gen.mask_for_pair(vis, ir, pair_id="p0").m, first.m)
    assert entry.read_bytes() == good


class Exploding:
    def estimate_noise(self, *a):
        raise AssertionError("mask cache should have been used")


@pytest.mark.parametrize("settings, digest", [
    (MaskSettings(), "75e40ea0d992cdc9cfbb485a4de9a87c3a2fb95e6e0b32c38e3b381b67c88a6e"),
    (MaskSettings(keyword="car"),
     "ea1a416ce70748bac370a615c924d4f67265434f1583459a2e25ae4f4210240c"),
    (MaskSettings(vocabulary=("car", "bike"), threshold_policy="fixed"),
     "02e20f69c5844ff4d11493ba3755e19a709bf94a022fd6d03abf1a2aa1ecb3df"),
    (MaskSettings(vocabulary=("car", "person"), keyword="car", tau=0.25, noise_level=0.25,
                  noise_seed=1),
     "d135e6c4046edac8df0ac2fbf78eeec3379fdf5dcd2d930ddd4a384b9691bf49"),
])
def test_mask_key_bytes_are_stable(settings, digest):
    """Mask caches already on disk stay readable: the key digests the JSON
    list documented in docs/file_formats.md, an empty keyword as null."""
    gen = SemanticGenerator(LookupCaptioner({}), HashTextEncoder(4), None, settings)
    assert gen._mask_key("a" * 64, "b" * 64, TextDescription.from_text("a car outside")) == digest


@pytest.mark.parametrize("change", [
    "vis", "ir", "caption", "vocabulary", "keyword", "threshold_policy", "tau",
    "noise_level", "noise_seed"])
def test_mask_cache_misses_when_an_input_changes(tmp_path, rng, change):
    """Each input the mask depends on is part of its cache key, so changing
    any one of them recomputes the mask instead of reading the old file."""
    vis, ir = rng.random((3, 12, 12)), rng.random((1, 12, 12))
    settings = dict(vocabulary=("car", "bike"), keyword="", threshold_policy="fixed",
                    tau=0.5, noise_level=0.5, noise_seed=0)
    other = dict(vocabulary=("car", "person"), keyword="car", threshold_policy="otsu",
                 tau=0.25, noise_level=0.25, noise_seed=1)
    cap = LookupCaptioner({image_content_hash(vis): "a car outside",
                           image_content_hash(vis[::-1]): "a car outside"})

    def generator(denoiser, **kw):
        return SemanticGenerator(cap, HashTextEncoder(8), denoiser,
                                 MaskSettings(**{**settings, **kw}), cache_dir=str(tmp_path))

    generator(PlantedRegionDenoiser({"car": Rect(2, 2, 4, 4)})).mask_for_pair(vis, ir, "p0")
    assert generator(Exploding()).mask_for_pair(vis, ir, "p0").m.any()
    args = {"vis": (vis[::-1], ir), "ir": (vis, ir * 0.5)}.get(change, (vis, ir))
    caption = TextDescription.from_text("a red car outside") if change == "caption" else None
    gen = generator(Exploding(), **{change: other[change]} if change in other else {})
    with pytest.raises(AssertionError, match="mask cache should have been used"):
        gen.mask_for_pair(*args, "p0", caption=caption)
