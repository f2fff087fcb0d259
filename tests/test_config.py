from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivfuse.config import (ConfigError, KEY_DOCS, RunConfig, config_to_text,
                           default_config_text, load_config, parse_config_text)
from mutation import MUTATION, mutate


def test_defaults_round_trip():
    config = RunConfig()
    text = config_to_text(config)
    again = parse_config_text(text)
    assert again == config


def test_default_config_text_parses_and_documents_every_key():
    text = default_config_text()
    config = parse_config_text(text)
    assert config == RunConfig()
    for key in KEY_DOCS:
        assert key in text


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("learning_rate = 0.1\n")


def test_duplicate_and_malformed_lines_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("lr = 0.1\nlr = 0.2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("epochs = many\n")


def test_comments_and_blanks_ignored():
    config = parse_config_text("# a comment\n\nlr = 0.01\nvocabulary = car, person\n")
    assert config.train.lr == 0.01
    assert config.mask.vocabulary == ("car", "person")


def test_validation_rules():
    with pytest.raises(ConfigError, match="variant"):
        parse_config_text("variant = nothing\n")
    with pytest.raises(ConfigError, match="divide"):
        parse_config_text("heads = 3\n")
    with pytest.raises(ConfigError, match="crop"):
        parse_config_text("crop = 95\n")
    with pytest.raises(ConfigError, match="threshold_policy"):
        parse_config_text("threshold_policy = magic\n")
    for text, message in [("heads = 0\n", "heads must be >= 1"),
                          ("patch = 0\n", "patch must be >= 1"),
                          ("gate_kernel = 2\n", "gate_kernel must be odd"),
                          ("crop = 2\n", "crop must be >= patch"),
                          ("lr_schedule = bogus\n", "lr_schedule"),
                          ("batch_size = 0\n", "batch_size"),
                          ("w_ssim = -1\n", "non-negative"),
                          ("epochs = -1\n", "epochs"),
                          ("epochs = 0\n", "epochs"),
                          ("checkpoint_every = -1\n", "checkpoint_every"),
                          ("lr = nan\n", "bad value for 'lr'"),
                          ("tau = inf\n", "bad value for 'tau'"),
                          ("noise_level = -inf\n", "bad value for 'noise_level'"),
                          ("lr = -0.001\n", "lr must be >= 0"),
                          ("noise_level = -0.5\n", "noise_level must be >= 0"),
                          ("tau = 1.5\n", r"tau must be in \[0, 1\]"),
                          ("tau = -0.25\n", r"tau must be in \[0, 1\]")]:
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)


def test_derived_configs_consistent():
    config = parse_config_text("crop = 64\npatch = 4\ndim = 32\nheads = 4\n")
    model = config.train.model
    assert model.base_grid == (16, 16)
    train = config.train
    assert train.crop == 64
    assert train.model.dim == 32
    weights = config.train.weights
    assert weights.w_grad == 10.0


def test_docs_run_config_table_matches_the_defaults():
    """docs/file_formats.md lists every key in its own row, with the default
    that config_to_text(RunConfig()) renders."""
    docs = (Path(__file__).resolve().parents[1] / "docs" / "file_formats.md").read_text()
    section = docs.split("## Run config", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| ") and len(cells) >= 2 and cells[0] not in ("key", "---"):
            assert cells[0] not in rows, f"{cells[0]} has two rows"
            rows[cells[0]] = "" if cells[1] == "(empty)" else cells[1]
    rendered = dict(line.split(" = ", 1) for line in
                    config_to_text(RunConfig()).splitlines())
    assert sorted(rows) == sorted(KEY_DOCS)
    for key, value in rendered.items():
        if isinstance(getattr(KEY_DOCS[key][0], key), float):
            assert float(rows[key]) == float(value), key
        else:
            assert rows[key] == value, key


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\n")
    assert load_config(path).train.seed == 7


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from([default_config_text(), config_to_text(RunConfig()),
                             "patch = 2\ndim = 8\nheads = 2\ncrop = 16\nlr = 0.001\n"]),
       ops=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_configs_load_or_raise_config_error(mutation_dir, base, ops):
    path = mutation_dir / "run.cfg"
    path.write_bytes(mutate(base.encode(), ops))
    try:
        config = load_config(path)
    except ConfigError:
        return
    assert config.train.model.base_grid == (config.train.crop // config.train.model.patch,) * 2
