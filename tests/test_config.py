import pytest

from treecell.config import (
    ExperimentConfig,
    emit_config,
    load_config,
    parse_config,
    save_config,
)
from treecell.speciation import SpeciationConfig


def test_default_config_round_trips():
    cfg = ExperimentConfig()
    text = emit_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert emit_config(again) == text  # parse . emit . parse = parse


def test_file_round_trip(tmp_path):
    cfg = ExperimentConfig(seed=99)
    cfg.evolution.population_size = 30
    cfg.train.lr = 0.25
    cfg.meta.decoder_lens = (30, 1)
    path = tmp_path / "exp.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_unknown_option_rejected():
    with pytest.raises(ValueError):
        parse_config("[train]\nwarp_factor = 9\n")


@pytest.mark.parametrize("section, option, value", [
    ("evolution", "fitness_mode", "full-train"),
    ("train", "optimizer", "adamw"),
    ("evolution", "tournament_size", "0"),
    ("evolution", "partial_epochs", "0"),
    ("evolution", "generations", "0"),
    ("evolution", "generations", "-1"),
    ("task", "name", "foo"),
    ("task", "name", "music"),            # with no data_path
    ("speciation", "max_active", "0"),
    ("train", "batch_size", "0"),
    ("train", "unroll_steps", "0"),
    ("train", "epochs", "0"),
    ("train", "dropout_ff", "1.0"),
    ("train", "dropout_rec", "-0.1"),
    ("meta", "width", "0"),
    ("meta", "layers", "0"),
    ("meta", "epochs", "0"),
    ("meta", "patience", "0"),
    ("meta", "decoder_lens", ""),
    ("meta", "decoder_lens", "0"),
    ("meta", "decoder_lens", "30,0"),
    ("meta", "batch_size", "-5"),
    ("meta", "val_fraction", "0"),
    ("meta", "val_fraction", "1.0"),
    ("network", "width", "0"),
    ("network", "layers", "0"),
    ("network", "cardinality", "0"),
    ("network", "embedding_dim", "0"),   # on the default synthetic task
])
def test_bad_values_rejected_when_a_config_loads(section, option, value):
    with pytest.raises(ValueError, match=option):
        parse_config(f"[{section}]\n{option} = {value}\n")


def test_only_token_tasks_need_an_embedding():
    with pytest.raises(ValueError, match="embedding_dim must be >= 1 for the char_lm task"):
        parse_config("[task]\nname = char_lm\n[network]\nembedding_dim = 0\n")
    music = parse_config("[task]\nname = music\ndata_path = roll.txt\n"
                         "[network]\nembedding_dim = 0\n")
    assert music.network.embedding_dim == 0


@pytest.mark.parametrize("section, option, value, message", [
    ("train", "epochs", "ten", "invalid literal for int() with base 10: 'ten'"),
    ("train", "lr", "fast", "could not convert string to float: 'fast'"),
    ("meta", "decoder_lens", "30,x", "invalid literal for int() with base 10: 'x'"),
])
def test_unreadable_values_name_their_option(section, option, value, message):
    with pytest.raises(ValueError) as err:
        parse_config(f"[{section}]\n{option} = {value}\n")
    assert str(err.value) == f"[{section}] {option}: {message}"


def test_precision_validated():
    with pytest.raises(ValueError):
        ExperimentConfig(precision=16)


def test_speciation_section_feeds_evolution():
    cfg = parse_config("[speciation]\ncompatibility_threshold = 0.5\n")
    assert cfg.evolution.speciation.compatibility_threshold == 0.5


def test_rebound_speciation_config_round_trips():
    cfg = ExperimentConfig()
    cfg.evolution.speciation = SpeciationConfig(max_active=3)
    again = parse_config(emit_config(cfg))
    assert again.evolution.speciation.max_active == 3
    assert again == cfg


def test_bundled_configs_parse():
    for name in ("configs/smoke.ini", "configs/desk_evolution.ini",
                 "configs/music.ini"):
        cfg = load_config(name)
        text = emit_config(cfg)
        assert parse_config(text) == cfg
