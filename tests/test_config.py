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
])
def test_bad_values_rejected_when_a_config_loads(section, option, value):
    with pytest.raises(ValueError, match=option):
        parse_config(f"[{section}]\n{option} = {value}\n")


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
