import os

import numpy as np
import pytest

from treecell.config import ExperimentConfig, save_config
from treecell.data import (
    PIANO_PITCHES,
    atomic_write,
    char_task_from_text,
    delayed_copy_task,
    generate_babble_text,
    generate_pianoroll,
    load_pianoroll,
    make_streams,
    music_task_from_roll,
    save_pianoroll,
)
from treecell.meta import MetaConfig, save_model, save_samples_csv, synthetic_curves, train_meta


def test_char_task_splits_and_vocab():
    task = char_task_from_text("abcabcabc" * 100)
    assert task.vocab_size == 3
    x, y = task.split("train")
    assert np.array_equal(x[1:], y[:-1])  # next-token alignment


def test_char_task_rejects_empty():
    with pytest.raises(ValueError):
        char_task_from_text("")


def test_babble_text_deterministic():
    a = generate_babble_text(5000, seed=1)
    b = generate_babble_text(5000, seed=1)
    assert a == b and len(a) == 5000
    assert generate_babble_text(5000, seed=2) != a


def test_delayed_copy_targets_are_shifted_inputs():
    task = delayed_copy_task(vocab_size=6, delay=3, train_tokens=100,
                             valid_tokens=50, test_tokens=50, seed=0)
    x, y = task.split("train")
    assert np.array_equal(y[3:], x[:-3])
    with pytest.raises(ValueError):
        delayed_copy_task(delay=0)


def test_pianoroll_round_trip(tmp_path):
    roll = generate_pianoroll(64, seed=3)
    assert roll.shape == (PIANO_PITCHES, 64)
    assert set(np.unique(roll)) <= {0, 1}
    path = tmp_path / "roll.txt"
    save_pianoroll(path, roll)
    again = load_pianoroll(path)
    assert np.array_equal(roll, again)


@pytest.mark.parametrize("save", [
    lambda path: save_config(ExperimentConfig(), path),
    lambda path: save_samples_csv(path, synthetic_curves(3, seed=1)[0]),
    lambda path: save_pianoroll(path, generate_pianoroll(8, seed=1)),
    lambda path: save_model(train_meta(synthetic_curves(100, seed=8)[0],
                                       MetaConfig(width=2, layers=1, epochs=1)), path),
], ids=["config", "samples_csv", "pianoroll", "model"])
def test_a_save_whose_rename_fails_leaves_the_previous_file(tmp_path, monkeypatch, save):
    path = tmp_path / "out"
    path.write_bytes(b"the previous file")

    def replace_on_a_full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace_on_a_full_disk)
    with pytest.raises(OSError) as err:
        save(path)
    assert err.value.filename == str(path)
    assert path.read_bytes() == b"the previous file"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_atomic_write_gives_the_mode_a_plain_open_gives(tmp_path):
    umask = os.umask(0o027)
    try:
        atomic_write(tmp_path / "out", "text")
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(umask)
    assert (tmp_path / "out").stat().st_mode == (tmp_path / "plain").stat().st_mode == 0o100640


def test_pianoroll_validation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0 1\n0 1 0\n")
    with pytest.raises(ValueError):
        load_pianoroll(path)
    bad_entries = "\n".join(" ".join("2" for _ in range(4)) for _ in range(88))
    path.write_text(bad_entries)
    with pytest.raises(ValueError):
        load_pianoroll(path)


def test_music_task_shapes():
    roll = generate_pianoroll(200, seed=4)
    task = music_task_from_roll(roll)
    x, y = task.split("train")
    assert x.shape[1] == PIANO_PITCHES
    assert np.array_equal(x[1:], y[:-1])
    # one fewer usable step than timesteps in the split
    assert x.shape[0] == int(200 * 0.6) - 1


def test_make_streams_contiguous_rows():
    inputs = np.arange(20)
    targets = np.arange(20) + 100
    x, y = make_streams(inputs, targets, 4)
    assert x.shape == (4, 5)
    assert np.array_equal(x[0], [0, 1, 2, 3, 4])  # rows are contiguous streams
    assert np.array_equal(y[0], [100, 101, 102, 103, 104])
    with pytest.raises(ValueError):
        make_streams(np.arange(3), np.arange(3), 10)
