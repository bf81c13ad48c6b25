import numpy as np
import pytest

from treecell.data import (
    PIANO_PITCHES,
    char_task_from_text,
    delayed_copy_task,
    generate_babble_text,
    generate_pianoroll,
    load_pianoroll,
    make_streams,
    music_task_from_roll,
    save_pianoroll,
)


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
