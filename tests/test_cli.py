import ast
import concurrent.futures
import configparser
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from treecell import cli, evolution, fitness
from treecell.cli import main
from treecell.config import ExperimentConfig, load_config, save_config
from treecell.grammar import parse, serialize
from treecell.genetic import random_genome
from treecell.meta import (MetaConfig, load_model, save_model, save_samples_csv,
                           synthetic_curves, train_meta)
from treecell.tree import seed_tree

ROOT = Path(__file__).resolve().parent.parent


def tiny_config(tmp_path, **overrides) -> Path:
    cfg = ExperimentConfig(seed=5)
    cfg.task.train_tokens = 3000
    cfg.task.valid_tokens = 800
    cfg.task.test_tokens = 800
    cfg.network.width = 12
    cfg.network.embedding_dim = 8
    cfg.evolution.population_size = 4
    cfg.evolution.generations = 2
    cfg.evolution.partial_epochs = 1
    cfg.evolution.fitness_mode = "epoch10_baseline"
    cfg.evolution.seed = 5
    cfg.train.epochs = 1
    cfg.train.batch_size = 10
    cfg.train.optimizer = "adam"
    cfg.train.lr = 0.01
    cfg.train.dropout_ff = 0.0
    cfg.train.dropout_rec = 0.0
    for key, value in overrides.items():
        section, name = key.split(".")
        setattr(getattr(cfg, section), name, value)
    path = tmp_path / "exp.ini"
    save_config(cfg, path)
    return path


@pytest.fixture()
def genome_file(tmp_path):
    path = tmp_path / "g.genome"
    path.write_text(serialize(random_genome(
        np.random.Generator(np.random.PCG64(3)), steps=4)) + "\n")
    return path


def test_distance_same_file_is_zero(genome_file, capsys):
    assert main(["distance", str(genome_file), str(genome_file)]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_distance_worked_example(tmp_path, capsys):
    a = tmp_path / "a.genome"
    b = tmp_path / "b.genome"
    a.write_text("(add (mul x0 x1) (tanh (tanh x2)))\n")
    b.write_text("(add x4 (tanh (tanh x5)))\n")
    assert main(["distance", str(a), str(b)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.1, abs=1e-15)


def test_distance_mirror_pair(tmp_path, capsys):
    a = tmp_path / "a.genome"
    b = tmp_path / "b.genome"
    a.write_text("(mul (add x0 (tanh x1)) (sigmoid x2))\n")
    b.write_text("(mul (sigmoid x2) (add (tanh x1) x0))\n")
    main(["distance", str(a), str(b)])
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_validate_exit_codes(tmp_path, genome_file, capsys):
    assert main(["validate", str(genome_file)]) == 0
    bad = tmp_path / "bad.genome"
    bad.write_text("(tanh (sigmoid x0))\n")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "consecutive nonlinearity" in out
    unparsable = tmp_path / "nope.genome"
    unparsable.write_text("(frob x0)\n")
    assert main(["validate", str(unparsable)]) == 1


def test_train_writes_single_row_curve(tmp_path, genome_file):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "curve.csv"
    assert main(["train", str(genome_file), "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epoch,perplexity,seconds"
    assert len(lines) == 2  # one epoch
    assert out.read_text().endswith("\n")
    # seconds column is zeroed unless --timing is passed
    assert lines[1].split(",")[2] == "0.0"


def test_train_same_seed_identical_bytes(tmp_path, genome_file):
    cfg = tiny_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["train", str(genome_file), "--config", str(cfg), "--out", str(out_a)])
    main(["train", str(genome_file), "--config", str(cfg), "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_csv_cells_are_written_as_their_values(tmp_path):
    """A NumPy float is written as the number, as a Python float is."""
    out = tmp_path / "t.csv"
    cli.write_csv(out, ("a", "b", "c", "d"), [(np.float64(1.5), np.float32(0.25), 0.1, 3)])
    assert out.read_text() == "a,b,c,d\n1.5,0.25,0.1,3\n"


def test_train_divergence_is_clean_error(tmp_path, genome_file, monkeypatch, capsys):
    from treecell.fitness import EvalContext
    from treecell.training import TrainingDiverged

    def diverge(self, text, epochs=None, seed=None):
        raise TrainingDiverged(3, 7)

    monkeypatch.setattr(EvalContext, "train_genome", diverge)
    out = tmp_path / "curve.csv"
    assert main(["train", str(genome_file), "--config", str(tiny_config(tmp_path)),
                 "--out", str(out)]) == 1
    assert "diverged at epoch 3, batch 7" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "train", "hetero"])
def test_split_smaller_than_a_batch_is_clean_error(tmp_path, genome_file, capsys, command):
    """A valid split shorter than one batch is a config error, reported
    before anything trains: not a divergence, and not an inf fitness."""
    cfg = tiny_config(tmp_path, **{"task.valid_tokens": 5, "network.width": 40})
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "g.genome").write_text(genome_file.read_text())
    argv = {"evolve": ["evolve"], "train": ["train", str(genome_file)],
            "hetero": ["hetero", str(pool), "--count", "1"]}[command]
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert "split too small for batch size 10" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("problem, message", [
    ("missing", "No such file or directory"),
    ("unknown option", "unknown option 'foo' in section [train]"),
    ("fitness_mode typo", "unknown fitness_mode 'full-train'"),
    ("optimizer", "unknown optimizer 'adamw'"),
])
@pytest.mark.parametrize("command", ["evolve", "train", "hetero", "meta train"])
def test_bad_config_is_clean_error(tmp_path, genome_file, capsys, command, problem, message):
    """A config that cannot be read or breaks a rule ends every command that
    reads one with exit 1, before anything else is read or trained."""
    cfg = tiny_config(tmp_path)
    text = cfg.read_text()
    edited = {"missing": None,
              "unknown option": text.replace("[train]\n", "[train]\nfoo = 1\n"),
              "fitness_mode typo": text.replace("epoch10_baseline", "full-train"),
              "optimizer": text.replace("optimizer = adam", "optimizer = adamw")}[problem]
    assert edited != text
    if edited is None:
        cfg = tmp_path / "nope.ini"
    else:
        cfg.write_text(edited)
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "g.genome").write_text(genome_file.read_text())
    dataset = tmp_path / "curves.csv"
    save_samples_csv(dataset, synthetic_curves(100, seed=8)[0])
    argv = {"evolve": ["evolve"], "train": ["train", str(genome_file)],
            "hetero": ["hetero", str(pool), "--count", "1"],
            "meta train": ["meta", "train", "--dataset", str(dataset)]}[command]
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_unreadable_config_value_names_its_option(tmp_path, genome_file, capsys):
    cfg = tiny_config(tmp_path)
    head, train_section = cfg.read_text().split("[train]\n")
    cfg.write_text(head + "[train]\n" + train_section.replace("epochs = 1\n", "epochs = ten\n", 1))
    assert main(["train", str(genome_file), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: [train] epochs: invalid literal for int() with base 10: 'ten'\n")


@pytest.mark.parametrize("values, message", [
    ({"meta": {"width": "0"}}, "[meta] width must be >= 1, got 0"),
    ({"network": {"width": "0"}}, "[network] width must be >= 1, got 0"),
    ({"task": {"name": "foo"}}, "[task] unknown task name 'foo'"),
    ({"task": {"name": "char_lm"}, "network": {"embedding_dim": "0"}},
     "[network] embedding_dim must be >= 1 for the char_lm task, got 0"),
], ids=["meta width", "network width", "task name", "embedding"])
def test_config_value_out_of_range_names_its_section(tmp_path, genome_file, capsys,
                                                     values, message):
    cfg = tiny_config(tmp_path)
    parser = configparser.ConfigParser()
    parser.read(cfg)
    parser.read_dict(values)
    with open(cfg, "w") as fh:
        parser.write(fh)
    assert main(["train", str(genome_file), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


def test_only_main_writes_an_error_line():
    """Commands raise their errors; ``main`` alone turns one into the
    ``error:`` line on stderr."""
    tree = ast.parse((ROOT / "src" / "treecell" / "cli.py").read_text(encoding="utf-8"))
    writers = {getattr(top, "name", "<module>") for top in tree.body
               for node in ast.walk(top)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.startswith("error:")}
    assert writers == {"main"}


def test_only_main_prints_to_stderr():
    """No command prints to stderr: a failure is raised to ``main``."""
    tree = ast.parse((ROOT / "src" / "treecell" / "cli.py").read_text(encoding="utf-8"))
    printers = {getattr(top, "name", "<module>") for top in tree.body
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
                and any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                        for k in node.keywords)}
    assert printers == {"main"}


@pytest.mark.parametrize("edit, reason", [
    (lambda row: row[:-1] + "x", "invalid literal for int() with base 10: 'x'"),
    (lambda row: row[:-2], "expected 16 columns, got 15"),
], ids=["bad entry", "short row"])
def test_bad_piano_roll_names_its_file_and_line(tmp_path, genome_file, capsys,
                                                edit, reason):
    rows = [" ".join(["0"] * 16) for _ in range(88)]
    rows[4] = edit(rows[4])
    roll = tmp_path / "roll.txt"
    roll.write_text("\n".join(rows) + "\n")
    cfg = ExperimentConfig()
    cfg.task.name, cfg.task.data_path = "music", str(roll)
    cfg.train.batch_size = 2
    save_config(cfg, tmp_path / "music.ini")
    assert main(["train", str(genome_file), "--config", str(tmp_path / "music.ini"),
                 "--out", str(tmp_path / "curve.csv")]) == 1
    assert capsys.readouterr().err == f"error: {roll}:5: {reason}\n"


def test_train_rejects_invalid_genome(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    bad = tmp_path / "bad.genome"
    bad.write_text("\n(tanh (sigmoid x0))\n")
    out = tmp_path / "curve.csv"
    assert main(["train", str(bad), "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", (
        f"error: {bad}:2: height 3 below minimum 6; "
        f"consecutive nonlinearity at node 0 (tanh over sigmoid)\n"))
    assert not out.exists()


def test_hetero_refuses_a_pool_genome_that_breaks_a_rule_before_training(tmp_path, capsys):
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "pool.txt").write_text(serialize(seed_tree()) + "\n(tanh (add x0 x1))\n")
    out = tmp_path / "hetero.csv"
    assert main(["hetero", str(pool), "--config", str(tiny_config(tmp_path)),
                 "--count", "4", "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {pool / 'pool.txt'}:2: height 3 below minimum 6\n")
    assert not out.exists()


def test_evolve_outputs_and_checkpoint(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out_dir)]) == 0
    stats = (out_dir / "stats.csv").read_text()
    lines = stats.splitlines()
    assert lines[0].startswith("generation,best_fitness")
    assert len(lines) == 3  # header + 2 generations
    assert stats.endswith("\n")
    best = parse((out_dir / "best.genome").read_text().strip())
    assert best is not None
    blob = json.loads((out_dir / "checkpoint.json").read_text())
    assert blob["next_generation"] == 2
    assert (out_dir / "lineage.log").exists()
    leftovers = [p for p in out_dir.iterdir() if ".csv." in p.name]
    assert leftovers == []  # atomic writes leave no temp files


def test_evolve_refuses_meta_mode_with_other_prefix_length(tmp_path, capsys):
    """The predictor reads exactly meta.PREFIX_LEN epochs per curve, so a
    meta_predicted run with any other partial_epochs stops before training."""
    cfg = tiny_config(tmp_path, **{"evolution.fitness_mode": "meta_predicted",
                                   "evolution.partial_epochs": 3,
                                   "paths.meta_model": str(tmp_path / "absent.npz")})
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "partial_epochs = 10" in err and "got 3" in err
    assert not out.exists()


def test_evolve_missing_data_is_clean_error(tmp_path, capsys):
    cfg = tiny_config(tmp_path, **{"task.name": "char_lm",
                                   "task.data_path": str(tmp_path / "missing.txt")})
    out_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert not (out_dir / "checkpoint.json").exists()  # no partial state


def test_task_data_that_is_not_utf8_names_the_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"\xff" + b"abc " * 2000)
    cfg = tiny_config(tmp_path, **{"task.name": "char_lm", "task.data_path": str(corpus)})
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {corpus}: not UTF-8 text (invalid start byte)\n"


EVOLVE_FILES = ("stats.csv", "checkpoint.json", "lineage.log", "best.genome")


def test_evolve_resume_finished_run_is_noop(tmp_path, capsys):
    """A finished run resumes to zero generations and ends like any run."""
    cfg = tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out_dir)]) == 0
    first = {f: (out_dir / f).read_bytes() for f in EVOLVE_FILES}
    printed = capsys.readouterr().out
    assert main(["evolve", "--config", str(cfg), "--out", str(out_dir),
                 "--resume"]) == 0
    assert {f: (out_dir / f).read_bytes() for f in EVOLVE_FILES} == first
    assert capsys.readouterr().out == printed


def evolve_outputs(tmp_path, name, generations, resume=False):
    cfg_dir = tmp_path / f"{name}-{generations}"
    cfg_dir.mkdir(exist_ok=True)
    cfg = tiny_config(cfg_dir, **{"evolution.generations": generations})
    out_dir = tmp_path / name
    assert main(["evolve", "--config", str(cfg), "--out", str(out_dir), "--precision", "64"]
                + (["--resume"] if resume else [])) == 0
    return {f: (out_dir / f).read_bytes() for f in EVOLVE_FILES}


def test_evolve_interrupt_and_resume_matches_straight_run(tmp_path):
    evolve_outputs(tmp_path, "split", 2)
    resumed = evolve_outputs(tmp_path, "split", 4, resume=True)
    assert resumed == evolve_outputs(tmp_path, "straight", 4)


@pytest.fixture(scope="module")
def straight_run(tmp_path_factory):
    """The outputs of a straight 3-generation run."""
    return evolve_outputs(tmp_path_factory.mktemp("straight"), "straight", 3)


# where a 3-generation run crashes: the nth write of an output file (each
# generation writes stats.csv, then checkpoint.json; best.genome comes last),
# or just after the first, a middle or the last lineage line
CRASH_POINTS = ([pytest.param(name, gen, id=f"gen{gen}-{name}") for gen in range(3)
                 for name in ("stats.csv", "checkpoint.json")]
                + [pytest.param("best.genome", 0, id="best.genome")]
                + [pytest.param("lineage.log", which, id=f"lineage-{which}")
                   for which in ("first", "middle", "last")])


@pytest.mark.parametrize("target, which", CRASH_POINTS)
def test_evolve_resume_after_crash_before_checkpoint(tmp_path, monkeypatch, straight_run,
                                                     target, which):
    """A crash at any output write or lineage line resumes to a straight run's
    bytes: lines written after the checkpoint are not duplicated, and no file
    is left unwritten."""
    calls = []
    if target == "lineage.log":
        lines = straight_run["lineage.log"].count(b"\n")
        crash_at = {"first": 1, "middle": lines // 2, "last": lines}[which]
        real_record = evolution.LineageLog.record

        def record_then_crash(self, *fields):
            real_record(self, *fields)
            calls.append(fields)
            if len(calls) == crash_at:
                raise OSError("simulated crash")

        monkeypatch.setattr(evolution.LineageLog, "record", record_then_crash)
    else:
        real_write = cli.atomic_write

        def crash_on_write(path, content):
            if Path(path).name == target:
                calls.append(path)
                if len(calls) == which + 1:
                    raise OSError("simulated crash")
            real_write(path, content)

        monkeypatch.setattr(cli, "atomic_write", crash_on_write)
    with pytest.raises(OSError, match="simulated crash"):
        evolve_outputs(tmp_path, "crashed", 3)
    monkeypatch.undo()
    assert evolve_outputs(tmp_path, "crashed", 3, resume=True) == straight_run


def test_meta_cli_round_trip(tmp_path, capsys):
    dataset = tmp_path / "curves.csv"
    samples, _ = synthetic_curves(120, seed=8)
    save_samples_csv(dataset, samples)
    cfg = tiny_config(tmp_path, **{"meta.epochs": 10, "meta.width": 8,
                                   "meta.patience": 10})
    model_path = tmp_path / "model.npz"
    assert main(["meta", "train", "--dataset", str(dataset), "--config",
                 str(cfg), "--out", str(model_path)]) == 0
    curve = ",".join(str(v) for v in samples[0].prefix)
    assert main(["meta", "predict", "--model", str(model_path),
                 "--curve", curve]) == 0
    printed = float(capsys.readouterr().out.strip().splitlines()[-1])
    model = load_model(model_path)
    assert printed == model.predict_batch([samples[0].prefix])[0]


@pytest.mark.parametrize("curve, message", [
    ("9,8.5,x", "could not convert string to float"),
    ("9,8.5,nan,7.8,7.6,7.4,7.3,7.2,7.1,7.0", "finite and positive"),
    ("9,8.5,8.1,7.8,7.6,7.4,7.3,7.2,7.1,inf", "finite and positive"),
    ("9,8.5,8.1", "10 values"),
])
def test_meta_predict_rejects_a_bad_curve(tmp_path, capsys, curve, message):
    samples, _ = synthetic_curves(100, seed=8)
    model_path = tmp_path / "model.npz"
    save_model(train_meta(samples, MetaConfig(width=2, layers=1, epochs=1)), model_path)
    assert main(["meta", "predict", "--model", str(model_path), "--curve", curve]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_meta_cli_insufficient_samples(tmp_path, capsys):
    dataset = tmp_path / "curves.csv"
    samples, _ = synthetic_curves(20, seed=8)
    save_samples_csv(dataset, samples)
    assert main(["meta", "train", "--dataset", str(dataset)]) == 1
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["meta", "train"], "provide --dataset"),
    (["meta", "predict", "--curve", ",".join(["5"] * 10)], "provide --model"),
])
def test_meta_without_its_input_file_is_clean_error(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message} ")


def test_meta_train_save_that_fails_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    dataset = tmp_path / "curves.csv"
    save_samples_csv(dataset, synthetic_curves(100, seed=8)[0])
    cfg = tiny_config(tmp_path, **{"meta.epochs": 1, "meta.width": 2, "meta.layers": 1})
    models = tmp_path / "models"
    models.mkdir()
    out = models / "model.npz"
    out.write_bytes(b"the previous model")

    def savez_cut_short(file, **arrays):
        if hasattr(file, "write"):
            file.write(b"PK\x03\x04 first bytes")
        else:
            Path(file).write_bytes(b"PK\x03\x04 first bytes")
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", savez_cut_short)
    with pytest.raises(OSError, match="No space left"):
        main(["meta", "train", "--dataset", str(dataset), "--config", str(cfg),
              "--out", str(out)])
    assert out.read_bytes() == b"the previous model"
    assert sorted(p.name for p in models.iterdir()) == ["model.npz"]


def _final_write_argv(tmp_path, genome_file, command, out):
    """A cheap ``command`` run whose one output file is ``out``."""
    if command == "train":
        return ["train", str(genome_file), "--config", str(tiny_config(tmp_path)),
                "--out", str(out)]
    if command == "hetero":
        pool = tmp_path / "pool"
        pool.mkdir()
        (pool / "one.txt").write_text(genome_file.read_text())
        return ["hetero", str(pool), "--config",
                str(tiny_config(tmp_path, **{"network.width": 40})), "--count", "1",
                "--out", str(out)]
    dataset = tmp_path / "curves.csv"
    save_samples_csv(dataset, synthetic_curves(100, seed=8)[0])
    cfg = tiny_config(tmp_path, **{"meta.epochs": 1, "meta.width": 2, "meta.layers": 1})
    return ["meta", "train", "--dataset", str(dataset), "--config", str(cfg),
            "--out", str(out)]


@pytest.mark.parametrize("command", ["train", "hetero", "meta"])
def test_out_that_is_a_directory_is_clean_error(tmp_path, genome_file, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    assert main(_final_write_argv(tmp_path, genome_file, command, out)) == 1
    assert capsys.readouterr().err.endswith(f"error: {out}: Is a directory\n")
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out.")]


@pytest.mark.parametrize("command", ["train", "hetero", "meta"])
def test_final_write_that_fails_is_clean_error(tmp_path, genome_file, capsys, monkeypatch,
                                              command):
    out = tmp_path / "out.csv"
    argv = _final_write_argv(tmp_path, genome_file, command, out)

    def replace_on_a_full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace_on_a_full_disk)
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(f"error: {out}: No space left on device\n")
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("out")) == []


def test_evolve_out_that_is_a_file_is_clean_error(tmp_path, capsys):
    out = tmp_path / "run"
    out.write_text("kept")
    assert main(["evolve", "--config", str(tiny_config(tmp_path)), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(f"error: {out}: File exists\n")
    assert out.read_text() == "kept"


def test_evolve_write_that_fails_is_clean_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    cfg = tiny_config(tmp_path)

    def replace_on_a_full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace_on_a_full_disk)
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    # the first generation's stats.csv is the first file written whole
    assert capsys.readouterr().err.endswith(
        f"error: {out / 'stats.csv'}: No space left on device\n")
    assert sorted(p.name for p in out.iterdir()) == ["lineage.log"]


def test_evolve_lineage_write_that_fails_is_clean_error(tmp_path, capsys, monkeypatch):
    """The lineage log is written line by line, so on a full disk it is
    most often the first output to fail."""
    out = tmp_path / "run"

    def open_on_a_full_disk(*args, **kwargs):
        sink = open(*args, **kwargs)

        def write(text):
            raise OSError(28, "No space left on device")

        sink.write = write
        return sink

    monkeypatch.setattr(cli, "open", open_on_a_full_disk, raising=False)
    assert main(["evolve", "--config", str(tiny_config(tmp_path)), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: {out / 'lineage.log'}: No space left on device\n")


def test_importing_the_cli_loads_no_process_pool():
    """Only ``evolve --workers N`` with N > 1 needs the pool's modules, so
    every other command starts without them."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, treecell.cli; print(sorted(m for m in sys.modules "
         "if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_hetero_pool_of_one_and_count_zero(tmp_path, capsys):
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "only.txt").write_text(serialize(random_genome(
        np.random.Generator(np.random.PCG64(1)), steps=3)) + "\n")
    cfg = tiny_config(tmp_path, **{"network.width": 40})
    out = tmp_path / "hetero.csv"
    assert main(["hetero", str(pool), "--config", str(cfg), "--count", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,fitness,genomes"
    assert len(lines) == 3
    out0 = tmp_path / "hetero0.csv"
    assert main(["hetero", str(pool), "--config", str(cfg), "--count", "0",
                 "--out", str(out0)]) == 0
    assert out0.read_text() == "rank,fitness,genomes\n"


def test_hetero_pool_parse_error_is_clean_error(tmp_path, genome_file, capsys):
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "bad.txt").write_text(genome_file.read_text() + "   (add x0 x9)\n")
    out = tmp_path / "hetero.csv"
    assert main(["hetero", str(pool), "--config", str(tiny_config(tmp_path)),
                 "--count", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pool / 'bad.txt'}:2:12: unknown leaf name 'x9'\n")
    assert not out.exists()


def test_hetero_pool_path_that_is_a_file_is_clean_error(tmp_path, genome_file, capsys):
    out = tmp_path / "hetero.csv"
    assert main(["hetero", str(genome_file), "--config", str(tiny_config(tmp_path)),
                 "--count", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {genome_file}: Not a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--workers", "0"], "argument --workers: must be at least 1, got 0"),
    (["evolve", "--workers", "-1"], "argument --workers: must be at least 1, got -1"),
    (["hetero", "POOL", "--count", "-2"], "argument --count: must be at least 0, got -2"),
    (["hetero", "POOL", "--count", "two"], "argument --count: invalid integer value: 'two'"),
])
def test_bad_counts_are_rejected_at_parse_time(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [str(tmp_path) if a == "POOL" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(tiny_config(tmp_path)), "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("problem, message", [
    ("not UTF-8", "bad.txt: not UTF-8 text (invalid start byte)"),
    ("unreadable", "bad.txt: Permission denied"),
])
def test_hetero_unreadable_pool_file_is_clean_error(tmp_path, genome_file, capsys,
                                                    monkeypatch, problem, message):
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "bad.txt").write_bytes(genome_file.read_bytes() + b"\xff\xfe\n")
    if problem == "unreadable":
        def refuse(path, check=False):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(cli, "read_population", refuse)
    out = tmp_path / "hetero.csv"
    assert main(["hetero", str(pool), "--config", str(tiny_config(tmp_path)),
                 "--count", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {pool / message}\n"
    assert not out.exists()


def _bad_meta_model(tmp_path, problem) -> Path:
    path = tmp_path / "model.npz"
    if problem == "foreign":
        np.savez(path, weights=np.zeros(3))
    elif problem == "truncated":
        samples, _ = synthetic_curves(100, seed=8)
        save_model(train_meta(samples, MetaConfig(width=2, layers=1, epochs=1)), path)
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    return path


@pytest.mark.parametrize("problem, message", [
    ("missing", "No such file or directory"),
    ("foreign", "not a curve-predictor checkpoint"),
    ("truncated", "not a curve-predictor checkpoint"),
])
@pytest.mark.parametrize("command", ["evolve", "meta predict"])
def test_bad_meta_model_is_clean_error(tmp_path, capsys, command, problem, message):
    model = _bad_meta_model(tmp_path, problem)
    if command == "evolve":
        cfg = tiny_config(tmp_path, **{"evolution.fitness_mode": "meta_predicted",
                                       "evolution.partial_epochs": 10,
                                       "paths.meta_model": str(model)})
        argv = ["evolve", "--config", str(cfg), "--out", str(tmp_path / "run")]
    else:
        argv = ["meta", "predict", "--model", str(model), "--curve", ",".join(["5"] * 10)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(model) in err


def _input_argv(command, genome, tmp_path):
    """``command``'s argv, reading ``genome`` where it reads an input file."""
    cfg = ["--config", str(tiny_config(tmp_path))]
    return {"validate": ["validate", str(genome)],
            "train": ["train", str(genome)] + cfg,
            "distance a": ["distance", str(genome), str(tmp_path / "g.genome")],
            "distance b": ["distance", str(tmp_path / "g.genome"), str(genome)],
            "meta train": ["meta", "train", "--dataset", str(genome)]}[command]


@pytest.mark.parametrize("command", ["validate", "train", "distance a", "distance b",
                                     "meta train"])
def test_missing_input_file_names_the_file(tmp_path, genome_file, capsys, command):
    missing = tmp_path / "missing.genome"
    assert main(_input_argv(command, missing, tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("command", ["validate", "train", "distance a", "distance b"])
def test_genome_file_that_is_not_utf8_names_the_file(tmp_path, genome_file, capsys, command):
    bad = tmp_path / "bad.genome"
    bad.write_bytes(b"\xff\xfe" + genome_file.read_bytes())
    assert main(_input_argv(command, bad, tmp_path)) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (invalid start byte)\n")


_CURVES_HEADER = ",".join([f"epoch{i}" for i in range(1, 11)] + ["final"]) + "\n"
_CURVES_ROW = ",".join(["5.0"] * 11) + "\n"


@pytest.mark.parametrize("content, reason", [
    (b"\xff" + _CURVES_HEADER.encode(), ": not UTF-8 text (invalid start byte)"),
    ((_CURVES_HEADER + _CURVES_ROW + "1,2,x\n").encode(),
     ":3: could not convert string to float: 'x'"),
    ((_CURVES_HEADER + "1,2,3\n").encode(), ":2: expected 11 columns, got 3"),
    (b"", ": empty curve dataset"),
    ((_CURVES_ROW * 100).encode(), ":1: expected the header " + _CURVES_HEADER.strip()),
])
def test_bad_curve_dataset_names_the_file(tmp_path, capsys, content, reason):
    dataset = tmp_path / "curves.csv"
    dataset.write_bytes(content)
    out = tmp_path / "model.npz"
    assert main(["meta", "train", "--dataset", str(dataset), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {dataset}{reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (b"[experiment]\nseed = 1\nbroken line\n",
     "Source contains parsing errors: '{cfg}'\n\t[line  3]: 'broken line\\n'"),
    (b"\xff[experiment]\nseed = 1\n", "{cfg}: not UTF-8 text (invalid start byte)"),
])
@pytest.mark.parametrize("command", ["evolve", "train"])
def test_config_that_does_not_read_names_the_file(tmp_path, genome_file, capsys, command,
                                                  content, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(content)
    argv = {"evolve": ["evolve"], "train": ["train", str(genome_file)]}[command]
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: " + message.format(cfg=cfg) + "\n"
    assert not out.exists()


@pytest.mark.parametrize("text, reason", [
    ("(tanh x9)", "1:7: unknown leaf name 'x9'"),
    ("(tanh " * 1500 + "x0" + ")" * 1500, "1:601: brackets nested deeper than 100"),
    ("\n  (tanh x9)", "2:9: unknown leaf name 'x9'"),
])
def test_genome_that_does_not_parse_is_clean_error(tmp_path, genome_file, capsys, text,
                                                   reason):
    """Every command that reads a genome names the file and the line and
    column as written, before any network trains."""
    pool = tmp_path / "pool"
    pool.mkdir()
    bad = pool / "bad.genome"
    bad.write_text(text + "\n")
    hetero = ["hetero", str(pool), "--count", "1", "--config", str(tiny_config(tmp_path))]
    for argv in [_input_argv(command, bad, tmp_path)
                 for command in ("validate", "train", "distance a", "distance b")] + [hetero]:
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {bad}:{reason}\n")


def test_hetero_missing_pool_names_it(tmp_path, capsys):
    pool = tmp_path / "pool"
    assert main(["hetero", str(pool), "--config", str(tiny_config(tmp_path)),
                 "--count", "1"]) == 1
    assert capsys.readouterr().err == f"error: {pool}: No such file or directory\n"


def test_hetero_value_error_in_training_is_clean_error(tmp_path, genome_file, capsys,
                                                       monkeypatch):
    def boom(self, *args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(fitness.EvalContext, "train_layers", boom)
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "g.genome").write_text(genome_file.read_text())
    cfg = tiny_config(tmp_path, **{"network.width": 40})  # two slots of cardinality 20
    out = tmp_path / "hetero.csv"
    assert main(["hetero", str(pool), "--config", str(cfg), "--count", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists()


@pytest.mark.parametrize("error", [RuntimeError("a bug"), KeyError("a bug")])
def test_errors_other_than_input_errors_escape_main(genome_file, monkeypatch, error):
    """Only OSError, ValueError and configparser.Error are input errors; a
    bug anywhere else keeps its traceback."""
    def fail(tree):
        raise error

    monkeypatch.setattr(cli, "validate_tree", fail)
    with pytest.raises(type(error), match="a bug"):
        main(["validate", str(genome_file)])


def test_no_command_catches_os_errors_itself():
    """``main`` is the one place an OSError becomes ``error: <file>: <reason>``."""
    import ast

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    offenders = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                if "OSError" in names:
                    offenders.append(f"{fn.name}:{node.lineno}")
    assert offenders == []


def test_train_at_32_bit_precision(tmp_path, genome_file):
    cfg = tiny_config(tmp_path)
    out = tmp_path / "curve32.csv"
    assert main(["train", str(genome_file), "--config", str(cfg),
                 "--precision", "32", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_full_train_fitness_mode_uses_full_epochs(tmp_path):
    from treecell.fitness import EvalContext
    from treecell.config import load_config

    cfg_path = tiny_config(tmp_path, **{"evolution.fitness_mode": "full_train",
                                        "train.epochs": 3})
    ctx = EvalContext(load_config(cfg_path))
    curve = ctx(serialize(random_genome(
        np.random.Generator(np.random.PCG64(0)), steps=3)))
    assert len(curve) == 3  # full budget, not partial_epochs


def test_pickled_eval_context_trains_to_the_same_curve_bits(tmp_path):
    # a process pool pickles the parent's context with every genome
    ctx = fitness.EvalContext(load_config(tiny_config(tmp_path)))
    copy = pickle.loads(pickle.dumps(ctx))
    text = serialize(random_genome(np.random.Generator(np.random.PCG64(1)), steps=4))
    curves = [np.array(c.train_genome(text, epochs=2).metrics) for c in (ctx, copy)]
    assert curves[0].tobytes() == curves[1].tobytes()


def test_full_train_evolve_two_workers_match_one(tmp_path):
    """Workers train with the same budget as the in-process evaluator:
    ``train.epochs`` in full_train mode, not ``partial_epochs``."""
    cfg = tiny_config(tmp_path, **{"evolution.fitness_mode": "full_train",
                                   "train.epochs": 2})
    files = ("stats.csv", "checkpoint.json", "best.genome", "lineage.log")
    outputs = []
    for workers in (1, 2):
        out_dir = tmp_path / f"workers-{workers}"
        assert main(["evolve", "--config", str(cfg), "--out", str(out_dir),
                     "--workers", str(workers)]) == 0
        outputs.append({f: (out_dir / f).read_bytes() for f in files})
    assert outputs[0] == outputs[1]
    records = json.loads(outputs[0]["checkpoint.json"])["records"]
    assert {len(r["curve"]) for r in records.values()} == {2}


def test_evolve_corrupt_checkpoint_is_clean_error(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    deep = json.dumps({"version": evolution.CHECKPOINT_VERSION, "next_generation": 1,
                       "lineage_bytes": 0, "records": {},
                       "population": ["(tanh " * 5000 + "x0" + ")" * 5000]})
    for text, reason in [("{not json", "Expecting property name"),
                         (deep, "1:601: brackets nested deeper than 100")]:
        (out_dir / "checkpoint.json").write_text(text)
        assert main(["evolve", "--config", str(cfg), "--out", str(out_dir),
                     "--resume"]) == 1
        err = capsys.readouterr().err
        assert "corrupt checkpoint" in err and reason in err


def resume_edited_checkpoint(tmp_path, capsys, edit):
    """Exit code and stderr of resuming a 2-generation run from the
    checkpoint its first generation wrote, rewritten by ``edit``."""
    first = tmp_path / "first"
    first.mkdir()
    out_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(tiny_config(first, **{"evolution.generations": 1})),
                 "--out", str(out_dir)]) == 0
    path = out_dir / "checkpoint.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    code = main(["evolve", "--config", str(tiny_config(tmp_path)), "--out", str(out_dir),
                 "--resume"])
    return code, capsys.readouterr().err


def test_evolve_checkpoint_that_is_not_an_object_is_clean_error(tmp_path, capsys):
    code, err = resume_edited_checkpoint(tmp_path, capsys, lambda blob: [1, 2])
    assert code == 1 and "corrupt checkpoint" in err


def test_evolve_checkpoint_records_not_an_object_is_clean_error(tmp_path, capsys):
    code, err = resume_edited_checkpoint(tmp_path, capsys,
                                         lambda blob: {**blob, "records": []})
    assert code == 1 and "corrupt checkpoint" in err


@pytest.mark.parametrize("name", ["next_generation", "lineage_bytes"])
def test_evolve_checkpoint_counter_not_an_integer_is_clean_error(tmp_path, capsys, name):
    code, err = resume_edited_checkpoint(tmp_path, capsys,
                                         lambda blob: {**blob, name: str(blob[name])})
    assert code == 1 and "corrupt checkpoint" in err


@pytest.mark.parametrize("where", ["population", "representative", "archive"])
def test_evolve_checkpoint_genome_breaking_a_rule_is_clean_error(tmp_path, capsys, where):
    def edit(blob):
        if where == "population":
            blob["population"] = ["x0", "x1", "x2", "x3"]
        elif where == "representative":
            blob["speciation"]["species"][0]["representative"] = "(tanh x0)"
        else:
            blob["speciation"]["archive"].append("x0")
        return blob

    code, err = resume_edited_checkpoint(tmp_path, capsys, edit)
    assert code == 1 and "corrupt checkpoint" in err and "breaks a rule" in err


def test_evolve_checkpoint_unknown_species_key_is_clean_error(tmp_path, capsys):
    def edit(blob):
        blob["speciation"]["species"][0]["colour"] = "red"
        return blob

    code, err = resume_edited_checkpoint(tmp_path, capsys, edit)
    assert code == 1 and "corrupt checkpoint" in err


def test_evolve_truncated_history_row_is_clean_error(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out_dir)]) == 0
    path = out_dir / "checkpoint.json"
    blob = json.loads(path.read_text())
    blob["history"][0] = blob["history"][0][:-1]
    path.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["evolve", "--config", str(cfg), "--out", str(out_dir),
                 "--resume"]) == 1
    assert "corrupt checkpoint" in capsys.readouterr().err


def test_evolve_refuses_version_1_checkpoint(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "checkpoint.json").write_text('{"version": 1}')
    assert main(["evolve", "--config", str(cfg), "--out", str(out_dir),
                 "--resume"]) == 1
    assert "unsupported checkpoint version" in capsys.readouterr().err


# --- the allocator setting --------------------------------------------------------


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


# after cli.main has run, one warm-up epoch of a desk genome, then the minor
# page faults of one more epoch, for the LSTM reference tree and the seed tree
HEAP_PROBE = """
import json, resource, sys
from treecell import cli
from treecell.compiler import lstm_reference_tree
from treecell.config import load_config
from treecell.fitness import EvalContext
from treecell.grammar import serialize
from treecell.tree import seed_tree
config, genome = sys.argv[1:]
assert cli.main(["validate", genome]) == 0
ctx = EvalContext(load_config(config))
faults = {}
for name, tree in (("lstm", lstm_reference_tree()), ("seed", seed_tree())):
    ctx.train_genome(serialize(tree), epochs=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ctx.train_genome(serialize(tree), epochs=1)
    faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
"""


@pytest.mark.skipif(not _on_glibc(), reason="the allocator setting applies to glibc only")
def test_cli_keeps_freed_heap_between_training_chunks(tmp_path):
    # without the setting, the LSTM's warm epoch faulted about 2,800 times
    # (glibc trims the heap top after chunks); with it, under 10
    genome = tmp_path / "seed.genome"
    genome.write_text(serialize(seed_tree()) + "\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE,
                           str(ROOT / "configs" / "desk_evolution.ini"), str(genome)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert max(faults.values()) < 500, faults


def test_keep_freed_heap_is_a_no_op_off_glibc(monkeypatch):
    def no_libc(*args):
        raise AssertionError("loaded the C library off glibc")

    monkeypatch.setattr(fitness.ctypes, "CDLL", no_libc)

    def unknown_name(name):
        raise ValueError("unrecognized configuration name")

    for confstr in (unknown_name, lambda name: None, lambda name: ""):
        monkeypatch.setattr(fitness.os, "confstr", confstr)
        assert fitness.keep_freed_heap() is False
    monkeypatch.delattr(fitness.os, "confstr")
    assert fitness.keep_freed_heap() is False


def test_keep_freed_heap_sets_the_mmap_threshold_before_the_trim(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return int(accept)

    monkeypatch.setattr(fitness.os, "confstr", lambda name: "glibc 2.99", raising=False)
    monkeypatch.setattr(fitness.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert fitness.keep_freed_heap() is False  # a libc without mallopt
    monkeypatch.setattr(fitness.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    accept = True
    assert fitness.keep_freed_heap() is True
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    # a refused mmap threshold leaves the trim threshold alone: setting it
    # alone would send every block over 128 KiB to mmap
    calls.clear()
    accept = False
    assert fitness.keep_freed_heap() is False
    assert calls == [(-3, 32 << 20)]


def test_cli_and_pool_workers_apply_the_allocator_setting(tmp_path, monkeypatch):
    """``cli.main`` applies the allocator setting, and ``evolve --workers 2``
    makes it every pool worker's initializer."""
    calls, pools = [], []

    def keep_freed_heap():
        calls.append("keep_freed_heap")

    class InlinePool:
        """Runs its initializer and its tasks in this process."""

        def __init__(self, max_workers, initializer):
            pools.append((max_workers, initializer))
            initializer()

        map = staticmethod(map)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.shutdown()

        def shutdown(self):
            pass

    monkeypatch.setattr(cli, "keep_freed_heap", keep_freed_heap)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert main(["evolve", "--config", str(tiny_config(tmp_path)),
                 "--out", str(tmp_path / "run"), "--workers", "2"]) == 0
    assert pools == [(2, keep_freed_heap)]
    assert calls == ["keep_freed_heap"] * 2  # main, then the worker
