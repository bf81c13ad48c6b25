import json
from pathlib import Path

import numpy as np
import pytest

from treecell import cli
from treecell.cli import main
from treecell.config import ExperimentConfig, save_config
from treecell.grammar import parse, serialize
from treecell.genetic import random_genome
from treecell.meta import load_model, save_samples_csv, synthetic_curves


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


def test_train_rejects_invalid_genome(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    bad = tmp_path / "bad.genome"
    bad.write_text("(tanh (sigmoid x0))\n")
    assert main(["train", str(bad), "--config", str(cfg)]) == 1
    assert "violation" in capsys.readouterr().err


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


def test_evolve_resume_finished_run_is_noop(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    main(["evolve", "--config", str(cfg), "--out", str(out_dir)])
    first = (out_dir / "stats.csv").read_bytes()
    assert main(["evolve", "--config", str(cfg), "--out", str(out_dir),
                 "--resume"]) == 0
    assert "finished" in capsys.readouterr().out
    assert (out_dir / "stats.csv").read_bytes() == first


EVOLVE_FILES = ("stats.csv", "lineage.log", "best.genome")


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


def test_evolve_resume_after_crash_before_checkpoint(tmp_path, monkeypatch):
    """A crash between the lineage append and the checkpoint write must not
    duplicate lineage lines on resume."""
    real_write = cli.atomic_write
    checkpoints = []

    def crash_on_second_checkpoint(path, content):
        if Path(path).name == "checkpoint.json":
            checkpoints.append(path)
            if len(checkpoints) == 2:
                raise OSError("simulated crash")
        real_write(path, content)

    monkeypatch.setattr(cli, "atomic_write", crash_on_second_checkpoint)
    with pytest.raises(OSError, match="simulated crash"):
        evolve_outputs(tmp_path, "crashed", 3)
    monkeypatch.undo()
    resumed = evolve_outputs(tmp_path, "crashed", 3, resume=True)
    assert resumed == evolve_outputs(tmp_path, "straight", 3)


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
    assert printed == model.predict(samples[0].prefix)


def test_meta_cli_insufficient_samples(tmp_path, capsys):
    dataset = tmp_path / "curves.csv"
    samples, _ = synthetic_curves(20, seed=8)
    save_samples_csv(dataset, samples)
    assert main(["meta", "train", "--dataset", str(dataset)]) == 1
    assert "samples" in capsys.readouterr().err


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


def test_evolve_corrupt_checkpoint_is_clean_error(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "checkpoint.json").write_text("{not json")
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
