"""Golden SHA-256 digests of outputs that a refactor must leave unchanged.

The digests pin three end-to-end paths at 64-bit precision: a smoke
``evolve`` run (homogeneous networks), a small curve-predictor fit, and a
two-network ``hetero`` sweep with two layers, two slots per layer and
dropout on.  A fourth digest pins the tree layer and the genetic
operators over a few hundred seeded random genomes.  A change that alters
numerics or operator behaviour on purpose updates the digests and says
why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from treecell.cli import main
from treecell.config import ExperimentConfig, save_config
from treecell.genetic import (crossover_homologous, mutate_insert, mutate_pipeline,
                              mutate_replace, mutate_shrink, random_genome,
                              shared_region, tree_distance)
from treecell.grammar import serialize
from treecell.meta import MetaConfig, synthetic_curves, train_meta
from treecell.tree import canonical_text, canonicalize

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EVOLVE_FILES = ("stats.csv", "lineage.log", "best.genome")

SMOKE_EVOLVE_DIGESTS = {
    "stats.csv": "0128866c1fdbb989154ec3810ad180c803bbc6c2efcd0112ae335f0f711c3476",
    "lineage.log": "b2241237dfcc60680dfec5e07e04be512a0788261c4f9927d958a19683008b3a",
    "best.genome": "932a9fc5d50d541a6372a00791a22a372f07cd718d5ae3edec386491f8df4d69",
}
META_PARAMS_DIGEST = "03e2bde0459c2de119acfbce18ce2c5fc1df331934eed8f6fabe4be89ef92b1d"
META_PREDICTIONS_DIGEST = "b321ca8d902ace688c3e7a56c6a4ca9f0e1b41dcf53418bc8e70eae7fcdcc038"
HETERO_CSV_DIGEST = "e4f2885e71da33f9d47993416126490cf6dd136c3ecace8fc36d8efa32230d63"
OPERATOR_DIGEST = "88fbae81dc0003040868785ec69a6948cd3f3ad81c5ee767c1d420f041f275d3"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def evolve_smoke(out_dir, workers: int):
    assert main(["evolve", "--config", str(CONFIG_DIR / "smoke.ini"),
                 "--out", str(out_dir), "--workers", str(workers),
                 "--precision", "64"]) == 0
    return {name: (out_dir / name).read_bytes() for name in EVOLVE_FILES}


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    return evolve_smoke(tmp_path_factory.mktemp("smoke") / "run", workers=1)


def test_smoke_evolve_digests(smoke_outputs):
    assert {k: sha256(v) for k, v in smoke_outputs.items()} == SMOKE_EVOLVE_DIGESTS


def test_smoke_evolve_two_workers_match_one(smoke_outputs, tmp_path):
    assert evolve_smoke(tmp_path / "run", workers=2) == smoke_outputs


def model_digests(model, prefixes):
    h = hashlib.sha256()
    for i, member in enumerate(model.members):
        for name in sorted(member.params):
            p = member.params[name]
            h.update(f"{i}/{name}/{p.dtype}/{p.shape}".encode())
            h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest(), sha256(model.predict_batch(prefixes).tobytes())


def test_train_meta_digests():
    train_s, _ = synthetic_curves(120, seed=21)
    held, _ = synthetic_curves(16, seed=22)
    cfg = MetaConfig(width=8, layers=2, epochs=4, batch_size=40, lr=0.01,
                     patience=4, seed=3)
    model = train_meta(train_s, cfg)
    params, predictions = model_digests(model, [s.prefix for s in held])
    assert params == META_PARAMS_DIGEST
    assert predictions == META_PREDICTIONS_DIGEST


def test_hetero_csv_digest(tmp_path):
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "pool.txt").write_text("".join(
        serialize(random_genome(np.random.Generator(np.random.PCG64(s)), steps=6)) + "\n"
        for s in (4, 5, 6)))
    cfg = ExperimentConfig(seed=9)
    cfg.precision = 64
    cfg.task.train_tokens = 1500
    cfg.task.valid_tokens = 400
    cfg.task.test_tokens = 400
    cfg.network.layers = 2
    cfg.network.width = 16
    cfg.network.cardinality = 8
    cfg.network.embedding_dim = 6
    cfg.evolution.partial_epochs = 1
    cfg.train.unroll_steps = 20
    cfg.train.batch_size = 10
    cfg.train.optimizer = "adam"
    cfg.train.lr = 0.01
    cfg.train.dropout_ff = 0.3
    cfg.train.dropout_rec = 0.2
    config_path = tmp_path / "hetero.ini"
    save_config(cfg, config_path)
    out = tmp_path / "hetero.csv"
    assert main(["hetero", str(pool), "--config", str(config_path),
                 "--count", "2", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == HETERO_CSV_DIGEST


def operator_records(seed: int, partner):
    """Everything the tree layer and the operators derive from one genome."""
    rng = np.random.Generator(np.random.PCG64(seed))
    g = random_genome(rng)
    region = shared_region(g, partner)
    out = [canonical_text(g), serialize(canonicalize(g)),
           serialize(region.tree_a), serialize(region.tree_b), repr(region.pairs),
           str(region.n_shared), str(region.depth_shared), repr(tree_distance(g, partner))]
    for op, args in ((mutate_replace, ()), (mutate_insert, (0.5,)), (mutate_shrink, ()),
                     (mutate_pipeline, (0.5, 0.3, 0.3))):
        child = op(g, rng, *args)
        out += [op.__name__, serialize(child), str(child is g)]
    ca, cb = crossover_homologous(g, partner, rng)
    out += [serialize(ca), serialize(cb), str(ca is g), str(cb is partner), str(rng.random())]
    return g, out


def test_operator_digest():
    h = hashlib.sha256()
    partner = random_genome(np.random.Generator(np.random.PCG64(10_000)))
    for seed in range(300):
        partner, records = operator_records(seed, partner)
        h.update("\n".join(records).encode() + b"\n\n")
    assert h.hexdigest() == OPERATOR_DIGEST
