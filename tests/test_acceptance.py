"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or in the
captured output) and enforces both the tolerance and the runtime budget.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from oracles import closed_form_lstm, finite_difference_check, rng_for

from treecell import tree as T
from treecell.cli import main as cli_main
from treecell.compiler import (
    CellState,
    cell_forward,
    compile_tree,
    lstm_reference_tree,
)
from treecell.config import ExperimentConfig, load_config, save_config
from treecell.evolution import EvolutionConfig, run
from treecell.fitness import EvalContext
from treecell.genetic import (
    crossover_homologous,
    mutate_insert,
    mutate_replace,
    mutate_shrink,
    random_genome,
    tree_distance,
)
from treecell.grammar import parse, serialize
from treecell.meta import (
    MetaConfig,
    baseline_epoch10,
    kendall_tau,
    mae_percent,
    synthetic_curves,
    train_meta,
)
from treecell.network import build_network, heterogeneous_layer, homogeneous_spec, NetworkSpec
from treecell.speciation import SpeciationConfig, SpeciationState
from treecell.tree import build_tree, height, seed_tree, size, validate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(number, description, elapsed, budget):
    print(f"\nACCEPTANCE {number} PASS: {description} "
          f"({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


def test_criterion_01_lstm_oracle_equivalence():
    started = time.perf_counter()
    cell = compile_tree(lstm_reference_tree())
    rng = rng_for(1001)
    width = 16
    worst = 0.0
    for _ in range(1000):
        base = rng.normal(0.0, 2.0, size=(8, width))
        state = CellState(rng.normal(size=width), rng.normal(size=width),
                          rng.normal(size=width))
        out = cell_forward(cell, base, state)
        h, c = closed_form_lstm(base[:4], state.c)
        worst = max(worst, float(np.max(np.abs(out.h - h))),
                    float(np.max(np.abs(out.c - c))))
    assert worst <= 1e-12, f"worst absolute error {worst}"
    report(1, f"compiled reference cell matches closed form (worst {worst:.2e})",
           time.perf_counter() - started, 10)


def test_criterion_02_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        genome = random_genome(rng_for(seed), steps=8)
        worst = max(worst, finite_difference_check(genome, seed + 20_000))
    assert worst < 1e-5, f"worst relative gradient error {worst}"
    report(2, f"50 genomes match finite differences (worst {worst:.2e})",
           time.perf_counter() - started, 120)


def test_criterion_03_distance_metric_suite():
    started = time.perf_counter()
    genomes = [random_genome(rng_for(s), steps=6) for s in range(150)]
    checked = 0
    for i in range(len(genomes)):
        for j in range(i + 1, len(genomes)):
            d = tree_distance(genomes[i], genomes[j])
            assert 0.0 <= d <= 1.0
            checked += 1
            if checked >= 10_000:
                break
        if checked >= 10_000:
            break
    assert checked == 10_000
    # symmetry and zero-on-self spot checks across the pool
    for i in range(0, 100, 7):
        a, b = genomes[i], genomes[(i * 3 + 1) % len(genomes)]
        assert tree_distance(a, b) == pytest.approx(tree_distance(b, a), abs=1e-15)
        assert tree_distance(a, a) == 0.0
    # the worked example reproduces exactly
    a = parse("(add (mul x0 x1) (tanh (tanh x2)))")
    b = parse("(add x4 (tanh (tanh x5)))")
    assert tree_distance(a, b) == pytest.approx(0.1, abs=1e-15)
    # mirror-image pairs are distance zero and land in one species
    state = SpeciationState(SpeciationConfig(compatibility_threshold=0.3))
    for s in range(20):
        g = random_genome(rng_for(5_000 + s), steps=5)

        def mirror(e):
            kind, tap, children = e
            return (kind, tap, tuple(mirror(c) for c in reversed(children)))

        m = T.expr_to_tree(mirror(T.tree_to_expr(g)))
        assert tree_distance(g, m) == 0.0
        sid_a = state.assign(f"a{s}", g)
        sid_b = state.assign(f"b{s}", m)
        assert sid_a == sid_b
    report(3, "distance suite: 10,000 pairs in range, worked example = 0.1, "
              "mirrors share a species", time.perf_counter() - started, 60)


def test_criterion_04_operator_validity_fuzz():
    started = time.perf_counter()
    rng = rng_for(99)
    pool = [seed_tree()]
    applications = 0
    while applications < 10_000:
        tree = pool[rng.integers(len(pool))]
        roll = rng.random()
        if roll < 0.35:
            out = mutate_insert(tree, rng, memory_tap_rate=0.3)
        elif roll < 0.7:
            out = mutate_shrink(tree, rng)
        elif roll < 0.9:
            out = mutate_replace(tree, rng)
        else:
            other = pool[rng.integers(len(pool))]
            out, second = crossover_homologous(tree, other, rng)
            assert validate(second) == []
            applications += 1
        applications += 1
        assert validate(out) == [], serialize(out)
        assert T.MIN_HEIGHT <= height(out) <= T.MAX_HEIGHT
        pool.append(out)
        if len(pool) > 64:
            pool = pool[-32:] + [seed_tree()]
    report(4, f"{applications} operator applications, all valid, heights in "
              f"[{T.MIN_HEIGHT}, {T.MAX_HEIGHT}]",
           time.perf_counter() - started, 60)


def test_criterion_05_archive_discipline():
    started = time.perf_counter()
    config = EvolutionConfig(
        population_size=16, generations=10, seed=3,
        fitness_mode="epoch10_baseline", partial_epochs=2,
        speciation=SpeciationConfig(compatibility_threshold=0.3,
                                    stagnation_limit=4, max_active=1))

    def flat_evaluator(text):
        return [4.0, 4.0]  # nothing ever improves

    events = []

    def watch(stats, population, spec_state, records):
        events.append({
            "generation": stats.generation,
            "archived": stats.archived_species,
            "promoted_active": stats.active_species,
            "violations": sum(1 for g in population
                              if spec_state.violates_archive(g)),
        })

    result = run(config, flat_evaluator, on_generation=watch)
    first_archive = next(e for e in events if e["archived"] > 0)
    assert first_archive["generation"] == 4, events
    assert events[3]["archived"] == 0  # not a generation earlier
    assert first_archive["promoted_active"] >= 1  # a waiting species took over
    assert first_archive["violations"] == 0  # offspring avoid the archive
    assert all(e["violations"] == 0 for e in events if e["archived"] > 0)
    assert len(result.speciation.archive) >= 1
    report(5, "flat species archived after exactly 4 stagnant generations, "
              "one promotion, zero archive violations",
           time.perf_counter() - started, 60)


def test_criterion_06_memory_skip_and_param_invariance():
    started = time.perf_counter()
    # untagged c passes through bit-exactly for arbitrary untapped genomes
    for s in range(25):
        genome = random_genome(rng_for(7_000 + s), steps=6, memory_tap_rate=0.0)
        assert all(genome.nodes[n].tap != "c" for n in genome.preorder())
        cell = compile_tree(genome)
        rng = rng_for(s)
        state = CellState(rng.normal(size=6), rng.normal(size=6),
                          rng.normal(size=6))
        out = cell_forward(cell, rng.normal(size=(8, 6)), state)
        assert np.array_equal(out.c, state.c)
    # parameter count never depends on how many memory cells a tree uses
    no_memory = build_tree(
        ("tanh", ("add", ("add", ("add", ("add", "x0", "x1"), ("add", "x2", "x3")),
                          ("add", ("add", "x4", "x5"), ("add", "x6", "x7"))), "x0")))
    one_cell = lstm_reference_tree()
    two_cells = build_tree(("mul", ("sigmoid", "x3"),
                            ("tanh", ("add@c", ("mul", ("sigmoid", "x1"), "cprev"),
                                      ("mul@d", ("sigmoid", "x0"), ("tanh", "dprev"))))))
    spec = homogeneous_spec(24, 2, 12, vocab_size=17)
    counts = {build_network(spec, [t], rng_for(1)).param_count()
              for t in (no_memory, one_cell, two_cells)}
    assert len(counts) == 1, counts
    report(6, "untagged c is a bit-exact skip; parameter count invariant "
              "across 0/1/2 memory cells", time.perf_counter() - started, 10)


def test_criterion_07_meta_predictor_vs_baseline():
    started = time.perf_counter()
    train_set, _ = synthetic_curves(500, seed=5)
    test_set, _ = synthetic_curves(200, seed=99)
    config = MetaConfig(width=40, layers=2, epochs=160, batch_size=50,
                        lr=0.01, patience=60, seed=0)
    model = train_meta(train_set, config)
    prefixes = [s.prefix for s in test_set]
    targets = np.array([s.target for s in test_set])
    preds = model.predict_batch(prefixes)
    naive = [baseline_epoch10(p) for p in prefixes]
    mae = mae_percent(preds, targets)
    tau_model = kendall_tau(preds, targets)
    tau_naive = kendall_tau(naive, targets)
    assert mae <= 10.0, f"held-out MAE% {mae}"
    assert tau_model > tau_naive, (tau_model, tau_naive)
    report(7, f"meta predictor MAE% {mae:.2f} <= 10, tau {tau_model:.3f} > "
              f"epoch-10 baseline {tau_naive:.3f} "
              f"(paper-scale reference: 3% on its full corpus)",
           time.perf_counter() - started, 900)


def test_criterion_08_end_to_end_desk_evolution():
    started = time.perf_counter()
    config = load_config(CONFIG_DIR / "desk_evolution.ini")
    assert config.evolution.population_size == 20
    assert config.evolution.generations == 10
    assert config.evolution.partial_epochs == 2
    ctx = EvalContext(config)
    result = run(config.evolution, ctx)
    best_series = [h.best_fitness for h in result.history]
    assert len(best_series) == 10
    assert all(b <= a + 1e-12 for a, b in zip(best_series, best_series[1:])), \
        "best-ever fitness must never worsen"
    full_epochs = config.train.epochs
    best_full = ctx.train_genome(serialize(result.best_genome),
                                 epochs=full_epochs, seed=config.seed)
    seed_full = ctx.train_genome(serialize(seed_tree()),
                                 epochs=full_epochs, seed=config.seed)
    rel_gain = (seed_full.final() - best_full.final()) / seed_full.final()
    assert rel_gain >= 0.05, (
        f"evolved {best_full.final():.4f} vs seed {seed_full.final():.4f} "
        f"({rel_gain * 100:.1f}% relative)")
    report(8, f"desk evolution monotone; evolved node beats seed tree by "
              f"{rel_gain * 100:.1f}% (>= 5%) after full training",
           time.perf_counter() - started, 3600)


def test_criterion_09_heterogeneous_construction(tmp_path):
    started = time.perf_counter()
    trees = [random_genome(rng_for(40 + s), steps=5) for s in range(5)]
    layer = heterogeneous_layer(range(5), cardinality=20)
    assert layer.width == 100
    assert [card for _, card in layer.slots] == [20] * 5
    spec = NetworkSpec([layer], embedding_dim=12, vocab_size=9)
    net = build_network(spec, trees, rng_for(0))
    assert [(lo, hi) for _, lo, hi in net.cells[0]] == [
        (0, 20), (20, 40), (40, 60), (60, 80), (80, 100)]
    # a 20-network desk sweep through the command-line surface
    pool = tmp_path / "pool"
    pool.mkdir()
    (pool / "pool.txt").write_text("".join(serialize(t) + "\n" for t in trees))
    cfg = ExperimentConfig(seed=2)
    cfg.task.train_tokens = 4000
    cfg.task.valid_tokens = 1000
    cfg.task.test_tokens = 1000
    cfg.network.width = 100
    cfg.network.embedding_dim = 12
    cfg.evolution.partial_epochs = 2
    cfg.evolution.fitness_mode = "epoch10_baseline"
    cfg.train.batch_size = 10
    cfg.train.optimizer = "adam"
    cfg.train.lr = 0.01
    cfg.train.dropout_ff = 0.0
    cfg.train.dropout_rec = 0.0
    config_path = tmp_path / "hetero.ini"
    save_config(cfg, config_path)
    out = tmp_path / "results.csv"
    assert cli_main(["hetero", str(pool), "--config", str(config_path),
                     "--count", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,fitness,genomes"
    assert len(lines) == 21
    fits = [float(line.split(",")[1]) for line in lines[1:]]
    assert fits == sorted(fits)
    report(9, "width-100 layer is 5 slots x 20; 20-network sweep ranked",
           time.perf_counter() - started, 1800)


def test_criterion_10_cli_determinism(tmp_path):
    started = time.perf_counter()
    config_path = CONFIG_DIR / "smoke.ini"
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert cli_main(["evolve", "--config", str(config_path),
                         "--out", str(out_dir), "--workers", "1",
                         "--precision", "64"]) == 0
        outputs.append(out_dir)
    for filename in ("stats.csv", "best.genome", "lineage.log"):
        a = (outputs[0] / filename).read_bytes()
        b = (outputs[1] / filename).read_bytes()
        assert a == b, f"{filename} differs between identical runs"
    report(10, "two identical evolve runs produced byte-identical stats, "
               "genome, and lineage files",
           time.perf_counter() - started, 600)
