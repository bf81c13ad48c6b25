import io
import logging
import math
from collections import Counter
from dataclasses import astuple

import pytest

from treecell.evolution import (
    EvolutionConfig,
    LineageLog,
    RunState,
    evaluate_generation,
    init_population,
    replay_line,
    reproduce,
    run,
)
from treecell.grammar import parse, serialize
from treecell.speciation import SpeciationConfig, SpeciationState, speciate
from treecell.tree import canonical_text, seed_tree, size, validate


def small_config(**kw):
    defaults = dict(population_size=12, generations=5, seed=3,
                    fitness_mode="epoch10_baseline", partial_epochs=2)
    defaults.update(kw)
    return EvolutionConfig(**defaults)


def toy_evaluator(text):
    """Cheap deterministic stand-in for partial training: smaller trees and
    trees using memory taps score better."""
    tree = parse(text)
    taps = sum(1 for n in tree.preorder() if tree.nodes[n].tap is not None)
    value = 5.0 + 0.05 * size(tree) - 0.8 * min(taps, 3)
    return [value + 0.3, value + 0.1, max(value, 0.1)]


def test_init_population_all_valid_and_deterministic():
    config = small_config()
    pop_a = init_population(config)
    pop_b = init_population(config)
    assert [serialize(g) for g in pop_a] == [serialize(g) for g in pop_b]
    assert len(pop_a) == config.population_size
    assert all(validate(g) == [] for g in pop_a)
    assert serialize(pop_a[0]) == serialize(seed_tree())


def test_init_population_size_one_is_just_seed():
    with pytest.raises(ValueError):
        EvolutionConfig(population_size=1)
    # population_size 2: seed plus one variant
    pop = init_population(small_config(population_size=2))
    assert len(pop) == 2


def test_config_rejects_bad_rates():
    with pytest.raises(ValueError):
        EvolutionConfig(crossover_rate=1.5)


def test_config_bounds_max_shame_retries_to_one_key_block():
    """An offspring uses up to max_shame_retries + 3 keys of its 64."""
    for ok in (0, 61):
        assert EvolutionConfig(max_shame_retries=ok).max_shame_retries == ok
    for bad in (62, -1):
        with pytest.raises(ValueError, match="max_shame_retries"):
            EvolutionConfig(max_shame_retries=bad)


def test_evaluate_generation_caches_duplicates():
    calls = []

    def counting_evaluator(text):
        calls.append(text)
        return [1.0, 2.0]

    seed = seed_tree()
    population = [seed, seed, seed]
    records = {}
    evaluate_generation(population, counting_evaluator, records,
                        "epoch10_baseline")
    assert len(calls) == 1  # identical genomes share one training run
    key = canonical_text(seed)
    assert records[key].fitness == 2.0  # last curve entry
    # already-cached genomes are never retrained
    evaluate_generation(population, counting_evaluator, records,
                        "epoch10_baseline")
    assert len(calls) == 1


def test_evaluate_generation_sends_a_lone_genome_to_the_pool():
    # a pool's evaluator may only work inside its workers, so even a single
    # pending genome must not be evaluated in the calling process
    class WorkerPool:
        def map(self, fn, keys):
            return [toy_evaluator(k) for k in keys]

    def outside_pool(text):
        raise AssertionError("evaluated outside the pool")

    records = {}
    evaluate_generation([seed_tree()], outside_pool, records,
                        "epoch10_baseline", pool=WorkerPool())
    key = canonical_text(seed_tree())
    assert records[key].fitness == toy_evaluator(key)[-1]


def test_divergent_training_gets_worst_fitness():
    def nan_evaluator(text):
        return [float("nan")]

    records = {}
    evaluate_generation([seed_tree()], nan_evaluator, records,
                        "epoch10_baseline")
    rec = records[canonical_text(seed_tree())]
    assert math.isinf(rec.fitness)


class StubPredictor:
    """Records every batch it is asked for; pretends slow starters win."""

    def __init__(self):
        self.calls = []

    def predict_batch(self, curves):
        self.calls.append([list(c) for c in curves])
        return [1.0 if c[0] > 5 else 9.0 for c in curves]


def test_meta_mode_ranks_by_predicted_finals():
    curves = {"b": [9.0, 8.5],              # slow start, good final per stub
              "a": [2.0, 1.9],              # great at epoch 2, bad final
              "c": [float("nan"), 1.0]}     # diverged: never predicted
    stub = StubPredictor()
    records = {}
    evaluate_generation(None, curves.get, records, "meta_predicted",
                        keys=["b", "a", "c", "b"], predictor=stub)
    # one call, with only the pending finite curves, in sorted key order
    assert stub.calls == [[curves["a"], curves["b"]]]
    assert records["b"].fitness < records["a"].fitness
    assert records["a"].curve == curves["a"] and records["a"].mode == "meta_predicted"
    assert math.isinf(records["c"].fitness)
    # the same keys again: nothing is pending, so nothing is predicted
    evaluate_generation(None, curves.get, records, "meta_predicted",
                        keys=["a", "b", "c"], predictor=stub)
    assert len(stub.calls) == 1


def toy_curve10(text):
    """A ten-epoch curve, the predictor's prefix length, from the toy metric."""
    final = toy_evaluator(text)[-1]
    return [final + 0.1 * (10 - i) + 0.01 * len(text) * (i % 3) for i in range(10)]


def test_meta_mode_predicts_each_record_once_per_run():
    stub = StubPredictor()
    evaluated = []

    def evaluator(text):
        evaluated.append(text)
        return toy_curve10(text)

    config = small_config(generations=5, fitness_mode="meta_predicted",
                          partial_epochs=10)
    result = run(config, evaluator, predictor=stub)
    assert len(evaluated) == len(set(evaluated)) == len(result.records)
    assert 1 <= len(stub.calls) <= config.generations
    start = 0
    for batch in stub.calls:   # one batch per generation, in sorted key order
        keys = evaluated[start:start + len(batch)]
        assert keys == sorted(keys)
        assert batch == [toy_curve10(k) for k in keys]
        start += len(batch)
    assert start == len(evaluated)
    assert {r.fitness for r in result.records.values()} <= {1.0, 9.0}


def test_reproduce_preserves_population_size_and_validity():
    config = small_config()
    population = init_population(config)
    keys = [canonical_text(g) for g in population]
    state = SpeciationState(config.speciation)
    speciate(dict(zip(keys, population)), state, 0)
    records = {}
    evaluate_generation(population, toy_evaluator, records,
                        config.fitness_mode, keys=keys)
    nxt = reproduce(population, keys, records, state, config, 1)
    assert len(nxt) == config.population_size
    assert all(validate(g) == [] for g in nxt)


def test_offspring_left_in_an_archived_region_after_the_retry_cap_are_accepted(caplog):
    """Distances are at most 1, so with a threshold of 1.5 every genome
    lies in the archived region: each offspring mutates 1 + max_shame_retries
    times, in its own block of rng keys, and is then accepted with a warning."""
    config = small_config(max_shame_retries=2,
                          speciation=SpeciationConfig(compatibility_threshold=1.5))
    population = init_population(config)
    keys = [canonical_text(g) for g in population]
    state = SpeciationState(config.speciation)
    speciate(dict(zip(keys, population)), state, 0)
    state.archive.append(seed_tree())
    records = {}
    evaluate_generation(population, toy_evaluator, records,
                        config.fitness_mode, keys=keys)
    sink = io.StringIO()
    with caplog.at_level(logging.WARNING, logger="treecell.evolution"):
        nxt = reproduce(population, keys, records, state, config, 1, LineageLog(sink))
    lines = sink.getvalue().splitlines()
    mutations = Counter(int(line.split("\t")[1]) // 64 for line in lines
                        if line.split("\t")[2] == "mutate")
    offspring = config.population_size - 1  # one species: its elite, then offspring
    assert len(nxt) == config.population_size
    assert sorted(mutations) == list(range(1, offspring + 1))
    assert set(mutations.values()) == {3}
    warnings = [r for r in caplog.records if "archived region" in r.getMessage()]
    assert len(warnings) == offspring
    assert all(replay_line(line, config) == line.split("\t")[4] for line in lines)


def test_reproduce_keeps_elite_unchanged():
    config = small_config()
    population = init_population(config)
    keys = [canonical_text(g) for g in population]
    state = SpeciationState(config.speciation)
    speciate(dict(zip(keys, population)), state, 0)
    records = {}
    evaluate_generation(population, toy_evaluator, records,
                        config.fitness_mode, keys=keys)
    best_key = min((k for k in keys), key=lambda k: records[k].fitness)
    nxt = reproduce(population, keys, records, state, config, 1)
    assert best_key in {canonical_text(g) for g in nxt}


def test_run_monotone_best_and_history():
    config = small_config(generations=6)
    result = run(config, toy_evaluator)
    assert len(result.history) == config.generations
    fits = [h.best_fitness for h in result.history]
    assert all(b <= a + 1e-12 for a, b in zip(fits, fits[1:]))
    seed_fit = toy_evaluator(serialize(seed_tree()))[-1]
    assert result.best_fitness <= seed_fit
    for h in result.history:
        assert h.evaluated > 0
        assert h.active_species >= 1


def test_run_with_nothing_finite_trains_only_what_it_reports():
    calls = []

    def nan_evaluator(text):
        calls.append(text)
        return [float("nan")]

    seen = []
    result = run(small_config(generations=2), nan_evaluator,
                 on_generation=lambda stats, pop, spec, records: seen.append(len(records)))
    assert len(calls) == seen[-1] == len(result.records)
    assert math.isinf(result.best_fitness)
    assert canonical_text(result.best_genome) == canonical_text(result.population[0])


def test_run_bit_reproducible():
    config = small_config(generations=4)
    a = run(config, toy_evaluator)
    b = run(config, toy_evaluator)
    assert serialize(a.best_genome) == serialize(b.best_genome)
    assert a.best_fitness == b.best_fitness
    assert [h.best_fitness for h in a.history] == [h.best_fitness for h in b.history]
    assert [serialize(g) for g in a.population] == [serialize(g) for g in b.population]


def test_run_requires_predictor_for_meta_mode():
    with pytest.raises(ValueError):
        run(small_config(fitness_mode="meta_predicted"), toy_evaluator)


def test_lineage_replay_reproduces_genomes():
    """Every line replays: in a ranked run, and in a flat-fitness run whose
    stagnant species give way to promotions and fill children."""
    flat = small_config(generations=4, speciation=SpeciationConfig(
        compatibility_threshold=0.3, stagnation_limit=1, max_active=1))
    for config, evaluator in ((small_config(generations=4), toy_evaluator),
                              (flat, lambda text: [4.0, 4.0])):
        sink = io.StringIO()
        result = run(config, evaluator, lineage=LineageLog(sink))
        lines = sink.getvalue().splitlines()
        assert lines, "lineage log is empty"
        for line in lines:
            assert replay_line(line, config) == line.split("\t")[4]
        # every final-population genome traces back through the log
        logged_children = {line.split("\t")[4] for line in lines}
        for g in result.population:
            assert serialize(g) in logged_children
    fields = [line.split("\t") for line in lines]
    assert any(op == "promote" for _, _, op, _, _ in fields)
    # a fill child mutates a promoted representative with its block's first key
    assert any(op == "mutate" and int(gen) > 0 and int(key) % 64 == 0
               for gen, key, op, _, _ in fields)


def test_replay_rejects_an_unknown_operator():
    line = f"1\t64\tgraft\t{serialize(seed_tree())}\t{serialize(seed_tree())}"
    with pytest.raises(ValueError, match="unknown lineage operator 'graft'"):
        replay_line(line, small_config())


def test_forced_stagnation_archives_and_promotes():
    """Scripted stagnation: flat fitness everywhere archives the founding
    species after exactly stagnation_limit non-improving generations and
    promotes a waiting species if one exists."""
    config = small_config(population_size=16, generations=8,
                          speciation=SpeciationConfig(compatibility_threshold=0.3,
                                                      stagnation_limit=4,
                                                      max_active=1))

    def flat_evaluator(text):
        return [4.0, 4.0]

    events = []

    def watch(stats, population, state, records):
        events.append((stats.generation, stats.archived_species,
                       stats.waiting_species))

    result = run(config, flat_evaluator, on_generation=watch)
    archived_at = [gen for gen, archived, _ in events if archived > 0]
    assert archived_at, "no species was ever archived"
    # baseline at generation 0, stagnation 1..4 at generations 1..4
    assert archived_at[0] == 4
    assert len(result.speciation.archive) >= 1


def test_offspring_avoid_archived_regions():
    config = small_config(population_size=16, generations=8)

    def flat_evaluator(text):
        return [4.0, 4.0]

    result = run(config, flat_evaluator)
    if len(result.speciation.archive) == 0:
        pytest.skip("no archive entries formed in this scenario")
    violations = sum(
        1 for g in result.population if result.speciation.violates_archive(g))
    assert violations == 0


@pytest.mark.parametrize("seed", [14, 3, 5, 22])
def test_resumed_run_reports_the_same_best_as_a_straight_run(seed, tmp_path):
    """Stopped after generation 1 and resumed from its checkpoint, a run
    writes the same history and returns the same best genome as a run
    that was never stopped, including between genomes of equal fitness."""
    config = small_config(generations=4, seed=seed)
    history, blobs = [], []

    def checkpoint(stats, population, spec_state, records):
        history.append(stats)
        blobs.append(RunState(stats.generation + 1, population, spec_state,
                              records, history).to_json(0))

    run(small_config(generations=2, seed=seed), toy_evaluator, on_generation=checkpoint)
    path = tmp_path / "checkpoint.json"
    path.write_text(blobs[-1])
    state, _ = RunState.from_json(path.read_text(), config)
    resumed = run(config, toy_evaluator, start_state=state)
    straight = run(config, toy_evaluator)
    assert [astuple(h) for h in resumed.history] == [astuple(h) for h in straight.history]
    assert serialize(resumed.best_genome) == serialize(straight.best_genome)
    assert resumed.best_fitness == straight.best_fitness
    assert [serialize(g) for g in resumed.population] == \
        [serialize(g) for g in straight.population]


def test_run_advances_the_state_it_is_given():
    config = small_config(generations=2)
    state = RunState.start(config)
    assert run(config, toy_evaluator, start_state=state) is state
    assert state.next_generation == 2
    assert [h.generation for h in state.history] == [0, 1]
