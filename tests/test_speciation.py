import math

import numpy as np
import pytest

from treecell.genetic import random_genome, tree_distance
from treecell.grammar import parse, serialize
from treecell.speciation import (
    ACTIVE,
    ARCHIVED,
    WAITING,
    SpeciationConfig,
    SpeciationState,
    StagnationArchive,
    in_archived_region,
    speciate,
)
from treecell.tree import seed_tree


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def distant_genomes(n, threshold=0.3, start=0):
    """Mutually distant genomes (pairwise distance >= threshold)."""
    out = []
    seed = start
    while len(out) < n:
        g = random_genome(rng_for(seed), steps=10)
        seed += 1
        if all(tree_distance(g, o) >= threshold for o in out):
            out.append(g)
        if seed - start > 5000:
            raise AssertionError("could not build distant genome set")
    return out


def _species(state, species_id):
    return next(sp for sp in state.species if sp.id == species_id)


def test_assign_equal_genome_joins_existing():
    state = SpeciationState(SpeciationConfig())
    t = seed_tree()
    first = state.assign("a", t)
    second = state.assign("b", t)
    assert first == second
    assert state.species[0].members == ["a", "b"]


def test_assign_above_threshold_creates_new_species():
    # full-embed caterpillar pair: n_i=10,d_i=8 vs n_j=18,d_j=15, shared 10/8:
    # delta = 0.5*(28-20)/26 + 0.5*(23-16)/21 = 4/26 + 7/42 = 25/78 > 0.3
    a = parse("(add x0 (tanh (sigmoid (add x1 (relu (tanh (sigmoid x2)))))))")
    b = parse(
        "(add (tanh x3) (sigmoid (relu (add x4 (tanh (sigmoid (relu (tanh "
        "(sigmoid (relu (tanh (sigmoid (relu (tanh x5))))))))))))))")
    assert tree_distance(a, b) == pytest.approx(25 / 78, abs=1e-12)
    state = SpeciationState(SpeciationConfig(compatibility_threshold=0.3))
    sa = state.assign("a", a)
    sb = state.assign("b", b)
    assert sa != sb
    assert len(state.species) == 2


def test_eleventh_species_enters_waiting():
    genomes = distant_genomes(11)
    state = SpeciationState(SpeciationConfig(max_active=10))
    for i, g in enumerate(genomes):
        state.assign(f"g{i}", g)
    counts = state.counts()
    assert counts[ACTIVE] == 10
    assert counts[WAITING] == 1
    assert state.species[-1].state == WAITING


def test_improving_species_never_stagnates():
    state = SpeciationState(SpeciationConfig())
    sid = state.assign("a", seed_tree())
    fitness = 10.0
    for _ in range(8):
        state.update_stagnation({sid: fitness})
        fitness -= 0.5
    sp = _species(state, sid)
    assert sp.state == ACTIVE
    assert sp.stagnation == 0


def test_stagnation_archives_after_exact_limit():
    # the first evaluation sets the baseline; four consecutive non-improving
    # generations after it retire the species
    genomes = distant_genomes(3)
    config = SpeciationConfig(stagnation_limit=4)
    state = SpeciationState(config)
    ids = [state.assign(f"g{i}", g) for i, g in enumerate(genomes)]
    flat, improving = ids[0], ids[1]
    best = 5.0
    for update in range(1, 6):
        state.update_stagnation({flat: 7.0, improving: best})
        best -= 0.1
        if update < 5:
            assert _species(state, flat).state == ACTIVE, f"archived early at update {update}"
    assert _species(state, flat).state == ARCHIVED
    assert len(state.archive) == 1
    assert serialize(state.archive.entries[0]) == serialize(genomes[0])
    assert _species(state, improving).state == ACTIVE


def test_one_promotion_per_retirement():
    genomes = distant_genomes(13)
    config = SpeciationConfig(max_active=10, stagnation_limit=4)
    state = SpeciationState(config)
    ids = [state.assign(f"g{i}", g) for i, g in enumerate(genomes)]
    waiting_ids = [sp.id for sp in state.species if sp.state == WAITING]
    assert len(waiting_ids) == 3
    # one active species stays flat after its baseline, others keep improving
    flat = ids[0]
    best = {sid: 5.0 for sid in ids[:10]}
    promoted_total = []
    for _ in range(5):
        fits = {}
        for sid in ids[:10]:
            if sid == flat:
                fits[sid] = 9.0
            else:
                best[sid] -= 0.1
                fits[sid] = best[sid]
        promoted_total.extend(state.update_stagnation(fits))
    assert _species(state, flat).state == ARCHIVED
    assert len(promoted_total) == 1
    assert promoted_total[0].id == min(waiting_ids)  # FIFO promotion
    assert state.counts()[ACTIVE] == 10


def test_last_active_species_survives_without_replacement():
    state = SpeciationState(SpeciationConfig(stagnation_limit=2))
    sid = state.assign("a", seed_tree())
    for _ in range(6):
        state.update_stagnation({sid: 5.0})
    assert _species(state, sid).state == ACTIVE
    assert len(state.archive) == 0


def test_archive_checks():
    archive = StagnationArchive()
    t = seed_tree()
    assert not in_archived_region(t, archive, 0.3)
    archive.add(t)
    assert in_archived_region(t, archive, 0.3)
    # the 0.29 fixture sits inside the default threshold
    a = parse("(add x0 (tanh (sigmoid (add x1 (relu (tanh (sigmoid x2)))))))")
    b = parse(
        "(add (tanh x3) (sigmoid (relu (add x4 (tanh (sigmoid (relu (tanh "
        "(sigmoid (relu (tanh (sigmoid (relu x5)))))))))))))")
    assert tree_distance(a, b) == pytest.approx(0.29, abs=1e-12)
    archive2 = StagnationArchive([a])
    assert in_archived_region(b, archive2, 0.3)
    assert not in_archived_region(b, archive2, 0.29)


def test_speciate_whole_population_partition():
    pop = {f"g{i}": random_genome(rng_for(i), steps=4) for i in range(30)}
    state = SpeciationState(SpeciationConfig())
    assignment = speciate(pop, state)
    assert set(assignment) == set(pop)
    member_lists = [sp.members for sp in state.species]
    flattened = [m for ml in member_lists for m in ml]
    assert sorted(flattened) == sorted(pop)  # no genome in two species
    assert state.counts()[ACTIVE] <= state.config.max_active


def test_checkpoint_round_trip():
    genomes = distant_genomes(4)
    config = SpeciationConfig()
    state = SpeciationState(config)
    for i, g in enumerate(genomes):
        state.assign(f"g{i}", g)
    state.update_stagnation({state.species[0].id: 3.0})
    data = state.to_json()
    back = SpeciationState.from_json(data, config)
    assert back.to_json() == data
    assert math.isinf(back.species[-1].best_fitness) or isinstance(
        back.species[-1].best_fitness, float)
