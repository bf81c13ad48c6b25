"""The generational loop: evaluate with partial training (optionally
extrapolated by the curve predictor), speciate, retire stagnant species
into the archive, and reproduce with archive-rejection of offspring.

Every stochastic step draws from a generator keyed by (run seed,
generation, counter), so runs replay bit-exactly and the lineage log can
re-derive any genome from the seed tree.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .genetic import crossover_homologous, mutate_pipeline
from .grammar import parse, serialize
from .speciation import ACTIVE, SpeciationConfig, SpeciationState, speciate
from .tree import NodeTree, canonical_text, seed_tree, validate

WORST_FITNESS = math.inf

logger = logging.getLogger(__name__)


@dataclass
class EvolutionConfig:
    population_size: int = 100
    generations: int = 30
    crossover_rate: float = 0.6
    insert_rate: float = 0.6
    shrink_rate: float = 0.3
    memory_tap_rate: float = 0.3
    tournament_size: int = 3
    fitness_mode: str = "meta_predicted"  # meta_predicted | epoch10_baseline | full_train
    partial_epochs: int = 10
    max_shame_retries: int = 50
    seed: int = 0
    speciation: SpeciationConfig = field(default_factory=SpeciationConfig)

    def __post_init__(self):
        for name in ("crossover_rate", "insert_rate", "shrink_rate", "memory_tap_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.fitness_mode not in ("meta_predicted", "epoch10_baseline", "full_train"):
            raise ValueError(f"unknown fitness_mode {self.fitness_mode!r}")
        # an offspring uses up to max_shame_retries + 3 keys of its block
        if not 0 <= self.max_shame_retries <= OFFSPRING_STRIDE - 3:
            raise ValueError(f"max_shame_retries must be in [0, {OFFSPRING_STRIDE - 3}], "
                             f"got {self.max_shame_retries}")


@dataclass
class FitnessRecord:
    key: str                      # canonical genome text
    curve: list[float]
    fitness: float
    mode: str


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    evaluated: int
    active_species: int
    waiting_species: int
    archived_species: int
    archive_size: int
    best_genome: str


CHECKPOINT_VERSION = 2


@dataclass
class RunState:
    """Everything a run carries from one generation to the next.

    :func:`run` starts from one, advances it in place and returns it;
    ``to_json`` and ``from_json`` are its checkpoint form.
    """

    next_generation: int
    population: list[NodeTree]
    speciation: SpeciationState
    records: dict[str, FitnessRecord]
    history: list[GenerationStats]

    @classmethod
    def start(cls, config: EvolutionConfig, lineage: LineageLog | None = None) -> "RunState":
        """The seed population (its lineage lines recorded) and no species yet."""
        return cls(0, init_population(config, lineage),
                   SpeciationState(config.speciation), {}, [])

    @property
    def best_fitness(self) -> float:
        return best_of(self.records)[0]

    @property
    def best_genome(self) -> NodeTree:
        # nothing finite: the population's first genome, untrained, since no
        # stats row or checkpoint would show its curve
        return parse(best_of(self.records)[1] or canonical_text(self.population[0]))

    def to_json(self, lineage_bytes: int) -> str:
        """The checkpoint text; ``lineage_bytes`` is the lineage log's length."""
        return json.dumps({
            "version": CHECKPOINT_VERSION,
            "next_generation": self.next_generation,
            "lineage_bytes": lineage_bytes,
            "population": [serialize(g) for g in self.population],
            "speciation": self.speciation.to_json(),
            "records": {k: {name: value for name, value in vars(r).items() if name != "key"}
                        for k, r in self.records.items()},
            "history": [list(astuple(h)) for h in self.history],
        }, allow_nan=True)

    @classmethod
    def from_json(cls, text: str, config: EvolutionConfig) -> tuple["RunState", int]:
        """Inverse of ``to_json``: the state and the lineage length it recorded.

        A malformed checkpoint raises ``ValueError``, ``KeyError`` or
        ``TypeError``, as does any genome in it that breaks a rule.
        """
        blob = _object(json.loads(text), "checkpoint")
        if blob.get("version") != CHECKPOINT_VERSION:
            raise ValueError("unsupported checkpoint version")
        for name in ("next_generation", "lineage_bytes"):
            if not isinstance(blob[name], int):
                raise ValueError(f"{name} is not an integer")
        records ={k: FitnessRecord(k, **_object(r, f"record {k!r}"))
                   for k, r in _object(blob["records"], "records").items()}
        state = cls(blob["next_generation"], [parse(t) for t in blob["population"]],
                    SpeciationState.from_json(_object(blob["speciation"], "speciation"),
                                              config.speciation),
                    records, [GenerationStats(*row) for row in blob["history"]])
        for tree in (state.population + state.speciation.archive
                     + [sp.representative for sp in state.speciation.species]):
            report = validate(tree)
            if report:
                raise ValueError(f"genome {serialize(tree)} breaks a rule: {report[0]}")
        return state, blob["lineage_bytes"]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not a JSON object")
    return value


def _rng(seed, generation, counter) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, generation, counter))))


INIT_KEY_BASE = 1_000_000  # rng-key namespace for initial-population mutations
OFFSPRING_STRIDE = 64  # rng keys per offspring: selection, crossover, each mutation


def init_population(config: EvolutionConfig,
                    lineage: LineageLog | None = None) -> list[NodeTree]:
    """The seed tree plus single-mutation variants of it."""
    seed = _derive(config, 0, lineage, "seed", [], 0)
    return [seed] + [_derive(config, 0, lineage, "mutate", [seed], INIT_KEY_BASE + i)
                     for i in range(config.population_size - 1)]


def _operate(op: str, parents: list[NodeTree], config: EvolutionConfig,
             generation: int, key: int) -> NodeTree:
    """The child one lineage operator makes, for a run and a replay alike.

    Identity operators (elite, promote) return the parent unchanged; seed
    returns the starting tree; crossover and mutate draw from the generator
    that (run seed, generation, rng key) determines.
    """
    if op in ("elite", "promote"):
        return parents[0]
    if op == "seed":
        return seed_tree()
    rng = _rng(config.seed, generation, key)
    if op == "crossover":
        return crossover_homologous(parents[0], parents[1], rng)[0]
    if op == "mutate":
        return mutate_pipeline(parents[0], rng, config.insert_rate,
                               config.shrink_rate, config.memory_tap_rate)
    raise ValueError(f"unknown lineage operator {op!r}")


def _derive(config, generation, lineage, op, parents, key) -> NodeTree:
    """:func:`_operate`, with its lineage line written when there is a log."""
    child = _operate(op, parents, config, generation, key)
    if lineage is not None:
        lineage.record(generation, key, op, [serialize(p) for p in parents],
                       serialize(child))
    return child


class LineageLog:
    """Append-only record of operator applications, one per line.

    Tab-separated fields: generation, rng key, operator, parent genome
    texts (|-joined), child genome text.  Every line replays independently:
    the rng key fully determines the generator the operator consumed, so
    re-applying the operator to the parents reproduces the child bit-exactly
    (see :func:`replay_line`).
    """

    def __init__(self, sink):
        self.sink = sink

    def record(self, generation, key, op, parents, child) -> None:
        line = "\t".join([str(generation), str(key), op, "|".join(parents), child])
        self.sink.write(line + "\n")
        self.sink.flush()


def replay_line(line: str, config: EvolutionConfig) -> str:
    """Re-derive the child genome recorded on a lineage line."""
    generation, key, op, parents_field, _ = line.rstrip("\n").split("\t")
    parents = [parse(p) for p in parents_field.split("|")] if parents_field else []
    return serialize(_operate(op, parents, config, int(generation), int(key)))


def evaluate_generation(population, evaluator, records, fitness_mode, keys=None,
                        pool=None, predictor=None) -> dict[str, FitnessRecord]:
    """Fill the record cache for every genome in ``population``.

    Identical genomes (same canonical text) share one record and are never
    retrained.  ``evaluator`` maps genome text to a metric curve; training
    failures yield the worst-possible fitness instead of aborting.  Pass an
    executor as ``pool`` (with the evaluator importable in workers) to fan
    evaluation out; results are keyed by genome, so scheduling order never
    affects the outcome.  In ``meta_predicted`` mode each new finite curve's
    fitness is ``predictor``'s extrapolated final metric, all predicted in
    one batch in sorted key order; a record keeps its fitness for good.
    """
    keys = keys if keys is not None else [canonical_text(g) for g in population]
    pending = sorted({k for k in keys if k not in records})
    if pool is not None:
        curves = dict(zip(pending, pool.map(evaluator, pending)))
    else:
        curves = {k: evaluator(k) for k in pending}
    finite = [k for k in pending if curves[k] is not None
              and all(math.isfinite(v) for v in curves[k])]
    if fitness_mode == "meta_predicted" and finite:
        values = predictor.predict_batch([curves[k] for k in finite])
    else:
        values = [curves[k][-1] for k in finite]
    fitness = dict(zip(finite, map(float, values)))
    for key in pending:
        if key in fitness:
            records[key] = FitnessRecord(key, list(curves[key]), fitness[key], fitness_mode)
        else:
            records[key] = FitnessRecord(key, [], WORST_FITNESS, fitness_mode)
    return records


def best_of(records) -> tuple[float, str]:
    """The lowest (fitness, key) among the finite records; (inf, "") if none.

    Ties go to the smaller key, so the answer depends only on the records,
    not on the order they were made or restored in.
    """
    return min(((r.fitness, k) for k, r in records.items() if math.isfinite(r.fitness)),
               default=(WORST_FITNESS, ""))


def _spawn_allocation(species_scores, population_size) -> dict[int, int]:
    """Spawn counts proportional to score, summing exactly to the target."""
    total = sum(species_scores.values())
    raw = {sid: population_size * score / total
           for sid, score in species_scores.items()}
    alloc = {sid: int(r) for sid, r in raw.items()}
    shortfall = population_size - sum(alloc.values())
    by_frac = sorted(species_scores, key=lambda sid: (alloc[sid] - raw[sid], sid))
    for sid in by_frac[:shortfall]:
        alloc[sid] += 1
    return alloc


def reproduce(population, keys, records, spec_state: SpeciationState,
              config: EvolutionConfig, generation: int,
              lineage: LineageLog | None = None,
              promoted_reps=None) -> list[NodeTree]:
    """Build the next generation.

    Spawns are allocated to active species by mean inverse-rank fitness;
    parents are tournament-selected within their species; offspring come
    from homologous crossover (at the crossover rate) or cloning, then
    mutate, and are re-mutated while they fall inside an archived region
    (up to the retry budget, then accepted with a warning).  Each species'
    best member survives unchanged, and representatives of freshly
    promoted species join the population.
    """
    promoted_reps = promoted_reps or []
    by_key = {}
    for g, k in zip(population, keys):
        by_key.setdefault(k, g)
    ranked = sorted({k for k in keys if k in records},
                    key=lambda k: (records[k].fitness, k))
    rank_of = {k: i + 1 for i, k in enumerate(ranked)}

    members = {sp.id: [m for m in sp.members if m in rank_of]
               for sp in spec_state.species if sp.state == ACTIVE}
    members = {sid: ms for sid, ms in members.items() if ms}
    if not members and not promoted_reps:
        raise RuntimeError("no active species with evaluated members")
    scores = {sid: float(np.mean([1.0 / rank_of[m] for m in ms]))
              for sid, ms in members.items()}

    derive = functools.partial(_derive, config, generation, lineage)
    next_population = [derive("promote", [rep], 0) for rep in promoted_reps]
    # the k-th offspring or fill child draws from the keys k * OFFSPRING_STRIDE on
    blocks = itertools.count(OFFSPRING_STRIDE, OFFSPRING_STRIDE)
    alloc = _spawn_allocation(scores, max(config.population_size - len(next_population), 0))

    for sid, member_keys in members.items():
        if alloc[sid] <= 0:
            continue
        elite_key = min(member_keys, key=lambda k: records[k].fitness)
        next_population.append(derive("elite", [by_key[elite_key]], 0))
        for _ in range(alloc[sid] - 1):
            op_keys = itertools.count(next(blocks))
            rng_sel = _rng(config.seed, generation, next(op_keys))
            parent_a = by_key[_tournament(member_keys, records, rng_sel,
                                          config.tournament_size)]
            child = parent_a
            if rng_sel.random() < config.crossover_rate and len(member_keys) > 1:
                parent_b = by_key[_tournament(member_keys, records, rng_sel,
                                              config.tournament_size)]
                child = derive("crossover", [parent_a, parent_b], next(op_keys))
            for retries in itertools.count(1):
                child = derive("mutate", [child], next(op_keys))
                if not spec_state.violates_archive(child):
                    break
                if retries > config.max_shame_retries:
                    logger.warning(
                        "offspring still inside an archived region after %d "
                        "re-mutations; accepting it", retries)
                    break
            next_population.append(child)

    # fresh promotions with nothing else evaluated seed the remainder
    for source, _ in zip(itertools.cycle(promoted_reps),
                         range(config.population_size - len(next_population))):
        next_population.append(derive("mutate", [source], next(blocks)))
    return next_population[:config.population_size]


def _tournament(member_keys, records, rng, size) -> str:
    picks = [member_keys[rng.integers(len(member_keys))]
             for _ in range(min(size, len(member_keys)))]
    return min(picks, key=lambda k: records[k].fitness)


def run(config: EvolutionConfig, evaluator, predictor=None,
        lineage: LineageLog | None = None, on_generation=None,
        start_state: RunState | None = None, pool=None) -> RunState:
    """Execute the full evolutionary run.

    ``evaluator`` maps genome text to a partial-training metric curve;
    ``predictor`` extrapolates curves to final fitness when the config's
    fitness mode asks for it.  ``on_generation`` receives
    (stats, population, spec_state, records) after each generation, which
    is where checkpointing hooks in.  The run advances ``start_state`` (a
    fresh :meth:`RunState.start` when None) in place and returns it.
    """
    if config.fitness_mode == "meta_predicted" and predictor is None:
        raise ValueError("meta_predicted fitness requires a trained predictor")
    state = start_state if start_state is not None else RunState.start(config, lineage)
    spec_state, records = state.speciation, state.records

    for gen in range(state.next_generation, config.generations):
        population = state.population
        keys = [canonical_text(g) for g in population]
        assignment = speciate(dict(zip(keys, population)), spec_state, gen)
        active_ids = {sp.id for sp in spec_state.species if sp.state == ACTIVE}
        eval_keys = [k for k in keys if assignment[k] in active_ids]
        evaluate_generation(population, evaluator, records, config.fitness_mode,
                            keys=eval_keys, pool=pool, predictor=predictor)

        # each species' best recorded member: its fitness feeds stagnation,
        # and it becomes an active species' representative
        generation_best: dict[int, float] = {}
        for sp in spec_state.species:
            scored = [m for m in sp.members if m in records]
            if scored:
                best_member = min(scored, key=lambda m: records[m].fitness)
                generation_best[sp.id] = records[best_member].fitness
                if sp.state == ACTIVE:
                    sp.representative = parse(best_member)

        promoted = spec_state.update_stagnation(generation_best)
        promoted_reps = [sp.representative for sp in promoted]

        evaluated = [records[k].fitness for k in sorted(set(eval_keys))]
        finite = [f for f in evaluated if math.isfinite(f)]
        counts = spec_state.counts()
        best_fitness, best_key = best_of(records)
        stats = GenerationStats(
            generation=gen,
            best_fitness=best_fitness,
            mean_fitness=float(np.mean(finite)) if finite else WORST_FITNESS,
            evaluated=len(evaluated),
            active_species=counts[ACTIVE],
            waiting_species=counts["waiting"],
            archived_species=counts["archived"],
            archive_size=len(spec_state.archive),
            best_genome=best_key,
        )
        state.history.append(stats)
        # reproduce even at the final generation: the callback then always
        # sees the population the next generation would evaluate, so a
        # checkpoint written here resumes (or extends) a run bit-exactly
        state.population = reproduce(population, keys, records, spec_state, config,
                                     gen + 1, lineage, promoted_reps)
        state.next_generation = gen + 1
        if on_generation is not None:
            on_generation(stats, state.population, spec_state, records)

    if not state.history:
        # no generation ran: evaluate the initial population
        evaluate_generation(state.population, evaluator, records, config.fitness_mode,
                            pool=pool, predictor=predictor)
    return state
