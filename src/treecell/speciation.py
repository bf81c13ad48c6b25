"""Speciation by tree distance, stagnation tracking, and the archive of
representatives of retired (stagnated) species.

Species states: ACTIVE species are evaluated and reproduce; WAITING
species sit in a FIFO queue until an active slot frees up; ARCHIVED is
absorbing -- the representative moves to the stagnation archive and the
species never returns.  Offspring falling inside an archived region are
re-mutated during reproduction, which pushes search toward novelty
without a separate objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .genetic import tree_distance
from .grammar import parse, serialize
from .tree import NodeTree

ACTIVE = "active"
WAITING = "waiting"
ARCHIVED = "archived"


@dataclass
class SpeciationConfig:
    compatibility_threshold: float = 0.3
    stagnation_limit: int = 4
    max_active: int = 10


@dataclass
class Species:
    id: int
    representative: NodeTree
    state: str = ACTIVE
    members: list[str] = field(default_factory=list)  # genome keys, this generation
    best_fitness: float = math.inf
    stagnation: int = 0
    created_generation: int = 0


class SpeciationState:
    """Bookkeeping for all species plus the archive.

    Assignment scans species in id order and joins the first whose
    representative is within the compatibility threshold, which keeps runs
    reproducible.  Updates happen at the single-threaded generation
    barrier; evaluation reads immutable snapshots.
    """

    def __init__(self, config: SpeciationConfig):
        self.config = config
        self.species: list[Species] = []
        self.archive: list[NodeTree] = []  # representatives of archived species
        self._next_id = 0

    # -- per-generation flow -------------------------------------------------

    def begin_generation(self) -> None:
        for sp in self.species:
            sp.members = []

    def assign(self, key: str, genome: NodeTree, generation: int = 0) -> int:
        """Place one genome; creates a new species when none is compatible."""
        for sp in self.species:
            if sp.state == ARCHIVED:
                continue
            if tree_distance(genome, sp.representative) < self.config.compatibility_threshold:
                sp.members.append(key)
                return sp.id
        state = ACTIVE if self.active_count() < self.config.max_active else WAITING
        sp = Species(self._next_id, genome, state, [key],
                     created_generation=generation)
        self._next_id += 1
        self.species.append(sp)
        return sp.id

    def update_stagnation(self, generation_best: dict[int, float]) -> list[Species]:
        """Advance stagnation counters and retire species at the limit.

        ``generation_best`` maps species id -> best fitness among its
        evaluated members this generation (lower is better).  A species
        whose best did not improve for ``stagnation_limit`` consecutive
        generations is archived, and for each retirement the oldest
        WAITING species is promoted.  The promoted species are returned so
        the engine can re-inject their representatives.  As a liveness
        guard, the last remaining active species is never archived when no
        waiting species could replace it.
        """
        promoted: list[Species] = []
        for sp in self.species:
            if sp.state != ACTIVE or sp.id not in generation_best:
                continue
            best = generation_best[sp.id]
            if best < sp.best_fitness:
                sp.best_fitness = best
                sp.stagnation = 0
            else:
                sp.stagnation += 1
            if sp.stagnation >= self.config.stagnation_limit:
                waiting = [w for w in self.species if w.state == WAITING]
                if self.active_count() == 1 and not waiting:
                    continue
                sp.state = ARCHIVED
                self.archive.append(sp.representative)
                if waiting:
                    oldest = min(waiting, key=lambda w: w.id)
                    oldest.state = ACTIVE
                    oldest.stagnation = 0
                    promoted.append(oldest)
        return promoted

    # -- queries ---------------------------------------------------------------

    def active_count(self) -> int:
        return sum(1 for sp in self.species if sp.state == ACTIVE)

    def counts(self) -> dict[str, int]:
        out = {ACTIVE: 0, WAITING: 0, ARCHIVED: 0}
        for sp in self.species:
            out[sp.state] += 1
        return out

    def violates_archive(self, genome: NodeTree) -> bool:
        """True iff the genome lies within the compatibility threshold of
        any archived representative."""
        threshold = self.config.compatibility_threshold
        return any(tree_distance(genome, entry) < threshold for entry in self.archive)

    # -- checkpoint form ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "next_id": self._next_id,
            "species": [{**vars(sp), "representative": serialize(sp.representative)}
                        for sp in self.species],
            "archive": [serialize(t) for t in self.archive],
        }

    @classmethod
    def from_json(cls, data: dict, config: SpeciationConfig) -> "SpeciationState":
        """Inverse of ``to_json``.  A species entry must be an object with
        exactly the :class:`Species` fields; any other key is a ``TypeError``."""
        names = {f.name for f in fields(Species)}
        state = cls(config)
        state._next_id = data["next_id"]
        for item in data["species"]:
            if not isinstance(item, dict):
                raise ValueError(f"species entry {item!r} is not a JSON object")
            if item.keys() != names:
                raise TypeError(f"species entry keys {sorted(item)} are not {sorted(names)}")
            state.species.append(
                Species(**{**item, "representative": parse(item["representative"])}))
        state.archive = [parse(t) for t in data["archive"]]
        return state


def speciate(population: dict[str, NodeTree], state: SpeciationState,
             generation: int = 0) -> dict[str, int]:
    """Assign a whole generation; returns genome key -> species id."""
    state.begin_generation()
    assignment = {}
    for key, genome in population.items():
        assignment[key] = state.assign(key, genome, generation)
    return assignment
