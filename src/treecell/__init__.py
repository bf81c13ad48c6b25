"""Evolving gated recurrent cells encoded as trees.

Genomes are trees over add/mul/tanh/sigmoid/relu with eight base inputs
and two native memory cells; genetic programming with speciation and a
stagnation archive searches the node space, compiled cells train as
recurrent networks, and a learning-curve predictor stands in for full
training during evolution.
"""

from .tree import (
    NodeTree,
    TreeNode,
    StructureError,
    Violation,
    build_tree,
    canonical_text,
    canonicalize,
    height,
    seed_tree,
    size,
    validate,
)
from .grammar import ParseError, parse, serialize
from .genetic import (
    SharedRegion,
    crossover_homologous,
    mutate_insert,
    mutate_replace,
    mutate_shrink,
    random_genome,
    shared_region,
    tree_distance,
)
from .compiler import (
    CellState,
    CompileError,
    CompiledCell,
    cell_backward,
    cell_forward,
    compile_tree,
    lstm_reference_tree,
    zero_state,
)
from .speciation import (
    SpeciationConfig,
    SpeciationState,
    Species,
)

__all__ = [name for name in dir() if not name.startswith("_")]
