"""Probes installed from outside the package: counters and span tracing.

A probe replaces a function at every place the package looks it up: each
``treecell.*`` module global bound to the function, or the class attribute
for a method.  Nothing under ``src/`` knows about it, and removing the probe
restores the original objects.

Two layers use this:

* :class:`Counters` -- always installed.  Exact counts of coarse events
  (genomes trained, parameter updates, divergences, record-cache traffic),
  one increment per call of functions that each take milliseconds.  Each
  parameter update also marks the time, which splits a unit into segments,
  and, when probing, times the host speed probe first (see ``speed.py``).
* :class:`Tracer` -- installed only for traced units.  Records one span
  (name, start, end, parent) per call of each function in :data:`SPANS`,
  kept in memory and reduced when the unit ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

from speed import probe

# span name -> functions it times, as "module:attribute" or "module:Class.method"
SPANS = {
    "compiler.cell_forward": ["treecell.compiler:cell_forward"],
    "compiler.cell_backward": ["treecell.compiler:cell_backward"],
    "compiler.compile_tree": ["treecell.compiler:compile_tree"],
    "network.forward_chunk": ["treecell.network:Network.forward_chunk"],
    "network.backward_chunk": ["treecell.network:Network.backward_chunk"],
    "training.train": ["treecell.training:train"],
    "training.loss": ["treecell.training:softmax_ce", "treecell.training:sigmoid_bce"],
    "training.clip": ["treecell.training:clip_gradients"],
    "training.optimizer": ["treecell.training:Adam.step", "treecell.training:SGD.step"],
    "training.eval": ["treecell.training:eval_perplexity", "treecell.training:eval_f1"],
    "fitness.train_genome": ["treecell.fitness:EvalContext.train_genome"],
    "meta.train_member": ["treecell.meta:_train_member"],
    "meta.seq2seq_forward": ["treecell.meta:_Seq2Seq.forward"],
    "meta.seq2seq_backward": ["treecell.meta:_Seq2Seq.backward"],
    "meta.optimizer": ["treecell.meta:_adam_step"],
    "genetic.tree_distance": ["treecell.genetic:tree_distance"],
    "genetic.mutate_pipeline": ["treecell.genetic:mutate_pipeline"],
    "genetic.crossover_homologous": ["treecell.genetic:crossover_homologous"],
    "speciation.speciate": ["treecell.speciation:speciate"],
    "speciation.violates_archive": ["treecell.speciation:SpeciationState.violates_archive"],
    "tree.canonical_text": ["treecell.tree:canonical_text"],
    "grammar.parse": ["treecell.grammar:parse"],
    "grammar.serialize": ["treecell.grammar:serialize"],
    "evolution.run": ["treecell.evolution:run"],
    "evolution.evaluate_generation": ["treecell.evolution:evaluate_generation"],
    "evolution.reproduce": ["treecell.evolution:reproduce"],
    # the evolve command's per-generation callback (stats, checkpoint and
    # lineage writes); wrapped where evolution.run receives it
    "cli.on_generation": [],
}

_TRAINING = ["compiler.cell_forward", "compiler.cell_backward", "compiler.compile_tree",
             "network.forward_chunk", "network.backward_chunk", "training.train",
             "training.loss", "training.clip", "training.optimizer", "training.eval"]
_SEARCH = ["genetic.tree_distance", "genetic.mutate_pipeline",
           "genetic.crossover_homologous", "speciation.speciate",
           "speciation.violates_archive", "tree.canonical_text", "grammar.parse",
           "grammar.serialize", "evolution.run", "evolution.evaluate_generation",
           "evolution.reproduce"]

# spans that must record at least one call on each workload's traced unit
EXPECTED = {
    "evolve-desk": _TRAINING + _SEARCH + ["fitness.train_genome", "cli.on_generation"],
    "train-panel": _TRAINING + ["fitness.train_genome", "grammar.parse", "grammar.serialize",
                                "meta.train_member", "meta.seq2seq_forward",
                                "meta.seq2seq_backward", "meta.optimizer"],
}


def _resolve(target):
    module_name, _, attr = target.partition(":")
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def patch_everywhere(target, make):
    """Replace ``target`` wherever the package looks it up; returns an undo list.

    ``make(original)`` builds the replacement.  A method is replaced on its
    class; a function in every loaded ``treecell`` module whose global names
    the same object, so call sites in other modules see the probe too.
    """
    owner, attr = _resolve(target)
    if isinstance(owner, type):
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        return [(owner, attr, original)]
    original = getattr(owner, attr)
    replacement = make(original)
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "treecell" or name.startswith("treecell.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


def unpatch(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


@dataclass
class Counters:
    """Exact per-unit counts from a few cheap call counters."""

    trained: int = 0           # training.train calls: genomes/networks trained
    diverged: int = 0          # of those, runs that raised TrainingDiverged
    steps: int = 0             # parameter updates (network and predictor)
    keys_requested: int = 0    # genome keys passed to evaluate_generation
    keys_trained: int = 0      # keys not yet in the record cache
    cap_hits: int = 0          # offspring accepted inside an archived region
    probing: bool = False      # time the speed probe before each update
    marks: list = field(default_factory=list)    # (start, end) of each update's probe
    probes: list = field(default_factory=list)   # probe seconds at each update

    def reset(self):
        self.trained = self.diverged = self.steps = 0
        self.keys_requested = self.keys_trained = self.cap_hits = 0
        self.marks = []
        self.probes = []

    def install(self):
        import logging

        from treecell.training import TrainingDiverged

        counters = self

        def count_train(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters.trained += 1
                try:
                    return fn(*args, **kwargs)
                except TrainingDiverged:
                    counters.diverged += 1
                    raise
            return wrapper

        def count_step(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters.steps += 1
                started = time.perf_counter()
                if counters.probing:
                    counters.probes.append(probe())
                counters.marks.append((started, time.perf_counter()))
                return fn(*args, **kwargs)
            return wrapper

        def count_cache(fn):
            @functools.wraps(fn)
            def wrapper(population, evaluator, records, *args, **kwargs):
                keys = kwargs["keys"]   # evolution.run always passes them
                counters.keys_requested += len(keys)
                counters.keys_trained += len({k for k in keys if k not in records})
                return fn(population, evaluator, records, *args, **kwargs)
            return wrapper

        class CapHits(logging.Handler):
            def emit(self, record):
                if "archived region" in record.getMessage():
                    counters.cap_hits += 1

        for target, make in (("treecell.training:train", count_train),
                             ("treecell.training:Adam.step", count_step),
                             ("treecell.training:SGD.step", count_step),
                             ("treecell.meta:_adam_step", count_step),
                             ("treecell.evolution:evaluate_generation", count_cache)):
            patch_everywhere(target, make)
        logging.getLogger("treecell.evolution").addHandler(CapHits())

    def snapshot(self) -> dict:
        return {"trained": self.trained, "diverged": self.diverged, "steps": self.steps,
                "cache_hits": self.keys_requested - self.keys_trained,
                "keys_requested": self.keys_requested, "cap_hits": self.cap_hits}


class Tracer:
    """In-memory spans around every function in :data:`SPANS`."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.noop = {"genetic.mutate_pipeline": 0, "genetic.crossover_homologous": 0}
        self.archive_hits = []           # violates_archive results, in call order
        self._stack: list[int] = []
        self._undo: list = []

    def _span(self, name, fn, inspect=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if inspect is not None:
                inspect(args, result)
            return result
        return wrapper

    def install(self):
        def noop(name, unchanged):
            def inspect(args, result):
                if unchanged(args, result):
                    self.noop[name] += 1
            return inspect

        inspectors = {
            "genetic.mutate_pipeline": noop("genetic.mutate_pipeline",
                                            lambda a, r: r is a[0]),
            "genetic.crossover_homologous": noop("genetic.crossover_homologous",
                                                 lambda a, r: r[0] is a[0]),
            "speciation.violates_archive": lambda a, r: self.archive_hits.append(bool(r)),
        }
        for name, targets in SPANS.items():
            for target in targets:
                if name == "evolution.run":
                    make = self._run_with_callback_span
                else:
                    make = functools.partial(self._span, name,
                                             inspect=inspectors.get(name))
                self._undo += patch_everywhere(target, make)

    def _run_with_callback_span(self, fn):
        inner = self._span("evolution.run", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs.get("on_generation") is not None:
                kwargs["on_generation"] = self._span("cli.on_generation",
                                                     kwargs["on_generation"])
            return inner(*args, **kwargs)
        return wrapper

    def uninstall(self):
        unpatch(self._undo)
        self._undo = []

    def summary(self, max_retries: int) -> "TraceSummary":
        """Reduce spans to per-name call counts, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = TraceSummary(noop=dict(self.noop))
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            out.calls[name] = out.calls.get(name, 0) + 1
            out.inclusive_s[name] = out.inclusive_s.get(name, 0.0) + dur
            if name == "fitness.train_genome":
                out.genome_s.append(dur)
            out.self_s[name] = out.self_s.get(name, 0.0) + dur - child[i]
            if parent < 0:
                out.top_level_s += dur
        # violates_archive is asked once per mutation of each offspring; an
        # offspring ends at its first False, or after max_retries + 1 Trues
        run = 0
        for hit in self.archive_hits:
            if not hit:
                out.offspring += 1
                run = 0
                continue
            out.retries += 1
            run += 1
            if run > max_retries:
                out.cap_hits += 1
                out.offspring += 1
                run = 0
        return out


@dataclass
class TraceSummary:
    calls: dict = field(default_factory=dict)
    inclusive_s: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    genome_s: list = field(default_factory=list)   # each train_genome call
    noop: dict = field(default_factory=dict)
    top_level_s: float = 0.0
    offspring: int = 0
    retries: int = 0
    cap_hits: int = 0
