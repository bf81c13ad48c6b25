"""Reduce the units of one run to checks and metrics.

A unit is the dict a worker writes: wall time, its segments, exact counts,
output digest, errors and, when traced, a :class:`tracing.TraceSummary`.
"""

from __future__ import annotations

import statistics

import speed
from tracing import EXPECTED, SPANS, TraceSummary

MODULES = sorted({name.split(".")[0] for name in SPANS})


def check_consistency(units, workload_name) -> None:
    """Determinism across repeats, probe agreement and the span self-test.

    Each finding is added to the errors of the unit it concerns.
    """
    first = units[0]
    for i, unit in enumerate(units[1:], start=1):
        if unit["digest"] != first["digest"]:
            unit["errors"].append(f"determinism: unit {i} output digest differs from unit 0")
        if unit["counts"] != first["counts"]:
            unit["errors"].append(f"determinism: unit {i} counts {unit['counts']} "
                                  f"!= unit 0 {first['counts']}")
    traced = [u for u in units if u["traced"]]
    for unit in traced:
        summary = unit["trace"]
        if summary["calls"] != traced[0]["trace"]["calls"]:
            unit["errors"].append("determinism: traced units recorded different calls")
        missing = [n for n in EXPECTED[workload_name] if not summary["calls"].get(n)]
        if missing:
            unit["errors"].append(f"self-test: no calls recorded for {', '.join(missing)}")
        counts = unit["counts"]
        if summary["cap_hits"] != counts.get("cap_hits"):
            unit["errors"].append(f"trace counts {summary['cap_hits']} archive cap hits, "
                                  f"the log {counts.get('cap_hits')}")
        remutations = summary["retries"] - summary["cap_hits"]
        if "remutations" in counts and remutations != counts["remutations"]:
            unit["errors"].append(f"trace counts {remutations} re-mutations, "
                                  f"the lineage {counts['remutations']}")


def end_to_end(units, setups):
    """The end-to-end metrics, and the speed-corrected samples behind them.

    ``units`` ran with the speed probe; ``setups`` holds (set-up seconds,
    probe seconds just after) pairs.  Every time is corrected to the host's
    full speed (speed.py), and each metric is the median over its samples.
    """
    probes = [speed.smoothed(u["probes"]) for u in units]
    full_speed = speed.floor(probes)
    walls = [speed.corrected(u["segments"], p, full_speed) for u, p in zip(units, probes)]
    setup_times = [s / speed.slow_down(p, full_speed) for s, p in setups]
    wall = statistics.median(walls)
    counts = units[0]["counts"]
    metrics = {
        "wall_s": wall,
        "genomes_per_s": counts["genomes"] / wall,
        "steps_per_s": counts["steps"] / wall,
        "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
        "setup_s": statistics.median(setup_times),
    }
    return metrics, {"full_speed_probe_s": full_speed, "corrected_walls_s": walls,
                     "corrected_setups_s": setup_times}


def per_layer(units) -> dict:
    """Per-call self times and per-unit counts, pooled over traced units."""
    traced = [u for u in units if u["traced"]]
    untraced = [u for u in units if not u["traced"]]
    summaries = [TraceSummary(**u["trace"]) for u in traced]
    n = len(summaries)
    calls, self_s, incl, noop, genome_s = {}, {}, {}, {}, []
    offspring = retries = cap_hits = 0
    for s in summaries:
        for name, c in s.calls.items():
            calls[name] = calls.get(name, 0) + c
            self_s[name] = self_s.get(name, 0.0) + s.self_s[name]
            incl[name] = incl.get(name, 0.0) + s.inclusive_s[name]
        for name, c in s.noop.items():
            noop[name] = noop.get(name, 0) + c
        genome_s += s.genome_s
        offspring += s.offspring
        retries += s.retries
        cap_hits += s.cap_hits

    def self_us(name):
        return self_s[name] / calls[name] * 1e6 if calls.get(name) else 0.0

    def mean_s(name):
        return incl[name] / calls[name] if calls.get(name) else 0.0

    def per_unit(name):
        return calls.get(name, 0) / n

    def genome_quantile(q):
        values = sorted(genome_s)
        return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0

    counts = traced[0]["counts"]
    operators = calls.get("genetic.mutate_pipeline", 0) + \
        calls.get("genetic.crossover_homologous", 0)
    traced_wall = min(u["wall_s"] for u in traced)
    untraced_wall = min(u["wall_s"] for u in untraced)
    m = {}
    for name in ("compiler.cell_forward", "compiler.cell_backward", "compiler.compile_tree",
                 "training.loss", "training.clip", "training.optimizer",
                 "meta.optimizer", "genetic.tree_distance", "genetic.mutate_pipeline",
                 "genetic.crossover_homologous", "tree.canonical_text",
                 "grammar.parse", "grammar.serialize"):
        m[f"{name}.us"] = self_us(name)
    for name in ("network.forward_chunk", "network.backward_chunk",
                 "meta.seq2seq_forward", "meta.seq2seq_backward"):
        m[f"{name}.self_us"] = self_us(name)
    for name in ("compiler.cell_forward", "compiler.cell_backward", "compiler.compile_tree",
                 "network.forward_chunk", "genetic.tree_distance",
                 "genetic.mutate_pipeline", "genetic.crossover_homologous",
                 "speciation.violates_archive", "tree.canonical_text",
                 "grammar.parse", "grammar.serialize"):
        m[f"{name}.calls"] = per_unit(name)
    for name in ("training.eval", "speciation.speciate", "evolution.evaluate_generation",
                 "evolution.reproduce"):
        m[f"{name}.s"] = mean_s(name)
    m["cli.on_generation.us"] = mean_s("cli.on_generation") * 1e6
    m["fitness.train_genome.s_p50"] = genome_quantile(0.5)
    m["fitness.train_genome.s_p90"] = genome_quantile(0.9)
    m["genetic.noop_ratio"] = sum(noop.values()) / operators if operators else 0.0
    m["evolution.archive_retries_per_offspring"] = retries / offspring if offspring else 0.0
    m["evolution.archive_cap_hits"] = cap_hits / n
    m["evolution.remutations"] = (retries - cap_hits) / n
    m["evolution.cache_hits"] = counts["cache_hits"]
    m["evolution.cache_hit_ratio"] = (counts["cache_hits"] / counts["keys_requested"]
                                      if counts["keys_requested"] else 0.0)
    m["training.diverged"] = counts["diverged"]
    m["count.genomes"] = counts["genomes"]
    m["count.steps"] = counts["steps"]
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    module_self = {mod: 0.0 for mod in MODULES}
    for name, seconds in self_s.items():
        module_self[name.split(".")[0]] += seconds
    for mod, seconds in module_self.items():
        m[f"split.{mod}.self_s"] = seconds / n
    m["split.unspanned.self_s"] = traced_wall - sum(s.top_level_s for s in summaries) / n
    return m

