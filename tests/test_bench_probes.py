"""The benchmark's probes find every function they time, and see an evolve run.

``perfbench/tracing.py`` replaces package functions by name.  A rename or
deletion of a probed name would crash every benchmark run; installing the
tracer here fails in seconds instead.  The tracer's targets include all of
the always-installed counters' targets.  A probe can also install and
still miss the run, or crash it, when a call changes shape (the record-cache
counter reads ``evaluate_generation``'s ``keys`` keyword), so a tiny
``evolve`` and a tiny predictor fit run under both probes as well.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import treecell.cli  # noqa: F401  -- loads every module the probes patch
from treecell.config import load_config, save_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Counters has no uninstall, so the probed run gets its own interpreter.
PROBED_EVOLVE = """
import json, sys
import treecell.cli
from tracing import Counters, Tracer
counters, tracer = Counters(), Tracer()
counters.install()
tracer.install()
code = treecell.cli.main(["evolve", "--config", sys.argv[1], "--out", sys.argv[2]])
tracer.uninstall()
print(json.dumps({"code": code, "counts": counters.snapshot(),
                  "calls": tracer.summary(0).calls}))
"""

# the step counter patches meta._adam_step, one call per predictor minibatch
PROBED_FIT = """
import json
import treecell.cli  # loads every module the probes patch
from treecell import meta
from tracing import Counters, Tracer
counters, tracer = Counters(), Tracer()
counters.install()
tracer.install()
samples, _ = meta.synthetic_curves(120, seed=3)
meta.train_meta(samples, meta.MetaConfig(width=8, epochs=3, batch_size=40, patience=3))
tracer.uninstall()
print(json.dumps({"counts": counters.snapshot(), "calls": tracer.summary(0).calls}))
"""


def run_probed(script, *args):
    """The last stdout line of ``script``, run with ``src`` and ``perfbench``
    on the path, as JSON."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(PERFBENCH),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def resolve(target):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth]
    return getattr(owner, attr)


def test_tracer_installs_on_every_span_target_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = [t for ts in tracing.SPANS.values() for t in ts]
    before = {t: resolve(t) for t in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert [t for t in targets if resolve(t) is before[t]] == []
    finally:
        tracer.uninstall()
    assert [t for t in targets if resolve(t) is not before[t]] == []


def test_probes_see_a_smoke_evolve(tmp_path):
    config = load_config(ROOT / "configs" / "smoke.ini")
    config.evolution.population_size = 4
    config.evolution.generations = 1
    save_config(config, tmp_path / "evolve.ini")
    seen = run_probed(PROBED_EVOLVE, str(tmp_path / "evolve.ini"), str(tmp_path / "run"))
    assert seen["code"] == 0
    counters = ("keys_requested", "trained", "steps")
    assert [name for name in counters if seen["counts"][name] == 0] == []
    spans = ("evolution.run", "evolution.evaluate_generation", "evolution.reproduce",
             "cli.on_generation", "speciation.speciate", "fitness.train_genome")
    assert [name for name in spans if seen["calls"].get(name, 0) == 0] == []


def test_probes_count_every_step_of_a_predictor_fit():
    """train-panel's ``steps_per_s`` counts one step per member minibatch."""
    seen = run_probed(PROBED_FIT)
    # 120 curves, 24 held out: 96 in minibatches of 40, for 3 epochs (patience
    # 3 cannot stop the fit early), for each of the two members
    assert seen["counts"]["steps"] == 2 * 3 * 3
    assert seen["counts"]["trained"] == 0
    assert {name: seen["calls"].get(name, 0) for name in (
        "meta.train_member", "meta.seq2seq_backward", "meta.optimizer")} == {
        "meta.train_member": 2, "meta.seq2seq_backward": 18, "meta.optimizer": 18}
