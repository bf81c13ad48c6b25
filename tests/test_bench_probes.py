"""The benchmark's probes find every function they time, and see an evolve run.

``perfbench/tracing.py`` replaces package functions by name.  A rename or
deletion of a probed name would crash every benchmark run; installing the
tracer here fails in seconds instead.  The tracer's targets include all of
the always-installed counters' targets.  A probe can also install and
still miss the run, or crash it, when a call changes shape (the record-cache
counter reads ``evaluate_generation``'s ``keys`` keyword), so a tiny
``evolve`` runs under both probes as well.
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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(PERFBENCH),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBED_EVOLVE, str(tmp_path / "evolve.ini"),
                           str(tmp_path / "run")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["code"] == 0
    counters = ("keys_requested", "trained", "steps")
    assert [name for name in counters if seen["counts"][name] == 0] == []
    spans = ("evolution.run", "evolution.evaluate_generation", "evolution.reproduce",
             "cli.on_generation", "speciation.speciate", "fitness.train_genome")
    assert [name for name in spans if seen["calls"].get(name, 0) == 0] == []
