"""The benchmark's probes find every function they time.

``perfbench/tracing.py`` replaces package functions by name.  A rename or
deletion of a probed name would crash every benchmark run; installing the
tracer here fails in seconds instead.  The tracer's targets include all of
the always-installed counters' targets.
"""

import importlib
from pathlib import Path

import treecell.cli  # noqa: F401  -- loads every module the probes patch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
