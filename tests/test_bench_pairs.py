"""``scripts/bench_pairs.py`` against two stub checkouts whose
``perfbench/run.py`` prints a canned result, so no workload runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# prints what perfbench/run.py prints: a detail line on stderr, the result
# JSON last on stdout; the side's name and the seed set every value
STUB_RUN = """
import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
side = Path.cwd().name
with open(Path.cwd().parent / "order.log", "a") as fh:
    fh.write(f"{seed} {side}\\n")
digest = "d%d" % seed + ("x" if side == "change" and seed == 13 else "")
units = [{"digest": digest, "counts": {"steps": 7}}] * 2
print("detail: " + json.dumps({"units": units}), file=sys.stderr)
fast = side == "change"
metrics = {"wall_s": 2.0 - fast + seed / 100, "genomes_per_s": 1.0 + fast,
           "steps_per_s": 10.0 + fast, "peak_rss_mb": 60.0 - fast, "setup_s": 0.2}
print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
"""


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
        (tmp_path / side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return tmp_path


def test_pairs_alternate_and_count_wins(checkouts, capsys):
    bench_pairs = _load_script()
    argv = [str(checkouts / "parent"), str(checkouts / "change"), "--workload", "w",
            "--seeds", "1-4", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0
    assert (checkouts / "order.log").read_text().split("\n")[:-1] == [
        "1 parent", "1 change", "2 change", "2 parent",
        "3 parent", "3 change", "4 change", "4 parent"]
    out = capsys.readouterr().out
    assert "4 of 4 pairs with equal digests and counts" in out
    rows = {line.split()[0]: line for line in out.splitlines()[2:]}
    for name in ("wall_s", "genomes_per_s", "steps_per_s", "peak_rss_mb"):
        assert rows[name].split()[-2:] == ["4/4", "yes"], name
    assert rows["setup_s"].split()[-2:] == ["0/4", "no"]


def test_a_pair_whose_digests_differ_is_reported(checkouts, capsys):
    bench_pairs = _load_script()
    argv = [str(checkouts / "parent"), str(checkouts / "change"), "--workload", "w",
            "--seeds", "12,13", "--seconds", "1"]
    assert bench_pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "1 of 2 pairs with equal digests and counts" in out
    assert "problem: seed 13: digests differ: ['d13'] != ['d13x']" in out


def test_summary_quartiles_and_wins():
    bench_pairs = _load_script()
    pairs = [{"parent": {"m": a}, "change": {"m": b}}
             for a, b in ((10, 8), (12, 9), (11, 12), (13, 7), (14, 6))]
    (row,) = bench_pairs.summarize(pairs, {"m": "lower"})
    assert (row["parent"], row["change"]) == (12, 8)
    assert row["parent_iqr"] == (11, 13)
    assert row["wins"] == 4
    assert row["beyond_iqr"]  # 12 - 8 > 13 - 11
    assert bench_pairs.parse_seeds("5-7") == [5, 6, 7]
    assert bench_pairs.parse_seeds("5,9") == [5, 9]
