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
if fast and seed >= 20:  # worse by 1/6 (bound 10%) and by 10% (bound 25%)
    metrics.update(peak_rss_mb=70.0, setup_s=0.22)
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


def test_a_metric_worse_than_its_bound_is_reported(checkouts, capsys):
    bench_pairs = _load_script()
    argv = [str(checkouts / "parent"), str(checkouts / "change"), "--workload", "w",
            "--seeds", "20-22", "--seconds", "1"]
    assert bench_pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "3 of 3 pairs with equal digests and counts" in out
    rows = {line.split()[0]: line for line in out.splitlines()[2:]}
    assert rows["peak_rss_mb"].split()[-4:] == ["10%", "OVER", "0/3", "no"]
    assert rows["setup_s"].split()[-4:] == ["25%", "ok", "0/3", "no"]
    assert rows["wall_s"].split()[-4:] == ["25%", "ok", "3/3", "yes"]
    assert ("problem: peak_rss_mb: change median +16.67% is worse than the parent's "
            "by more than its 10% bound") in out
    assert "problem: setup_s" not in out


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


def _verdict(parent, change, better="lower", bound=0.25):
    pairs = [{"parent": {"m": a}, "change": {"m": b}} for a, b in zip(parent, change)]
    (row,) = _load_script().summarize(pairs, {"m": better}, {"m": bound})
    return row["verdict"]


PARENT = list(range(100, 110))   # median 104.5, IQR 102.25-106.75


@pytest.mark.parametrize("change, better, verdict", [
    ([p - 6 for p in PARENT], "lower", "gain"),
    ([p + 6 for p in PARENT], "higher", "gain"),
    # better in 9 of 10 pairs, and beyond the parent's IQR
    ([PARENT[0] + 1] + [p - 6 for p in PARENT[1:]], "lower", "gain"),
    # better in 8 of 10 pairs, although beyond the parent's IQR
    ([p + 1 for p in PARENT[:2]] + [p - 6 for p in PARENT[2:]], "lower", "flat"),
    # better in every pair, but by less than the parent's IQR
    ([p - 1 for p in PARENT], "lower", "flat"),
    ([p + 1 for p in PARENT], "lower", "flat"),
    # worse by more than 25% of the parent's median
    ([p * 1.3 for p in PARENT], "lower", "over bound"),
    ([p * 0.7 for p in PARENT], "higher", "over bound"),
])
def test_verdicts(change, better, verdict):
    assert _verdict(PARENT, change, better) == verdict


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60, 70, 80, 90, 100, 110, 120, 130, 140, 150]   # IQR 82.5-127.5
    assert _verdict(PARENT, [p - 6 for p in PARENT], bound=0.02) == "unresolved"
    assert _verdict(wide, [w - 20 for w in wide]) == "unresolved"
    assert _verdict(PARENT, [w - 30 for w in wide]) == "unresolved"
    # unless every change run beats every parent run
    assert _verdict(wide, [w / 10 for w in wide]) == "gain"
    assert _verdict(wide, [w / 10 for w in wide], better="higher") == "over bound"
    # but a wide spread is no reason to pass a metric over its bound
    assert _verdict(wide, [w * 1.5 for w in wide]) == "over bound"


def test_the_table_prints_one_verdict_per_metric(checkouts, capsys):
    bench_pairs = _load_script()
    argv = [str(checkouts / "parent"), str(checkouts / "change"), "--workload", "w",
            "--seeds", "20-22", "--seconds", "1"]
    bench_pairs.main(argv)
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[2:]
            if not line.startswith("problem:")}
    assert {name: row[1] for name, row in rows.items()} == {
        "wall_s": "gain", "genomes_per_s": "gain", "steps_per_s": "gain",
        "peak_rss_mb": "over", "setup_s": "flat"}
    assert rows["peak_rss_mb"][2] == "bound"
