import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, outputs", [
    ("make_data.py", ["--corpus-chars", "2000", "--roll-steps", "64"],
     ["data/corpus.txt", "data/pianoroll.txt"]),
    ("train_meta_predictor.py", ["--train-samples", "100", "--test-samples", "20",
                                 "--epochs", "1", "--dump-csv", "curves.csv"],
     ["runs/meta_model.npz", "curves.csv"]),
    ("run_desk_evolution.py", ["--config", str(ROOT / "configs" / "smoke.ini")],
     ["runs/desk/best.genome", "runs/desk/stats.csv", "runs/desk/checkpoint.json",
      "runs/desk/lineage.log"]),
], ids=["make_data", "train_meta_predictor", "run_desk_evolution"])
def test_readme_script_runs_and_writes_its_outputs(tmp_path, script, args, outputs):
    """Each script the README tells users to run ends with exit 0 and
    writes its files, run as a user runs it: a fresh process in its own
    directory, with the default output paths."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    empty = [f for f in outputs
             if not (tmp_path / f).is_file() or (tmp_path / f).stat().st_size == 0]
    assert empty == []
