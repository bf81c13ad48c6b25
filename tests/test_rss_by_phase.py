"""``scripts/rss_by_phase.py`` runs one train-panel unit phase by phase."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_rss_by_phase_prints_a_non_decreasing_peak_after_each_phase(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "rss_by_phase.py"),
                           "--seed", "5"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" ru_maxrss ")[0].strip() for line in lines] == [
        "setup", "train seed", "train lstm", "train deep", "hetero", "predictor fit"]
    peaks = [float(line.split(" ru_maxrss ")[1].split()[0]) for line in lines]
    assert all(0 < a <= b for a, b in zip(peaks, peaks[1:]))
    assert all(line.endswith("exit 0") for line in lines[1:5])
