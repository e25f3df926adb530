"""Smoke runs of the example scripts, which import the public API."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from hbnoma.montecarlo import PRESETS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_figures_writes_every_preset(tmp_path, capsys):
    make_figures = _load("make_figures")
    assert make_figures.run(["--trials", "2", "--out-dir", str(tmp_path)]) == 0
    for name in PRESETS:
        assert (tmp_path / f"{name}.csv").stat().st_size > 0
        assert (tmp_path / f"{name}.csv.manifest.json").is_file()
    lines = capsys.readouterr().out.splitlines()
    done = [line for line in lines if ": wrote " in line]  # the CLI's own lines say "wrote X"
    line = re.compile(r"(\w+): wrote \S+ in \d+\.\ds, \d+ minor page faults")
    assert [m and m[1] for m in map(line.fullmatch, done)] == list(PRESETS)


def test_bound_tightness_prints_every_user(capsys):
    assert _load("bound_tightness").run(["--trials", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["snr_db", "user", "exact", "lb1", "lb2", "gap", "gap_ub"]
    assert len(lines) == 1 + 4 * 3  # four SNRs, three users


def test_ab_time_compares_a_tree_with_itself():
    src = str(SCRIPTS.parent / "src")
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_time.py"), src, src, "1"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    header, *rows = run.stdout.splitlines()
    assert header.split()[:4] == ["workload", "old_ms", "new_ms", "old/new"]
    assert [row.split()[0] for row in rows] == ["size_sweep", "snr_sweep", "single_draw"]
    for row in rows:
        assert all(float(x) > 0.0 for x in row.split()[1:])
