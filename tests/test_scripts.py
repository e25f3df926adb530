"""Smoke runs of the example scripts, which import the public API."""

import importlib.util
import re
import shutil
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
    for args, names in (
        (["1"], ["size_sweep", "snr_sweep", "single_draw"]),
        (["3", "snr_sweep"], ["snr_sweep"]),
    ):
        run = subprocess.run(
            [sys.executable, str(SCRIPTS / "ab_time.py"), src, src, *args],
            capture_output=True, text=True, check=True, timeout=60,
        )
        header, *rows = run.stdout.splitlines()
        assert header.split()[:6] == ["workload", "old_ms", "new_ms", "old/new", "q1", "q3"]
        assert [row.split()[0] for row in rows] == names
        for row in rows:
            ms_old, ms_new, ratio, q1, q3 = map(float, row.split()[1:])
            assert min(ms_old, ms_new) > 0.0 and 0.0 < q1 <= ratio <= q3
    unknown = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_time.py"), src, src, "1", "fig5"],
        capture_output=True, text=True, timeout=60,
    )
    assert unknown.returncode == 2 and "workloads: size_sweep snr_sweep single_draw" in unknown.stderr


def test_config_diff_finds_a_tree_agrees_with_itself(tmp_path):
    src = str(SCRIPTS.parent / "src")
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "config_diff.py"), src, src, "300"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    counts = dict(line.rsplit(": ", 1) for line in run.stdout.splitlines())
    accepted = int(counts["accepted on both sides with equal specs"])
    rejected = int(counts["rejected on both sides naming the same field"])
    assert counts["configs"] == "300" and counts["disagreements"] == "0"
    assert accepted + rejected == 300 and min(accepted, rejected) > 30
    # a tree whose trials rule differs disagrees on every config the other accepts
    shutil.copytree(Path(src) / "hbnoma", tmp_path / "hbnoma")
    montecarlo = tmp_path / "hbnoma" / "montecarlo.py"
    text = montecarlo.read_text()
    assert text.count("if self.trials < 1:") == 1
    montecarlo.write_text(text.replace("if self.trials < 1:", "if self.trials < 5:"))
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "config_diff.py"), src, str(tmp_path), "300"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 1
    assert int(run.stdout.split("disagreements: ")[1].split()[0]) >= accepted
    assert "new: rejected trials must be >= 1, got 4" in run.stdout  # the message kept its text
    # against a tree without hb_gap, the bases leave it out and its default differs in nothing
    old = tmp_path / "old"
    shutil.copytree(Path(src) / "hbnoma", old / "hbnoma")
    montecarlo = old / "hbnoma" / "montecarlo.py"
    text = montecarlo.read_text()
    assert text.count("    hb_gap: bool = True") == 1
    montecarlo.write_text(text.replace("    hb_gap: bool = True", "", 1))
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "config_diff.py"), str(old), src, "300"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert "disagreements: 0" in run.stdout
    assert int(run.stdout.split("equal specs: ")[1].split()[0]) > 30
