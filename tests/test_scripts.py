"""Smoke runs of the example scripts, which import the public API."""

import importlib.util
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
    done = [line.split(":")[0] for line in lines if ": wrote " in line]
    assert done == list(PRESETS)


def test_bound_tightness_prints_every_user(capsys):
    assert _load("bound_tightness").run(["--trials", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["snr_db", "user", "exact", "lb1", "lb2", "gap", "gap_ub"]
    assert len(lines) == 1 + 4 * 3  # four SNRs, three users
