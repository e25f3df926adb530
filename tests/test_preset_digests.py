import importlib.util
from pathlib import Path

from hbnoma.montecarlo import PRESETS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "preset_digests.py"
_spec = importlib.util.spec_from_file_location("preset_digests", SCRIPT)
preset_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_digests)


def test_digests_of_every_preset(capsys):
    assert preset_digests.main(["--trials", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines]
    tables = list(PRESETS) + ["fig5-table"]
    assert names == [f"{t}.{kind}" for t in tables for kind in ("csv", "cells")]
    digests = dict(line.split() for line in lines)
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
    # the same run writes fig5's sum-rate CSV and its per-user table
    assert digests["fig5.cells"] == digests["fig5-table.cells"]
    assert digests["fig5.csv"] != digests["fig5-table.csv"]
    assert preset_digests.main(["--trials", "2", "--seed", "1", "--workers", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == lines
