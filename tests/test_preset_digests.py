import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hbnoma.montecarlo import PRESETS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "preset_digests.py"
_spec = importlib.util.spec_from_file_location("preset_digests", SCRIPT)
preset_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_digests)

RECORDED = Path(__file__).resolve().parent / "data" / "preset_digests.txt"


def recorded_runs() -> dict[str, list[str]]:
    """Each recorded run's header line ('# numpy VERSION --trials T --seed S') -> its digest lines."""
    runs = {}
    for line in RECORDED.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            runs[line] = lines = []
        else:
            lines.append(line)
    return runs


def test_digests_of_every_preset():
    runs = recorded_runs()
    assert [header.split()[3:] for header in runs] == [
        ["--trials", "2", "--seed", "1"],
        ["--trials", "200", "--seed", "5"],
    ]
    tables = list(PRESETS) + ["fig5-table", "fig4c-model", "fig5-model"]
    for lines in runs.values():
        names = [line.split()[0] for line in lines]
        assert names == [f"{t}.{kind}" for t in tables for kind in ("csv", "cells")]
        digests = dict(line.split() for line in lines)
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
        # the same run writes fig5's sum-rate CSV and its per-user table
        assert digests["fig5.cells"] == digests["fig5-table.cells"]
        assert digests["fig5.csv"] != digests["fig5-table.csv"]
        # modeled channels change the rates
        assert digests["fig4c-model.csv"] != digests["fig4c.csv"]
        assert digests["fig5-model.csv"] != digests["fig5-table.csv"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_digests_equal_the_recorded_ones(capsys, workers):
    for header, lines in recorded_runs().items():
        _, _, version, *args = header.split()
        if version != np.__version__:
            pytest.fail(
                f"{RECORDED.name} was recorded with numpy {version}, this is numpy "
                f"{np.__version__}; re-record it as the docstring of {SCRIPT.name} shows "
                "and check the new tables with scripts/compare_tables.py"
            )
        assert preset_digests.main([*args, "--workers", workers]) == 0
        assert capsys.readouterr().out.splitlines() == [header, *lines]
