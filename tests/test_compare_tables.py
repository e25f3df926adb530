import importlib.util
import json
from pathlib import Path

import pytest

from hbnoma.cli import main as cli_main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_tables.py"
_spec = importlib.util.spec_from_file_location("compare_tables", SCRIPT)
compare_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_tables)

CONFIG = {
    "scenario_id": "cmp",
    "scenario": {
        "clusters": [
            {"aod_deg": 10.0, "gains_db": [0.0, -2.0]},
            {"aod_deg": 45.0, "gains_db": [0.0, -1.0]},
        ],
        "snr_db": 10.0,
    },
    "sweep": {"name": "snr_db", "values": [10.0, 20.0]},
    "misalign_grid": [0.0, 3.0],
    "trials": 200,
}


def _table(tmp_path, name, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / name
    assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
    return out


def _edit(path, out, key, column, value):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col, se = header.index(column), header.index("stderr")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[0] == key[0] and cells[2] == key[1] and cells[4] == key[2]:
            cells[col] = value(cells[col], cells[se])
            lines[i] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    return out


def test_independent_seeds_pass(tmp_path, capsys):
    old = _table(tmp_path, "old.csv", 1)
    new = _table(tmp_path, "new.csv", 2)
    assert compare_tables.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "cmp:b0" in out and "cmp:b3" in out


def test_rng_free_mismatch_or_large_z_fails(tmp_path, capsys):
    old = _table(tmp_path, "old.csv", 1)
    nudged = _edit(
        old, tmp_path / "nudged.csv", ("cmp:b0", "10.0", "2"), "rate_lb_thm2",
        lambda v, se: repr(float(v) * (1.0 + 1e-9)),
    )
    assert compare_tables.main([str(old), str(nudged)]) == 1
    assert "RNG-free row differs in rate_lb_thm2" in capsys.readouterr().err

    shifted = _edit(
        old, tmp_path / "shifted.csv", ("cmp:b3", "20.0", "1"), "rate_exact",
        lambda v, se: repr(float(v) + 6.0 * float(se)),
    )
    assert compare_tables.main([str(old), str(shifted)]) == 1
    assert "z = 4.24" in capsys.readouterr().err  # 6 se over sqrt(2) se


def test_prints_the_largest_relative_change_of_each_column(tmp_path, capsys):
    old = _table(tmp_path, "old.csv", 1)
    assert compare_tables.main([str(old), str(old)]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("largest relative change over the random rows")
    header = lines[at + 1].split()
    assert header[1:] == ["rate_exact", "rate_lb_thm1", "rate_lb_thm2", "rate_gap",
                          "gap_ub_thm3", "rho_mean", "stderr", "trials"]
    assert [line.split()[0] for line in lines[at + 2:]] == ["cmp:b3"]  # b0 is RNG-free
    assert set(lines[at + 2].split()[1:]) == {"0.0e+00"}

    # a last-bit move in a bound column is reported, not failed
    nudged = _edit(
        old, tmp_path / "nudged.csv", ("cmp:b3", "10.0", "2"), "rate_lb_thm2",
        lambda v, se: repr(float(v) * (1.0 + 3e-15)),
    )
    assert compare_tables.main([str(old), str(nudged)]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = dict(zip(header, lines[-1].split()))
    assert float(row["rate_lb_thm2"]) == pytest.approx(3e-15, rel=0.1)
    assert float(row["rate_lb_thm1"]) == 0.0


def test_random_cells_must_stay_empty_or_filled(tmp_path, capsys):
    old = _table(tmp_path, "old.csv", 1)
    emptied = _edit(
        old, tmp_path / "emptied.csv", ("cmp:b3", "20.0", "2"), "gap_ub_thm3", lambda v, se: ""
    )
    assert compare_tables.main([str(old), str(emptied)]) == 1
    assert "cmp:b3|snr_db|20.0|1|2: gap_ub_thm3 is empty in one table only" in capsys.readouterr().err
    assert compare_tables.main([str(emptied), str(old)]) == 1
