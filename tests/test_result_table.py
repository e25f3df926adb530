"""The columnar result table: its cells, the CSV writer and the sum rates.

The oracle below is the row-by-row writer the column writer replaced:
csv.writer over one (cell, user) row at a time, each value through _fmt.
"""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from hbnoma.channel import ClusterSpec, ScenarioConfig
from hbnoma.cli import sum_rates, write_table_csv
from hbnoma.montecarlo import (
    VALUE_COLUMNS,
    Baselines,
    ExperimentSpec,
    preset,
    run_experiment,
)

HEADER = (
    "scenario_id",
    "sweep_name",
    "sweep_value",
    "cluster",
    "user",
    "rate_exact",
    "rate_lb_thm1",
    "rate_lb_thm2",
    "rate_gap",
    "gap_ub_thm3",
    "rho_mean",
    "stderr",
    "trials",
)

TWO_CLUSTERS = ScenarioConfig(
    clusters=(
        ClusterSpec(aod_deg=10.0, gains_db=(0.0, -2.0)),
        ClusterSpec(aod_deg=45.0, gains_db=(0.0, -1.0, -3.0)),
    ),
    misalign_deg=3.0,
)


def _spec(**overrides):
    base = dict(
        scenario=TWO_CLUSTERS,
        sweep_values=(10.0, 20.0),
        trials=40,
        seed=3,
        scenario_id="unit",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


SPECS = {
    # b0 and b3 cells beside the fd and oma references
    "grid": _spec(misalign_grid=(0.0, 3.0), baselines=Baselines(fd=True, oma=True)),
    # one misalignment, so the system is "hb"; every analysis column stays empty
    "no_bounds": _spec(baselines=Baselines(hb_lb=False, fd=True)),
    # integer sweep values, and an id that csv.writer has to quote
    "n_bs": _spec(
        sweep_name="n_bs",
        sweep_values=(8, 16),
        scenario_id='n, "bs"',
        baselines=Baselines(oma=True),
    ),
    # 88 users per cell: enough for a reordered sum to round differently
    "fig5": replace(preset("fig5"), trials=4, seed=2),
}


@pytest.fixture(scope="module")
def tables():
    return {name: run_experiment(spec) for name, spec in SPECS.items()}


def _fmt(value) -> str:
    return "" if math.isnan(value) else repr(float(value))


def oracle_csv(table) -> bytes:
    sid = table.spec.scenario_id
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for cell in table.cells:
        for u in range(len(cell.user)):
            writer.writerow(
                (
                    sid if cell.system == "hb" else f"{sid}:{cell.system}",
                    table.spec.sweep_name,
                    _fmt(cell.sweep_value),
                    str(int(cell.cluster[u])),
                    str(int(cell.user[u])),
                    *(_fmt(getattr(cell, name)[u]) for name in VALUE_COLUMNS),
                    str(cell.trials),
                )
            )
    return buf.getvalue().encode("utf-8")


def cells_of(table, system):
    return [cell for cell in table.cells if cell.system == system]


def test_tables_cover_every_writer_case(tables):
    grid, no_bounds, n_bs = tables["grid"], tables["no_bounds"], tables["n_bs"]
    assert grid.systems == ("b0", "b3", "fd", "oma")
    assert no_bounds.systems == ("hb", "fd")
    hb = cells_of(no_bounds, "hb")
    assert all(np.isnan(c.rate_lb_thm1).all() and np.isnan(c.gap_ub_thm3).all() for c in hb)
    assert all(np.isnan(c.rate_gap).all() and not np.isnan(c.rho_mean).any() for c in hb)
    # a first-decoded user has bounds but no Theorem 3 gap bound
    b3 = cells_of(grid, "b3")
    first = np.concatenate([c.rate_lb_thm2[np.isnan(c.gap_ub_thm3)] for c in b3])
    assert first.size and not np.isnan(first).any()
    assert any(not np.isnan(c.gap_ub_thm3).all() for c in b3)
    assert {c.sweep_value for c in n_bs.cells} == {8.0, 16.0}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_column_writer_matches_row_oracle(tables, tmp_path, name):
    table = tables[name]
    path = tmp_path / "table.csv"
    write_table_csv(table, str(path))
    assert path.read_bytes() == oracle_csv(table)


def test_n_bs_values_and_quoted_id_written_as_before(tables, tmp_path):
    path = tmp_path / "n_bs.csv"
    write_table_csv(tables["n_bs"], str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith('"n, ""bs""",n_bs,8.0,1,1,')


@pytest.mark.parametrize("name", ["grid", "fig5"])
def test_sum_rates_add_in_row_order(tables, name):
    table = tables[name]
    totals, counts = {}, {}
    for cell in table.cells:
        key = (cell.system, cell.sweep_value)
        for rate in cell.rate_exact.tolist():
            totals[key] = totals.get(key, 0.0) + rate
            counts[key] = counts.get(key, 0) + 1
    want = {k: t / counts[k] if k[0] == "oma" else t for k, t in totals.items()}
    assert sum_rates(table) == want
