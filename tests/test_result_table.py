"""The columnar result table: its row view, the CSV writer and the sum rates.

The oracle below is the row-by-row writer the column writer replaced:
csv.writer over one ResultRow at a time, each value through _fmt.
"""

import csv
import io
import math
from dataclasses import replace

import pytest

from hbnoma.channel import ClusterSpec, ScenarioConfig
from hbnoma.cli import sum_rates, write_table_csv
from hbnoma.montecarlo import (
    VALUE_COLUMNS,
    Baselines,
    ExperimentSpec,
    ResultRow,
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
    # one misalignment, so the system is "hb"; every bound column stays empty
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
    return "" if value is None else repr(float(value))


def oracle_csv(table) -> bytes:
    sid = table.spec.scenario_id
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for row in table.rows:
        writer.writerow(
            (
                sid if row.system == "hb" else f"{sid}:{row.system}",
                table.spec.sweep_name,
                _fmt(row.sweep_value),
                str(row.cluster),
                str(row.user),
                _fmt(row.rate_exact),
                _fmt(row.rate_lb_thm1),
                _fmt(row.rate_lb_thm2),
                _fmt(row.rate_gap),
                _fmt(row.gap_ub_thm3),
                _fmt(row.rho_mean),
                _fmt(row.stderr),
                str(row.trials),
            )
        )
    return buf.getvalue().encode("utf-8")


def rows_from_cells(table) -> list[ResultRow]:
    rows = []
    for cell in table.cells:
        columns = [getattr(cell, name) for name in VALUE_COLUMNS]
        for u in range(len(cell.user)):
            values = [None if math.isnan(col[u]) else float(col[u]) for col in columns]
            rows.append(
                ResultRow(
                    cell.system,
                    cell.sweep_value,
                    int(cell.cluster[u]),
                    int(cell.user[u]),
                    *values,
                    cell.trials,
                )
            )
    return rows


def test_tables_cover_every_writer_case(tables):
    grid, no_bounds, n_bs = tables["grid"], tables["no_bounds"], tables["n_bs"]
    assert grid.systems == ("b0", "b3", "fd", "oma")
    assert no_bounds.systems == ("hb", "fd")
    hb = no_bounds.rows_for(system="hb")
    assert all(r.rate_lb_thm1 is None and r.gap_ub_thm3 is None for r in hb)
    assert all(r.rate_gap is not None and r.rho_mean is not None for r in hb)
    # a first-decoded user has bounds but no Theorem 3 gap bound
    first = [r for r in grid.rows_for(system="b3") if r.gap_ub_thm3 is None]
    assert first and all(r.rate_lb_thm2 is not None for r in first)
    assert any(r.gap_ub_thm3 is not None for r in grid.rows_for(system="b3"))
    assert {r.sweep_value for r in n_bs.rows} == {8.0, 16.0}


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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_rows_are_a_view_of_the_cells(tables, name):
    table = tables[name]
    rebuilt = rows_from_cells(table)
    assert table.rows == rebuilt
    assert all(type(r.cluster) is int and type(r.rate_exact) is float for r in table.rows)
    for system in table.systems:
        for value in table.spec.sweep_values:
            want = [r for r in rebuilt if r.system == system and r.sweep_value == value]
            assert table.rows_for(system=system, sweep_value=value) == want
    assert table.rows_for(sweep_value=table.spec.sweep_values[-1]) == [
        r for r in rebuilt if r.sweep_value == table.spec.sweep_values[-1]
    ]


@pytest.mark.parametrize("name", ["grid", "fig5"])
def test_sum_rates_add_in_row_order(tables, name):
    table = tables[name]
    totals, counts = {}, {}
    for row in table.rows:
        key = (row.system, row.sweep_value)
        totals[key] = totals.get(key, 0.0) + row.rate_exact
        counts[key] = counts.get(key, 0) + 1
    want = {k: t / counts[k] if k[0] == "oma" else t for k, t in totals.items()}
    assert sum_rates(table) == want
