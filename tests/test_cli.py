import csv
import dataclasses
import json
import re
from pathlib import Path

import pytest

from hbnoma import __version__, montecarlo
from hbnoma.cli import (
    CSV_COLUMNS,
    FIG5_COLUMNS,
    build_parser,
    config_to_spec,
    load_config,
    main,
    spec_to_config,
    write_sum_rate_csv,
)
from hbnoma.errors import ConfigError
from hbnoma.montecarlo import PRESETS, preset, run_experiment

VALID_CONFIG = {
    "scenario_id": "smoke",
    "scenario": {
        "clusters": [
            {"aod_deg": 10.0, "gains_db": [0.0, -2.0]},
            {"aod_deg": 45.0, "gains_db": [0.0, -1.0]},
        ],
        "misalign_deg": 3.0,
        "snr_db": 10.0,
    },
    "sweep": {"name": "snr_db", "values": [10.0, 20.0]},
    "trials": 12,
    "seed": 5,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def with_value(doc, path, value):
    """A copy of the config doc with the entry at path (keys and indices) set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


def test_round_trip_all_presets():
    for name in PRESETS:
        spec = preset(name)
        assert config_to_spec(spec_to_config(spec)) == spec


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, VALID_CONFIG)
    assert main(["validate", "--config", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_preset_dump(tmp_path):
    dump = str(tmp_path / "fig4a.json")
    assert main(["figure", "fig4a", "--dump-config", dump]) == 0
    assert main(["validate", "--config", dump]) == 0


def test_validate_rejects_schema_violation(tmp_path, capsys):
    bad = {"scenario": {"clusters": []}}
    assert main(["validate", "--config", write_config(tmp_path, bad)]) == 1
    err = capsys.readouterr().err
    assert "scenario.clusters" in err


def test_validate_rejects_integral_float_for_an_int(tmp_path, capsys):
    # 8.0 is a JSON number, not an integer: range(8.0) would fail in the run
    path = write_config(tmp_path, dict(VALID_CONFIG, trials=8.0))
    assert main(["validate", "--config", path]) == 1
    assert "config field 'trials'" in capsys.readouterr().err


@pytest.mark.parametrize("path", [("scenario", "snr_db"), ("scenario", "clusters", 0, "gains_db", 0)])
def test_run_rejects_a_db_value_that_overflows(tmp_path, capsys, path):
    # 10^(1e300/10) is no float: the run would end in a raw OverflowError
    doc = with_value(VALID_CONFIG, path, 1e300)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"scenario": ')
    assert main(["validate", "--config", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 1


def test_unknown_preset_exit_code():
    assert main(["figure", "fig9", "--out", "x.csv"]) == 1


def test_figure_requires_out():
    assert main(["figure", "fig3a"]) == 1


def test_usage_error_is_config_error():
    assert main(["frobnicate"]) == 1


def test_run_writes_csv_and_manifest(tmp_path):
    cfg = write_config(tmp_path, VALID_CONFIG)
    out = tmp_path / "res.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    body = out.read_bytes()
    assert body.startswith((",".join(CSV_COLUMNS) + "\n").encode())
    assert b"\r" not in body
    lines = body.decode().strip().split("\n")
    assert len(lines) == 1 + 2 * 4  # header + |sweep| * users
    assert lines[1].startswith("smoke,snr_db,10.0,1,1,")
    manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
    assert manifest["config"]["seed"] == 5
    assert manifest["cells"][0]["trials"] == 12
    assert manifest["command"] == "run"


def test_run_is_byte_identical_across_reruns_and_workers(tmp_path):
    cfg = write_config(tmp_path, VALID_CONFIG)
    outs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "8")):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_run_trials_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path, VALID_CONFIG)
    out = str(tmp_path / "o.csv")
    assert main(["run", "--config", cfg, "--out", out, "--trials", "3", "--seed", "99"]) == 0
    manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert manifest["config"]["trials"] == 3
    assert manifest["config"]["seed"] == 99


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig4a", "fig4b", "fig4c", "fig4d"])
def test_manifest_config_reproduces_the_table(tmp_path, name):
    first = tmp_path / "first.csv"
    assert main(["figure", name, "--out", str(first), "--trials", "3", "--seed", "7"]) == 0
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    assert config_to_spec(manifest["config"]) == dataclasses.replace(preset(name), trials=3, seed=7)
    again = tmp_path / "again.csv"
    cfg = write_config(tmp_path, manifest["config"])
    assert main(["run", "--config", cfg, "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [["--seed", "-1"], ["--workers", "0"], ["--workers", "-4"], ["--trials", "0"]],
    ids=" ".join,
)
def test_negative_seed_and_workers_below_one_are_config_errors(tmp_path, capsys, flags):
    cfg = write_config(tmp_path, VALID_CONFIG)
    for argv in (["figure", "fig3a"], ["run", "--config", cfg]):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out), *flags]) == 1
        assert flags[0][2:] in capsys.readouterr().err
        assert not out.exists()
    if flags[0] != "--workers":  # the dumped config holds the seed and trial count
        dump = tmp_path / "fig3a.json"
        assert main(["figure", "fig3a", "--dump-config", str(dump), *flags]) == 1
        assert flags[0][2:] in capsys.readouterr().err
        assert not dump.exists()


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "1e400", "1" + "0" * 400],
    ids=["NaN", "Infinity", "1e400", "10**400"],
)
@pytest.mark.parametrize(
    "path",
    [
        ("scenario", "snr_db"),
        ("scenario", "misalign_deg"),
        ("scenario", "clusters", 0, "aod_deg"),
        ("scenario", "clusters", 1, "gains_db", 1),
        ("sweep", "values", 1),
        ("misalign_grid", 1),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
def test_run_rejects_non_finite_numbers(tmp_path, capsys, path, literal):
    # Python's json reads all four literals: 1e400 overflows to inf, and
    # 10**400 is an int that no float holds
    doc = with_value(dict(VALID_CONFIG, misalign_grid=[0.0, 3.0]), path, 1234.5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace("1234.5", literal))
    out = tmp_path / "x.csv"
    for argv in (["validate"], ["run", "--out", str(out)]):
        assert main([*argv, "--config", str(cfg)]) == 1
        assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


# a sweep axis replaces the scenario value it sweeps, and the replaced value is still validated
@pytest.mark.parametrize(
    "axis, path, values, invalid",
    [
        pytest.param({}, ("scenario", "snr_db"), (10.0, 25.0), (1e300, "snr_db"), id="snr_db"),
        pytest.param(
            {"sweep": {"name": "n_bs", "values": [16, 24]}},
            ("scenario", "n_bs"),
            (32, 8),
            (0, "antenna counts"),
            id="n_bs",
        ),
        pytest.param(
            {"sweep": {"name": "cluster_size", "values": [1, 3]}, "observe_cluster": 1},
            ("scenario", "clusters", 0, "gains_db"),
            ([0.0, -2.0], [-4.0, 0.0, -9.0]),
            ([], "gains_db"),
            id="cluster_size",
        ),
        pytest.param(
            {"misalign_grid": [0.0, 3.0]},
            ("scenario", "misalign_deg"),
            (3.0, 7.5),
            (-1.0, "misalignment spread"),
            id="grid",
        ),
    ],
)
def test_a_sweep_axis_replaces_the_scenario_value_it_sweeps(
    tmp_path, capsys, axis, path, values, invalid
):
    doc = dict(VALID_CONFIG, **axis)
    bodies = []
    for i, value in enumerate(values):
        cfg = write_config(tmp_path, with_value(doc, path, value), f"{i}.json")
        out = tmp_path / f"{i}.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]
    value, message = invalid
    cfg = write_config(tmp_path, with_value(doc, path, value))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x.csv")]):
        assert main([*argv, "--config", cfg]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_readme_config_example_loads():
    # the README's JSON config must stay a valid config: a deleted key cannot linger there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```json\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    spec = config_to_spec(json.loads(example))
    assert spec.scenario_id == "demo" and len(spec.scenario.clusters) == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    doc = {
        "scenario": {
            "clusters": [
                {"aod_deg": 10.0, "gains_db": [0.0]},
                {"aod_deg": 10.0, "gains_db": [0.0]},
            ]
        },
        "trials": 2,
    }
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "numerical error" in capsys.readouterr().err


def test_a_cli_run_sets_up_once(tmp_path, monkeypatch):
    # a config is checked as it is built, and its layout rules (which no --trials or --seed
    # changes) in run_experiment alone, which draws every configuration once and keeps it
    calls = []
    real = montecarlo._draws
    monkeypatch.setattr(montecarlo, "_draws", lambda spec: calls.append(spec) or real(spec))
    cfg = write_config(tmp_path, VALID_CONFIG)
    out = str(tmp_path / "x.csv")
    for argv, draws in (
        (["figure", "fig4a", "--trials", "2"], 1),
        (["run", "--config", cfg], 1),
        (["run", "--config", cfg, "--trials", "2"], 1),
        (["run", "--config", cfg, "--seed", "3"], 1),
        (["figure", "fig5", "--trials", "2"], 1),
    ):
        calls.clear()
        assert main([*argv, "--out", out]) == 0
        assert len(calls) == draws, argv
    assert build_parser() is build_parser()


def test_run_checks_the_file_as_loaded_only_under_an_override(tmp_path, capsys):
    # the file's trials 0 is named under --trials 5 as without it
    cfg = write_config(tmp_path, {**VALID_CONFIG, "trials": 0})
    out = tmp_path / "x.csv"
    for flags in ([], ["--trials", "5"], ["--seed", "2"]):
        assert main(["run", "--config", cfg, "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"
        assert not out.exists()


def test_manifest_is_one_json_line_of_the_run(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["figure", "fig4d", "--out", str(out), "--trials", "3", "--workers", "2"]) == 0
    text = Path(f"{out}.manifest.json").read_text(encoding="utf-8")
    assert text.endswith("}\n") and text.count("\n") == 1
    manifest = json.loads(text)
    spec = dataclasses.replace(preset("fig4d"), trials=3)
    table = run_experiment(spec)
    keys = ["command", "version", "workers", "elapsed_s", "systems", "cells", "config"]
    assert list(manifest) == keys
    assert manifest["command"] == "figure fig4d" and manifest["workers"] == 2
    assert manifest["version"] == __version__
    assert type(manifest["elapsed_s"]) is float and manifest["elapsed_s"] >= 0.0
    assert manifest["systems"] == ["b3", "b6"]
    assert manifest["cells"] == [
        {"system": c.system, "sweep_value": c.sweep_value, "trials": 3, "excluded": 0}
        for c in sorted(table.cells, key=lambda c: (c.system, c.sweep_value))
    ]
    assert manifest["config"] == spec_to_config(spec)


def test_figure_fig5_special_schema(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["figure", "fig5", "--out", str(out), "--trials", "2"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(FIG5_COLUMNS)
    systems = {line.split(",")[1] for line in lines[1:]}
    assert systems == {"b0", "b2", "b6", "fd", "oma"}
    assert len(lines) == 1 + 5 * 7


def test_figure_fig5_runs_without_the_bounds_its_table_does_not_read(tmp_path, monkeypatch):
    # the sum-rate table reads rate_exact alone; the dumped config keeps the preset's bounds and gap
    want = tmp_path / "want.csv"
    write_sum_rate_csv(run_experiment(dataclasses.replace(preset("fig5"), trials=3)), str(want))

    view, views = montecarlo._view, []
    evaluate, snrs = montecarlo._evaluate, []

    def no_bounds(*args, **kwargs):
        geo = view(*args, **kwargs)
        assert geo.kappa_s_unit is None, "figure fig5 computed the kappa_max(S) stack"
        views.append(geo)
        return geo

    def no_gap(*args, **kwargs):
        for fields in evaluate(*args, **kwargs):
            assert "rate_gap" not in fields, "figure fig5 computed the rate gap"
            snrs.append(fields)
            yield fields

    monkeypatch.setattr(montecarlo, "_view", no_bounds)
    monkeypatch.setattr(montecarlo, "_evaluate", no_gap)
    out, dump = tmp_path / "fig5.csv", tmp_path / "fig5.json"
    argv = ["figure", "fig5", "--trials", "3", "--out", str(out), "--dump-config", str(dump)]
    assert main(argv) == 0
    assert views and snrs and out.read_bytes() == want.read_bytes()
    run = json.loads(Path(f"{out}.manifest.json").read_text())["config"]["baselines"]
    assert run["hb_lb"] is run["hb_gap"] is False
    dumped = json.loads(dump.read_text())["baselines"]
    assert dumped["hb_lb"] is dumped["hb_gap"] is True


def test_figure_standard_schema(tmp_path):
    out = tmp_path / "fig4d.csv"
    assert main(["figure", "fig4d", "--out", str(out), "--trials", "2"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    ids = {line.split(",")[0] for line in lines[1:]}
    assert ids == {"fig4d:b3", "fig4d:b6"}


def test_load_config_defaults(tmp_path):
    doc = {"scenario": {"clusters": [{"aod_deg": 0.0, "gains_db": [0.0]}]}}
    spec = load_config(write_config(tmp_path, doc))
    assert spec.trials == 10_000
    assert spec.sweep_name == "snr_db"
    assert spec.scenario.n_bs == 32


def test_config_rejects_misplaced_observe(tmp_path):
    doc = dict(VALID_CONFIG, observe_cluster=7)
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))


# fields that were deleted: configs and manifests of earlier versions may carry them
@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param("baselines.hb_exact", False, id="baselines.hb_exact"),
        pytest.param("scenario.noise_var", 1.0, id="scenario.noise_var"),
        pytest.param("scenario.n_rf", 5, id="scenario.n_rf"),
        pytest.param(
            "scenario.spacing_over_wavelength", 0.5, id="scenario.spacing_over_wavelength"
        ),
        pytest.param("leak_weighted", True, id="leak_weighted-true"),
        pytest.param("leak_weighted", False, id="leak_weighted-false"),
    ],
)
def test_run_rejects_deleted_fields(tmp_path, capsys, path, value):
    section, _, key = path.rpartition(".")  # section "" for a top-level field
    doc = json.loads(json.dumps(VALID_CONFIG))
    (doc.setdefault(section, {}) if section else doc)[key] = value
    cfg = write_config(tmp_path, doc)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "x.csv")]):
        assert main([*argv, "--config", cfg]) == 1
        assert f"config field '{path}': unknown field" in capsys.readouterr().err


def test_run_rejects_repeated_sweep_value(tmp_path, capsys):
    doc = dict(VALID_CONFIG, sweep={"name": "snr_db", "values": [10.0, 10.0]})
    out = tmp_path / "x.csv"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "repeat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("hb_gap", [True, False], ids=["gap", "no_gap"])
@pytest.mark.parametrize("hb_lb", [True, False], ids=["lb", "no_lb"])
def test_run_without_bounds_leaves_bound_columns_empty(tmp_path, hb_lb, hb_gap):
    # hb_lb: false empties the three bound columns alone (rate_gap stays), hb_gap: false rate_gap
    tables = []
    for name, baselines in (("default", {}), ("skipped", {"hb_lb": hb_lb, "hb_gap": hb_gap})):
        cfg = write_config(tmp_path, dict(VALID_CONFIG, baselines=baselines), f"{name}.json")
        out = str(tmp_path / f"{name}.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        with open(out, newline="") as fh:
            tables.append(list(csv.DictReader(fh)))
    default, skipped = tables
    empty = {"rate_lb_thm1", "rate_lb_thm2", "gap_ub_thm3"} if not hb_lb else set()
    empty |= {"rate_gap"} if not hb_gap else set()
    assert len(default) == len(skipped) == 2 * 4
    for want, got in zip(default, skipped):
        assert want["rate_lb_thm1"] != "" and want["rate_gap"] != ""
        for col in CSV_COLUMNS:
            assert got[col] == ("" if col in empty else want[col]), col
