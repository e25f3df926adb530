import csv
import dataclasses
import json

import pytest

from hbnoma.cli import (
    CSV_COLUMNS,
    FIG5_COLUMNS,
    config_to_spec,
    load_config,
    main,
    spec_to_config,
)
from hbnoma.errors import ConfigError
from hbnoma.montecarlo import PRESETS, preset

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
    out = str(tmp_path / "res.csv")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    body = open(out, "rb").read()
    assert body.startswith((",".join(CSV_COLUMNS) + "\n").encode())
    assert b"\r" not in body
    lines = body.decode().strip().split("\n")
    assert len(lines) == 1 + 2 * 4  # header + |sweep| * users
    assert lines[1].startswith("smoke,snr_db,10.0,1,1,")
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["config"]["seed"] == 5
    assert manifest["cells"][0]["trials"] == 12
    assert manifest["command"] == "run"


def test_run_is_byte_identical_across_reruns_and_workers(tmp_path):
    cfg = write_config(tmp_path, VALID_CONFIG)
    outs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "8")):
        out = str(tmp_path / name)
        assert main(["run", "--config", cfg, "--out", out, "--workers", workers]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1] == outs[2]


def test_run_trials_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path, VALID_CONFIG)
    out = str(tmp_path / "o.csv")
    assert main(["run", "--config", cfg, "--out", out, "--trials", "3", "--seed", "99"]) == 0
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["config"]["trials"] == 3
    assert manifest["config"]["seed"] == 99


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig4a", "fig4b", "fig4c", "fig4d"])
def test_manifest_config_reproduces_the_table(tmp_path, name):
    first = str(tmp_path / "first.csv")
    assert main(["figure", name, "--out", first, "--trials", "3", "--seed", "7"]) == 0
    manifest = json.loads(open(first + ".manifest.json").read())
    assert config_to_spec(manifest["config"]) == dataclasses.replace(preset(name), trials=3, seed=7)
    again = str(tmp_path / "again.csv")
    assert main(["run", "--config", write_config(tmp_path, manifest["config"]), "--out", again]) == 0
    assert open(again, "rb").read() == open(first, "rb").read()


@pytest.mark.parametrize(
    "flags", [["--seed", "-1"], ["--workers", "0"], ["--workers", "-4"]], ids=" ".join
)
def test_negative_seed_and_workers_below_one_are_config_errors(tmp_path, capsys, flags):
    cfg = write_config(tmp_path, VALID_CONFIG)
    for argv in (["figure", "fig3a"], ["run", "--config", cfg]):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out), *flags]) == 1
        assert flags[0][2:] in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize(
    "path",
    [
        ("scenario", "noise_var"),
        ("scenario", "snr_db"),
        ("scenario", "misalign_deg"),
        ("scenario", "spacing_over_wavelength"),
        ("scenario", "clusters", 0, "aod_deg"),
        ("scenario", "clusters", 1, "gains_db", 1),
        ("sweep", "values", 1),
        ("misalign_grid", 1),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
def test_run_rejects_non_finite_numbers(tmp_path, capsys, path, literal):
    # Python's json reads all three literals (1e400 overflows to inf)
    doc = json.loads(json.dumps(dict(VALID_CONFIG, misalign_grid=[0.0, 3.0])))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = 1234.5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace("1234.5", literal))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


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


def test_figure_fig5_special_schema(tmp_path):
    out = str(tmp_path / "fig5.csv")
    assert main(["figure", "fig5", "--out", out, "--trials", "2"]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == ",".join(FIG5_COLUMNS)
    systems = {line.split(",")[1] for line in lines[1:]}
    assert systems == {"b0", "b2", "b6", "fd", "oma"}
    assert len(lines) == 1 + 5 * 7


def test_figure_standard_schema(tmp_path):
    out = str(tmp_path / "fig4d.csv")
    assert main(["figure", "fig4d", "--out", out, "--trials", "2"]) == 0
    lines = open(out).read().strip().split("\n")
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


def test_run_rejects_hb_exact_false(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(VALID_CONFIG, baselines={"hb_exact": False}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    assert "hb_exact" in capsys.readouterr().err


def test_run_rejects_repeated_sweep_value(tmp_path, capsys):
    doc = dict(VALID_CONFIG, sweep={"name": "snr_db", "values": [10.0, 10.0]})
    out = tmp_path / "x.csv"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "repeat" in capsys.readouterr().err
    assert not out.exists()


def test_run_without_bounds_leaves_bound_columns_empty(tmp_path):
    tables = {}
    for hb_lb in (True, False):
        cfg = write_config(tmp_path, dict(VALID_CONFIG, baselines={"hb_lb": hb_lb}))
        out = str(tmp_path / f"lb_{hb_lb}.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        with open(out, newline="") as fh:
            tables[hb_lb] = list(csv.DictReader(fh))
    assert len(tables[False]) == len(tables[True]) == 2 * 4
    for with_lb, without in zip(tables[True], tables[False]):
        assert with_lb["rate_lb_thm1"] != ""
        for col in ("rate_lb_thm1", "rate_lb_thm2", "gap_ub_thm3"):
            assert without[col] == ""
        for col in ("rate_exact", "rate_gap", "rho_mean", "stderr", "trials"):
            assert without[col] == with_lb[col]
