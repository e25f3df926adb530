"""Command line front end.

Subcommands:
  run       execute an experiment described by a JSON config
  figure    execute a named figure preset
  validate  check a JSON config without running it

Exit codes: 0 success, 1 configuration problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace

from . import __version__
from .channel import ClusterSpec, ScenarioConfig
from .errors import ConfigError, NumericalError
from .montecarlo import (
    VALUE_COLUMNS,
    PRESETS,
    Baselines,
    ExperimentSpec,
    ResultTable,
    preset,
    run_experiment,
    validate_spec,
)

CSV_COLUMNS = ("scenario_id", "sweep_name", "sweep_value", "cluster", "user", *VALUE_COLUMNS, "trials")

FIG5_COLUMNS = ("snr_db", "system", "sum_rate_bps_hz")

_CLUSTER_SCHEMA = {
    "type": "object",
    "required": ["aod_deg", "gains_db"],
    "additionalProperties": False,
    "properties": {
        "aod_deg": {"type": "number"},
        "gains_db": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
}

_SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["clusters"],
    "additionalProperties": False,
    "properties": {
        "clusters": {"type": "array", "items": _CLUSTER_SCHEMA, "minItems": 1},
        "n_bs": {"type": "integer", "minimum": 1},
        "n_ue": {"type": "integer", "minimum": 1},
        "n_rf": {"type": ["integer", "null"], "minimum": 1},
        "spacing_over_wavelength": {"type": "number", "exclusiveMinimum": 0},
        "misalign_deg": {"type": "number", "minimum": 0},
        "snr_db": {"type": "number"},
        "noise_var": {"type": "number", "exclusiveMinimum": 0},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["scenario"],
    "additionalProperties": False,
    "properties": {
        "scenario": _SCENARIO_SCHEMA,
        "scenario_id": {"type": "string", "minLength": 1},
        "sweep": {
            "type": "object",
            "required": ["name", "values"],
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["snr_db", "n_bs", "cluster_size"]},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            },
        },
        "trials": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "observe_cluster": {"type": ["integer", "null"], "minimum": 1},
        "misalign_grid": {
            "type": ["array", "null"],
            "items": {"type": "number", "minimum": 0},
            "minItems": 1,
        },
        "baselines": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "hb_exact": {"type": "boolean"},
                "hb_lb": {"type": "boolean"},
                "fd": {"type": "boolean"},
                "oma": {"type": "boolean"},
                "model_channels": {"type": "boolean"},
            },
        },
        "leak_weighted": {"type": "boolean"},
    },
}


def _schema_check(doc) -> None:
    # imported here: about 4 MB and 75 ms that runs without a JSON config
    # (figure presets, library use) never need
    import jsonschema

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        loc = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config field '{loc}': {err.message}")


def config_to_spec(doc: dict) -> ExperimentSpec:
    """Build a validated experiment spec from a parsed JSON config.

    The schema admits only the dataclasses' own keys, so they pass straight
    through; only the nested objects and the sweep are built here.
    """
    _schema_check(doc)
    kw = dict(doc)
    sc = kw.pop("scenario")
    clusters = tuple(
        ClusterSpec(aod_deg=float(c["aod_deg"]), gains_db=tuple(map(float, c["gains_db"])))
        for c in sc["clusters"]
    )
    if "sweep" in kw:
        sweep = kw.pop("sweep")
        kw.update(sweep_name=sweep["name"], sweep_values=sweep["values"])
    if "baselines" in kw:
        kw["baselines"] = Baselines(**kw["baselines"])
    spec = ExperimentSpec(scenario=ScenarioConfig(**{**sc, "clusters": clusters}), **kw)
    validate_spec(spec)
    return spec


def spec_to_config(spec: ExperimentSpec) -> dict:
    """Full JSON form of a spec; config_to_spec(spec_to_config(s)) == s."""
    doc = json.loads(json.dumps(spec, default=vars))  # dataclasses as their fields
    doc["sweep"] = {"name": doc.pop("sweep_name"), "values": doc.pop("sweep_values")}
    return doc


def load_config(path: str) -> ExperimentSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return config_to_spec(doc)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _csv_fields(*fields: str) -> str:
    """fields as one CSV line writes them (quoted where needed), without the line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def write_table_csv(table: ResultTable, path: str) -> None:
    """One line per (cell, user), formatted column by column: repr per value, "" for NaN."""
    spec = table.spec
    lines = [_csv_fields(*CSV_COLUMNS) + "\n"]
    for cell in table.cells:
        label = spec.scenario_id if cell.system == "hb" else f"{spec.scenario_id}:{cell.system}"
        start = _csv_fields(label, spec.sweep_name, _fmt(cell.sweep_value)) + ","
        end = f",{cell.trials}\n"
        columns = [map(str, cell.cluster.tolist()), map(str, cell.user.tolist())] + [
            ["" if v != v else repr(v) for v in getattr(cell, name).tolist()]
            for name in VALUE_COLUMNS
        ]
        lines += [start + ",".join(fields) + end for fields in zip(*columns)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


def sum_rates(table: ResultTable) -> dict[tuple[str, float], float]:
    """Per (system, sweep value) sum rate; the OMA reference is frame averaged."""
    totals: dict[tuple[str, float], float] = {}
    for cell in table.cells:
        total = 0.0
        # one add at a time in row order: a pairwise np.sum would round differently
        for rate in cell.rate_exact.tolist():
            total += rate
        totals[(cell.system, cell.sweep_value)] = (
            total / len(cell.user) if cell.system == "oma" else total
        )
    return totals


def write_sum_rate_csv(table: ResultTable, path: str) -> None:
    totals = sum_rates(table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIG5_COLUMNS)
        for system in table.systems:
            for value in table.spec.sweep_values:
                if (system, value) in totals:
                    writer.writerow((_fmt(value), system, _fmt(totals[(system, value)])))


def write_manifest(table: ResultTable, out_path: str, command: str, workers: int, elapsed: float) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "workers": workers,
        "elapsed_s": round(elapsed, 3),
        "systems": list(table.systems),
        "cells": [
            {
                "system": cell.system,
                "sweep_value": cell.sweep_value,
                "trials": cell.trials,
                "excluded": cell.excluded,
            }
            for cell in sorted(table.cells, key=lambda cell: (cell.system, cell.sweep_value))
        ],
        "config": spec_to_config(table.spec),
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    if args.trials is not None:
        spec = replace(spec, trials=args.trials)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return spec


def _cmd_run(args) -> int:
    spec = _apply_overrides(load_config(args.config), args)
    t0 = time.perf_counter()
    table = run_experiment(spec, workers=args.workers)
    write_table_csv(table, args.out)
    write_manifest(table, args.out, "run", args.workers, time.perf_counter() - t0)
    print(f"wrote {sum(len(cell.user) for cell in table.cells)} rows to {args.out}")
    return 0


def _cmd_figure(args) -> int:
    spec = _apply_overrides(preset(args.name), args)
    if args.dump_config is not None:
        with open(args.dump_config, "w", encoding="utf-8") as fh:
            json.dump(spec_to_config(spec), fh, indent=2)
            fh.write("\n")
        print(f"wrote config for {args.name} to {args.dump_config}")
        if args.out is None:
            return 0
    if args.out is None:
        raise ConfigError("figure needs --out (or --dump-config to only export the config)")
    t0 = time.perf_counter()
    table = run_experiment(spec, workers=args.workers)
    if args.name == "fig5":
        write_sum_rate_csv(table, args.out)
    else:
        write_table_csv(table, args.out)
    write_manifest(table, args.out, f"figure {args.name}", args.workers, time.perf_counter() - t0)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    spec = load_config(args.config)
    clusters = len(spec.scenario.clusters)
    users = sum(len(c.gains_db) for c in spec.scenario.clusters)
    print(
        f"{args.config}: ok ({spec.scenario_id}, {clusters} clusters, {users} users, "
        f"sweep {spec.sweep_name} x{len(spec.sweep_values)})"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    # usage mistakes are config errors: exit 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hbnoma", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="JSON experiment config")
    run_p.add_argument("--out", required=True, help="output CSV path")
    _common_run_args(run_p)
    run_p.set_defaults(func=_cmd_run)

    fig_p = sub.add_parser("figure", help="run a named preset")
    fig_p.add_argument("name", choices=PRESETS, help="preset name")
    fig_p.add_argument("--out", help="output CSV path")
    fig_p.add_argument("--dump-config", help="write the preset's JSON config here")
    _common_run_args(fig_p)
    fig_p.set_defaults(func=_cmd_figure)

    val_p = sub.add_parser("validate", help="validate a JSON config without running")
    val_p.add_argument("--config", required=True, help="JSON experiment config")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def _common_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    p.add_argument("--seed", type=int, default=None, help="override random seed")
    p.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
