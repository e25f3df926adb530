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
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import lru_cache
from typing import get_args, get_origin, get_type_hints

from . import __version__
from .errors import ConfigError, NumericalError
from .montecarlo import (
    VALUE_COLUMNS,
    PRESETS,
    ExperimentSpec,
    ResultTable,
    preset,
    run_experiment,
    validate_spec,
)

CSV_COLUMNS = ("scenario_id", "sweep_name", "sweep_value", "cluster", "user", *VALUE_COLUMNS, "trials")

FIG5_COLUMNS = ("snr_db", "system", "sum_rate_bps_hz")


@dataclass(frozen=True)
class _Sweep:
    """A config's "sweep" object: ExperimentSpec's sweep_name and sweep_values."""

    name: str
    values: tuple[float, ...]


# a config holds ExperimentSpec's fields, with the two sweep fields as one object
_CONFIG_HINTS = get_type_hints(ExperimentSpec) | {"sweep": _Sweep}
del _CONFIG_HINTS["sweep_name"], _CONFIG_HINTS["sweep_values"]
# the JSON paths of the fields a config does not hold under their own names
_PATHS = {"sweep_name": "sweep.name", "sweep_values": "sweep.values"}


def _typed(hint, value, path: str):
    """value as a field of type hint holds it: an object becomes its dataclass, an array a tuple."""
    if is_dataclass(hint):
        return _built(hint, _fields(hint, value, path), path)
    if type(None) in get_args(hint) and value is not None:  # X | None
        (hint,) = set(get_args(hint)) - {type(None)}
    if get_origin(hint) is tuple and type(value) is list:  # tuple[X, ...]
        return tuple(_typed(get_args(hint)[0], v, f"{path}.{i}") for i, v in enumerate(value))
    return value


def _built(cls, kw: dict, path: str):
    """cls(**kw) from the JSON object at path; a field's type or shape error names its path."""
    try:
        return cls(**kw)
    except ConfigError as exc:
        if exc.field is None:
            raise
        head, _, rest = exc.field.partition(".")
        where = ".".join(filter(None, (path, _PATHS.get(head, head), rest)))
        raise ConfigError(f"config field '{where}': {exc}") from None


def _fields(cls, doc, path: str, hints=None) -> dict:
    """cls's keyword arguments from a JSON object whose keys are hints (default: cls's fields)."""
    if type(doc) is not dict:
        raise ConfigError(f"config field '{path or '<root>'}': expected an object, got {doc!r}")
    hints = hints or get_type_hints(cls)
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in hints:
            raise ConfigError(f"config field '{prefix}{key}': unknown field")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config field '{prefix}{f.name}': required")
    return {key: _typed(hints[key], value, prefix + key) for key, value in doc.items()}


def config_to_spec(doc: dict) -> ExperimentSpec:
    """The experiment spec of a parsed JSON config, checked as it is built (see validate_spec)."""
    kw = _fields(ExperimentSpec, doc, "", _CONFIG_HINTS)
    if "sweep" in kw:
        sweep = kw.pop("sweep")
        kw.update(sweep_name=sweep.name, sweep_values=sweep.values)
    return _built(ExperimentSpec, kw, "")


def _field_values(obj) -> dict:
    """A dataclass's fields by name: its vars but a configuration's stored hash."""
    return {name: value for name, value in vars(obj).items() if name != "_hash"}


def spec_to_config(spec: ExperimentSpec) -> dict:
    """Full JSON form of a spec; config_to_spec(spec_to_config(s)) == s."""
    doc = json.loads(json.dumps(spec, default=_field_values))
    doc["sweep"] = {"name": doc.pop("sweep_name"), "values": doc.pop("sweep_values")}
    return doc


def load_config(path: str) -> ExperimentSpec:
    """The spec of a JSON config file (config_to_spec)."""
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
    # one line: without an indent json encodes in C
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest) + "\n")


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    """spec with --trials and --seed applied, checked once as replace builds it."""
    given = {k: v for k, v in (("trials", args.trials), ("seed", args.seed)) if v is not None}
    return replace(spec, **given) if given else spec


def _run_and_write(spec: ExperimentSpec, args, write, command: str) -> ResultTable:
    """Run spec, write its table with write(table, args.out) and the manifest beside it."""
    t0 = time.perf_counter()
    table = run_experiment(spec, workers=args.workers)
    write(table, args.out)
    write_manifest(table, args.out, command, args.workers, time.perf_counter() - t0)
    return table


def _cmd_run(args) -> int:
    spec = _apply_overrides(load_config(args.config), args)
    table = _run_and_write(spec, args, write_table_csv, "run")
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
    write = write_table_csv
    if args.name == "fig5":  # the sum-rate table reads rate_exact alone: no bounds, no gap
        spec = replace(spec, baselines=replace(spec.baselines, hb_lb=False, hb_gap=False))
        write = write_sum_rate_csv
    _run_and_write(spec, args, write, f"figure {args.name}")
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    spec = load_config(args.config)
    validate_spec(spec)
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


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The hbnoma argument parser, built once per process."""
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
