"""Tests of the benchmark's own machinery: tracer, self-time accounting, check.

Run from the repository root:  python3 -m pytest -q hbbench
"""

import csv
import dataclasses
import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hbnoma  # noqa: E402
from check import CellCheck, TableCheck, parse_table  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, cell_config, run_cli  # noqa: E402
from yardstick import REF_S, Speed  # noqa: E402

SELF_TIME_COVERAGE = 0.95  # module self times must cover this share of traced wall time


def _reference(name):
    return json.loads((HERE / "reference" / f"{name}.json").read_text("utf-8"))


def _bindings():
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "hbnoma" or name.startswith("hbnoma.")
        for attr, obj in vars(mod).items()
    }


def test_tracer_restores_every_wrapped_name():
    before = _bindings()
    tracer = Tracer()
    installed = tracer.install()
    try:
        assert "channel.synthesize_scenario" in installed
        assert "numerics.gram_max_eigen" in installed
        assert hbnoma.montecarlo.synthesize_scenario is not before[
            ("hbnoma.montecarlo", "synthesize_scenario")
        ]
        assert not any(name.startswith("errors.") for name in installed)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_cover_traced_wall_and_count_calls():
    cfg, snr_db = cell_config(WORKLOADS["single_draw"])
    hbnoma.trial_metrics(cfg, seed=5, trial=0, snr_db=snr_db)
    draws = 30
    with Tracer() as tracer:
        start = time.perf_counter()
        for t in range(draws):
            hbnoma.trial_metrics(cfg, seed=5, trial=t, snr_db=snr_db)
        wall = time.perf_counter() - start
    summary = summarize(tracer)
    modules = summary["modules"]
    covered = sum(m["self_s"] for m in modules.values())
    assert SELF_TIME_COVERAGE * wall <= covered <= wall
    assert set(modules) >= {"channel", "beamforming", "bounds", "noma", "numerics", "montecarlo"}
    assert modules["montecarlo"]["calls"] == draws  # one entry per trial_metrics call
    functions = summary["functions"]
    # design_precoder inverts the Gram matrix twice per draw
    assert functions["numerics.hermitian_inverse"]["calls"] == 2 * draws
    assert functions["channel.synthesize_scenario"]["calls"] == draws
    for fun in functions.values():
        assert fun["self_s"] >= 0.0


def _rewrite(text, key_columns, edit):
    header, rows = parse_table(text, key_columns)
    for row in rows.values():
        edit(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows.values())
    return buf.getvalue()


@pytest.mark.parametrize("name", ["size_sweep", "snr_sweep"])
def test_check_accepts_reference_and_rejects_perturbed_rng_free_cell(name, tmp_path):
    workload = WORKLOADS[name]
    ref = _reference(name)["table"]
    out = str(tmp_path / "table.csv")
    code, _ = run_cli(workload, out, ref["byte_seed"], ref["byte_trials"])
    assert code == 0
    text = Path(out).read_text("utf-8")

    check = TableCheck(ref)
    assert check.add(text, ref["byte_trials"]) == []
    assert check.finish() == []

    # perturb one RNG-free value by 1e-6 relative
    key = next(iter(ref["exact"]))
    column = ref["stat_columns"][0]

    def perturb(row):
        if "|".join(row[c] for c in ref["key_columns"]) == key:
            row[column] = repr(float(row[column]) * (1.0 + 1e-6))

    problems = TableCheck(ref).add(_rewrite(text, ref["key_columns"], perturb), ref["byte_trials"])
    assert len(problems) == 1 and problems[0].startswith(f"{key} {column}")


def test_table_check_tests_the_gap_bound_on_random_rows(tmp_path):
    workload = WORKLOADS["size_sweep"]
    ref = _reference("size_sweep")["table"]
    out = str(tmp_path / "table.csv")
    code, _ = run_cli(workload, out, ref["byte_seed"], ref["byte_trials"])
    assert code == 0
    trials = 500
    stats = TableCheck(ref).random

    def at_reference(row, gap_factor=1.0):
        key = "|".join(row[c] for c in ref["key_columns"])
        if key not in stats:
            return
        for col, st in stats[key].items():
            factor = gap_factor if col == "gap_ub_thm3" else 1.0
            row[col] = "" if st is None else repr(st[0] * factor)
        row["trials"] = str(trials)

    gap_rows = [k for k, cols in stats.items() if cols["gap_ub_thm3"] is not None]
    assert any(k.startswith("fig4c:b3") for k in gap_rows)
    assert any(k.startswith("fig4c:b6") for k in gap_rows)

    good = TableCheck(ref)
    assert good.add(_rewrite(Path(out).read_text("utf-8"), ref["key_columns"], at_reference), trials) == []
    assert good.finish() == []

    shifted = TableCheck(ref)
    text = _rewrite(Path(out).read_text("utf-8"), ref["key_columns"],
                    lambda row: at_reference(row, gap_factor=1.5))
    assert shifted.add(text, trials) == []
    problems = shifted.finish()
    assert problems and all("gap_ub_thm3" in p for p in problems)


@pytest.mark.parametrize(("field", "factor"), [("rate_lb_thm2", 1.1), ("gap_ub_thm3", 2.0)])
def test_cell_check_accepts_draws_and_rejects_shifted_mean(field, factor):
    workload = WORKLOADS["single_draw"]
    cfg, snr_db = cell_config(workload)
    ref = _reference("single_draw")["cell"]
    good, shifted = CellCheck(ref), CellCheck(ref)
    for t in range(200):
        tm = hbnoma.trial_metrics(cfg, seed=11, trial=t, snr_db=snr_db)
        assert good.add(tm) == []
        wrong = dataclasses.replace(tm, **{field: getattr(tm, field) * factor})
        assert shifted.add(wrong) == []
    assert good.finish() == []
    problems = shifted.finish()
    assert problems and all(field in p for p in problems)


def test_speed_scales_by_nearby_yardstick_samples():
    speed = Speed()
    speed.times = [0.0, 0.1, 5.0, 5.1]
    speed.samples = [REF_S, REF_S, 2 * REF_S, 2 * REF_S]
    assert speed.factor(0.05) == 1.0
    assert speed.factor(5.05) == 0.5  # a slow stretch: its times are halved
    assert speed.factor(3.0) == 0.5  # no sample within the window: the closest one
    assert speed.factor(0.1, 5.05) == pytest.approx(2.0 / 3.0)  # samples before and after
    assert speed.factor() == pytest.approx(2.0 / 3.0)
    assert speed.net(0.05, 5.05) == pytest.approx(5.0 - 3 * REF_S)  # samples inside left out


def test_speed_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Speed() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 5
    assert speed.net(start, end) == pytest.approx(end - start - sum(speed.samples), abs=1e-3)
