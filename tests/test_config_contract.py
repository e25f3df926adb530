"""The config contract: a JSON config is rejected or runs to a consistent table.

Configs are built from well-separated cluster AoDs (conftest.random_config)
at array sizes no smaller than the one the separation was chosen for, so the
zero-forcing design stays conditioned and a NumericalError is a failure, not
an expected outcome. Every config must either raise ConfigError (and make the
CLI exit 1 without writing a table) or give one cell per (system, sweep
value) whose counts, users, manifest entry and CSV bytes all agree.
"""

import copy
import json
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_config
from hbnoma import block_metrics, montecarlo, trial_metrics
from hbnoma.channel import ClusterSpec
from hbnoma.cli import config_to_spec, main, spec_to_config
from hbnoma.errors import ConfigError
from hbnoma.montecarlo import (
    BLOCK_BUDGET,
    CHUNK,
    Baselines,
    preset,
    run_experiment,
    validate_spec,
)

N_BS = 32

SWEEP_VALUES = {
    "snr_db": [0.0, 10.0, 20.0, 30.0],
    "n_bs": [32, 48, 64],  # no fewer antennas than the separation assumes
    "cluster_size": [1, 2, 3, 5],
}

# each turns a valid config into one that must be rejected
FLAWS = {
    "repeated sweep value": lambda doc, n: doc["sweep"]["values"].append(doc["sweep"]["values"][0]),
    "observe_cluster 0": lambda doc, n: doc.update(observe_cluster=0),
    "observe_cluster past the last cluster": lambda doc, n: doc.update(observe_cluster=n + 1),
    "observe_cluster on another sweep": lambda doc, n: doc.update(
        observe_cluster=1, sweep={"name": "snr_db", "values": [10.0]}
    ),
    "negative seed": lambda doc, n: doc.update(seed=-1),
    "seed 2**64": lambda doc, n: doc.update(seed=2**64),
    "a non-finite number": lambda doc, n: doc["scenario"].update(snr_db=1e400),
    "a dB value that overflows": lambda doc, n: doc["scenario"].update(snr_db=1e300),
    "shared system label": lambda doc, n: doc.update(misalign_grid=[2.5, 2.5]),
    "hb_exact false": lambda doc, n: doc.setdefault("baselines", {}).update(hb_exact=False),
    "model_channels on one cluster": lambda doc, n: (
        doc["scenario"].update(clusters=doc["scenario"]["clusters"][:1]),
        doc.setdefault("baselines", {}).update(model_channels=True),
    ),
    # JSON numbers that only look like integers: range() and indexing would raise TypeError
    "trials 8.0": lambda doc, n: doc.update(trials=8.0),
    "observe_cluster 1.0": lambda doc, n: doc.update(
        observe_cluster=1.0, sweep={"name": "cluster_size", "values": [2]}
    ),
    "n_bs true": lambda doc, n: doc["scenario"].update(n_bs=True),
}


@st.composite
def configs(draw):
    """(JSON config, the name of its flaw or None)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_clusters = draw(st.integers(2, 4))
    cfg = random_config(
        rng,
        n_clusters=n_clusters,
        n_bs=N_BS,
        max_users=3,
        misalign_deg=draw(st.sampled_from([0.0, 1.5, 3.0])),
    )
    scenario = {
        "clusters": [{"aod_deg": c.aod_deg, "gains_db": list(c.gains_db)} for c in cfg.clusters],
        "n_bs": cfg.n_bs,
        "misalign_deg": cfg.misalign_deg,
        "snr_db": cfg.snr_db,
    }
    name = draw(st.sampled_from(sorted(SWEEP_VALUES)))
    values = st.lists(st.sampled_from(SWEEP_VALUES[name]), min_size=1, max_size=3, unique=True)
    doc = {
        "scenario": scenario,
        "sweep": {"name": name, "values": draw(values)},
        # one block of draws, or two, so that two workers share the work
        "trials": draw(st.one_of(st.integers(1, 8), st.integers(CHUNK + 1, CHUNK + 6))),
        "seed": draw(st.integers(0, 1000)),
    }
    if name == "cluster_size":  # the only sweep that reads it
        doc["observe_cluster"] = draw(st.integers(1, n_clusters))
    flags = ("hb_lb", "fd", "oma", "model_channels")
    optional = {
        "misalign_grid": st.one_of(
            st.none(),
            st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=1, max_size=3, unique=True),
        ),
        "baselines": st.fixed_dictionaries({}, optional=dict.fromkeys(flags, st.booleans())),
    }
    for key, strategy in optional.items():
        if key not in doc and draw(st.booleans()):
            doc[key] = draw(strategy)
    flaw = draw(st.one_of(st.none(), st.sampled_from(sorted(FLAWS))))
    if flaw is not None:
        FLAWS[flaw](doc, n_clusters)
    return doc, flaw


def expected_users(spec, sweep_value):
    """(cluster, user) of each configured user, after a cluster_size sweep resizes."""
    sizes = [len(c.gains_db) for c in spec.scenario.clusters]
    if spec.sweep_name == "cluster_size":
        sizes[spec.observe_cluster - 1] = int(sweep_value)
    return [(ci + 1, ui + 1) for ci, size in enumerate(sizes) for ui in range(size)]


def run_cli(tmp: Path, doc: dict, workers: int):
    config = tmp / "cfg.json"
    config.write_text(json.dumps(doc))
    out = tmp / f"w{workers}.csv"
    code = main(["run", "--config", str(config), "--out", str(out), "--workers", str(workers)])
    return code, out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=configs())
def test_config_is_rejected_or_runs_consistently(case):
    doc, flaw = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            spec = config_to_spec(doc)
            table = run_experiment(spec)
        except ConfigError:
            code, out = run_cli(tmp, doc, 1)
            assert code == 1 and not out.exists()
            return
        assert flaw is None, f"a config with a {flaw} ran"

        grid = spec.misalign_grid or (spec.scenario.misalign_deg,)
        hybrid = {("hb" if len(grid) == 1 else f"b{b:g}"): b for b in grid}
        references = [s for s in ("fd", "oma") if getattr(spec.baselines, s)]
        keys = [(c.system, c.sweep_value) for c in table.cells]
        assert sorted(keys) == sorted(
            (system, value) for system in [*hybrid, *references] for value in spec.sweep_values
        )
        for cell in table.cells:
            if cell.system in hybrid:
                rng_free = hybrid[cell.system] == 0.0 and not spec.baselines.model_channels
                assert cell.trials + cell.excluded == (1 if rng_free else spec.trials)
            else:
                assert (cell.trials, cell.excluded) == (1, 0)
            users = list(zip(cell.cluster.tolist(), cell.user.tolist()))
            assert users == expected_users(spec, cell.sweep_value)

        written = {}
        for workers in (1, 2):
            code, out = run_cli(tmp, doc, workers)
            assert code == 0
            written[workers] = out.read_bytes()
        assert written[1] == written[2]
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert [
            (c["system"], c["sweep_value"], c["trials"], c["excluded"]) for c in manifest["cells"]
        ] == sorted((c.system, c.sweep_value, c.trials, c.excluded) for c in table.cells)


# runs as it stands; each flaw turns it into a config that must be rejected
FLAWLESS = {
    "scenario": {
        "clusters": [
            {"aod_deg": -30.0, "gains_db": [0.0, -3.0]},
            {"aod_deg": 30.0, "gains_db": [0.0]},
        ],
        "n_bs": N_BS,
    },
    "sweep": {"name": "cluster_size", "values": [1, 2]},
    "observe_cluster": 1,
    "trials": 2,
    "seed": 3,
}


@pytest.mark.parametrize("flaw", sorted(FLAWS))
def test_every_flaw_is_rejected(tmp_path, flaw):
    # the fuzz test above draws only some of the flaws
    config_to_spec(FLAWLESS)
    doc = copy.deepcopy(FLAWLESS)
    FLAWS[flaw](doc, len(doc["scenario"]["clusters"]))
    with pytest.raises(ConfigError):
        config_to_spec(doc)
    code, out = run_cli(tmp_path, doc, 1)
    assert code == 1 and not out.exists()


# a spec built in Python is checked as it is built; each of these ran, or
# failed with a raw TypeError, before the dataclass annotations were checked
PYTHON_FLAWS = {
    "fd 'no'": (lambda spec: replace(spec, baselines=Baselines(fd="no")), "fd must be a bool"),
    "scenario_id 5": (lambda spec: replace(spec, scenario_id=5), "scenario_id must be a str"),
    "snr_db '10'": (
        lambda spec: replace(spec, scenario=replace(spec.scenario, snr_db="10")),
        "snr_db must be a float",
    ),
    "misalign_deg True": (
        lambda spec: replace(spec, scenario=replace(spec.scenario, misalign_deg=True)),
        "misalign_deg must be a float",
    ),
    # the dataclasses hold a tuple's real entries as floats and reject the
    # rest; float() used to turn "10" into 10.0 and True into 1.0
    "sweep_values '1', '2'": (
        lambda spec: replace(spec, sweep_values=("1", "2")),
        "sweep_values entries must be real numbers",
    ),
    "sweep_values True": (
        lambda spec: replace(spec, sweep_values=(True,)),
        "sweep_values entries must be real numbers",
    ),
    "misalign_grid '3'": (
        lambda spec: replace(spec, misalign_grid=("3",)),
        "misalign_grid entries must be real numbers",
    ),
    "aod_deg '10'": (
        lambda spec: replace(spec, scenario=_with_first_cluster(spec, ClusterSpec("10", (0.0,)))),
        "aod_deg must be a float",
    ),
    "gains_db '0', '-1'": (
        lambda spec: replace(spec, scenario=_with_first_cluster(spec, ClusterSpec(-30.0, ("0", "-1")))),
        "gains_db entries must be real numbers",
    ),
    # len(None) raised a TypeError, and a list of clusters failed to hash in the layout cache
    "gains_db None": (
        lambda spec: replace(spec, scenario=_with_first_cluster(spec, ClusterSpec(-30.0, None))),
        "gains_db must be a tuple",
    ),
    "clusters a list": (
        lambda spec: replace(spec, scenario=replace(spec.scenario, clusters=list(spec.scenario.clusters))),
        "clusters must be a tuple",
    ),
}


def _with_first_cluster(spec, cluster):
    return replace(spec.scenario, clusters=(cluster, *spec.scenario.clusters[1:]))


@pytest.mark.parametrize("flaw", sorted(PYTHON_FLAWS))
def test_scalar_fields_of_a_python_spec_take_their_annotated_type(flaw):
    make, message = PYTHON_FLAWS[flaw]
    spec = config_to_spec(FLAWLESS)
    with pytest.raises(ConfigError, match=message):  # replace builds, and checks, each dataclass
        make(spec)


@pytest.mark.parametrize("flaw", ["gains_db None", "clusters a list"])
@pytest.mark.parametrize("call", [trial_metrics, block_metrics])
def test_mistyped_clusters_are_named_by_the_library_calls(call, flaw):
    # such a scenario cannot be built, so no library call is handed one
    make, message = PYTHON_FLAWS[flaw]
    args = {trial_metrics: (1,), block_metrics: (1, [0])}[call]
    with pytest.raises(ConfigError, match=message):
        call(make(config_to_spec(FLAWLESS)).scenario, *args)


# each changes one argument of a library call: the spec's message, or None for one that runs
# as seed 1 does; before the check, seeds 1.5, True, "1" and 2**64 + 1 ran seed 1's draws, -1
# ran seed 2**64 - 1's, "no" and 1 ran the modeled channel, and a spec died in an AttributeError
ARGUMENTS = {
    "cfg an ExperimentSpec": (
        {"cfg": preset("fig4a")}, "cfg must be a ScenarioConfig, got ExperimentSpec("
    ),
    "seed 1.5": ({"seed": 1.5}, "seed must be an int, got 1.5"),
    "seed True": ({"seed": True}, "seed must be an int, got True"),
    "seed '1'": ({"seed": "1"}, "seed must be an int, got '1'"),
    "seed 2**64 + 1": ({"seed": 2**64 + 1}, f"seed must be in 0..2**64-1, got {2**64 + 1}"),
    "seed -1": ({"seed": -1}, "seed must be in 0..2**64-1, got -1"),
    "model_channels 'no'": ({"model_channels": "no"}, "model_channels must be a bool, got 'no'"),
    "model_channels 1": ({"model_channels": 1}, "model_channels must be a bool, got 1"),
    "seed np.int64(1)": ({"seed": np.int64(1)}, None),  # numpy integers pass, as trial indices do
    "seed np.uint64(1)": ({"seed": np.uint64(1)}, None),
}


@pytest.mark.parametrize("case", sorted(ARGUMENTS))
@pytest.mark.parametrize("call", [trial_metrics, block_metrics])
def test_library_calls_check_their_arguments_as_a_spec_does(monkeypatch, call, case):
    scenario = preset("fig4a").scenario
    change, message = ARGUMENTS[case]
    args = {"cfg": scenario, "seed": 1, "model_channels": False, **change}
    trials = [0] if call is block_metrics else 0
    if message is None:
        want, got = call(scenario, 1, trials), call(args["cfg"], args["seed"], trials)
        assert got.rate_exact.tobytes() == want.rate_exact.tobytes()
        return
    monkeypatch.setattr(montecarlo._Layout, "of", lambda cfg: pytest.fail("built a layout"))
    with pytest.raises(ConfigError, match=re.escape(message)):
        call(args["cfg"], args["seed"], trials, model_channels=args["model_channels"])


def test_float_fields_of_a_python_spec_take_ints_and_numpy_floats():
    spec = config_to_spec(FLAWLESS)
    for snr_db, misalign_deg in ((np.int64(12), 3), (np.float32(12.0), np.float32(3.0))):
        scenario = replace(spec.scenario, snr_db=snr_db, misalign_deg=misalign_deg)
        assert type(scenario.snr_db) is type(scenario.misalign_deg) is float
        run_experiment(replace(spec, scenario=scenario))
    # the power is planned in Python floats: a float32 12 dB, as the field or the snr_db
    # argument, runs as 12.0 does (10 ** 1.2 in float32 moved fig4a's rates by 1.2e-7)
    fig4a = preset("fig4a").scenario
    want = trial_metrics(replace(fig4a, snr_db=12.0), 1, 0)
    for got in (
        trial_metrics(replace(fig4a, snr_db=np.float32(12.0)), 1, 0),
        trial_metrics(fig4a, 1, 0, snr_db=np.float32(12.0)),
    ):
        for name in vars(want):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_tuple_entries_of_a_python_spec_take_real_numbers_only():
    fig4a = preset("fig4a")
    for changes, field in (
        ({"sweep_values": ("10", "20")}, "sweep_values"),
        ({"misalign_grid": ("3",)}, "misalign_grid"),
        ({"sweep_values": (True,)}, "sweep_values"),
    ):
        with pytest.raises(ConfigError, match=field):
            replace(fig4a, trials=2, **changes)
    with pytest.raises(ConfigError, match="aod_deg"):
        ClusterSpec(aod_deg="10", gains_db=("0", "-1"))
    with pytest.raises(ConfigError, match="gains_db"):
        ClusterSpec(aod_deg=10.0, gains_db=("0", "-1"))
    # numpy and int entries are real numbers, held as floats
    spec = replace(fig4a, sweep_values=(np.float32(10.0), 20), misalign_grid=(np.int64(3),))
    assert spec.sweep_values == (10.0, 20.0) and type(spec.misalign_grid[0]) is float
    validate_spec(spec)


@pytest.mark.parametrize(
    "make, field",
    [
        pytest.param(
            lambda spec: replace(spec, scenario=_with_first_cluster(spec, ClusterSpec(-30.0, (3082.0,)))),
            "gains_db entry 3082.0",
            id="gain",
        ),
        pytest.param(
            lambda spec: replace(spec, sweep_name="snr_db", sweep_values=(10.0, 3080.0), observe_cluster=None),
            "snr_db 3080.0",
            id="snr sweep value",
        ),
        pytest.param(  # each cell's power is planned in sweep order: the first overflow is named
            lambda spec: replace(
                spec, sweep_name="snr_db", sweep_values=(10.0, 3080.0, 3081.0), observe_cluster=None
            ),
            "snr_db 3080.0",
            id="first overflowing snr sweep value",
        ),
        pytest.param(
            lambda spec: replace(spec, scenario=replace(spec.scenario, snr_db=3080.0)),
            "snr_db 3080.0",
            id="snr",
        ),
    ],
)
def test_power_times_array_gain_that_overflows_is_rejected(make, field):
    # 10^(dB/10) is a float, but P N_BS N_UE |beta|^2 (N_BS N_UE = 256) is not:
    # the run gave NaN or inf rates with no draw excluded and numpy warnings
    spec = make(config_to_spec(FLAWLESS))
    assert (spec.scenario.n_bs, spec.scenario.n_ue) == (32, 8)
    with pytest.raises(ConfigError, match=field):
        validate_spec(spec)
    with pytest.raises(ConfigError, match=field):
        run_experiment(spec)


def _fig5_at(snr_db):
    return replace(preset("fig5"), sweep_values=(snr_db,), trials=3)


def _fig4a_gain(gain_db):
    # the first user's gain at gain_db, heard at -300 dB: P is tiny, c|beta|^2 is not
    spec = preset("fig4a")
    first = spec.scenario.clusters[0]
    cluster = replace(first, gains_db=(gain_db,) + first.gains_db[1:])
    scenario = replace(_with_first_cluster(spec, cluster), snr_db=-300.0)
    return replace(spec, scenario=scenario, sweep_values=(-300.0,), trials=3)


def _rejected(spec) -> bool:
    try:
        validate_spec(spec)
    except ConfigError:
        return True
    return False


@pytest.mark.parametrize(
    "make, value, field",
    [(_fig5_at, 3058.46, "snr_db 3058.46"), (_fig4a_gain, 3058.46, "gains_db entry 3058.46")],
    ids=["fig5 snr", "fig4a gain"],
)
def test_the_engines_largest_product_bounds_the_power_rule(tmp_path, make, value, field):
    # both pass a rule on P N_BS N_UE |beta|^2 alone and then overflowed in the run: ||K_u||^2
    # (up to N) and the beam gains |K_u F_BB^*|^2 (up to N max_n ||F_BB[:, n]||^2) multiply it
    spec = make(value)
    for check in (validate_spec, run_experiment):
        with pytest.raises(ConfigError, match=field):
            check(spec)
    code, out = run_cli(tmp_path, spec_to_config(spec), 1)
    assert code == 1 and not out.exists()
    # the largest value just inside the rule runs all its trials without a numpy warning
    inside, outside = 3000.0, value
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        inside, outside = (inside, mid) if _rejected(make(mid)) else (mid, outside)
    assert outside - inside < 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_experiment(make(inside))
    random = [cell for cell in table.cells if cell.trials == 3]
    assert random and all(np.isfinite(cell.rate_exact).all() for cell in table.cells)


@pytest.mark.parametrize("call", [block_metrics, trial_metrics])
def test_an_snr_argument_past_the_power_rule_is_rejected_before_drawing(monkeypatch, call):
    # the snr_db argument bypassed the rule: non-finite rates, none excluded, numpy warnings
    scenario = preset("fig4a").scenario
    call(scenario, 1, [0] if call is block_metrics else 0, snr_db=3000.0)  # inside the rule
    monkeypatch.setattr(montecarlo, "_draw", lambda *args: pytest.fail("drew past the rule"))
    for snr_db in (3080.0, 3058.46):
        with pytest.raises(ConfigError, match=f"snr_db {snr_db}"):
            call(scenario, 1, range(4) if call is block_metrics else 0, snr_db=snr_db)


@pytest.mark.parametrize("value", [2**64, 1e300], ids=["2**64", "1e300"])
def test_a_cluster_size_past_the_block_budget_is_rejected_before_resizing(
    tmp_path, capsys, monkeypatch, value
):
    # both pass the integer >= 1 rule; resizing the cluster to draw them built a gain
    # tuple that large, and `hbnoma validate` exhausted memory as `run` did
    monkeypatch.setattr(montecarlo, "_with_cluster_size", lambda *args: pytest.fail("resized"))
    doc = copy.deepcopy(FLAWLESS)
    doc["sweep"]["values"] = [1, value]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: sweep_values gives a block of .* over the budget", err)
    with pytest.raises(ConfigError, match="sweep_values gives a block"):
        replace(config_to_spec(FLAWLESS), sweep_values=(1.0, float(value)))


def test_the_block_budget_counts_rows_users_and_clusters():
    # FLAWLESS draws CHUNK rows of 1 + size users (the observed cluster at its largest
    # size, and one other) in 2 clusters; a misalign_grid of 2 doubles the rows
    spec = config_to_spec(FLAWLESS)
    largest = BLOCK_BUDGET // (CHUNK * 2) - 1
    replace(spec, sweep_values=(1.0, float(largest)))
    with pytest.raises(ConfigError, match="sweep_values gives a block"):
        replace(spec, sweep_values=(1.0, float(largest + 1)))
    with pytest.raises(ConfigError, match="sweep_values gives a block"):
        replace(spec, sweep_values=(1.0, float(largest)), misalign_grid=(0.0, 1.0))
    for name in montecarlo.PRESETS:  # every preset sits far below it
        p = preset(name)
        grid = len(p.misalign_grid or (0,))
        sizes = [len(c.gains_db) for c in p.scenario.clusters]
        if p.sweep_name == "cluster_size":
            sizes[p.observe_cluster - 1] = int(max(p.sweep_values))
        assert CHUNK * grid * sum(sizes) * len(sizes) <= BLOCK_BUDGET // 100


def test_a_block_metrics_call_past_the_block_budget_is_rejected_before_drawing(monkeypatch):
    scenario = preset("fig4a").scenario  # 30 users in 5 clusters
    rows = BLOCK_BUDGET // (30 * 5)
    monkeypatch.setattr(montecarlo, "_draw", lambda *args: pytest.fail("drew past the budget"))
    with pytest.raises(ConfigError, match=f"trials gives a block of {rows + 1} rows x 30 users"):
        block_metrics(scenario, 1, range(rows + 1))
    monkeypatch.undo()
    assert block_metrics(scenario, 1, range(2)).rate_exact.shape == (2, 30)
