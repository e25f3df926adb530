import dataclasses
import math

import numpy as np
import pytest

from hbnoma import channel, montecarlo
from hbnoma.channel import ClusterSpec, ScenarioConfig
from hbnoma.errors import ConfigError, DegenerateScenario, UnknownPreset
from hbnoma.montecarlo import (
    CHUNK,
    VALUE_COLUMNS,
    Baselines,
    ExperimentSpec,
    preset,
    run_experiment,
    trial_metrics,
    _Accumulator,
    _Layout,
    _reduce,
    validate_spec,
)
from scalar_oracle import fully_digital_rates, oma_rate, synthesize_scenario

TWO_CLUSTERS = ScenarioConfig(
    clusters=(
        ClusterSpec(aod_deg=10.0, gains_db=(0.0, -2.0)),
        ClusterSpec(aod_deg=45.0, gains_db=(0.0, -1.0, -3.0)),
    ),
    misalign_deg=3.0,
)


def small_spec(**overrides):
    base = dict(
        scenario=TWO_CLUSTERS,
        sweep_name="snr_db",
        sweep_values=(10.0, 20.0),
        trials=30,
        seed=7,
        scenario_id="unit",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def cell_of(table, system, sweep_value):
    (cell,) = [c for c in table.cells if c.system == system and c.sweep_value == sweep_value]
    return cell


def cells_of(table, system=None, sweep_value=None):
    return [
        c
        for c in table.cells
        if system in (None, c.system) and sweep_value in (None, c.sweep_value)
    ]


def assert_cells_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.system, a.sweep_value, a.trials, a.excluded) == (
            b.system,
            b.sweep_value,
            b.trials,
            b.excluded,
        )
        for name in ("cluster", "user", *VALUE_COLUMNS):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_row_count_invariant():
    table = run_experiment(small_spec())
    assert sum(len(c.user) for c in table.cells) == 2 * 5  # |sweep| * total users
    assert table.systems == ("hb",)
    assert all(c.trials == 30 for c in table.cells)


def test_single_aligned_trial_matches_pipeline_call():
    cfg = dataclasses.replace(TWO_CLUSTERS, misalign_deg=0.0)
    table = run_experiment(small_spec(scenario=cfg, sweep_values=(10.0,), trials=1))
    metrics = trial_metrics(cfg, seed=7, trial=0, snr_db=10.0)
    (cell,) = table.cells
    np.testing.assert_array_equal(cell.rate_exact, metrics.rate_exact)
    np.testing.assert_array_equal(cell.rate_lb_thm1, metrics.rate_lb_thm1)
    np.testing.assert_array_equal(cell.rate_lb_thm2, metrics.rate_lb_thm2)
    assert np.all(cell.stderr == 0.0)


def test_aligned_run_collapses_to_one_trial():
    cfg = dataclasses.replace(TWO_CLUSTERS, misalign_deg=0.0)
    table = run_experiment(small_spec(scenario=cfg, trials=500))
    assert all(c.trials == 1 for c in table.cells)
    assert all(np.all(c.rho_mean == 1.0) for c in table.cells)
    assert all(np.all(np.abs(c.rate_gap) < 1e-12) for c in table.cells)


def test_worker_counts_agree_exactly():
    spec = small_spec(trials=70)
    serial = run_experiment(spec, workers=1)
    threaded = run_experiment(spec, workers=8)
    assert_cells_equal(serial.cells, threaded.cells)


@pytest.mark.parametrize("workers", [0, -4])
def test_worker_count_below_one_is_rejected(workers):
    with pytest.raises(ConfigError, match="workers"):
        run_experiment(small_spec(trials=3), workers=workers)


@pytest.mark.parametrize("workers", [True, 1.5, 2.0, "2", None])
def test_worker_count_that_is_no_int_is_rejected(workers):
    # True would run as 1; a float, str or None ends in a raw TypeError
    with pytest.raises(ConfigError, match=f"workers must be an int, got {workers!r}"):
        run_experiment(small_spec(trials=200), workers=workers)


def test_misalign_grid_labels_systems():
    spec = small_spec(misalign_grid=(0.0, 3.0), trials=10)
    table = run_experiment(spec)
    assert table.systems == ("b0", "b3")
    assert all(c.trials == 1 for c in cells_of(table, "b0"))
    assert all(c.trials == 10 for c in cells_of(table, "b3"))


def test_baseline_rows_are_deterministic():
    spec = small_spec(baselines=Baselines(fd=True, oma=True), trials=5)
    table = run_experiment(spec)
    fd = cells_of(table, "fd")
    oma = cells_of(table, "oma")
    assert sum(len(c.user) for c in fd) == sum(len(c.user) for c in oma) == 10
    assert all(
        np.all(np.isnan(c.rate_lb_thm1)) and np.all(c.stderr == 0.0) and c.trials == 1
        for c in fd
    )
    again = run_experiment(spec)
    assert_cells_equal(table.cells, again.cells)


def test_mean_rate_decreases_with_misalignment():
    narrow = run_experiment(small_spec(trials=200))
    wide_cfg = dataclasses.replace(TWO_CLUSTERS, misalign_deg=8.0)
    wide = run_experiment(small_spec(scenario=wide_cfg, trials=200))
    total_narrow = sum(sum(c.rate_exact.tolist()) for c in cells_of(narrow, sweep_value=20.0))
    total_wide = sum(sum(c.rate_exact.tolist()) for c in cells_of(wide, sweep_value=20.0))
    assert total_wide < total_narrow


def test_cluster_size_sweep_resizes_observed_cluster():
    spec = small_spec(
        sweep_name="cluster_size",
        sweep_values=(2.0, 4.0),
        observe_cluster=2,
        trials=5,
    )
    table = run_experiment(spec)
    for size in (2, 4):
        cell = cell_of(table, "hb", float(size))
        assert np.count_nonzero(cell.cluster == 2) == size
        assert np.count_nonzero(cell.cluster == 1) == 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model_channels", [False, True])
@pytest.mark.parametrize("hb_lb", [True, False])
def test_cluster_size_sweep_cells_equal_one_size_runs(hb_lb, model_channels, workers):
    # the sweep draws each block once, at its largest size (given first here,
    # not last), and views each size's users of it; an SNR run of the resized
    # configuration draws and views all of its own users, so every cell must
    # come out the same bit for bit
    spec = small_spec(
        sweep_name="cluster_size",
        sweep_values=(4.0, 2.0, 3.0),
        observe_cluster=1,  # cluster 2's users follow the resized cluster's
        misalign_grid=(0.0, 3.0),
        trials=CHUNK + 6,
        baselines=Baselines(hb_lb=hb_lb, model_channels=model_channels),
    )
    table = run_experiment(spec, workers=workers)
    snr = TWO_CLUSTERS.snr_db
    for size in spec.sweep_values:
        ramp = ClusterSpec(10.0, tuple(-float(k) for k in range(int(size))))
        alone = dataclasses.replace(
            spec,
            scenario=dataclasses.replace(TWO_CLUSTERS, clusters=(ramp, TWO_CLUSTERS.clusters[1])),
            sweep_name="snr_db",
            sweep_values=(snr,),
            observe_cluster=None,
        )
        alone = run_experiment(alone, workers=workers)
        for label in ("b0", "b3"):
            want = dataclasses.replace(cell_of(alone, label, snr), sweep_value=size)
            assert_cells_equal([cell_of(table, label, size)], [want])


@pytest.mark.parametrize("model_channels", [False, True])
@pytest.mark.parametrize("name", ["fig4c", "fig5"])
def test_grid_cells_equal_one_spread_runs(name, model_channels):
    # each block stacks the rows of every grid spread, and each spread's rows
    # feed its own cells; every cell must come out as a run of that spread
    # alone computes it, bit for bit, over several blocks and a partial last
    # one (with model channels b = 0 draws every trial too)
    spec = dataclasses.replace(
        preset(name), trials=2 * CHUNK + 2, baselines=Baselines(model_channels=model_channels)
    )
    table = run_experiment(spec)
    for b in spec.misalign_grid:
        alone = run_experiment(dataclasses.replace(spec, misalign_grid=(b,)))
        want = [dataclasses.replace(cell, system=f"b{b:g}") for cell in alone.cells]
        assert_cells_equal(cells_of(table, f"b{b:g}"), want)
        drawn = spec.trials if b or model_channels else 1
        assert all(c.trials + c.excluded == drawn for c in want)


@pytest.mark.parametrize(
    "sweep_name, sweep_values", [("snr_db", (10.0, 20.0)), ("cluster_size", (1.0, 3.0, 2.0))]
)
def test_each_block_is_drawn_viewed_and_evaluated_once_for_the_whole_grid(
    monkeypatch, sweep_name, sweep_values
):
    calls = []

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

    evaluate = montecarlo._evaluate

    def counted_evaluate(geo, p_totals, *args):  # one count per SNR's fields
        for fields in evaluate(geo, p_totals, *args):
            calls.append("_evaluate")
            yield fields

    counted(channel, "counter_uniform")
    for name in ("_draw", "_view"):
        counted(montecarlo, name)
    monkeypatch.setattr(montecarlo, "_evaluate", counted_evaluate)
    views = 1 if sweep_name == "snr_db" else len(sweep_values)
    for grid in ((3.0,), (0.0, 3.0, 5.0, 2.5)):
        spec = small_spec(
            sweep_name=sweep_name,
            sweep_values=sweep_values,
            observe_cluster=None if sweep_name == "snr_db" else 2,
            misalign_grid=grid,
            trials=2 * CHUNK + 2,
        )
        calls.clear()
        run_experiment(spec)
        assert calls.count("counter_uniform") == calls.count("_draw") == 3
        assert calls.count("_view") == 3 * views
        assert calls.count("_evaluate") == 3 * len(sweep_values)


def test_n_bs_sweep_changes_array():
    spec = small_spec(sweep_name="n_bs", sweep_values=(16.0, 64.0), trials=5)
    table = run_experiment(spec)
    small = sum(cell_of(table, "hb", 16.0).rate_exact.tolist())
    large = sum(cell_of(table, "hb", 64.0).rate_exact.tolist())
    assert large > small


def test_colliding_clusters_degenerate():
    cfg = ScenarioConfig(
        clusters=(
            ClusterSpec(aod_deg=10.0, gains_db=(0.0,)),
            ClusterSpec(aod_deg=10.0, gains_db=(0.0,)),
        ),
    )
    with pytest.raises(DegenerateScenario):
        run_experiment(small_spec(scenario=cfg, trials=3))


def test_spec_validation():
    with pytest.raises(ConfigError):
        validate_spec(small_spec(sweep_name="power"))
    with pytest.raises(ConfigError):
        validate_spec(small_spec(sweep_values=()))
    with pytest.raises(ConfigError):
        validate_spec(small_spec(trials=0))
    # the CSV labels every row with it
    with pytest.raises(ConfigError, match="scenario_id"):
        validate_spec(small_spec(scenario_id=""))
    with pytest.raises(ConfigError):
        validate_spec(small_spec(sweep_name="cluster_size", observe_cluster=None))
    with pytest.raises(ConfigError):
        run_experiment(
            small_spec(
                sweep_name="cluster_size", sweep_values=(3.0,), observe_cluster=9, trials=1
            )
        )
    for observe in (9, 0):
        with pytest.raises(ConfigError, match="observe_cluster"):
            validate_spec(small_spec(sweep_name="cluster_size", observe_cluster=observe))
    # only a cluster_size sweep reads it: on any other sweep it would do nothing
    with pytest.raises(ConfigError, match="observe_cluster"):
        validate_spec(small_spec(observe_cluster=1))
    # the counter RNG keys on the seed's low 64 bits: 2**64 would draw as seed 0
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="seed"):
            validate_spec(small_spec(seed=seed))
    validate_spec(small_spec(seed=2**64 - 1))
    # NaN or inf would run to empty rows, and no JSON manifest could hold it
    for bad in (
        lambda: small_spec(sweep_values=(10.0, math.nan)),
        lambda: small_spec(scenario=dataclasses.replace(TWO_CLUSTERS, misalign_deg=math.inf)),
    ):
        with pytest.raises(ConfigError, match="finite"):
            validate_spec(bad())
    # 10^(dB/10) of these overflows: the run would end in a raw OverflowError
    for bad in (
        lambda: small_spec(sweep_values=(10.0, 1e300)),
        lambda: small_spec(scenario=dataclasses.replace(TWO_CLUSTERS, snr_db=3083.0)),
        lambda: small_spec(
            scenario=dataclasses.replace(
                TWO_CLUSTERS, clusters=(ClusterSpec(10.0, (0.0, 1e300)),) + TWO_CLUSTERS.clusters[1:]
            )
        ),
    ):
        with pytest.raises(ConfigError, match="overflows"):
            validate_spec(bad())
    # P N_BS N_UE |beta|^2 of these overflows (N_BS N_UE = 256): NaN rates, none excluded
    for bad in (
        small_spec(sweep_values=(10.0, 3082.0)),
        small_spec(scenario=dataclasses.replace(TWO_CLUSTERS, snr_db=3080.0)),
        small_spec(
            scenario=dataclasses.replace(
                TWO_CLUSTERS, clusters=(ClusterSpec(10.0, (0.0, 3082.0)),) + TWO_CLUSTERS.clusters[1:]
            )
        ),
    ):
        with pytest.raises(ConfigError, match="N_BS N_UE"):
            validate_spec(bad)
    validate_spec(small_spec(sweep_values=(-1e300, 3050.0)))  # P N_BS N_UE |beta|^2 0 and 2.6e307
    # a repeated value or system label would merge two cells' trials into one
    with pytest.raises(ConfigError, match="repeat"):
        validate_spec(small_spec(sweep_values=(10.0, 10.0)))
    for grid in ((3.0, 3.0), (3.0, 3.0000001)):
        with pytest.raises(ConfigError, match="label"):
            validate_spec(small_spec(misalign_grid=grid))
    with pytest.raises(ConfigError, match="misalignment"):
        validate_spec(small_spec(misalign_grid=(3.0, -1.0)))
    # array and cluster sizes count antennas and users
    for name, extra in (("n_bs", {}), ("cluster_size", {"observe_cluster": 1})):
        for bad in (8.5, 2.7, 0.0, -4.0):
            with pytest.raises(ConfigError, match="integers"):
                validate_spec(small_spec(sweep_name=name, sweep_values=(8.0, bad), **extra))
        validate_spec(small_spec(sweep_name=name, sweep_values=(1.0, 8.0), **extra))


@pytest.mark.parametrize(
    "spec",
    [
        preset("fig3a"),
        dataclasses.replace(preset("fig5"), trials=2),
        # c = 8 N_BS is not a power of two, so the order of the OMA product
        # (P c)|beta|^2 shows in the last bit for 25 of fig5's 88 gains at 10 dB
        dataclasses.replace(
            preset("fig5"),
            sweep_name="n_bs",
            sweep_values=(24.0, 48.0),
            misalign_grid=None,
            trials=2,
        ),
    ],
    ids=["fig3a", "fig5", "n_bs-24-48"],
)
def test_baseline_cells_match_scalar_oracle(spec):
    table = run_experiment(spec)
    checked = 0
    for cell in table.cells:
        if cell.system not in ("fd", "oma"):
            continue
        if spec.sweep_name == "snr_db":
            cfg = dataclasses.replace(spec.scenario, snr_db=cell.sweep_value)
        else:
            cfg = dataclasses.replace(spec.scenario, n_bs=int(cell.sweep_value))
        scen = synthesize_scenario(dataclasses.replace(cfg, misalign_deg=0.0), spec.seed)
        if cell.system == "fd":
            want = fully_digital_rates(scen)
        else:
            want = {
                (link.cluster, link.user): oma_rate(
                    link.beta, scen.total_power, scen.noise_var, scen.array_gain
                )
                for link in scen.links()
            }
        got = dict(zip(zip(cell.cluster.tolist(), cell.user.tolist()), cell.rate_exact.tolist()))
        assert got == want  # bit for bit
        checked += 1
    assert checked == len(spec.sweep_values) * (spec.baselines.fd + spec.baselines.oma)


def test_model_channel_run_reports_bounds():
    spec = small_spec(baselines=Baselines(model_channels=True), trials=40)
    table = run_experiment(spec)
    for cell in table.cells:
        later = cell.user >= 2
        assert np.all(cell.rate_lb_thm2[later] <= cell.rate_exact[later] + 1e-9)


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("fig9")


def test_preset_fig5_serves_88_users():
    spec = preset("fig5")
    sizes = [len(c.gains_db) for c in spec.scenario.clusters]
    assert sizes == [4, 6, 8, 10, 12, 14, 16, 18]
    assert sum(sizes) == 88
    assert spec.misalign_grid == (0.0, 2.0, 6.0)
    assert spec.baselines.fd and spec.baselines.oma
    for c in spec.scenario.clusters:
        assert c.gains_db[0] == 0.0
        assert c.gains_db[-1] == -18.0


def test_preset_fig4_cluster_sizes():
    a = preset("fig4a")
    sizes = [len(c.gains_db) for c in a.scenario.clusters]
    assert sizes == [5, 5, 10, 5, 5]
    assert [c.aod_deg for c in a.scenario.clusters] == [10.0, 30.0, 50.0, 65.0, 80.0]
    assert a.scenario.clusters[2].gains_db[:3] == (0.0, -1.0, -2.0)
    b = preset("fig4b")
    assert [len(c.gains_db) for c in b.scenario.clusters] == [15, 15, 10, 15, 15]
    assert b.sweep_values == (15.0,)
    c = preset("fig4c")
    assert c.sweep_name == "cluster_size"
    assert c.misalign_grid == (0.0, 3.0, 6.0)


def test_preset_fig3_gains():
    spec = preset("fig3a")
    assert len(spec.scenario.clusters) == 1
    assert spec.scenario.clusters[0].gains_db == (0.0, -2.0)
    assert preset("fig3b").sweep_name == "n_bs"


def test_accumulator_stderr_survives_nearly_constant_rates():
    # a running sum of squares cancels to noise here: 1e-18 variance under 1e2 squares
    rates = 10.0 + np.random.default_rng(0).uniform(-1e-9, 1e-9, size=(1000, 1))
    acc = _Accumulator(1)
    for start in range(0, len(rates), CHUNK):
        acc.add({"rate_exact": rates}, slice(start, start + CHUNK), np.zeros(1))
    want = np.std(rates, ddof=1) / math.sqrt(len(rates))
    assert acc.stderr()[0] == pytest.approx(want, rel=1e-6)
    assert acc.mean[0] == pytest.approx(np.mean(rates), rel=1e-15)


class _GatherAccumulator:
    """The reduction of a cell as it ran before _reduce: a gathered copy of the kept rows of each
    field, Chan-merged into zeros, every field summed per cell, rho among them."""

    SUMMED = ("rate_lb_thm1", "rate_lb_thm2", "rate_gap", "rho")

    def __init__(self, n_users):
        self.n = 0
        self.mean = np.zeros(n_users)
        self.m2 = np.zeros(n_users)
        self.sums = {}
        self.sum_gap_ub = np.zeros(n_users)
        self.n_gap_ub = np.zeros(n_users, dtype=np.int64)

    def add(self, fields):
        rate = fields["rate_exact"]
        n_block = rate.shape[0]
        if n_block == 0:
            return
        mean_block = rate.mean(axis=0)
        m2_block = np.sum((rate - mean_block) ** 2, axis=0)
        n = self.n + n_block
        delta = mean_block - self.mean
        self.mean = self.mean + delta * (n_block / n)
        self.m2 = self.m2 + m2_block + delta**2 * (self.n * n_block / n)
        self.n = n
        for name in self.SUMMED:
            if name in fields:
                self.sums[name] = self.sums.get(name, 0.0) + fields[name].sum(axis=0)
        if "gap_ub_thm3" in fields:
            applicable = fields["gap_ub_applicable"]
            self.sum_gap_ub += np.where(applicable, fields["gap_ub_thm3"], 0.0).sum(axis=0)
            self.n_gap_ub += applicable.sum(axis=0)

    def cell(self):
        columns = dict.fromkeys(montecarlo._BOUND_COLUMNS, np.full_like(self.mean, np.nan))
        for name, total in self.sums.items():
            columns["rho_mean" if name == "rho" else name] = total / self.n
        with np.errstate(invalid="ignore"):
            columns["gap_ub_thm3"] = self.sum_gap_ub / self.n_gap_ub
        stderr = np.zeros_like(self.mean)
        if self.n > 1:
            stderr = np.sqrt(self.m2 / (self.n - 1) / self.n)
        return {**columns, "rate_exact": self.mean, "stderr": stderr}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
@pytest.mark.parametrize("bounds", [True, False], ids=["bounds", "no_bounds"])
def test_the_reduction_keeps_the_bits_of_a_gather_and_merge(n_blocks, bounds):
    # three spreads of 40, 11 and 0 rows per block; block k keeps all of spread k's rows, none of
    # spread k + 1's and a mix of spread k + 2's, so over 3 blocks each spread meets all three.
    # rho and the exact rate are F-ordered (as a gather of a cluster-size view's columns can
    # be), so only row-by-row sums keep the bits of the gathered copies
    lay = _Layout.of(TWO_CLUSTERS)
    users, cells = len(lay.user), 3
    lens = np.array([40, 11, 0])
    rng = np.random.default_rng(n_blocks)
    ref = [[_GatherAccumulator(users) for _ in range(cells)] for _ in lens]
    new = [[_Accumulator(users) for _ in range(cells)] for _ in lens]
    for k in range(n_blocks):
        rows = int(lens.sum())
        masks = (np.ones, np.zeros, lambda n, dtype: rng.random(n) < 0.6)
        kept = np.concatenate([masks[(i - k) % 3](n, dtype=bool) for i, n in enumerate(lens)])
        scale = 10.0 ** rng.integers(-8, 8, size=(rows, users))  # sums that round per order
        rho = np.asfortranarray(rng.random((rows, users)) * scale)
        cell_fields = []
        for _ in range(cells):
            fields = {
                "rate_exact": np.asfortranarray(rng.random((rows, users)) * scale),
                "rate_gap": rng.random((rows, users)) * scale,
            }
            fields["rate_exact"][:, 0] = -0.0  # were its mean -0.0, a merge into zeros makes it 0.0
            if bounds:
                fields.update(
                    rate_lb_thm1=rng.random((rows, users)) * scale,
                    rate_lb_thm2=rng.random((rows, users)) * scale,
                    gap_ub_thm3=rng.random((rows, users)) * scale,
                    gap_ub_applicable=rng.random((rows, users)) < 0.5,
                )
            cell_fields.append(fields)
        ends = np.cumsum(lens)
        for c, fields in enumerate(cell_fields):
            for i, span in enumerate(map(slice, ends - lens, ends)):
                gathered = {name: x[span][kept[span]] for name, x in fields.items()}
                ref[i][c].add({"rho": rho[span][kept[span]], **gathered})
        _reduce(new, iter(cell_fields), rho, kept, lens)

    for want_row, got_row in zip(ref, new):
        for want, got in zip(want_row, got_row):
            assert got.n == want.n
            assert _same_bits(got.mean, want.mean) and _same_bits(got.m2, want.m2)
            assert got.sums.keys() == want.sums.keys()
            assert all(_same_bits(got.sums[name], total) for name, total in want.sums.items())
            assert _same_bits(got.sum_gap_ub, want.sum_gap_ub)
            assert _same_bits(got.n_gap_ub, want.n_gap_ub)
            if want.n:
                cell = got.cell("b1", 10.0, lay, 7)
                assert (cell.trials, cell.excluded) == (want.n, 7)
                for name, value in want.cell().items():
                    assert _same_bits(getattr(cell, name), value), name
    assert sum(acc.n for row in new for acc in row) > 0


@pytest.mark.parametrize(
    "field, value",
    [("trials", 8.0), ("trials", True), ("seed", np.int64(5)), ("observe_cluster", 1.0),
     ("n_bs", 32.0), ("n_ue", False)],
)
def test_int_fields_of_a_python_spec_take_only_ints(field, value):
    # 8.0 would end in a TypeError in the run, and True would run as 1
    with pytest.raises(ConfigError, match=f"{field} must be an int"):
        if field in ("n_bs", "n_ue"):
            dataclasses.replace(TWO_CLUSTERS, **{field: value})
        elif field == "observe_cluster":
            small_spec(sweep_name="cluster_size", sweep_values=(2.0,), observe_cluster=value)
        else:
            small_spec(**{field: value})
