"""The config contract: a JSON config is rejected or runs to a consistent table.

Configs are built from well-separated cluster AoDs (conftest.random_config)
at array sizes no smaller than the one the separation was chosen for, so the
zero-forcing design stays conditioned and a NumericalError is a failure, not
an expected outcome. Every config must either raise ConfigError (and make the
CLI exit 1 without writing a table) or give one cell per (system, sweep
value) whose counts, users, manifest entry and CSV bytes all agree.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_config
from hbnoma.cli import config_to_spec, main
from hbnoma.errors import ConfigError
from hbnoma.montecarlo import CHUNK, run_experiment

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
    "shared system label": lambda doc, n: doc.update(misalign_grid=[2.5, 2.5]),
    "hb_exact false": lambda doc, n: doc.setdefault("baselines", {}).update(hb_exact=False),
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
    optional = {
        "misalign_grid": st.one_of(
            st.none(),
            st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=1, max_size=3, unique=True),
        ),
        "baselines": st.fixed_dictionaries(
            {}, optional={k: st.booleans() for k in ("hb_lb", "fd", "oma", "model_channels")}
        ),
        "leak_weighted": st.booleans(),
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
