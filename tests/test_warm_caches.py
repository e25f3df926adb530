"""Runs in one process share the configuration caches and each thread's block buffers.

None of that may show in a result: a warm run writes the bytes of a cold one, and
no writable array of a table or of a library call's metrics is memory of a buffer
or of another run's result.
"""

import gc
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from hbnoma import channel, montecarlo
from hbnoma.channel import ClusterSpec, ScenarioConfig
from hbnoma.cli import write_table_csv
from hbnoma.montecarlo import (
    CHUNK,
    POOL_CAP,
    PRESETS,
    ExperimentSpec,
    block_metrics,
    preset,
    run_experiment,
    trial_metrics,
)


def _cold() -> None:
    """Empty the configuration caches and the calling thread's buffers."""
    montecarlo._Layout.of.cache_clear()
    channel._user_keys.cache_clear()
    vars(montecarlo._pool).clear()


def _csv(table, path) -> bytes:
    write_table_csv(table, str(path))
    return path.read_bytes()


def _arrays(table) -> list[np.ndarray]:
    return [value for cell in table.cells for value in vars(cell).values()
            if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("name", PRESETS)
def test_a_warm_run_writes_the_bytes_of_a_cold_one(name, tmp_path):
    # two blocks, so a run's second block already reuses its thread's buffers
    spec = replace(preset(name), trials=CHUNK + 6)
    path = tmp_path / "table.csv"
    cold = {}
    for seed in (3, 4):
        _cold()
        cold[seed] = _csv(run_experiment(replace(spec, seed=seed)), path)
    # warm after seed 4: the other seed, the first again, then both on two worker threads
    tables = []
    for seed, workers in ((3, 1), (4, 1), (3, 2), (4, 2)):
        table = run_experiment(replace(spec, seed=seed), workers=workers)
        assert _csv(table, path) == cold[seed], (seed, workers)
        tables.append(table)

    buffers = list(vars(montecarlo._pool).values())
    assert buffers or name in ("fig3a", "fig3b")  # the thread keeps the buffers of its runs
    for table, following in zip(tables, tables[1:]):
        later = _arrays(following)
        for array in _arrays(table):
            assert not any(np.shares_memory(array, buffer) for buffer in buffers)
            if array.flags.writeable:  # a layout's read-only arrays are shared; no other one is
                assert not any(np.shares_memory(array, other) for other in later)


def _wide_spec(users_per_cluster: int) -> ExperimentSpec:
    """Eight clusters at 10..80 deg, b = 3, one block of CHUNK draws."""
    gains = tuple(np.linspace(0.0, -18.0, users_per_cluster))
    clusters = tuple(ClusterSpec(10.0 * (i + 1), gains) for i in range(8))
    cfg = ScenarioConfig(clusters=clusters, misalign_deg=3.0)
    return ExperimentSpec(scenario=cfg, sweep_values=(10.0,), trials=CHUNK)


def test_a_block_over_the_cap_leaves_no_buffer_in_the_thread():
    users = POOL_CAP // (CHUNK * 8 * 8) + 1  # users per cluster: a block is over the cap
    kept = {}

    def in_a_new_thread():
        run_experiment(_wide_spec(users))
        kept["over"] = dict(vars(montecarlo._pool))
        run_experiment(_wide_spec(users - 2))
        kept["under"] = dict(vars(montecarlo._pool))

    thread = threading.Thread(target=in_a_new_thread)
    thread.start()
    thread.join()
    assert kept["over"] == {}
    assert set(kept["under"]) == {"kernel", "gains"}
    assert all(len(buffer) <= POOL_CAP for buffer in kept["under"].values())


def test_the_buffers_of_worker_threads_die_with_them(monkeypatch):
    refs = []
    scratch = montecarlo._scratch

    def recorded(name, shape):
        array = scratch(name, shape)
        thread = threading.get_ident()
        refs.extend((thread, weakref.ref(buffer)) for buffer in vars(montecarlo._pool).values())
        return array

    monkeypatch.setattr(montecarlo, "_scratch", recorded)
    spec = replace(preset("fig4c"), trials=3 * CHUNK, misalign_grid=(3.0, 6.0))
    before = {name: id(buffer) for name, buffer in vars(montecarlo._pool).items()}
    run_experiment(spec, workers=2)
    gc.collect()
    assert refs and all(ident != threading.get_ident() for ident, _ in refs)
    assert all(ref() is None for _, ref in refs)
    assert {name: id(buffer) for name, buffer in vars(montecarlo._pool).items()} == before


def test_more_workers_than_cores_keep_the_bytes(tmp_path):
    # each worker thread draws and views its blocks in its own buffers while the main thread
    # reduces the blocks handed back; a buffer that escaped its thread would be overwritten
    spec = replace(preset("fig4c"), trials=5 * CHUNK + 3)
    path = tmp_path / "table.csv"
    want = _csv(run_experiment(spec), path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            assert _csv(run_experiment(spec, workers=4), path) == want
    finally:
        sys.setswitchinterval(interval)


def test_library_calls_return_no_buffer():
    # trial_metrics and block_metrics draw and view in the calling thread's buffers too
    cfg = preset("fig4a").scenario
    first = trial_metrics(cfg, seed=5, trial=2)
    kept = {name: value.copy() for name, value in vars(first).items()}
    block = block_metrics(cfg, seed=5, trials=range(CHUNK))
    trial_metrics(cfg, seed=6, trial=3)
    buffers = list(vars(montecarlo._pool).values())
    assert buffers
    for metrics in (first, block):
        for value in vars(metrics).values():
            assert not any(np.shares_memory(value, buffer) for buffer in buffers)
    for name, value in vars(first).items():
        np.testing.assert_array_equal(value, kept[name], err_msg=name)
