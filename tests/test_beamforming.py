import numpy as np
import pytest

from conftest import random_config
from hbnoma.channel import ClusterSpec, ScenarioConfig
from hbnoma.errors import SingularMatrix
from scalar_oracle import design_precoder, effective_channel, synthesize_scenario


def _scenario(n_clusters=3, misalign_deg=0.0, seed=21, trial=0, n_bs=32):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, n_clusters=n_clusters, n_bs=n_bs, misalign_deg=misalign_deg)
    return synthesize_scenario(cfg, seed=seed, trial=trial)


def test_select_first_users_argmax_tie_lowest():
    cfg = ScenarioConfig(
        clusters=(
            ClusterSpec(aod_deg=0.0, gains_db=(-1.0, 0.0, -2.0)),
            ClusterSpec(aod_deg=40.0, gains_db=(0.0, 0.0)),
        )
    )
    scen = synthesize_scenario(cfg, seed=0)
    assert design_precoder(scen).first_users == (1, 0)


def test_precoder_shapes_and_gram():
    scen = _scenario()
    pre = design_precoder(scen)
    n = scen.n_clusters
    assert pre.f_rf.shape == (32, n)
    assert pre.f_bb.shape == (n, n)
    assert np.allclose(pre.gram, pre.f_rf.conj().T @ pre.f_rf, atol=1e-12)
    assert np.allclose(np.diag(pre.gram).real, 1.0, atol=1e-12)
    assert pre.kappa_min > 0


def test_zero_forcing_on_first_users():
    scen = _scenario(n_clusters=5, misalign_deg=2.0, trial=3)
    pre = design_precoder(scen)
    eff = np.vstack(
        [
            effective_channel(scen.clusters[c][pre.first_users[c]], pre.f_rf, scen.array_gain)
            for c in range(5)
        ]
    )
    prod = eff.conj() @ pre.f_bb
    off = prod - np.diag(np.diag(prod))
    assert np.max(np.abs(off)) < 1e-9 * pre.gamma.min()
    assert np.allclose(np.diag(prod), pre.gamma, rtol=1e-9)
    assert np.all(pre.gamma > 0)


def test_composite_columns_unit_power():
    # the gamma scaling forces every hybrid column to exactly unit power
    scen = _scenario(n_clusters=6)
    pre = design_precoder(scen)
    composite = pre.f_rf @ pre.f_bb
    col_power = np.sum(np.abs(composite) ** 2, axis=0)
    assert np.allclose(col_power, 1.0, atol=1e-10)
    assert np.linalg.norm(composite) ** 2 == pytest.approx(6.0, abs=1e-8)


def test_gamma_matches_inverse_gram_diagonal():
    scen = _scenario(n_clusters=4)
    pre = design_precoder(scen)
    inv = np.linalg.inv(pre.gram)
    betas = np.array(
        [abs(scen.clusters[c][pre.first_users[c]].beta) for c in range(4)]
    )
    expect = np.sqrt(scen.array_gain / np.diag(inv).real) * betas
    assert np.allclose(pre.gamma, expect, rtol=1e-10)
    assert np.allclose(pre.inv_gram_diag, np.diag(inv).real, rtol=1e-10)


def test_rf_subspace_modes_diagonalize():
    # the eigenpairs (lam, w) of the N x N Gram F_RF^H F_RF give the N_BS-long
    # modes F_RF w / sqrt(lam) of F_RF F_RF^H with the same eigenvalues, so
    # kappa_min(F) can be read off the Gram, as the engine does
    scen = _scenario(n_clusters=4)
    pre = design_precoder(scen)
    values, vectors = np.linalg.eigh(pre.gram)
    assert values[0] == pytest.approx(pre.kappa_min, rel=1e-12)
    modes = pre.f_rf @ vectors / np.sqrt(values)
    outer = pre.f_rf @ pre.f_rf.conj().T
    for lam, v in zip(values, modes.T):
        assert np.allclose(outer @ v, lam * v, atol=1e-9)
    overlap = modes.conj().T @ modes
    assert np.allclose(overlap, np.eye(len(values)), atol=1e-9)


def test_colliding_clusters_raise():
    cfg = ScenarioConfig(
        clusters=(
            ClusterSpec(aod_deg=10.0, gains_db=(0.0,)),
            ClusterSpec(aod_deg=10.0, gains_db=(0.0,)),
        )
    )
    scen = synthesize_scenario(cfg, seed=0)
    with pytest.raises(SingularMatrix):
        design_precoder(scen)
