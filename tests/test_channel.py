import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_config
from hbnoma.channel import (
    ClusterSpec,
    ScenarioConfig,
    dirichlet_kernel,
    first_user_index,
    gain_db_to_beta,
    user_angles,
    validate_config,
)
from hbnoma.errors import ConfigError
from scalar_oracle import (
    collinearity_sum,
    design_precoder,
    effective_channel,
    steering_vector,
    synthesize_scenario,
)

angles = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def test_steering_known_values():
    assert np.allclose(steering_vector(0.0, 4), [0.5, 0.5, 0.5, 0.5], atol=1e-15)
    # phi=0.5: entries exp(-j pi k / 2)/2
    a = steering_vector(0.5, 4)
    assert np.allclose(a, [0.5, -0.5j, -0.5, 0.5j], atol=1e-15)
    assert np.allclose(steering_vector(1.0, 2), [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15)


def test_steering_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        steering_vector(1.5, 4)
    with pytest.raises(ValueError, match="outside"):
        steering_vector(-1.0 - 1e-13, 4)
    steering_vector(-1.0, 4)  # endfire


@given(angles, st.integers(min_value=1, max_value=64))
@settings(max_examples=80)
def test_steering_unit_norm(phi, n):
    assert np.linalg.norm(steering_vector(phi, n)) == pytest.approx(1.0, abs=1e-12)


def test_normalized_angle_values():
    cfg = ScenarioConfig(
        clusters=(
            ClusterSpec(aod_deg=0.0, gains_db=(0.0,)),
            ClusterSpec(aod_deg=30.0, gains_db=(0.0,)),
            ClusterSpec(aod_deg=-60.0, gains_db=(0.0,)),
        )
    )
    _, phi = user_angles(cfg, 0, [0])
    np.testing.assert_allclose(phi[0], [0.0, 0.5, -math.sqrt(0.75)], rtol=0, atol=1e-15)


@given(
    st.floats(-90.0, 90.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e4),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=200)
def test_normalized_angles_stay_in_range(aod, spread, trials, seed):
    # half-wavelength spacing: the normalized angle is sin(AoD), in [-1, 1] for any offset
    cfg = ScenarioConfig(
        clusters=(ClusterSpec(aod, (0.0, -1.0, -2.0)), ClusterSpec(-aod / 2, (0.0, -3.0))),
        misalign_deg=spread,
    )
    _, phi = user_angles(cfg, seed, trials)
    assert phi.shape == (len(trials), 5)
    assert np.all(np.abs(phi) <= 1.0)


def test_collinearity_known_values():
    def k(delta, n):
        return float(np.abs(dirichlet_kernel(np.array(delta), n))[0] ** 2)

    assert k(0.0, 8) == pytest.approx(1.0, abs=1e-12)
    # orthogonal grid spacing 2/N
    assert k(0.25, 8) == pytest.approx(0.0, abs=1e-12)
    assert k(0.1, 8) == pytest.approx(0.5775210180698608, abs=1e-12)
    assert k(-0.1, 8) == k(0.1, 8)


@given(angles, angles, st.integers(min_value=1, max_value=48))
@settings(max_examples=100)
def test_collinearity_matches_inner_product(pa, pb, n):
    # |K|^2 of the kernel against the direct summation route
    direct = abs(np.vdot(steering_vector(pa, n), steering_vector(pb, n))) ** 2
    k = abs(dirichlet_kernel(np.array(pb - pa), n)[0]) ** 2
    assert k == pytest.approx(direct, abs=1e-12)
    assert 0.0 <= k <= 1.0 + 1e-15
    assert abs(dirichlet_kernel(np.array(pa - pb), n)[0]) ** 2 == k


def test_collinearity_spec_angles():
    delta = math.sin(math.radians(30.0)) - math.sin(math.radians(10.0))
    direct = abs(np.vdot(steering_vector(0.0, 32), steering_vector(delta, 32))) ** 2
    assert abs(dirichlet_kernel(np.array(delta), 32)[0]) ** 2 == pytest.approx(direct, abs=1e-12)


def test_collinearity_sum_is_elementwise_total():
    anchors = [0.1, 0.4, -0.3]
    expect = sum(abs(dirichlet_kernel(np.array(0.2 - p), 16)[0]) ** 2 for p in anchors)
    assert collinearity_sum(0.2, anchors, 16) == pytest.approx(expect, abs=1e-12)


def test_gain_db_to_beta():
    assert gain_db_to_beta(0.0) == 1.0
    assert abs(gain_db_to_beta(-2.0)) ** 2 == pytest.approx(10 ** (-0.2), rel=1e-12)


def test_first_user_index_prefers_largest_then_lowest():
    assert first_user_index((0.0, -1.0, -2.0)) == 0
    assert first_user_index((-3.0, 0.0, 0.0)) == 1


def test_synthesize_deterministic_and_anchored():
    cfg = ScenarioConfig(
        clusters=(
            ClusterSpec(aod_deg=10.0, gains_db=(0.0, -1.0, -2.0)),
            ClusterSpec(aod_deg=40.0, gains_db=(0.0, -1.0)),
        ),
        misalign_deg=3.0,
    )
    a = synthesize_scenario(cfg, seed=9, trial=4)
    b = synthesize_scenario(cfg, seed=9, trial=4)
    for la, lb in zip(a.links(), b.links()):
        assert la == lb
    c = synthesize_scenario(cfg, seed=9, trial=5)
    assert any(la.aod_deg != lc.aod_deg for la, lc in zip(a.links(), c.links()))
    for scen in (a, c):
        for ci, cluster in enumerate(scen.clusters):
            assert cluster[0].aod_deg == cfg.clusters[ci].aod_deg
            for link in cluster[1:]:
                assert abs(link.aod_deg - cfg.clusters[ci].aod_deg) <= 3.0


def test_synthesize_b0_collapses_to_cluster_angle():
    cfg = ScenarioConfig(clusters=(ClusterSpec(aod_deg=25.0, gains_db=(0.0, -1.0, -4.0)),))
    scen = synthesize_scenario(cfg, seed=1, trial=7)
    assert all(link.aod_deg == 25.0 for link in scen.clusters[0])


def test_synthesize_orders_gains_as_configured():
    cfg = ScenarioConfig(clusters=(ClusterSpec(aod_deg=0.0, gains_db=(-2.0, 0.0)),))
    scen = synthesize_scenario(cfg, seed=0)
    # anchor is the strongest user regardless of its position in the config
    assert abs(scen.clusters[0][1].beta) == 1.0
    assert scen.clusters[0][1].aod_deg == 0.0


def test_validate_config_errors():
    good = ClusterSpec(aod_deg=10.0, gains_db=(0.0,))
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(clusters=()))
    with pytest.raises(ConfigError):
        validate_config(
            ScenarioConfig(clusters=(good, ClusterSpec(aod_deg=20.0, gains_db=())))
        )
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(clusters=(ClusterSpec(aod_deg=95.0, gains_db=(0.0,)),)))
    with pytest.raises(ConfigError):
        validate_config(ScenarioConfig(clusters=(good,), misalign_deg=-1.0))


def test_effective_norm_identity():
    # ||h_eff||^2 = c |beta|^2 sum_l K(phi_l1 - phi)
    rng = np.random.default_rng(5)
    cfg = random_config(rng, n_clusters=4, misalign_deg=4.0)
    scen = synthesize_scenario(cfg, seed=11, trial=2)
    pre = design_precoder(scen)
    anchor_phis = [scen.clusters[c][pre.first_users[c]].phi_norm for c in range(4)]
    for link in scen.links():
        h = effective_channel(link, pre.f_rf, scen.array_gain)
        expect = (
            scen.array_gain
            * abs(link.beta) ** 2
            * collinearity_sum(link.phi_norm, anchor_phis, scen.n_bs)
        )
        assert float(np.vdot(h, h).real) == pytest.approx(expect, rel=1e-9)
