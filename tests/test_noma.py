import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbnoma.channel import ClusterSpec, ScenarioConfig
from hbnoma.errors import DegenerateScenario
from scalar_oracle import (
    allocate_power,
    exact_rate,
    fully_digital_rates,
    oma_rate,
    order_users_by_effective,
    rate_from_terms,
    synthesize_scenario,
)

pos_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def test_rate_from_terms_known_value():
    assert rate_from_terms(1.0, 0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert rate_from_terms(2.0, 1.0, 2.0, 1.0) == pytest.approx(
        0.5849625007211562, abs=1e-15
    )


@given(pos_floats, pos_floats, pos_floats)
@settings(max_examples=60)
def test_rate_increases_with_signal(sig, interference, noise):
    low = rate_from_terms(sig, interference, 0.0, noise)
    high = rate_from_terms(2.0 * sig, interference, 0.0, noise)
    assert high >= low >= 0.0


def test_order_descending_stable_ties():
    assert list(order_users_by_effective([1.0, 3.0, 2.0])) == [1, 2, 0]
    assert list(order_users_by_effective([2.0, 2.0, 1.0])) == [0, 1, 2]


def test_allocate_power_norm_share_then_equal_split():
    alloc = allocate_power([np.array([4.0, 1.0]), np.array([3.0, 2.0])], 10.0)
    assert np.allclose(alloc.cluster_power, [5.0, 5.0])
    assert np.allclose(alloc.user_power[0], [2.5, 2.5])
    assert np.allclose(alloc.user_power[1], [2.5, 2.5])


@given(st.lists(st.lists(pos_floats, min_size=1, max_size=4), min_size=1, max_size=5))
@settings(max_examples=60)
def test_allocate_power_conserves_total(norms):
    alloc = allocate_power([np.array(c) for c in norms], 7.0)
    assert float(np.sum(alloc.cluster_power)) == pytest.approx(7.0, rel=1e-12)
    for cp, up in zip(alloc.cluster_power, alloc.user_power):
        assert float(np.sum(up)) == pytest.approx(float(cp), rel=1e-12)
        assert np.allclose(up, up[0])


def test_allocate_power_rejects_degenerate():
    with pytest.raises(DegenerateScenario):
        allocate_power([np.array([0.0])], 1.0)
    with pytest.raises(DegenerateScenario):
        allocate_power([np.array([1.0])], 0.0)


def test_exact_rate_hand_case():
    # h = [1, i], identity baseband, P = [2, 3]: SINR = 2/(3+1)
    h = np.array([1.0, 1.0j])
    f_bb = np.eye(2, dtype=np.complex128)
    rate = exact_rate(
        h_eff=h,
        f_bb=f_bb,
        cluster_idx=0,
        own_power=2.0,
        earlier_power=0.0,
        cluster_power=np.array([2.0, 3.0]),
        noise_var=1.0,
    )
    assert rate == pytest.approx(0.5849625007211562, abs=1e-12)
    # an earlier-decoded user's power 0.5 joins the interference: SINR = 2/(0.5+3+1)
    later = exact_rate(h, f_bb, 0, 2.0, 0.5, np.array([2.0, 3.0]), 1.0)
    assert later == pytest.approx(math.log2(1.0 + 2.0 / 4.5), abs=1e-12)


def test_oma_rate_formula():
    assert oma_rate(1.0, 10.0, 1.0, 256.0) == pytest.approx(math.log2(2561.0), abs=1e-12)


def test_fully_digital_two_singleton_clusters():
    cfg = ScenarioConfig(
        clusters=(
            ClusterSpec(aod_deg=-20.0, gains_db=(0.0,)),
            ClusterSpec(aod_deg=30.0, gains_db=(0.0,)),
        ),
        snr_db=10.0,
    )
    scen = synthesize_scenario(cfg, seed=0)
    rates = fully_digital_rates(scen)
    # equal norms: each cluster gets P/2 = 5, rate = log2(1 + 5*256)
    assert rates[(1, 1)] == pytest.approx(math.log2(1281.0), abs=1e-12)
    assert rates[(2, 1)] == pytest.approx(math.log2(1281.0), abs=1e-12)


def test_fully_digital_decode_chain():
    cfg = ScenarioConfig(
        clusters=(ClusterSpec(aod_deg=0.0, gains_db=(0.0, -2.0)),), snr_db=0.0
    )
    scen = synthesize_scenario(cfg, seed=0)
    rates = fully_digital_rates(scen)
    c = 256.0
    b2 = 10 ** (-0.2)
    p = 0.5
    assert rates[(1, 1)] == pytest.approx(math.log2(1 + p * c), abs=1e-12)
    assert rates[(1, 2)] == pytest.approx(
        math.log2(1 + p * c * b2 / (p * c * b2 + 1.0)), abs=1e-12
    )
