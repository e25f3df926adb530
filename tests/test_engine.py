"""The batched engine against the scalar oracle, and the counter RNG.

scalar_oracle.scalar_trial walks one draw user by user with explicit
steering vectors and numpy.linalg; block_metrics must agree with it field by
field.
"""

import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_config
from hbnoma import (
    ClusterSpec,
    ScenarioConfig,
    block_metrics,
    counter_uniform,
    dirichlet_kernel,
    preset,
    trial_metrics,
    user_angles,
)
from hbnoma.channel import centred_kernel
from hbnoma.errors import (
    ConfigError,
    DegenerateScenario,
    DegenerateSubspace,
    SingularMatrix,
)
from hbnoma.montecarlo import CHUNK, EXCLUSIONS, _draw, _draws, _Layout, _norm_sq, _view
from scalar_oracle import (
    FIELDS,
    design_precoder,
    leakage_direction,
    scalar_trial,
    steering_vector,
    synthesize_scenario,
)

RTOL = 1e-12
EXCLUDABLE = tuple(EXCLUSIONS.values())


def _assert_close(got, want, what, slack=0.0):
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert np.all(err <= RTOL + slack), f"{what}: worst relative error {np.max(err):.3e}"


def _rho_slack(rho_got, rho_want, model):
    """Extra relative tolerance carried over from the two paths' difference in rho.

    rho enters the Thm 2/3 bounds as rho^2 (relative sensitivity 2/rho) and,
    with modeled channels, every field of the draw through the leakage
    weight sqrt(1 - rho^2) (sensitivity 2 rho/(1 - rho^2)). Near a null of
    the anchors' beams (small rho) and at rho -> 1 these amplify a last-bit
    difference; near a null it is the scalar path that is off, since its
    effective channel is a sum of N_BS terms that nearly cancel. rho itself
    is compared without slack.
    """
    diff = np.abs(rho_got - rho_want)
    differs = diff > 0.0
    if not differs.any():
        return 0.0
    diff = diff[differs]
    rel = 2.0 * diff / np.minimum(rho_got, rho_want)[differs]
    if model:
        top = np.maximum(rho_got, rho_want)[differs]
        with np.errstate(divide="ignore"):
            rel = rel + 2.0 * diff / (1.0 - top * top)
    return float(rel.max())


def _anchor_phis(rng, n, gap, seam):
    """n normalized angles at least gap apart modulo 2, the kernel's period.

    seam=True puts the widest gap across +-1, so the outer beams sit near
    opposite ends and their users reach the kernel's grating lobes
    (delta -> +-2). The gap bounds the Gram condition number.
    """
    p = np.sort(rng.uniform(0.0, 2.0 - n * gap, n)) + gap * np.arange(n)
    wrap = 2.0 - p[-1] + p[0]
    shift = 1.0 - p[-1] - rng.uniform(0.05, 0.95) * wrap if seam else rng.uniform(0.0, 2.0)
    return (p + shift + 1.0) % 2.0 - 1.0


def _config(rng, n_clusters, n_bs, b, seam=False, collide=False):
    phis = _anchor_phis(rng, n_clusters, 1.5 / n_bs, seam)
    if collide and n_clusters >= 2:
        phis[1] = phis[0]
    clusters = []
    for phi in phis:
        m = int(rng.integers(1, 5))
        gains = (0.0,) + tuple(float(g) for g in rng.uniform(-6.0, -0.5, size=m - 1))
        clusters.append(ClusterSpec(aod_deg=math.degrees(math.asin(phi)), gains_db=gains))
    return ScenarioConfig(
        clusters=tuple(clusters), n_bs=n_bs, misalign_deg=b, snr_db=float(rng.uniform(0, 30))
    )


@given(
    n_clusters=st.integers(1, 8),
    n_bs=st.sampled_from([16, 32, 64]),
    b=st.one_of(st.just(0.0), st.floats(1e-9, 1e-6), st.floats(0.0, 8.0)),
    model=st.booleans(),
    seam=st.booleans(),
    collide=st.sampled_from([False] * 7 + [True]),
    layout_seed=st.integers(0, 2**32 - 1),
    first_trial=st.integers(0, 10**6),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_block_metrics_matches_scalar_oracle(
    n_clusters, n_bs, b, model, seam, collide, layout_seed, first_trial
):
    # derandomize: the same examples on every run, as the acceptance tests fix
    # their seeds. The rho -> 1 kernel points (tiny offsets) are compared on
    # raw channels only, where no sqrt(1 - rho^2) enters (see _rho_slack).
    assume(not (model and 0.0 < b < 0.5))
    rng = np.random.default_rng(layout_seed)
    cfg = _config(rng, n_clusters, n_bs, b, seam, collide)
    trials = list(range(first_trial, first_trial + 3))
    if model and n_clusters < 2:
        with pytest.raises(ConfigError):
            block_metrics(cfg, 5, trials, model_channels=True)
        return
    block = block_metrics(cfg, 5, trials, model_channels=model)
    for row, t in enumerate(trials):
        try:
            want = scalar_trial(cfg, 5, t, cfg.snr_db, model)
        except EXCLUDABLE as exc:
            assert EXCLUSIONS[int(block.excluded[row])] is type(exc)
            continue
        assert block.excluded[row] == 0
        np.testing.assert_array_equal(block.position[row], want["position"])
        np.testing.assert_array_equal(block.gap_ub_applicable[row], want["gap_ub_applicable"])
        _assert_close(block.rho[row], want["rho"], "rho")
        slack = _rho_slack(block.rho[row], want["rho"], model)
        for name in FIELDS[1:]:
            uses_rho = model or name == "rate_lb_thm2"
            _assert_close(getattr(block, name)[row], want[name], name, slack if uses_rho else 0.0)
        mask = want["gap_ub_applicable"]
        _assert_close(
            block.gap_ub_thm3[row][mask], want["gap_ub_thm3"][mask], "gap_ub_thm3", slack
        )


def test_trial_metrics_is_the_one_draw_block():
    rng = np.random.default_rng(3)
    cfg = _config(rng, 4, 32, 3.0, seam=True)
    block = block_metrics(cfg, 9, [7, 8], snr_db=20.0)
    tm = trial_metrics(cfg, 9, 8, snr_db=20.0)
    np.testing.assert_array_equal(tm.cluster, block.cluster)
    np.testing.assert_array_equal(tm.user, block.user)
    np.testing.assert_array_equal(tm.position, block.position[1])
    for name in FIELDS + ("gap_ub_thm3", "gap_ub_applicable"):
        np.testing.assert_array_equal(getattr(tm, name), getattr(block, name)[1])


def test_excluded_draws_raise_in_trial_metrics():
    collide = ScenarioConfig(
        clusters=(ClusterSpec(10.0, (0.0,)), ClusterSpec(10.0, (0.0, -1.0))), misalign_deg=2.0
    )
    block = block_metrics(collide, 1, [0, 1])
    assert list(block.excluded) == [1, 1]
    assert np.all(np.isnan(block.rate_exact)) and not block.gap_ub_applicable.any()
    with pytest.raises(SingularMatrix, match="clusters 1 and 2 are nearly parallel"):
        trial_metrics(collide, 1, 0)

    # cluster 1's leakage is cluster 2's anchor channel alone, far below 1e-12
    faint = ScenarioConfig(
        clusters=(ClusterSpec(10.0, (0.0, -1.0)), ClusterSpec(50.0, (-280.0,))), misalign_deg=2.0
    )
    assert list(block_metrics(faint, 1, [0], model_channels=True).excluded) == [2]
    with pytest.raises(DegenerateSubspace, match="near-"):
        trial_metrics(faint, 1, 0, model_channels=True)
    scen = synthesize_scenario(faint, 1, 0)
    pre = design_precoder(scen)
    first_links = [scen.clusters[n][pre.first_users[n]] for n in range(2)]
    with pytest.raises(DegenerateSubspace):
        leakage_direction(pre.f_rf, first_links, [0.5, 0.5], 0, scen.array_gain)

    silent = ScenarioConfig(clusters=(ClusterSpec(10.0, (-7000.0,)),))
    assert list(block_metrics(silent, 1, [0]).excluded) == [3]
    with pytest.raises(DegenerateScenario, match="all effective channel norms are zero"):
        trial_metrics(silent, 1, 0)


def test_counter_uniform_is_keyed_and_uniform():
    u = counter_uniform(123, np.arange(20_000)[:, None], np.array([0, 1]), np.array([3, 3]))
    assert u.shape == (20_000, 2)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01 and abs(u.var() - 1.0 / 12.0) < 0.005
    assert abs(np.corrcoef(u[:, 0], u[:, 1])[0, 1]) < 0.03
    # one key, one number, however the block around it is shaped
    assert counter_uniform(123, 77, 1, 3)[0] == u[77, 1]
    assert counter_uniform(124, 77, 1, 3)[0] != u[77, 1]
    assert counter_uniform(-1, 0, 0, 0)[0] == counter_uniform(2**64 - 1, 0, 0, 0)[0]
    # the largest seed and trial index, frozen
    edge = counter_uniform(2**64 - 1, np.array([[0], [2**63 - 1]]), np.array([0, 7]), 3)
    assert edge.tolist() == [
        [0.20513595926392947, 0.4080408938256993],
        [0.6299092243391897, 0.42864315666359676],
    ]
    assert counter_uniform(5, 2**63 - 1, 2, 1).tolist() == [0.9620224220324133]
    assert counter_uniform(2**64 - 1, 2**63 - 1, 0, 0).tolist() == [0.9803722999578949]


def test_user_angles_keep_common_random_numbers_across_cluster_sizes():
    small = ScenarioConfig(
        clusters=(ClusterSpec(10.0, (0.0, -1.0)), ClusterSpec(40.0, (0.0, -1.0))),
        misalign_deg=3.0,
    )
    large = ScenarioConfig(
        clusters=(ClusterSpec(10.0, (0.0, -1.0, -2.0, -3.0)), ClusterSpec(40.0, (0.0, -1.0))),
        misalign_deg=3.0,
    )
    aod_small, _ = user_angles(small, 4, range(5))
    aod_large, _ = user_angles(large, 4, range(5))
    np.testing.assert_array_equal(aod_small[:, :2], aod_large[:, :2])
    np.testing.assert_array_equal(aod_small[:, 2:], aod_large[:, 4:])
    scen = synthesize_scenario(large, 4, 3)
    assert [link.aod_deg for link in scen.links()] == aod_large[3].tolist()


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from([1, 2, 7, 16, 32, 64, 128]),
    st.sampled_from(["free", "peak", "grating"]),
)
@settings(max_examples=150)
def test_dirichlet_kernel_matches_inner_product(x, y, n, where):
    # "peak" puts delta near 0, "grating" near +-2, where the ratio form is 0/0
    if where == "peak":
        x, y = x, min(max(x + 1e-7 * y, -1.0), 1.0)
    elif where == "grating":
        x, y = -1.0 + 1e-3 * abs(x), 1.0 - 1e-3 * abs(y)
    direct = np.vdot(steering_vector(x, n), steering_vector(y, n))
    assert abs(dirichlet_kernel(np.array(y - x), n) - direct) <= 1e-14 * n


FIG4A = dataclasses.replace(preset("fig4a").scenario, misalign_deg=3.0)


def _fields_equal(a, b):
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


def _with_first_cluster(cfg, cluster):
    return dataclasses.replace(cfg, clusters=(cluster,) + cfg.clusters[1:])


@pytest.mark.parametrize(
    "make, snr_db",
    [
        pytest.param(
            lambda: dataclasses.replace(FIG4A, misalign_deg=math.nan), 15.0, id="misalign_deg"
        ),
        # an int that no float holds: float() and math.isfinite raise OverflowError on it
        pytest.param(
            lambda: dataclasses.replace(FIG4A, misalign_deg=10**400), 15.0, id="misalign_deg-int"
        ),
        pytest.param(lambda: dataclasses.replace(FIG4A, snr_db=math.nan), None, id="snr_db-field"),
        pytest.param(
            lambda: _with_first_cluster(FIG4A, ClusterSpec(math.nan, (0.0,))), 15.0, id="aod_deg"
        ),
        pytest.param(
            lambda: _with_first_cluster(FIG4A, ClusterSpec(10.0, (0.0, -math.inf))),
            15.0,
            id="gains_db",
        ),
        pytest.param(lambda: FIG4A, math.nan, id="snr_db-argument"),
        pytest.param(lambda: FIG4A, math.inf, id="snr_db-argument-inf"),
        pytest.param(lambda: FIG4A, -(10**400), id="snr_db-argument-int"),
    ],
)
def test_non_finite_values_are_rejected(make, snr_db):
    # unchecked, each ends in a raw LinAlgError or NaN rates: a configuration holding one
    # cannot be built, and an snr_db argument is checked on every call
    for _ in range(2):
        with pytest.raises(ConfigError, match="must be finite"):
            trial_metrics(make(), 1, 0, snr_db=snr_db)
        with pytest.raises(ConfigError, match="must be finite"):
            block_metrics(make(), 1, [0, 1], snr_db=snr_db)


def test_invalid_config_raises_on_every_call():
    # such a configuration cannot be built, so it never reaches the layout cache
    for _ in range(3):
        with pytest.raises(ConfigError, match="misalignment spread"):
            trial_metrics(dataclasses.replace(FIG4A, misalign_deg=-1.0), 1, 0)
        with pytest.raises(ConfigError, match="misalignment spread"):
            block_metrics(dataclasses.replace(FIG4A, misalign_deg=-1.0), 1, [0])


def test_a_mistyped_twin_of_a_cached_layout_cannot_be_built():
    # n_bs 32.0 equals and hashes like 32, and misalign_deg True, aod_deg True and a
    # gains_db entry True or Fraction(1) like 1.0: built, each would hit the valid
    # config's cache entry
    first, rest = FIG4A.clusters[0], FIG4A.clusters[1:]

    def with_first(**changes):
        return dataclasses.replace(FIG4A, clusters=(dataclasses.replace(first, **changes), *rest))

    def with_gain(gain):
        return with_first(gains_db=(gain, *first.gains_db[1:]))

    _Layout.of.cache_clear()
    for make, valid, twin, message in [
        (lambda v: dataclasses.replace(FIG4A, n_bs=v), 32, 32.0, "n_bs must be an int"),
        (
            lambda v: dataclasses.replace(FIG4A, misalign_deg=v),
            1.0,
            True,
            "misalign_deg must be a float",
        ),
        (lambda v: with_first(aod_deg=v), 1.0, True, "aod_deg must be a float"),
        (with_gain, 1.0, True, "gains_db entries must be real numbers"),
        (with_gain, 1.0, Fraction(1), "gains_db entries must be real numbers"),
    ]:
        assert twin == valid and hash(twin) == hash(valid)
        trial_metrics(make(valid), 1, 0)
        with pytest.raises(ConfigError, match=message):
            make(twin)


@pytest.mark.parametrize(
    "trials",
    [[-1], [2**63], [0, -1], [1.5], [True], np.array([0, 2**63], dtype=np.uint64), [], 5],
    ids=["-1", "2**63", "block-0,-1", "1.5", "True", "uint64-2**63", "empty", "int"],
)
def test_trial_indices_must_be_integers_in_the_int64_range(trials):
    # -1 would wrap to trial 2**64 - 1, 1.5 and True draw trial 1, and 2**63 ends in a raw
    # OverflowError (wraps to -2**63 as a uint64 array); no index, or an int, ends in a raw
    # ValueError (reshape) or TypeError (len)
    if isinstance(trials, int) or not len(trials):
        bad = re.escape(f"trials must hold >= 1 trial indices, got {trials!r}")
    else:
        bad = re.escape(f"trial {trials[-1]} is not an integer in 0..2**63-1")
    with pytest.raises(ConfigError, match=bad):
        block_metrics(FIG4A, 1, trials)
    if not isinstance(trials, int) and len(trials) == 1:
        with pytest.raises(ConfigError, match=bad):
            trial_metrics(FIG4A, 1, trials[0])
    block_metrics(FIG4A, 1, np.array([0, 2**63 - 1]))  # the ends of the range draw


def test_cluster_spec_normalises_to_floats():
    loose, strict = ClusterSpec(10, [0, -1]), ClusterSpec(10.0, (0.0, -1.0))
    assert loose == strict and hash(loose) == hash(strict)
    assert type(loose.aod_deg) is float and loose.gains_db == (0.0, -1.0)
    _fields_equal(
        trial_metrics(_with_first_cluster(FIG4A, loose), 2, 3, snr_db=15.0),
        trial_metrics(_with_first_cluster(FIG4A, strict), 2, 3, snr_db=15.0),
    )


def test_equal_configs_share_one_cached_layout():
    twin = ScenarioConfig(
        clusters=tuple(ClusterSpec(c.aod_deg, list(c.gains_db)) for c in FIG4A.clusters),
        misalign_deg=3.0,
        snr_db=FIG4A.snr_db,
    )
    assert twin == FIG4A and twin is not FIG4A
    other = dataclasses.replace(preset("fig4b").scenario, misalign_deg=2.0)
    first = trial_metrics(FIG4A, 2, 3), block_metrics(FIG4A, 2, range(5))
    trial_metrics(other, 2, 3), block_metrics(other, 2, range(5))
    again = trial_metrics(twin, 2, 3), block_metrics(twin, 2, range(5))
    assert _Layout.of(twin) is _Layout.of(FIG4A)
    for a, b in zip(first, again):
        _fields_equal(a, b)
    # results never alias the cache's arrays in a writable way
    with pytest.raises(ValueError):
        first[0].user[0] = 9


def _real_draw_rows(g, phi, lay):
    """k_user, rho, the beam gains and their own-beam column from the centred-kernel rows g."""
    aligned = phi == phi[:, lay.own_anchor]
    k_user = np.where(aligned, lay.own_k_anchor, np.einsum("tun,tun->tu", g, g))
    cross = np.take_along_axis(g @ lay.gram_c, lay.cluster_of[None, :, None], axis=2)[:, :, 0]
    k_anchor = k_user[:, lay.anchors][:, lay.cluster_of]
    rho = np.where(aligned, 1.0, np.minimum(np.abs(cross) / np.sqrt(k_user * k_anchor), 1.0))
    gains = (g @ lay.f_c) ** 2
    np.copyto(gains, lay.own_unit_gains, where=aligned[:, :, None])
    gains *= lay.c_beta_sq[:, None]
    own_gain = np.take_along_axis(gains, lay.cluster_of[None, :, None], axis=2)[:, :, 0]
    return k_user, rho, gains, own_gain


def _complex_draw_rows(phi, lay, n_bs):
    """The same from the complex kernel, as the draw stage computed them before the real route."""
    kern = dirichlet_kernel(phi[:, :, None] - phi[:, None, lay.anchors], n_bs)
    k_user = _norm_sq(kern)
    cross = (kern @ lay.gram.conj()).reshape(len(phi), -1)[:, lay.own_beam]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.minimum(np.abs(cross) / np.sqrt(k_user * k_user[:, lay.own_anchor]), 1.0)
    rho = np.where(phi == phi[:, lay.own_anchor], 1.0, rho)
    gains = np.abs(kern @ lay.f_bb.conj())
    gains *= gains
    gains *= lay.c_beta_sq[:, None]
    return k_user, rho, gains, gains.reshape(len(gains), -1)[:, lay.own_beam]


def test_draw_rows_equal_each_size_computed_alone():
    # a cluster_size sweep computes k_user, rho and the beam gains once, on
    # the largest size's users; each size's rows of them must be, bit for
    # bit, what that size computes on its own centred-kernel rows
    spec = preset("fig4c")
    ((cfg, lay, views),) = _draws(spec)
    draw = _draw(cfg, lay, spec.seed, range(CHUNK, 2 * CHUNK))
    _, phi = user_angles(cfg, spec.seed, range(CHUNK, 2 * CHUNK))
    g = centred_kernel(phi[:, :, None] - phi[:, None, lay.anchors], cfg.n_bs)
    for view in views:
        own = view.layout
        rows = _real_draw_rows(g[:, view.users], phi[:, view.users], own)
        k_user, rho, gains, own_gain = rows
        geo = _view(draw, own, view.users, model_channels=False)
        np.testing.assert_array_equal(draw.k_user[:, view.users], k_user)
        np.testing.assert_array_equal(draw.rho[:, view.users], rho)
        np.testing.assert_array_equal(draw.beam_gains[:, view.users], gains)
        np.testing.assert_array_equal(geo.own_gain, own_gain)


@given(
    delta=st.one_of(
        st.floats(-2.0, 2.0),
        st.sampled_from([0.0, 2.0, -2.0, 1.0, -1.0]),
        st.floats(1e-12, 1e-3).flatmap(lambda e: st.sampled_from([2.0 - e, e - 2.0, e, -e])),
    ),
    n=st.sampled_from([1, 2, 3, 7, 16, 31, 32, 63, 64, 127, 128]),
)
@settings(max_examples=300)
def test_centred_kernel_times_its_phases_is_the_complex_kernel(delta, n):
    # a^H(phi) a(phi + delta) = psi(phi + delta) conj(psi(phi)) g(delta) with
    # psi(phi) = exp(-j pi (n-1) phi / 2); near 0 and the grating lobes at +-2 the
    # ratio form is 0/0, and for even n past |delta| = 1 g takes the sign (-1)^((n-1) k)
    g = centred_kernel(np.array([delta]), n)
    assert g.dtype == np.float64 and abs(g[0]) <= 1.0
    phases = np.exp(-0.5j * np.pi * (n - 1) * delta)
    assert abs(phases * g[0] - dirichlet_kernel(np.array([delta]), n)[0]) <= 1e-14 * n
    if abs(delta) <= 1.0:  # the steering vectors' own angles stay in [-1, 1]
        direct = np.vdot(steering_vector(0.0, n), steering_vector(delta, n))
        assert abs(phases * g[0] - direct) <= 1e-14 * n
    if delta in (0.0, 2.0, -2.0):
        assert g[0] == (1.0 if delta == 0.0 or n % 2 else -1.0)


@pytest.mark.parametrize("n", [1, 2, 31, 32, 127, 128])
def test_centred_kernel_sign_is_the_parity_of_the_period_count(n):
    # delta = 2 k + r with r = 0 (a grating lobe, ratio 1) and r = 0.5 is exact
    # for |k| up to 10^6: g(delta) = (-1)^((n-1) k) g(r), against Python ints
    ks = sorted({*range(-1000, 1001), *range(-(10**6), 10**6 + 1, 125)})
    sign = np.array([(-1) ** ((n - 1) * k) for k in ks], dtype=np.float64)
    k = np.array(ks, dtype=np.float64)
    np.testing.assert_array_equal(centred_kernel(2.0 * k, n), sign)
    np.testing.assert_array_equal(centred_kernel(2.0 * k + 0.5, n), sign * centred_kernel(0.5, n))


@pytest.mark.parametrize("spread", preset("fig5").misalign_grid)
def test_the_draw_stage_holds_two_blocks_and_a_denominator(spread):
    # g is computed in its angle differences' buffer and the G_c and F_c products share one
    # array, so the stage's peak is two (T, U, N) float64 blocks, the kernel's denominator and
    # small arrays
    spec = preset("fig5")
    ((cfg, lay, _),) = _draws(spec)
    trials, spreads = range(CHUNK), np.full(CHUNK, spread)
    _draw(cfg, lay, spec.seed, trials, spreads)  # warm: the angle keys' cache
    tracemalloc.start()
    try:
        _draw(cfg, lay, spec.seed, trials, spreads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = CHUNK * len(lay.cluster_of) * len(lay.anchors) * 8
    assert peak <= 3.25 * block, f"peak {peak / block:.2f} blocks"


def test_decode_positions_equal_the_lexsort_order_on_tied_norms():
    # aligned rows (b = 0) give every user of a cluster its anchor's angle,
    # so users of equal gain tie exactly (10 at a time in cluster 1, more than
    # an unstable sort keeps in order); misaligned rows tie nowhere. Both must
    # get the order of a lexsort by cluster, then descending norm, with ties
    # to the lower index
    cfg = ScenarioConfig(
        clusters=(
            ClusterSpec(10.0, (0.0, -1.0) * 10),
            ClusterSpec(40.0, (-2.0, 0.0, -2.0)),
            ClusterSpec(-30.0, (0.0, 0.0, 0.0)),
        ),
    )
    lay = _Layout.of(cfg)
    trials = np.arange(CHUNK)
    aligned = trials % 2 == 0
    draw = _draw(cfg, lay, 9, trials, np.where(aligned, 0.0, 3.0))
    geo = _view(draw, lay, slice(None), model_channels=False)
    norms = lay.c_beta_sq * draw.k_user
    distinct = [len(np.unique(row)) for row in norms]
    assert set(np.compress(aligned, distinct)) == {5}
    assert set(np.compress(~aligned, distinct)) == {26}
    order = np.lexsort((-norms, np.broadcast_to(lay.cluster_of, norms.shape)))
    want = np.empty_like(geo.position)
    want[np.arange(CHUNK)[:, None], order] = lay.user
    np.testing.assert_array_equal(geo.position, want)


@pytest.mark.parametrize("name, b", [("fig4a", 3.0), ("fig5", 6.0)])
def test_precoder_of_the_layout_is_every_trials_precoder(name, b):
    # the anchors keep their AoDs in every draw, so G, F_BB and R, the real
    # F_BB^H F_BB of the centred array, built once per configuration equal, bit
    # for bit, the per-trial formula on each trial's anchor kernel rows
    cfg = dataclasses.replace(preset(name).scenario, misalign_deg=b)
    lay = _Layout.of(cfg)
    _, phi = user_angles(cfg, 1234, range(CHUNK, 2 * CHUNK))
    kern = dirichlet_kernel(phi[:, :, None] - phi[:, None, lay.anchors], cfg.n_bs)
    gram = kern[:, lay.anchors].transpose(0, 2, 1)
    eigs = np.linalg.eigvalsh(gram)
    finv = np.linalg.inv(gram)
    finv_diag = np.diagonal(finv, axis1=1, axis2=2).real
    f_bb = finv / np.sqrt(finv_diag)[:, None, :]
    assert not lay.singular and np.all(eigs[:, 0] == lay.kappa_min)
    for t in range(CHUNK):
        np.testing.assert_array_equal(lay.gram, gram[t])
        np.testing.assert_array_equal(lay.own_finv, finv_diag[t][lay.cluster_of])
        np.testing.assert_array_equal(lay.f_bb, f_bb[t])
    psi = np.exp(0.5j * np.pi * (cfg.n_bs - 1) * phi[:, lay.anchors])
    rotated = psi.conj()[:, :, None] * (f_bb.conj().transpose(0, 2, 1) @ f_bb) * psi[:, None, :]
    np.testing.assert_array_equal(np.broadcast_to(lay.r_gram, f_bb.shape), rotated.real)
    # F_BB^H F_BB = Psi R Psi^H with Psi = diag(exp(j pi (N_BS - 1) phi_n / 2)) is
    # real up to rounding, and R = C G_c^-2 C of the real centred Gram matrix G_c
    assert np.max(np.abs(rotated.imag)) <= 1e-14 * np.max(np.abs(lay.r_gram))
    anchor_phi = phi[0, lay.anchors]
    delta = 0.5 * np.pi * (anchor_phi - anchor_phi[:, None])
    with np.errstate(invalid="ignore"):
        g_c = np.sin(cfg.n_bs * delta) / (cfg.n_bs * np.sin(delta))
    np.fill_diagonal(g_c, 1.0)
    g_inv = np.linalg.inv(g_c)
    c = 1.0 / np.sqrt(np.diagonal(g_inv))
    np.testing.assert_allclose(lay.r_gram, c[:, None] * (g_inv @ g_inv) * c, rtol=1e-12, atol=0)


def _kappa_configs():
    rng = np.random.default_rng(14)
    randoms = [random_config(rng, n_bs=n_bs, misalign_deg=2.0) for n_bs in (31, 32, 64, 32, 17)]
    lone = ScenarioConfig(clusters=(ClusterSpec(20.0, (0.0, -1.0, -2.0)),), misalign_deg=3.0)
    pair = ScenarioConfig(
        clusters=(ClusterSpec(-20.0, (0.0, -1.0)), ClusterSpec(35.0, (0.0, -2.0, -4.0))),
        misalign_deg=3.0,
    )
    # the anchors sit at sin(AoD) = 0.94 and -0.91, so the kernel reduces their
    # difference, 1.85, by a period, 2 (k = +-1), where the sign of
    # exp(-j pi (N_BS - 1) r / 2) flips with the parity of N_BS
    lobes = [
        ScenarioConfig(
            clusters=(ClusterSpec(70.0, (0.0, -1.0)), ClusterSpec(-65.0, (0.0, -3.0))),
            n_bs=n_bs,
        )
        for n_bs in (31, 32)
    ]
    singular = ScenarioConfig(
        clusters=(ClusterSpec(10.0, (0.0, -1.0)), ClusterSpec(10.0, (0.0, -2.0))),
        misalign_deg=4.0,
    )
    ids = ["random31", "random32", "random64", "random32b", "random17"]
    ids += ["one", "two", "lobe31", "lobe32", "singular"]
    return [pytest.param(cfg, id=i) for cfg, i in zip(randoms + [lone, pair, *lobes, singular], ids)]


@pytest.mark.parametrize("cfg", _kappa_configs())
def test_kappa_stack_equals_the_complex_zeroed_route(cfg):
    # kappa_max(S) from the real (N-1) x (N-1) principal submatrices of the
    # weighted R against the reference: eigvalsh of the complex N x N weighted
    # F_BB^H F_BB with row and column s zeroed
    lay = _Layout.of(cfg)
    n = len(lay.anchors)
    draw = _draw(cfg, lay, 5, range(CHUNK))
    geo = _view(draw, lay, slice(None), model_channels=False)
    got = geo.kappa_s_unit
    sums = np.add.reduceat(lay.c_beta_sq * draw.k_user, lay.starts, axis=1)
    root_p = np.sqrt(sums / sums.sum(axis=1, keepdims=True))
    weighted = root_p[:, :, None] * (lay.f_bb.conj().T @ lay.f_bb) * root_p[:, None, :]
    keep = 1.0 - np.maximum(np.eye(n)[:, :, None], np.eye(n)[:, None, :])
    want = np.linalg.eigvalsh(weighted[:, None] * keep)[..., -1]
    if n == 1:
        np.testing.assert_array_equal(got, 0.0)
        np.testing.assert_array_equal(want, 0.0)
    else:
        assert np.all(want > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    # R is F_BB^H F_BB turned by the anchors' phases: its imaginary part is rounding
    phi = user_angles(cfg, 0, [0], 0.0)[1][0, lay.anchors]
    psi = np.exp(0.5j * np.pi * (cfg.n_bs - 1) * phi)
    rotated = psi.conj()[:, None] * (lay.f_bb.conj().T @ lay.f_bb) * psi
    np.testing.assert_array_equal(lay.r_gram, rotated.real)
    assert np.max(np.abs(rotated.imag)) <= 1e-14 * np.max(np.abs(rotated.real))
    assert bool(lay.singular) == (cfg.clusters[0].aod_deg == cfg.clusters[-1].aod_deg and n > 1)


@pytest.mark.parametrize("cfg", _kappa_configs())
def test_real_draw_equals_the_complex_kernel_formulas(cfg):
    # the real route against the complex formulas on 64 trials of random
    # layouts, one and two clusters, grating-lobe pairs and a singular Gram
    lay = _Layout.of(cfg)
    draw = _draw(cfg, lay, 11, range(CHUNK))
    _, phi = user_angles(cfg, 11, range(CHUNK))
    k_user, rho, gains, own_gain = _complex_draw_rows(phi, lay, cfg.n_bs)
    geo = _view(draw, lay, slice(None), model_channels=False)
    np.testing.assert_allclose(draw.k_user, k_user, rtol=1e-13, atol=0)
    np.testing.assert_allclose(draw.rho, rho, rtol=1e-13, atol=1e-13)
    # the zero-forcing nulls are near 0 on both routes: a gain is compared on its user's scale
    scale = np.max(gains, axis=2, keepdims=True)
    assert np.all(np.abs(draw.beam_gains - gains) <= 1e-13 * scale)
    assert np.all(np.abs(geo.own_gain - own_gain) <= 1e-13 * scale[:, :, 0])
    # G = Psi G_c Psi^H and F_BB = Psi F_c Psi^H, Psi = diag(exp(j pi (N_BS - 1) phi_n / 2))
    phi = user_angles(cfg, 0, [0], 0.0)[1][0, lay.anchors]
    psi = np.exp(0.5j * np.pi * (cfg.n_bs - 1) * phi)
    for real, full in ((lay.gram_c, lay.gram), (lay.f_c, lay.f_bb)):
        turned = psi[:, None] * real * psi.conj()
        np.testing.assert_allclose(turned, full, rtol=0, atol=1e-14 * np.max(np.abs(full)))


@pytest.mark.parametrize("cfg", _kappa_configs())
def test_aligned_rows_keep_the_complex_kernels_bits(cfg):
    # b = 0 rows and every anchor take the layout's complex-kernel values, so
    # RNG-free cells keep their bytes; the complex route's are computed here
    # on the draw's own block, as the draw stage did
    lay = _Layout.of(cfg)
    trials = np.arange(CHUNK)
    spread = np.where(trials % 2 == 0, 0.0, cfg.misalign_deg + 2.0)
    draw = _draw(cfg, lay, 3, trials, spread)
    _, phi = user_angles(cfg, 3, trials, spread)
    aligned = phi == phi[:, lay.own_anchor]
    assert aligned[::2].all() and aligned[:, lay.anchors].all()
    assert not aligned[1::2].all() or len(lay.anchors) == len(lay.user)
    k_user, rho, gains, _ = _complex_draw_rows(phi, lay, cfg.n_bs)
    np.testing.assert_array_equal(draw.k_user[aligned], k_user[aligned])
    np.testing.assert_array_equal(draw.rho[aligned], rho[aligned])
    np.testing.assert_array_equal(draw.beam_gains[aligned], gains[aligned])


def test_precoder_is_inverted_once_per_configuration(monkeypatch):
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    fresh = dataclasses.replace(FIG4A, misalign_deg=2.718)  # in no earlier test's cache entry
    block_metrics(fresh, 5, range(CHUNK))
    assert calls == [(5, 5)]
    block_metrics(fresh, 5, range(CHUNK, 2 * CHUNK))
    trial_metrics(fresh, 5, 3)
    assert calls == [(5, 5)]


def test_singular_configuration_excludes_every_trial():
    collide = ScenarioConfig(
        clusters=(ClusterSpec(10.0, (0.0, -1.0)), ClusterSpec(10.0, (0.0, -2.0, -3.0))),
        misalign_deg=4.0,
    )
    assert _Layout.of(collide).singular
    for model in (False, True):
        block = block_metrics(collide, 3, range(CHUNK), model_channels=model)
        assert np.all(block.excluded == 1)
        assert np.all(np.isnan(block.rate_exact)) and not block.gap_ub_applicable.any()
