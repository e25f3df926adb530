"""Experiment runner: sweeps, misalignment averaging, baselines.

A trial draws one scenario realization, designs the precoder, allocates power
and evaluates exact rates and all bounds. The precoder (Gram eigenvalues and
inverse, F_BB) sees only the anchors, whose AoDs every draw keeps, so it is
built once per configuration, with its layout. One engine evaluates a block of
trials at once, in closed form over (trials, users, clusters) arrays, in two
stages. The draw stage (angles, kernel, and each user's rho, kernel norm and
beam gains) sees a user only through its angle, gain and anchor, so a
cluster_size sweep draws each block once, at its largest size (the counter RNG
keys on (cluster, user), and user k has the same gain and anchor at every
size). Block k stacks trials [k CHUNK, (k + 1) CHUNK) of every misalignment
spread b of the grid, b by b, as an offset's uniform serves every b. The view
stage gathers each sweep value's rows and computes everything that depends on
the power split; an SNR sweep shares one view, as every per-user quantity is
linear in the total power. Each b's rows feed its own cells, which merge the
blocks of a run of that b alone in trial order: the output is bit-identical
for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import (
    CACHE_SIZE,
    ClusterSpec,
    ScenarioConfig,
    _check_fields,
    _db_to_linear,
    _floats,
    _user_keys,
    centred_kernel,
    dirichlet_kernel,
    gain_db_to_beta,
    user_angles,
    validate_config,
)
from .errors import (
    ConfigError,
    DegenerateScenario,
    DegenerateSubspace,
    SingularMatrix,
    UnknownPreset,
)

LOG2 = math.log(2.0)
CHUNK = 64
CONDITION_CAP = 1e10  # a Gram matrix with a larger condition number is singular
LEAK_NORM_FLOOR = 1e-12  # below this the leakage combination has no direction
SWEEP_NAMES = ("snr_db", "n_bs", "cluster_size")
_ONE_CLUSTER = "model-generated channels need at least two clusters"
_OVERFLOW = "P N_BS N_UE |beta|^2 times the beam gains overflows a float"


@dataclass(frozen=True)
class Baselines:
    """Which curves an experiment produces besides the hybrid exact rates."""

    hb_lb: bool = True
    fd: bool = False
    oma: bool = False
    model_channels: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep of one scenario, run at each misalign_grid spread (scenario.misalign_deg if None).

    A sweep axis replaces the scenario value it sweeps, and the replaced value is still validated:
    snr_db on an snr_db sweep, n_bs on an n_bs sweep, the observed cluster's gains_db on a
    cluster_size sweep, and misalign_deg beside a misalign_grid.
    """

    scenario: ScenarioConfig
    sweep_name: str = "snr_db"
    sweep_values: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    trials: int = 10_000
    seed: int = 1234
    observe_cluster: int | None = None
    misalign_grid: tuple[float, ...] | None = None
    baselines: Baselines = field(default_factory=Baselines)
    scenario_id: str = "custom"
    leak_weighted: bool = True

    def __post_init__(self):
        object.__setattr__(self, "sweep_values", _floats(self.sweep_values))
        object.__setattr__(self, "misalign_grid", _floats(self.misalign_grid))


# the per-user value columns of a cell; NaN where a value does not exist
_BOUND_COLUMNS = ("rate_lb_thm1", "rate_lb_thm2", "rate_gap", "gap_ub_thm3", "rho_mean")
VALUE_COLUMNS = ("rate_exact", *_BOUND_COLUMNS, "stderr")


@dataclass(frozen=True, eq=False)
class ResultCell:
    """One (system, sweep value) cell: per-user columns and the cell's draw counts.

    trials counts the draws averaged, excluded the draws left out; both are
    per cell, not per user. A deterministic cell (fd, oma) has 1 and 0.
    """

    system: str
    sweep_value: float
    cluster: np.ndarray
    user: np.ndarray
    rate_exact: np.ndarray
    rate_lb_thm1: np.ndarray
    rate_lb_thm2: np.ndarray
    rate_gap: np.ndarray
    gap_ub_thm3: np.ndarray
    rho_mean: np.ndarray
    stderr: np.ndarray
    trials: int
    excluded: int


@dataclass
class ResultTable:
    """The cells of a run, in output order."""

    spec: ExperimentSpec
    cells: list[ResultCell]

    @property
    def systems(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(cell.system for cell in self.cells))


# Exclusion codes of a draw: 0 keeps it; otherwise the exception the draw
# raises when evaluated alone.
EXCLUSIONS = {1: SingularMatrix, 2: DegenerateSubspace, 3: DegenerateScenario}
_SINGULAR, _SUBSPACE, _SCENARIO = EXCLUSIONS
_EXCLUSION_MESSAGES = {
    _SUBSPACE: "leakage combination has (near-)zero norm",
    _SCENARIO: "all effective channel norms are zero",
}


@dataclass(frozen=True)
class _Layout:
    """Flat user indexing (cluster by cluster) and precoder of one configuration, read-only arrays."""

    cluster_of: np.ndarray  # (U,) 0-based cluster of each user
    user: np.ndarray  # (U,) 1-based index inside its cluster
    anchors: np.ndarray  # (N,) flat index of each cluster's strongest user
    own_anchor: np.ndarray  # (U,) flat index of each user's anchor
    own_beam: np.ndarray  # (U,) flat index of each user's own beam in a (U, N) array
    starts: np.ndarray  # (N,) flat index of each cluster's first user
    sizes: np.ndarray  # (N,) users per cluster
    beta_sq: np.ndarray  # (U,) |beta|^2
    c_beta_sq: np.ndarray  # (U,) N_BS N_U |beta|^2
    others: np.ndarray  # (N, N - 1) others[s] lists the clusters but s, ascending
    gram: np.ndarray  # (N, N) G[k, n] = a_k^H a_n of the analog beams
    singular: np.ndarray  # () G's condition number exceeds CONDITION_CAP
    kappa_min: np.ndarray  # () G's smallest eigenvalue; 1.0 when singular
    finv_diag: np.ndarray  # (N,) diagonal of G^{-1}
    f_bb: np.ndarray  # (N, N) zero-forcing G^{-1} diag(1 / sqrt([G^{-1}]_nn))
    r_gram: np.ndarray  # (N, N) real R with F_BB^H F_BB = Psi R Psi^H (see _view)
    gram_c: np.ndarray  # (N, N) real G_c[m, n] = g(phi_n - phi_m), G = Psi G_c Psi^H (see _draw)
    f_c: np.ndarray  # (N, N) real F_c = G_c^{-1} diag(1 / sqrt([G^{-1}]_nn)), F_BB = Psi F_c Psi^H
    k_anchor: np.ndarray  # (N,) ||K||^2 of each anchor's kernel row
    unit_gains: np.ndarray  # (N, N) |K F_BB^*|^2 of each anchor's kernel row
    zeta_peak: np.ndarray  # () bound of two Thm 2 zetas at unit power: ||K_u||^2 <= N,
    # |K_u F_BB^*|^2 <= N F and kappa_max(S) <= F for F = max_n ||F_BB[:, n]||^2 >= 1 (see _power)

    @staticmethod
    @lru_cache(maxsize=CACHE_SIZE)
    def of(cfg: ScenarioConfig) -> "_Layout":
        """The layout and precoder of cfg, validated and built once per configuration."""
        validate_config(cfg)
        cluster_of, user, _, is_anchor = _user_keys(cfg.clusters)
        n = len(cfg.clusters)
        sizes = np.bincount(cluster_of, minlength=n)
        anchors = np.flatnonzero(is_anchor)
        beta_sq = np.array([abs(gain_db_to_beta(g)) ** 2 for c in cfg.clusters for g in c.gains_db])
        phi = user_angles(cfg, 0, [0], 0.0)[1][0, anchors]  # unhashed: anchors keep their AoDs
        gram = dirichlet_kernel(phi[:, None] - phi, cfg.n_bs).T
        eigs = np.linalg.eigvalsh(gram)
        singular = bool(eigs[0] <= 0.0 or eigs[-1] > CONDITION_CAP * eigs[0])
        # an identity stands in for a singular Gram: all its draws are excluded
        finv = np.linalg.inv(np.where(singular, np.eye(n), gram))
        finv_diag = np.diagonal(finv).real
        f_bb = finv / np.sqrt(finv_diag)
        psi = np.exp(0.5j * math.pi * (cfg.n_bs - 1) * phi)  # G = Psi G_c Psi^H, G_c real
        kappa_min = 1.0 if singular else float(eigs[0])
        gain = n * cfg.n_bs * cfg.n_ue * float(np.max(beta_sq))  # N c|beta|^2; inf on overflow
        zeta_peak = 2.0 * gain * float(np.max(np.sum(np.abs(f_bb) ** 2, axis=0))) / kappa_min
        if not math.isfinite(len(cluster_of) * gain + zeta_peak):  # U norms summed, two zetas
            peak = max(max(c.gains_db) for c in cfg.clusters)
            raise ConfigError(f"gains_db entry {peak} dB: {_OVERFLOW}")
        lay = _Layout(
            cluster_of=cluster_of,
            user=user + 1,
            anchors=anchors,
            own_anchor=anchors[cluster_of],
            own_beam=np.arange(len(cluster_of)) * n + cluster_of,
            starts=np.concatenate(([0], np.cumsum(sizes)[:-1])),
            sizes=sizes,
            beta_sq=beta_sq,
            c_beta_sq=float(cfg.n_bs * cfg.n_ue) * beta_sq,
            others=np.array([np.delete(np.arange(n), s) for s in range(n)]).reshape(n, n - 1),
            gram=gram,
            singular=np.array(singular),
            kappa_min=np.array(kappa_min),
            finv_diag=finv_diag,
            f_bb=f_bb,
            r_gram=(psi.conj()[:, None] * (f_bb.conj().T @ f_bb) * psi).real,
            gram_c=centred_kernel(phi - phi[:, None], cfg.n_bs),  # nearer G's bits than turning G
            f_c=(psi.conj()[:, None] * f_bb * psi).real,
            k_anchor=_norm_sq(gram.T),  # the anchors' kernel rows are G's columns
            unit_gains=np.abs(gram.T @ f_bb.conj()) ** 2,
            zeta_peak=np.array(zeta_peak),
        )
        for array in vars(lay).values():
            array.flags.writeable = False
        _power(cfg, lay)  # cfg's own power
        return lay


@dataclass
class _Geometry:
    """Power-normalized per-user invariants of a block of draws, (T, U) unless noted."""

    layout: _Layout
    excluded: np.ndarray  # (T,) exclusion code
    position: np.ndarray
    share_user: np.ndarray
    share_earlier: np.ndarray
    own_gain: np.ndarray
    inter_gain_unit: np.ndarray
    rho: np.ndarray
    k_user: np.ndarray
    k_first: np.ndarray  # (T, N)
    kappa_s_unit: np.ndarray | None  # (T, N); None when the bounds are skipped


def _bounds(geo: _Geometry) -> tuple[np.ndarray, ...]:
    """The left prefixes of geo's bound formulas that read no power, once for all its powers.

    (T, U) each, in the order _evaluate unpacks them: rho^2, 1 - rho^2, (1 - rho^2) c|beta|^2,
    rho^2 kappa_min, the cluster's kappa_max(S) at unit power and ||K_anchor||^2, zeta_noise,
    sigma^2 / (||K_u||^2 c|beta|^2), and whether the decode position is 2 or later.
    """
    lay, rho_sq = geo.layout, geo.rho**2
    miss = 1.0 - rho_sq
    k_first = geo.k_first[:, lay.cluster_of]
    zeta_noise = k_first / (lay.kappa_min * geo.k_user)
    with np.errstate(divide="ignore", invalid="ignore"):
        noise = 1.0 / (geo.k_user * lay.c_beta_sq)
    return (
        rho_sq, miss, miss * lay.c_beta_sq, rho_sq * lay.kappa_min,
        geo.kappa_s_unit[:, lay.cluster_of], k_first, zeta_noise, noise, geo.position >= 2,
    )


@dataclass
class _Draw:
    """What a block of draws fixes before any power split, (T, ...) arrays."""

    k_user: np.ndarray  # (T, U) squared kernel row norms
    rho: np.ndarray  # (T, U) misalignment factor
    beam_gains: np.ndarray  # (T, U, N) |h^H F_BB|^2 of the kernel-row channels


def _draw(cfg: ScenarioConfig, lay: _Layout, seed: int, trials, spread=None) -> _Draw:
    """Draw stage: synthesize a block of draws and pass it through lay's precoder.

    Row t draws trial trials[t] at spread[t] (cfg.misalign_deg when spread is
    None; see user_angles). Each quantity is a modulus of a product of the
    kernel K[t, u, n] = a^H(phi_first,n) a(phi_u) = psi_u conj(psi_n) g (see
    centred_kernel), and G = Psi G_c Psi^H, F_BB = Psi F_c Psi^H, so each is
    one of the real g: ||K_u||^2 = sum_n g^2, |<K_anchor, K_u>| = |g G_c|,
    |K_u F_BB^*| = |g F_c|. A user at its anchor's angle (every anchor; all
    at b = 0) takes the layout's complex-kernel values of that anchor. A
    user's rows depend only on its angle, gain and anchor, so a configuration
    whose users are a subset of cfg's (same anchors and gains) shares the
    whole stage: its rows are rows of these.
    """
    trials = np.asarray(trials, dtype=np.int64)
    _, phi = user_angles(cfg, seed, trials, spread)
    g = centred_kernel(phi[:, :, None] - phi[:, None, lay.anchors], cfg.n_bs)
    aligned = phi == phi[:, lay.own_anchor]
    k_user = np.where(aligned, lay.k_anchor[lay.cluster_of], np.einsum("tun,tun->tu", g, g))
    # rho: |<K_anchor, K_u>| over the norms; column n of G_c is anchor n's g row
    cross = (g @ lay.gram_c).reshape(len(trials), -1)[:, lay.own_beam]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.minimum(np.abs(cross) / np.sqrt(k_user * k_user[:, lay.own_anchor]), 1.0)
    rho[aligned] = 1.0
    gains = (g @ lay.f_c) ** 2
    np.copyto(gains, lay.unit_gains[lay.cluster_of], where=aligned[:, :, None])
    gains *= lay.c_beta_sq[:, None]
    return _Draw(k_user, rho, gains)


def _view(
    draw: _Draw, lay: _Layout, users, model_channels: bool, leak_weighted: bool, bounds: bool = True
) -> _Geometry:
    """View stage: allocate one configuration's users of a drawn block.

    users indexes the configuration's users (laid out as lay) among the
    draw's, slice(None) when they are all of them. The view gathers their
    rows of the draw and computes the modeled channels, shares, decode
    positions, the kappa_max(S) stack and the exclusions.
    """
    n = len(lay.anchors)
    if model_channels and n < 2:
        raise ConfigError(_ONE_CLUSTER)
    k_user, rho, beam_gains = draw.k_user[:, users], draw.rho[:, users], draw.beam_gains[:, users]
    norms = raw_norms = lay.c_beta_sq * k_user
    degenerate = ~np.all(raw_norms > 0.0, axis=1)
    leak_collapsed = np.zeros(len(k_user), dtype=bool)
    if model_channels:
        raw_sums = np.add.reduceat(raw_norms, lay.starts, axis=1)
        raw_shares = raw_sums / raw_sums.sum(axis=1, keepdims=True)
        weights = np.sqrt(lay.c_beta_sq[lay.anchors]) * (
            np.sqrt(raw_shares) if leak_weighted else np.ones_like(raw_shares)
        )
        # leak[t, n] = sum over l != n of weight_l * (anchor l's effective channel)
        others = weights[:, None, :] * (1.0 - np.eye(n))
        leak = others @ lay.gram.T
        leak_norm = np.linalg.norm(leak, axis=2)
        leak_collapsed = np.any(leak_norm < LEAK_NORM_FLOOR, axis=1)
        leak = leak / np.where(leak_collapsed[:, None], 1.0, leak_norm)[:, :, None]
        anchor_hat = lay.gram.T / np.linalg.norm(lay.gram.T, axis=1, keepdims=True)
        chan = np.sqrt(k_user)[:, :, None] * (
            rho[:, :, None] * anchor_hat[lay.cluster_of]
            + np.sqrt(1.0 - rho**2)[:, :, None] * leak[:, lay.cluster_of]
        )
        chan[:, lay.anchors] = lay.gram.T  # the anchors keep their kernel rows, G's columns
        norms = lay.c_beta_sq * _norm_sq(chan)
        beam_gains = np.abs(chan @ lay.f_bb.conj()) ** 2 * lay.c_beta_sq[:, None]
        del chan

    sums = np.add.reduceat(norms, lay.starts, axis=1)
    with np.errstate(invalid="ignore"):  # 0/0 only on a draw excluded as degenerate
        share_cluster = sums / sums.sum(axis=1, keepdims=True)
    share_user = share_cluster[:, lay.cluster_of] / lay.sizes[lay.cluster_of]
    # decode order: strongest effective norm first inside each cluster, ties
    # by index; sorting by cluster first leaves each cluster's slots in place,
    # so the k-th slot of a cluster is decode position k. numpy sorts complex
    # keys by real, then imaginary part; only a degenerate draw has NaN norms
    order = np.argsort(lay.cluster_of - 1j * norms, axis=1, kind="stable")
    position = np.empty(norms.shape, dtype=np.int64)
    position[np.arange(len(order))[:, None], order] = lay.user

    own_gain = beam_gains.reshape(len(beam_gains), -1)[:, lay.own_beam]
    inter_gain_unit = (
        np.sum(beam_gains * share_cluster[:, None, :], axis=2)
        - share_cluster[:, lay.cluster_of] * own_gain
    )
    del beam_gains  # done with the (T, U, N) rows: drop them before the eigen stack
    kappa_s_unit = None
    if bounds:
        # kappa_max(S_s): the largest eigenvalue of the weighted F_BB^H F_BB = Psi R Psi^H with row
        # and column s zeroed, so (Psi diagonal unitary, the matrix PSD) of the weighted R without s
        root_p = np.sqrt(share_cluster)
        weighted = root_p[:, :, None] * lay.r_gram * root_p[:, None, :]
        subs = weighted[:, lay.others[:, :, None], lay.others[:, None, :]]  # (T, N, N-1, N-1)
        kappa_s_unit = np.linalg.eigvalsh(subs)[..., -1] if n > 1 else np.zeros((len(subs), 1))

    excluded = np.where(degenerate, _SCENARIO, np.where(leak_collapsed, _SUBSPACE, 0))
    excluded = np.where(lay.singular, _SINGULAR, excluded)
    return _Geometry(
        layout=lay,
        excluded=excluded,
        position=position,
        share_user=share_user,
        share_earlier=(position - 1) * share_user,
        own_gain=own_gain,
        inter_gain_unit=inter_gain_unit,
        rho=rho,
        k_user=k_user,
        k_first=k_user[:, lay.anchors],
        kappa_s_unit=kappa_s_unit,
    )


def _norm_sq(x: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis of a complex array."""
    return np.square(x.real).sum(axis=-1) + np.square(x.imag).sum(axis=-1)


def _log2p(x: np.ndarray) -> np.ndarray:
    return np.log1p(x) / LOG2


def _evaluate(geo: _Geometry, p_total: float, b: tuple | None) -> dict:
    """Per-user (T, U) fields at SNR p_total, sigma^2 = 1: exact rate, gap and, given b, bounds."""
    lay = geo.layout
    p_user = p_total * geo.share_user
    p_earlier = p_total * geo.share_earlier
    cb = lay.c_beta_sq
    rate = _log2p(
        p_user * geo.own_gain / (p_earlier * geo.own_gain + p_total * geo.inter_gain_unit + 1.0)
    )
    aligned = _log2p(p_user * cb / (p_earlier * cb + lay.finv_diag[lay.cluster_of]))
    out = {"rho": geo.rho, "rate_exact": rate, "rate_gap": aligned - rate}
    if b is None:
        return out
    rho_sq, miss, miss_cb, rho_sq_kappa, kappa_s_unit, k_first, zeta_noise, noise, later = b
    kappa_s = p_total * kappa_s_unit
    zeta_intra = p_earlier * rho_sq * cb
    zeta_inter = miss_cb * kappa_s * k_first / lay.kappa_min
    with np.errstate(divide="ignore", invalid="ignore"):
        num = miss * kappa_s + noise
        den = rho_sq_kappa * p_earlier / k_first
        gap_ub = np.where(den > 0.0, _log2p(num / np.where(den > 0.0, den, 1.0)), np.inf)
    out.update(
        rate_lb_thm1=_log2p(p_user * cb / (p_earlier * cb + 1.0 / lay.kappa_min)),
        rate_lb_thm2=_log2p(p_user * rho_sq * cb / (zeta_intra + zeta_inter + zeta_noise)),
        gap_ub_thm3=gap_ub,
        gap_ub_applicable=later & np.isfinite(gap_ub),
    )
    return out


def _power(cfg: ScenarioConfig, lay: _Layout, snr_db: float | None = None) -> float:
    """P at snr_db (cfg's if None), sigma^2 = 1; ConfigError if max(1, P) zeta_peak overflows."""
    snr = cfg.snr_db if snr_db is None else snr_db
    snr_linear = _db_to_linear(snr, "snr_db")
    if not math.isfinite(max(1.0, snr_linear) * float(lay.zeta_peak)):
        raise ConfigError(f"snr_db {snr} dB: {_OVERFLOW}")
    return snr_linear


@dataclass(frozen=True)
class TrialMetrics:
    """Per-user outcomes of a single scenario draw (flat order: cluster, user)."""

    cluster: np.ndarray
    user: np.ndarray
    position: np.ndarray
    rho: np.ndarray
    rate_exact: np.ndarray
    rate_lb_thm1: np.ndarray
    rate_lb_thm2: np.ndarray
    rate_gap: np.ndarray
    gap_ub_thm3: np.ndarray
    gap_ub_applicable: np.ndarray


@dataclass(frozen=True)
class BlockMetrics(TrialMetrics):
    """Per-user outcomes of a block of draws.

    cluster and user label the U users as in TrialMetrics; every other
    per-user field is (T, U), one row per entry of block_metrics' trials.
    excluded holds one code per trial: 0 for a kept draw, otherwise the key
    in EXCLUSIONS of the exception that draw raises in trial_metrics. The
    row of an excluded draw holds NaN, position 0 and no applicable gap bound.
    """

    excluded: np.ndarray


def block_metrics(
    cfg: ScenarioConfig,
    seed: int,
    trials,
    snr_db: float | None = None,
    model_channels: bool = False,
    leak_weighted: bool = True,
) -> BlockMetrics:
    """The pipeline (synthesize, precode, allocate, rates, bounds) on a block of draws.

    Draw t of the block is the draw trial_metrics(cfg, seed, trials[t], ...) evaluates.
    """
    lay = _Layout.of(cfg)
    p_total = _power(cfg, lay, snr_db)
    geo = _view(_draw(cfg, lay, seed, trials), lay, slice(None), model_channels, leak_weighted)
    fields = _evaluate(geo, p_total, _bounds(geo))
    kept = (geo.excluded == 0)[:, None]
    applicable = fields.pop("gap_ub_applicable") & kept
    fields = {name: np.where(kept, value, np.nan) for name, value in fields.items()}
    return BlockMetrics(
        excluded=geo.excluded,
        cluster=lay.cluster_of + 1,
        user=lay.user,
        position=np.where(kept, geo.position, 0),
        gap_ub_applicable=applicable,
        **fields,
    )


def trial_metrics(
    cfg: ScenarioConfig,
    seed: int,
    trial: int = 0,
    snr_db: float | None = None,
    model_channels: bool = False,
    leak_weighted: bool = True,
) -> TrialMetrics:
    """One pipeline pass (synthesize, precode, allocate, rates, bounds), unaveraged.

    The one-draw case of block_metrics; an excluded draw raises its exception.
    """
    lay = _Layout.of(cfg)
    p_total = _power(cfg, lay, snr_db)
    geo = _view(_draw(cfg, lay, seed, [trial]), lay, slice(None), model_channels, leak_weighted)
    code = int(geo.excluded[0])
    if code == _SINGULAR:
        raise _singular_gram_error(lay.gram)
    if code:
        raise EXCLUSIONS[code](_EXCLUSION_MESSAGES[code])
    fields = _evaluate(geo, p_total, _bounds(geo))
    return TrialMetrics(
        cluster=lay.cluster_of + 1,
        user=lay.user,
        position=geo.position[0],
        **{name: value[0] for name, value in fields.items()},
    )


def _singular_gram_error(gram: np.ndarray) -> SingularMatrix:
    """The error for a Gram matrix over the condition cap, naming its most collinear pair."""
    off = np.abs(gram - np.diag(np.diag(gram)))  # all zero for one cluster: pair (1, 1)
    i, j = sorted(np.unravel_index(np.argmax(off), off.shape))
    return SingularMatrix(
        f"analog beams of clusters {i + 1} and {j + 1} are nearly parallel "
        f"(Gram condition above {CONDITION_CAP:.0e})"
    )


class _Accumulator:
    """Trial-ordered mean/stderr accumulation for one (system, sweep value) cell.

    Blocks arrive in trial order. Each contributes its count and the per-user
    mean and sum of squared deviations (M2) of the exact rate, merged by the
    pairwise update of Chan, Golub and LeVeque; unlike a running sum of
    squares it does not cancel when a rate barely varies. The other fields
    are summed.
    """

    SUMMED = ("rate_lb_thm1", "rate_lb_thm2", "rate_gap", "rho")

    def __init__(self, n_users: int):
        self.n = 0
        self.mean = np.zeros(n_users)
        self.m2 = np.zeros(n_users)
        self.sums: dict[str, np.ndarray] = {}
        self.sum_gap_ub = np.zeros(n_users)
        self.n_gap_ub = np.zeros(n_users, dtype=np.int64)

    def add(self, fields: dict[str, np.ndarray]) -> None:
        """Merge one block of kept draws: (T, U) arrays keyed like TrialMetrics."""
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

    def cell(self, system: str, sweep_value: float, lay: _Layout, excluded: int) -> ResultCell:
        """The cell's per-user means, NaN where a field is absent, and the rate's stderr."""
        columns = dict.fromkeys(_BOUND_COLUMNS, np.full_like(self.mean, np.nan))
        for name, total in self.sums.items():
            columns["rho_mean" if name == "rho" else name] = total / self.n
        with np.errstate(invalid="ignore"):  # 0/0: the gap bound never applied
            columns["gap_ub_thm3"] = self.sum_gap_ub / self.n_gap_ub
        return ResultCell(
            system,
            sweep_value,
            lay.cluster_of + 1,
            lay.user,
            rate_exact=self.mean,
            stderr=self.stderr(),
            trials=self.n,
            excluded=excluded,
            **columns,
        )

    def stderr(self) -> np.ndarray:
        if self.n < 2:
            return np.zeros_like(self.mean)
        return np.sqrt(self.m2 / (self.n - 1) / self.n)


def _map_blocks(fn, count: int, workers: int):
    """Yield fn(block) for consecutive CHUNK-trial blocks in trial order.

    With workers > 1, up to `workers` blocks run at once on threads; the
    block boundaries do not depend on the worker count.
    """
    blocks = [range(s, min(s + CHUNK, count)) for s in range(0, count, CHUNK)]
    if workers <= 1 or len(blocks) <= 1:
        yield from map(fn, blocks)
        return
    from concurrent.futures import ThreadPoolExecutor  # imports logging: only when needed
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i in range(0, len(blocks), workers):
            yield from pool.map(fn, blocks[i : i + workers])


def _system_label(b: float, multi: bool) -> str:
    return f"b{b:g}" if multi else "hb"


def _gain_ramp(size: int) -> tuple[float, ...]:
    """Gains 0, -1, ..., -(size - 1) dB."""
    return tuple(float(-k) for k in range(size))


def _with_cluster_size(cfg: ScenarioConfig, cluster_1based: int, size: int) -> ScenarioConfig:
    clusters = list(cfg.clusters)
    clusters[cluster_1based - 1] = replace(clusters[cluster_1based - 1], gains_db=_gain_ramp(size))
    return replace(cfg, clusters=tuple(clusters))


def validate_spec(spec: ExperimentSpec) -> None:
    validate_config(spec.scenario)  # not only _Layout.of's: its cache holds n_bs 32 and 32.0 as one
    _check_fields(spec)  # the scenario passed above
    _check_fields(spec.baselines)
    if not spec.scenario_id:
        raise ConfigError("scenario_id must be non-empty")
    if spec.sweep_name not in SWEEP_NAMES:
        raise ConfigError(f"unknown sweep '{spec.sweep_name}'; expected one of {SWEEP_NAMES}")
    if len(spec.sweep_values) == 0:
        raise ConfigError("sweep values must be nonempty")
    if spec.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {spec.trials}")
    if not 0 <= spec.seed < 2**64:  # counter_uniform keys on the seed's low 64 bits
        raise ConfigError(f"seed must be in 0..2**64-1, got {spec.seed}")
    if (spec.sweep_name == "cluster_size") != (spec.observe_cluster is not None):
        raise ConfigError(
            f"observe_cluster={spec.observe_cluster} on a {spec.sweep_name} sweep: "
            "a cluster_size sweep needs it and any other sweep ignores it"
        )
    n_clusters = len(spec.scenario.clusters)
    if spec.baselines.model_channels and n_clusters < 2:
        raise ConfigError(_ONE_CLUSTER)
    if spec.observe_cluster is not None and not 1 <= spec.observe_cluster <= n_clusters:
        raise ConfigError(f"observe_cluster={spec.observe_cluster} outside 1..{n_clusters}")
    if len(set(spec.sweep_values)) < len(spec.sweep_values):
        raise ConfigError(f"sweep values repeat: {spec.sweep_values}")
    if spec.sweep_name != "snr_db" and not all(
        v.is_integer() and v >= 1 for v in spec.sweep_values
    ):
        raise ConfigError(f"{spec.sweep_name} sweep values must be integers >= 1")
    if spec.misalign_grid is not None:
        if len(spec.misalign_grid) == 0:
            raise ConfigError("misalign_grid must be nonempty when given")
        if min(spec.misalign_grid) < 0:
            raise ConfigError(f"misalignment spread must be >= 0, got {spec.misalign_grid}")
        labels = [_system_label(b, True) for b in spec.misalign_grid]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"misalign_grid values share a system label: {labels}")
    _Layout.of(spec.scenario)  # its gains and own power against its precoder
    for cfg, lay, views in _draws(spec):  # each configuration drawn, at its largest power
        _power(cfg, lay, max(snr for view in views for _, snr in view.cells))


class _View(NamedTuple):
    """One configuration's users of a drawn block and the cells they feed."""

    layout: _Layout
    users: np.ndarray | slice  # the configuration's users among the draw's
    cells: list[tuple[float, float]]  # (sweep value, snr) of each cell


def _draws(spec: ExperimentSpec) -> list[tuple[ScenarioConfig, _Layout, list[_View]]]:
    """(config, layout, views) of each configuration the sweep draws; rows take grid spreads."""
    base = spec.scenario

    def whole(cfg, cells):
        lay = _Layout.of(cfg)
        return cfg, lay, [_View(lay, slice(None), cells)]

    if spec.sweep_name == "snr_db":
        # one view for every SNR: the per-user quantities are linear in the power
        return [whole(base, [(v, v) for v in spec.sweep_values])]
    if spec.sweep_name == "n_bs":
        return [whole(replace(base, n_bs=int(v)), [(v, base.snr_db)]) for v in spec.sweep_values]
    # drawn once at the largest size: a size's users are the other clusters'
    # and the observed cluster's first, in flat order
    observed = spec.observe_cluster
    cfg = _with_cluster_size(base, observed, int(max(spec.sweep_values)))
    lay = _Layout.of(cfg)
    others = lay.cluster_of != observed - 1
    views = [
        _View(
            _Layout.of(_with_cluster_size(base, observed, int(v))),
            np.flatnonzero(others | (lay.user <= v)),
            [(v, base.snr_db)],
        )
        for v in spec.sweep_values
    ]
    return [(cfg, lay, views)]


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ResultTable:
    """Run the experiment; deterministic for fixed (spec, seed) at any worker count."""
    validate_spec(spec)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    grid = spec.misalign_grid if spec.misalign_grid is not None else (spec.scenario.misalign_deg,)
    draws = _draws(spec)
    counts = [1 if b == 0.0 and not spec.baselines.model_channels else spec.trials for b in grid]
    accs = {  # by (spread, draw, view, cell), in output order
        (i, d, v, c): _Accumulator(len(view.layout.user))
        for i in range(len(grid)) for d, (_, _, views) in enumerate(draws)
        for v, view in enumerate(views) for c in range(len(view.cells))
    }
    view_args = (spec.baselines.model_channels, spec.leak_weighted, spec.baselines.hb_lb)
    for d, (cfg, lay, views) in enumerate(draws):

        def one_block(block, cfg=cfg, lay=lay, views=views):
            # rows: each spread's trials of the block, spread by spread in grid order
            lens = np.clip(np.subtract(counts, block.start), 0, len(block))
            trials = np.concatenate([block[:n] for n in lens])
            draw = _draw(cfg, lay, spec.seed, trials, np.repeat(grid, lens))
            return lens, [_view(draw, view.layout, view.users, *view_args) for view in views]

        for lens, geos in _map_blocks(one_block, max(counts), workers):
            ends = np.cumsum(lens)
            for v, (view, geo) in enumerate(zip(views, geos)):
                kept = geo.excluded == 0
                terms = _bounds(geo) if spec.baselines.hb_lb else None
                # one SNR's fields at a time on the view's terms: memory stays that of one view
                for c, (_, snr) in enumerate(view.cells):
                    fields = _evaluate(geo, _power(cfg, lay, snr), terms)
                    for i, rows in enumerate(map(slice, ends - lens, ends)):
                        accs[i, d, v, c].add({k: x[rows][kept[rows]] for k, x in fields.items()})

    cells: list[ResultCell] = []
    for (i, d, v, c), acc in accs.items():
        view, label = draws[d][2][v], _system_label(grid[i], len(grid) > 1)
        value = view.cells[c][0]
        if acc.n == 0:
            raise DegenerateScenario(
                f"all {counts[i]} trials excluded for system {label}, sweep value {value}"
            )
        cells.append(acc.cell(label, value, view.layout, counts[i] - acc.n))

    cells += [
        _baseline_cell(system, cfg, view.layout, value, _power(cfg, lay, snr))
        for system in ("fd", "oma")
        if getattr(spec.baselines, system)
        for cfg, lay, views in draws
        for view in views
        for value, snr in view.cells
    ]
    return ResultTable(spec=spec, cells=cells)


def _baseline_cell(
    system: str, cfg: ScenarioConfig, lay: _Layout, sweep_value: float, p_total: float
) -> ResultCell:
    """A deterministic cell of the fully-digital or frame-averaged OMA reference.

    Neither depends on the angles. Fully digital: exact zero-forcing with
    unit-power columns leaves each user the SINR
    P_m c|beta|^2 / (sum over users decoded before it of P_k c|beta|^2 + sigma^2),
    decoding strongest c|beta|^2 first, with the cluster powers split in
    proportion to the summed c|beta|^2 and equally inside each cluster. OMA:
    each user alone at full power on its own beam, SINR P c |beta|^2 / sigma^2;
    the frame average divides the rates by the user count later. sigma^2 = 1 (see _power).
    """
    if system == "fd":
        norms = [lay.c_beta_sq[s : s + m] for s, m in zip(lay.starts, lay.sizes)]
        sums = np.array([float(np.sum(cluster)) for cluster in norms])
        sinr = [0.0] * len(lay.user)
        cluster_power = p_total * sums / float(np.sum(sums))
        for start, cluster, p_n in zip(lay.starts, norms, cluster_power):
            p = p_n / len(cluster)
            earlier = 0.0  # power of the users decoded so far, summed in order
            for idx in np.argsort(-cluster, kind="stable"):
                gain = cluster[idx]
                sinr[start + idx] = p * gain / (earlier * gain + 1.0)
                earlier += p
    else:
        # (P c) |beta|^2, not P (c |beta|^2): the two differ in the
        # last bit unless c is a power of two
        sinr = (p_total * float(cfg.n_bs * cfg.n_ue)) * lay.beta_sq
    # scalar log1p: numpy's differs in the last bit for some values
    rate = np.array([math.log1p(x) / LOG2 for x in sinr])
    return ResultCell(
        system,
        sweep_value,
        lay.cluster_of + 1,
        lay.user,
        rate_exact=rate,
        stderr=np.zeros(len(rate)),
        trials=1,
        excluded=0,
        **dict.fromkeys(_BOUND_COLUMNS, np.full(len(rate), np.nan)),
    )


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
FIG4_AODS = (10.0, 30.0, 50.0, 65.0, 80.0)
FIG4_OBSERVED = 3


# two users on one aligned beam at the default 10 dB, both Fig. 3 sweeps
_FIG3_SCENARIO = ScenarioConfig(clusters=(ClusterSpec(aod_deg=0.0, gains_db=(0.0, -2.0)),))


def _fig4_config(size_observed: int, size_others: int, b: float, snr_db: float) -> ScenarioConfig:
    clusters = tuple(
        ClusterSpec(
            aod_deg=aod,
            gains_db=_gain_ramp(size_observed if i + 1 == FIG4_OBSERVED else size_others),
        )
        for i, aod in enumerate(FIG4_AODS)
    )
    return ScenarioConfig(clusters=clusters, misalign_deg=b, snr_db=snr_db)


def _fig5_config() -> ScenarioConfig:
    # cluster i + 1 at 10 (i + 1) deg, 4 + 2 i users spread over 0..-18 dB
    gains = [np.linspace(0.0, -18.0, 4 + 2 * i) for i in range(8)]
    clusters = tuple(ClusterSpec(10.0 * (i + 1), g) for i, g in enumerate(gains))
    return ScenarioConfig(clusters=clusters)


_PRESET_SPECS = {
    spec.scenario_id: spec
    for spec in (
        ExperimentSpec(
            scenario=_FIG3_SCENARIO,
            sweep_name="snr_db",
            sweep_values=SNR_GRID,
            baselines=Baselines(fd=True),
            scenario_id="fig3a",
        ),
        ExperimentSpec(
            scenario=_FIG3_SCENARIO,
            sweep_name="n_bs",
            sweep_values=(8, 16, 24, 32, 48, 64, 80, 96, 112, 128),
            baselines=Baselines(fd=True),
            scenario_id="fig3b",
        ),
        ExperimentSpec(
            scenario=_fig4_config(10, 5, b=3.0, snr_db=15.0),
            sweep_name="snr_db",
            sweep_values=SNR_GRID,
            scenario_id="fig4a",
        ),
        ExperimentSpec(
            scenario=_fig4_config(10, 15, b=3.0, snr_db=15.0),
            sweep_name="snr_db",
            sweep_values=(15.0,),
            scenario_id="fig4b",
        ),
        ExperimentSpec(
            scenario=_fig4_config(15, 15, b=3.0, snr_db=15.0),
            sweep_name="cluster_size",
            sweep_values=(5, 10, 15, 20, 25, 30, 35),
            observe_cluster=FIG4_OBSERVED,
            misalign_grid=(0.0, 3.0, 6.0),
            scenario_id="fig4c",
        ),
        ExperimentSpec(
            scenario=_fig4_config(10, 15, b=3.0, snr_db=30.0),
            sweep_name="snr_db",
            sweep_values=(15.0, 30.0),
            misalign_grid=(3.0, 6.0),
            scenario_id="fig4d",
        ),
        ExperimentSpec(
            scenario=_fig5_config(),
            sweep_name="snr_db",
            sweep_values=SNR_GRID,
            misalign_grid=(0.0, 2.0, 6.0),
            baselines=Baselines(fd=True, oma=True),
            scenario_id="fig5",
        ),
    )
}
PRESETS = tuple(_PRESET_SPECS)


def preset(name: str) -> ExperimentSpec:
    """The configuration behind each source figure (one of PRESETS), reproduced as a sweep spec."""
    try:
        return _PRESET_SPECS[name]
    except KeyError:
        raise UnknownPreset(f"no preset named '{name}'; expected one of {PRESETS}") from None
