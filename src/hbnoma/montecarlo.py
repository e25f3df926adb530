"""Experiment runner: sweeps, misalignment averaging, baselines.

A trial draws one scenario realization, designs the precoder, allocates power
and evaluates exact rates and all bounds. One engine evaluates a block of
trials at once, in closed form over (trials, users, clusters) arrays, in two
stages. The draw stage (angles, kernel, Gram eigenvalues and inverse, F_BB)
never reads the user gains, so a cluster_size sweep draws each block once, at
its largest size: the counter RNG keys on (cluster, user) and the observed
cluster's anchor is its user 1 at every size, so every size's draws are a
subset of the largest's. The view stage then computes, per sweep value on
that value's users, everything that depends on the norms. Every per-user
quantity is linear in the total power, so an SNR sweep shares one view of each
block and rescales. Blocks of CHUNK trials are independent work items; they
are reduced in trial order, making the output bit-identical for any worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, is_dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import (
    ANGLE_SLACK,
    ClusterSpec,
    ScenarioConfig,
    dirichlet_kernel,
    first_user_index,
    gain_db_to_beta,
    user_angles,
    validate_config,
)
from .errors import (
    ConfigError,
    DegenerateScenario,
    DegenerateSubspace,
    OutOfRange,
    SingularMatrix,
    TrialError,
    UnknownPreset,
)

LOG2 = math.log(2.0)
CHUNK = 64
CONDITION_CAP = 1e10  # a Gram matrix with a larger condition number is singular
LEAK_NORM_FLOOR = 1e-12  # below this the leakage combination has no direction
SWEEP_NAMES = ("snr_db", "n_bs", "cluster_size")


@dataclass(frozen=True)
class Baselines:
    """Which curves an experiment produces besides the hybrid exact rates."""

    hb_exact: bool = True
    hb_lb: bool = True
    fd: bool = False
    oma: bool = False
    model_channels: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
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
        object.__setattr__(self, "sweep_values", tuple(float(v) for v in self.sweep_values))
        if self.misalign_grid is not None:
            object.__setattr__(
                self, "misalign_grid", tuple(float(b) for b in self.misalign_grid)
            )


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
    """Flat user indexing of one configuration (cluster by cluster)."""

    cluster_of: np.ndarray  # (U,) 0-based cluster of each user
    user: np.ndarray  # (U,) 1-based index inside its cluster
    anchors: np.ndarray  # (N,) flat index of each cluster's strongest user
    starts: np.ndarray  # (N,) flat index of each cluster's first user
    sizes: np.ndarray  # (N,) users per cluster
    beta_sq: np.ndarray  # (U,) |beta|^2
    c_beta_sq: np.ndarray  # (U,) N_BS N_U |beta|^2

    @classmethod
    def of(cls, cfg: ScenarioConfig) -> "_Layout":
        validate_config(cfg)
        sizes = np.array([len(c.gains_db) for c in cfg.clusters])
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        cluster_of = np.repeat(np.arange(len(sizes)), sizes)
        user = np.arange(len(cluster_of)) - starts[cluster_of] + 1
        beta_sq = np.array(
            [abs(gain_db_to_beta(g)) ** 2 for cl in cfg.clusters for g in cl.gains_db]
        )
        return cls(
            cluster_of=cluster_of,
            user=user,
            anchors=starts + [first_user_index(cl.gains_db) for cl in cfg.clusters],
            starts=starts,
            sizes=sizes,
            beta_sq=beta_sq,
            c_beta_sq=float(cfg.n_bs * cfg.n_ue) * beta_sq,
        )


@dataclass
class _Geometry:
    """Power-normalized per-user invariants of a block of draws, (T, U) unless noted."""

    layout: _Layout
    excluded: np.ndarray  # (T,) exclusion code
    gram: np.ndarray  # (T, N, N)
    position: np.ndarray
    share_user: np.ndarray
    share_earlier: np.ndarray
    own_gain: np.ndarray
    inter_gain_unit: np.ndarray
    rho: np.ndarray
    k_user: np.ndarray
    k_first: np.ndarray  # (T, N)
    finv_diag: np.ndarray  # (T, N)
    kappa_min: np.ndarray  # (T,)
    kappa_s_unit: np.ndarray | None  # (T, N); None when the bounds are skipped


@dataclass
class _Draw:
    """The norm-free part of a block of draws: angles, kernel and precoder, (T, ...) arrays."""

    trials: np.ndarray  # (T,)
    phi: np.ndarray  # (T, U) normalized angles
    kern: np.ndarray  # (T, U, N) kernel rows against the cluster anchors
    gram: np.ndarray  # (T, N, N)
    singular: np.ndarray  # (T,)
    kappa_min: np.ndarray  # (T,)
    finv_diag: np.ndarray  # (T, N)
    f_bb: np.ndarray  # (T, N, N)


def _draw(cfg: ScenarioConfig, lay: _Layout, seed: int, trials) -> _Draw:
    """Draw stage: synthesize and precode a block of draws in closed form.

    Every quantity is a function of the complex kernel
    K[t, u, n] = a^H(phi_first,n) a(phi_u) over the N cluster beams; the
    N_BS dimension is never formed. With H_bar square, the zero-forcing
    stage reduces to F_BB = G^{-1} diag(1 / sqrt([G^{-1}]_nn)). Nothing here
    reads the user gains, so a configuration whose users are a subset of
    cfg's (with the same anchors) shares the whole stage: its kernel rows
    are rows of this kernel and its Gram matrix and F_BB are these.
    """
    trials = np.asarray(trials, dtype=np.int64)
    _, phi = user_angles(cfg, seed, trials)
    kern = dirichlet_kernel(phi[:, :, None] - phi[:, None, lay.anchors], cfg.n_bs)
    gram = kern[:, lay.anchors, :].transpose(0, 2, 1)  # G[k, n] = a_k^H a_n
    eigs = np.linalg.eigvalsh(gram)
    singular = (eigs[:, 0] <= 0.0) | (eigs[:, -1] > CONDITION_CAP * eigs[:, 0])
    # a singular draw is excluded; an identity Gram stands in for it so that
    # the block's arithmetic stays finite
    finv = np.linalg.inv(np.where(singular[:, None, None], np.eye(len(lay.anchors)), gram))
    finv_diag = np.diagonal(finv, axis1=1, axis2=2).real
    kappa_min = np.where(singular, 1.0, eigs[:, 0])
    f_bb = finv / np.sqrt(finv_diag)[:, None, :]
    return _Draw(trials, phi, kern, gram, singular, kappa_min, finv_diag, f_bb)


def _view(
    draw: _Draw, lay: _Layout, users, model_channels: bool, leak_weighted: bool, bounds: bool = True
) -> _Geometry:
    """View stage: allocate one configuration's users of a drawn block.

    users indexes the configuration's users (laid out as lay) among the
    draw's, slice(None) when they are all of them. Everything that depends
    on the user norms is computed here, on (T, U) and (T, U, N) arrays of
    this configuration's own shape: the angle range check, the norms and
    rho, modeled channels, shares, decode positions, beam gains, the
    kappa_max(S) stack and the exclusions other than a singular Gram.
    """
    n = len(lay.anchors)
    if model_channels and n < 2:
        raise ConfigError("model-generated channels need at least two clusters")
    phi = draw.phi[:, users]
    bad = np.abs(phi) > 1.0 + ANGLE_SLACK
    if bad.any():
        t, u = np.argwhere(bad)[0]
        cause = OutOfRange(f"normalized angle {phi[t, u]} outside [-1, 1]")
        raise TrialError(int(draw.trials[t]), cause) from cause

    kern, gram, f_bb = draw.kern[:, users], draw.gram, draw.f_bb
    k_user = _norm_sq(kern)
    k_anchor = k_user[:, lay.anchors]
    raw_norms = lay.c_beta_sq * k_user
    degenerate = ~np.all(raw_norms > 0.0, axis=1)
    # rho: |<K_anchor, K_u>| over the norms, K_anchor the user's own anchor row
    cross = kern @ kern[:, lay.anchors].conj().transpose(0, 2, 1)
    cross = np.take_along_axis(cross, lay.cluster_of[None, :, None], axis=2)[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.minimum(np.abs(cross) / np.sqrt(k_user * k_anchor[:, lay.cluster_of]), 1.0)
    rho = np.where(phi == phi[:, lay.anchors[lay.cluster_of]], 1.0, rho)

    # effective channels are sqrt(c_beta_sq) * chan; chan is the kernel row
    # unless modeled channels replace the non-anchor users
    chan = kern
    leak_collapsed = np.zeros(len(draw.trials), dtype=bool)
    norms = raw_norms
    if model_channels:
        raw_sums = np.add.reduceat(raw_norms, lay.starts, axis=1)
        raw_shares = raw_sums / raw_sums.sum(axis=1, keepdims=True)
        weights = np.sqrt(lay.c_beta_sq[lay.anchors]) * (
            np.sqrt(raw_shares) if leak_weighted else np.ones_like(raw_shares)
        )
        # leak[t, n] = sum over l != n of weight_l * (anchor l's effective channel)
        others = weights[:, None, :] * (1.0 - np.eye(n))
        leak = others @ gram.transpose(0, 2, 1)
        leak_norm = np.linalg.norm(leak, axis=2)
        leak_collapsed = np.any(leak_norm < LEAK_NORM_FLOOR, axis=1)
        leak = leak / np.where(leak_collapsed[:, None], 1.0, leak_norm)[:, :, None]
        anchor_rows = kern[:, lay.anchors]
        anchor_hat = anchor_rows / np.linalg.norm(anchor_rows, axis=2, keepdims=True)
        modeled = np.sqrt(k_user)[:, :, None] * (
            rho[:, :, None] * anchor_hat[:, lay.cluster_of]
            + np.sqrt(1.0 - rho**2)[:, :, None] * leak[:, lay.cluster_of]
        )
        is_anchor = np.zeros(len(lay.cluster_of), dtype=bool)
        is_anchor[lay.anchors] = True
        chan = np.where(is_anchor[:, None], kern, modeled)
        norms = lay.c_beta_sq * _norm_sq(chan)

    sums = np.add.reduceat(norms, lay.starts, axis=1)
    with np.errstate(invalid="ignore"):  # 0/0 only on a draw excluded as degenerate
        share_cluster = sums / sums.sum(axis=1, keepdims=True)
    share_user = share_cluster[:, lay.cluster_of] / lay.sizes[lay.cluster_of]
    # decode order: strongest effective norm first inside each cluster, ties
    # by index; sorting by cluster first leaves each cluster's slots in place,
    # so the k-th slot of a cluster is decode position k
    order = np.lexsort((-norms, np.broadcast_to(lay.cluster_of, norms.shape)))
    position = np.empty(norms.shape, dtype=np.int64)
    np.put_along_axis(position, order, np.broadcast_to(lay.user, norms.shape), axis=1)

    beam_gains = np.abs(chan @ f_bb.conj())  # |h^H F_BB| / sqrt(c_beta_sq)
    beam_gains *= beam_gains
    beam_gains *= lay.c_beta_sq[:, None]
    own_gain = np.take_along_axis(beam_gains, lay.cluster_of[None, :, None], axis=2)[:, :, 0]
    inter_gain_unit = (
        np.sum(beam_gains * share_cluster[:, None, :], axis=2)
        - share_cluster[:, lay.cluster_of] * own_gain
    )

    del kern, chan  # the view's (T, U, N) arrays are done with; free them before the eigen stack
    kappa_s_unit = None
    if bounds:
        # kappa_max(S) per excluded cluster: the largest eigenvalue of the
        # power-weighted F_BB^H F_BB with that cluster's row and column zeroed
        root_p = np.sqrt(share_cluster)
        f_gram = f_bb.conj().transpose(0, 2, 1) @ f_bb
        weighted = root_p[:, :, None] * f_gram * root_p[:, None, :]
        keep = 1.0 - np.maximum(np.eye(n)[:, :, None], np.eye(n)[:, None, :])
        kappa_s_unit = np.linalg.eigvalsh(weighted[:, None] * keep)[..., -1]

    excluded = np.select(
        [draw.singular, degenerate, leak_collapsed], [_SINGULAR, _SCENARIO, _SUBSPACE], 0
    )
    return _Geometry(
        layout=lay,
        excluded=excluded,
        gram=gram,
        position=position,
        share_user=share_user,
        share_earlier=(position - 1) * share_user,
        own_gain=own_gain,
        inter_gain_unit=inter_gain_unit,
        rho=rho,
        k_user=k_user,
        k_first=k_anchor,
        finv_diag=draw.finv_diag,
        kappa_min=draw.kappa_min,
        kappa_s_unit=kappa_s_unit,
    )


def _norm_sq(x: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis of a complex array."""
    return np.square(x.real).sum(axis=-1) + np.square(x.imag).sum(axis=-1)


def _log2p(x: np.ndarray) -> np.ndarray:
    return np.log1p(x) / LOG2


def _evaluate(geo: _Geometry, p_total: float, noise_var: float) -> dict[str, np.ndarray]:
    """Per-user (T, U) fields at one power level: exact rate, gap and, unless skipped, bounds."""
    lay = geo.layout
    p_user = p_total * geo.share_user
    p_earlier = p_total * geo.share_earlier
    cb = lay.c_beta_sq
    rate = _log2p(
        p_user * geo.own_gain
        / (p_earlier * geo.own_gain + p_total * geo.inter_gain_unit + noise_var)
    )
    aligned = _log2p(
        p_user * cb / (p_earlier * cb + noise_var * geo.finv_diag[:, lay.cluster_of])
    )
    out = {"rho": geo.rho, "rate_exact": rate, "rate_gap": aligned - rate}
    if geo.kappa_s_unit is None:
        return out
    kappa_min = geo.kappa_min[:, None]
    rho_sq = geo.rho**2
    kappa_s = p_total * geo.kappa_s_unit[:, lay.cluster_of]
    k_first = geo.k_first[:, lay.cluster_of]
    zeta_intra = p_earlier * rho_sq * cb
    zeta_inter = (1.0 - rho_sq) * cb * kappa_s * k_first / kappa_min
    zeta_noise = noise_var * k_first / (kappa_min * geo.k_user)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = (1.0 - rho_sq) * kappa_s + noise_var / (geo.k_user * cb)
        den = rho_sq * kappa_min * p_earlier / k_first
        gap_ub = np.where(den > 0.0, _log2p(num / np.where(den > 0.0, den, 1.0)), np.inf)
    out.update(
        rate_lb_thm1=_log2p(p_user * cb / (p_earlier * cb + noise_var / kappa_min)),
        rate_lb_thm2=_log2p(p_user * rho_sq * cb / (zeta_intra + zeta_inter + zeta_noise)),
        gap_ub_thm3=gap_ub,
        gap_ub_applicable=(geo.position >= 2) & np.isfinite(gap_ub),
    )
    return out


def _power(cfg: ScenarioConfig, snr_db: float | None) -> float:
    snr = cfg.snr_db if snr_db is None else snr_db
    return cfg.noise_var * 10.0 ** (snr / 10.0)


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

    Draw t of the block is the draw trial_metrics(cfg, seed, trials[t], ...)
    evaluates. A draw whose normalized angle leaves [-1, 1] fails the block
    with TrialError naming the lowest such trial.
    """
    lay = _Layout.of(cfg)
    geo = _view(_draw(cfg, lay, seed, trials), lay, slice(None), model_channels, leak_weighted)
    fields = _evaluate(geo, _power(cfg, snr_db), cfg.noise_var)
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
    try:
        geo = _view(_draw(cfg, lay, seed, [trial]), lay, slice(None), model_channels, leak_weighted)
    except TrialError as exc:
        raise exc.__cause__ from None
    code = int(geo.excluded[0])
    if code == _SINGULAR:
        raise _singular_gram_error(geo.gram[0])
    if code:
        raise EXCLUSIONS[code](_EXCLUSION_MESSAGES[code])
    fields = _evaluate(geo, _power(cfg, snr_db), cfg.noise_var)
    return TrialMetrics(
        cluster=lay.cluster_of + 1,
        user=lay.user,
        position=geo.position[0],
        **{name: value[0] for name, value in fields.items()},
    )


def _singular_gram_error(gram: np.ndarray) -> SingularMatrix:
    """The error for a Gram matrix over the condition cap, naming its most collinear pair."""
    n = gram.shape[0]
    pair = (1, 1)
    if n > 1:
        off = np.abs(gram - np.diag(np.diag(gram)))
        i, j = np.unravel_index(np.argmax(off), off.shape)
        pair = (min(i, j) + 1, max(i, j) + 1)
    return SingularMatrix(
        f"analog beams of clusters {pair[0]} and {pair[1]} are nearly parallel "
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
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i in range(0, len(blocks), workers):
            yield from pool.map(fn, blocks[i : i + workers])


def _system_label(b: float, multi: bool) -> str:
    return f"b{b:g}" if multi else "hb"


def _gain_ramp(size: int) -> tuple[float, ...]:
    """Gains 0, -1, ..., -(size - 1) dB."""
    return tuple(float(-k) for k in range(size))


def _with_cluster_size(cfg: ScenarioConfig, cluster_1based: int, size: int) -> ScenarioConfig:
    idx = cluster_1based - 1
    clusters = list(cfg.clusters)
    clusters[idx] = ClusterSpec(aod_deg=clusters[idx].aod_deg, gains_db=_gain_ramp(size))
    return replace(cfg, clusters=tuple(clusters))


def _finite(value) -> bool:
    """Whether every float of a spec field is finite, through nested dataclasses and tuples."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    if isinstance(value, tuple) or is_dataclass(value):
        return all(map(_finite, value if isinstance(value, tuple) else vars(value).values()))
    return True


def validate_spec(spec: ExperimentSpec) -> None:
    # NaN or inf runs to empty rows or a raw numpy error, and no JSON manifest
    # holds it; scenario fields come first, so the field is the one named
    for name, value in {**vars(spec.scenario), **vars(spec)}.items():
        if not _finite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    validate_config(spec.scenario)
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
    if not spec.baselines.hb_exact:
        raise ConfigError(
            "baselines.hb_exact=false is not supported: every table reports the hybrid exact rate"
        )


class _View(NamedTuple):
    """One configuration's users of a drawn block and the cells they feed."""

    layout: _Layout
    users: np.ndarray | slice  # the configuration's users among the draw's
    cells: list[tuple[float, float]]  # (sweep value, snr) of each cell


def _draws(
    spec: ExperimentSpec, base: ScenarioConfig
) -> list[tuple[ScenarioConfig, _Layout, list[_View]]]:
    """(config, layout, views) of each configuration the sweep draws."""

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
    base = replace(spec.scenario, misalign_deg=grid[0])  # the layouts ignore the misalignment
    multi = len(grid) > 1
    draws = _draws(spec, base)

    cells: list[ResultCell] = []
    view_args = (spec.baselines.model_channels, spec.leak_weighted, spec.baselines.hb_lb)
    for b in grid:
        label = _system_label(b, multi)
        n_trials = 1 if b == 0.0 and not spec.baselines.model_channels else spec.trials
        for cfg, lay, views in draws:
            cfg_b = replace(cfg, misalign_deg=float(b))

            def one_block(trials, cfg_b=cfg_b, lay=lay, views=views):
                draw = _draw(cfg_b, lay, spec.seed, trials)
                return [_view(draw, view.layout, view.users, *view_args) for view in views]

            accs = [[_Accumulator(len(view.layout.user)) for _ in view.cells] for view in views]
            for geos in _map_blocks(one_block, n_trials, workers):
                for view, geo, view_accs in zip(views, geos, accs):
                    kept = geo.excluded == 0
                    # one SNR's fields at a time: memory stays that of one view of a block
                    for (_, snr), acc in zip(view.cells, view_accs):
                        fields = _evaluate(geo, _power(cfg, snr), cfg.noise_var)
                        acc.add({name: value[kept] for name, value in fields.items()})

            for view, view_accs in zip(views, accs):
                for (value, _), acc in zip(view.cells, view_accs):
                    if acc.n == 0:
                        raise DegenerateScenario(
                            f"all {n_trials} trials excluded for system {label}, sweep value {value}"
                        )
                    cells.append(acc.cell(label, value, view.layout, n_trials - acc.n))

    cells += [
        _baseline_cell(system, cfg, view.layout, value, _power(cfg, snr))
        for system in ("fd", "oma")
        if getattr(spec.baselines, system)
        for cfg, _, views in draws
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
    the frame average divides the rates by the user count later.
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
                sinr[start + idx] = p * gain / (earlier * gain + cfg.noise_var)
                earlier += p
    else:
        # (P c) |beta|^2, not P (c |beta|^2): the two differ in the
        # last bit unless c is a power of two
        sinr = (p_total * float(cfg.n_bs * cfg.n_ue)) * lay.beta_sq / cfg.noise_var
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
    clusters = []
    for i in range(8):
        size = 4 + 2 * i
        gains = tuple(float(g) for g in np.linspace(0.0, -18.0, size))
        clusters.append(ClusterSpec(aod_deg=10.0 * (i + 1), gains_db=gains))
    return ScenarioConfig(clusters=tuple(clusters), n_rf=8)


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
