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

The block-sized buffers of both stages come from a pool that each thread keeps
across blocks and calls (_scratch).
"""

from __future__ import annotations

import math
import threading
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
    _user_keys,
    centred_kernel,
    dirichlet_kernel,
    gain_db_to_beta,
    user_angles,
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
# floats in a (rows, users, clusters) block, 128 MiB as float64; the largest preset blocks are
# fig5's 64 x 3 rows x 88 users x 8 clusters (135,168) and fig4c's 64 x 3 x 95 x 5 (91,200)
BLOCK_BUDGET = 2**24
# floats of a block buffer that a thread keeps for its next block (2 MiB as float64); the
# preset blocks fit (fig5's largest, 129 rows x 88 users x 8 clusters, is 90,816 floats)
POOL_CAP = 2**18
CONDITION_CAP = 1e10  # a Gram matrix with a larger condition number is singular
LEAK_NORM_FLOOR = 1e-12  # below this the leakage combination has no direction
SWEEP_NAMES = ("snr_db", "n_bs", "cluster_size")
_ONE_CLUSTER = "model-generated channels need at least two clusters"
_OVERFLOW = "P N_BS N_UE |beta|^2 times the beam gains overflows a float"


@dataclass(frozen=True)
class Baselines:
    """Which curves an experiment produces besides the hybrid exact rates."""

    hb_lb: bool = True  # the Thm 1/2 rate bounds and the Thm 3 gap bound
    hb_gap: bool = True  # the hybrid rate gap to the perfectly aligned system (rate_gap)
    fd: bool = False
    oma: bool = False
    model_channels: bool = False

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep of one scenario, run at each misalign_grid spread (scenario.misalign_deg if None).

    Valid once built, but for the power rules of its layouts (validate_spec). A sweep axis
    replaces the scenario value it sweeps, and the replaced value is still validated: snr_db on
    an snr_db sweep, n_bs on an n_bs sweep, the observed cluster's gains_db on a cluster_size
    sweep, and misalign_deg beside a misalign_grid.
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

    def __post_init__(self):
        _check_fields(self)
        if not self.scenario_id:
            raise ConfigError("scenario_id must be non-empty")
        if self.sweep_name not in SWEEP_NAMES:
            raise ConfigError(f"unknown sweep '{self.sweep_name}'; expected one of {SWEEP_NAMES}")
        if not self.sweep_values:
            raise ConfigError("sweep values must be nonempty", "sweep_values")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        _check_seed(self.seed)
        sizes = [len(c.gains_db) for c in self.scenario.clusters]
        if (self.sweep_name == "cluster_size") != (self.observe_cluster is not None):
            raise ConfigError(
                f"observe_cluster={self.observe_cluster} on a {self.sweep_name} sweep: "
                "a cluster_size sweep needs it and any other sweep ignores it"
            )
        if self.baselines.model_channels and len(sizes) < 2:
            raise ConfigError(_ONE_CLUSTER)
        if self.observe_cluster is not None and not 1 <= self.observe_cluster <= len(sizes):
            raise ConfigError(f"observe_cluster={self.observe_cluster} outside 1..{len(sizes)}")
        if len(set(self.sweep_values)) < len(self.sweep_values):
            raise ConfigError(f"sweep values repeat: {self.sweep_values}")
        if self.sweep_name != "snr_db" and not all(
            v.is_integer() and v >= 1 for v in self.sweep_values
        ):
            raise ConfigError(f"{self.sweep_name} sweep values must be integers >= 1")
        grid = self.misalign_grid
        if grid is not None:
            if not grid:
                raise ConfigError("misalign_grid must be nonempty when given", "misalign_grid")
            if min(grid) < 0:
                raise ConfigError(f"misalignment spread must be >= 0, got {grid}")
            labels = [_system_label(b, True) for b in grid]
            if len(set(labels)) < len(labels):
                raise ConfigError(f"misalign_grid values share a system label: {labels}")
        users, field = float(sum(sizes)), "scenario.clusters"
        if self.sweep_name == "cluster_size":  # drawn at the largest size
            users += max(self.sweep_values) - sizes[self.observe_cluster - 1]
            field = "sweep_values"
        _check_block(field, CHUNK * len(grid or (0,)), users, len(sizes))


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
    cluster: np.ndarray  # (U,) 1-based cluster of each user
    user: np.ndarray  # (U,) 1-based index inside its cluster
    nan_column: np.ndarray  # (U,) NaN: a cell's column of a value it does not have
    anchors: np.ndarray  # (N,) flat index of each cluster's strongest user
    own_anchor: np.ndarray  # (U,) flat index of each user's anchor
    own_beam: np.ndarray  # (U,) flat index of each user's own beam in a (U, N) array
    starts: np.ndarray  # (N,) flat index of each cluster's first user
    sizes: np.ndarray  # (N,) users per cluster
    own_size: np.ndarray  # (U,) users in each user's cluster
    beta_sq: np.ndarray  # (U,) |beta|^2
    c_beta_sq: np.ndarray  # (U,) N_BS N_U |beta|^2
    others: np.ndarray  # (N, N - 1) others[s] lists the clusters but s, ascending
    gram: np.ndarray  # (N, N) G[k, n] = a_k^H a_n of the analog beams
    singular: np.ndarray  # () G's condition number exceeds CONDITION_CAP
    kappa_min: np.ndarray  # () G's smallest eigenvalue; 1.0 when singular
    own_finv: np.ndarray  # (U,) [G^{-1}]_nn of each user's cluster n
    f_bb: np.ndarray  # (N, N) zero-forcing G^{-1} diag(1 / sqrt([G^{-1}]_nn))
    r_gram: np.ndarray  # (N, N) real R with F_BB^H F_BB = Psi R Psi^H (see _view)
    gram_c: np.ndarray  # (N, N) real G_c[m, n] = g(phi_n - phi_m), G = Psi G_c Psi^H (see _draw)
    f_c: np.ndarray  # (N, N) real F_c = G_c^{-1} diag(1 / sqrt([G^{-1}]_nn)), F_BB = Psi F_c Psi^H
    own_k_anchor: np.ndarray  # (U,) ||K||^2 of each user's anchor's kernel row
    own_unit_gains: np.ndarray  # (U, N) |K F_BB^*|^2 of each user's anchor's kernel row
    zeta_peak: np.ndarray  # () bound of two Thm 2 zetas at unit power: ||K_u||^2 <= N,
    # |K_u F_BB^*|^2 <= N F and kappa_max(S) <= F for F = max_n ||F_BB[:, n]||^2 >= 1 (see _power)

    @staticmethod
    @lru_cache(maxsize=CACHE_SIZE)
    def of(cfg: ScenarioConfig) -> "_Layout":
        """The layout and precoder of cfg, built once per configuration.

        ConfigError if the largest gain or cfg's own power overflows the engine (see _power).
        """
        cluster_of, user, _, is_anchor, _, _ = _user_keys(cfg.clusters)
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
            cluster=cluster_of + 1,
            user=user + 1,
            nan_column=np.full(len(cluster_of), np.nan),
            anchors=anchors,
            own_anchor=anchors[cluster_of],
            own_beam=np.arange(len(cluster_of)) * n + cluster_of,
            starts=np.concatenate(([0], np.cumsum(sizes)[:-1])),
            sizes=sizes,
            own_size=sizes[cluster_of],
            beta_sq=beta_sq,
            c_beta_sq=float(cfg.n_bs * cfg.n_ue) * beta_sq,
            others=np.array([np.delete(np.arange(n), s) for s in range(n)]).reshape(n, n - 1),
            gram=gram,
            singular=np.array(singular),
            kappa_min=np.array(kappa_min),
            own_finv=finv_diag[cluster_of],
            f_bb=f_bb,
            r_gram=(psi.conj()[:, None] * (f_bb.conj().T @ f_bb) * psi).real,
            gram_c=centred_kernel(phi - phi[:, None], cfg.n_bs),  # nearer G's bits than turning G
            f_c=(psi.conj()[:, None] * f_bb * psi).real,
            own_k_anchor=_norm_sq(gram.T)[cluster_of],  # the anchors' kernel rows are G's columns
            own_unit_gains=(np.abs(gram.T @ f_bb.conj()) ** 2)[cluster_of],
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


@dataclass
class _Draw:
    """What a block of draws fixes before any power split, (T, ...) arrays."""

    k_user: np.ndarray  # (T, U) squared kernel row norms
    rho: np.ndarray  # (T, U) misalignment factor
    beam_gains: np.ndarray  # (T, U, N) |h^H F_BB|^2 of the kernel-row channels


def _scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array of shape for the block buffer name.

    It is the calling thread's kept buffer of that name, grown as needed and kept until the
    thread ends, unless shape holds over POOL_CAP floats: then it is a new array.
    """
    size = math.prod(shape)
    if size > POOL_CAP:
        return np.empty(shape)
    kept = vars(_pool)
    buffer = kept.get(name)
    if buffer is None or len(buffer) < size:
        buffer = kept[name] = np.empty(size)
    return buffer[:size].reshape(shape)


_pool = threading.local()  # each thread's kept block buffers, by name (see _scratch)


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

    Two (T, U, N) arrays live at once: g, computed in its angle differences'
    buffer, and the kernel's denominator, then in its buffer the products
    with G_c and then F_c, written one over the other. Both are _scratch
    buffers, "kernel" and "gains": the returned beam gains live until the
    thread's next block.
    """
    trials = np.asarray(trials, dtype=np.int64)
    _, phi = user_angles(cfg, seed, trials, spread)
    shape = (len(trials), len(lay.cluster_of), len(lay.anchors))
    delta = _scratch("kernel", shape)
    np.subtract(phi[:, :, None], phi[:, None, lay.anchors], out=delta)
    g = centred_kernel(delta, cfg.n_bs, _scratch("gains", shape))
    aligned = phi == phi[:, lay.own_anchor]
    k_user = np.where(aligned, lay.own_k_anchor, np.einsum("tun,tun->tu", g, g))
    # rho: |<K_anchor, K_u>| over the norms; column n of G_c is anchor n's g row
    gains = np.matmul(g, lay.gram_c, out=_scratch("gains", shape))
    cross = gains.reshape(len(trials), -1)[:, lay.own_beam]  # a copy: gains is reused below
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.minimum(np.abs(cross) / np.sqrt(k_user * k_user[:, lay.own_anchor]), 1.0)
    rho[aligned] = 1.0
    np.matmul(g, lay.f_c, out=gains)
    np.square(gains, out=gains)
    np.copyto(gains, lay.own_unit_gains, where=aligned[:, :, None])
    gains *= lay.c_beta_sq[:, None]
    return _Draw(k_user, rho, gains)


def _view(draw: _Draw, lay: _Layout, users, model_channels: bool, bounds: bool = True) -> _Geometry:
    """View stage: allocate one configuration's users of a drawn block.

    users indexes the configuration's users (laid out as lay) among the
    draw's, slice(None) when they are all of them. The view gathers their
    rows of the draw and computes the modeled channels, shares, decode
    positions, the kappa_max(S) stack and the exclusions. Its (T, U, N)
    temporaries are _scratch buffers: the gathered beam gains, and the
    share-weighted ones in the draw's "kernel" buffer, which the draw no
    longer reads. No field of the returned geometry is one.
    """
    n = len(lay.anchors)
    if model_channels and n < 2:
        raise ConfigError(_ONE_CLUSTER)
    if isinstance(users, slice):
        k_user, rho, beam_gains = (a[:, users] for a in (draw.k_user, draw.rho, draw.beam_gains))
    else:  # np.take gathers in C order, so _reduce sums each field's rows one by one
        k_user, rho = np.take(draw.k_user, users, axis=1), np.take(draw.rho, users, axis=1)
        gathered = _scratch("gathered", (len(k_user), len(users), n))
        # with out, mode="raise" would gather into a temporary first
        beam_gains = np.take(draw.beam_gains, users, axis=1, out=gathered, mode="clip")
    norms = raw_norms = lay.c_beta_sq * k_user
    degenerate = ~np.all(raw_norms > 0.0, axis=1)
    excluded = degenerate * _SCENARIO
    if model_channels:
        raw_sums = np.add.reduceat(raw_norms, lay.starts, axis=1)
        raw_shares = raw_sums / raw_sums.sum(axis=1, keepdims=True)
        weights = np.sqrt(lay.c_beta_sq[lay.anchors]) * np.sqrt(raw_shares)
        # leak[t, n] = sum over l != n of weight_l * (anchor l's effective channel)
        others = weights[:, None, :] * (1.0 - np.eye(n))
        leak = others @ lay.gram.T
        leak_norm = np.linalg.norm(leak, axis=2)
        leak_collapsed = np.any(leak_norm < LEAK_NORM_FLOOR, axis=1)
        excluded = np.maximum(excluded, leak_collapsed * _SUBSPACE)  # a degenerate draw's code wins
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
    share_own = share_cluster[:, lay.cluster_of]
    share_user = share_own / lay.own_size
    # decode order: strongest effective norm first inside each cluster, ties
    # by index; sorting by cluster first leaves each cluster's slots in place,
    # so the k-th slot of a cluster is decode position k. numpy sorts complex
    # keys by real, then imaginary part; only a degenerate draw has NaN norms
    order = np.argsort(lay.cluster_of - 1j * norms, axis=1, kind="stable")
    position = np.empty(norms.shape, dtype=np.int64)
    position[np.arange(len(order))[:, None], order] = lay.user

    own_gain = beam_gains.reshape(len(beam_gains), -1)[:, lay.own_beam]
    product = _scratch("kernel", beam_gains.shape)  # the share-weighted beam gains
    np.multiply(beam_gains, share_cluster[:, None, :], out=product)
    inter_gain_unit = np.sum(product, axis=2) - share_own * own_gain
    del beam_gains  # done with the (T, U, N) rows: drop them before the eigen stack
    kappa_s_unit = None
    if bounds:
        # kappa_max(S_s): the largest eigenvalue of the weighted F_BB^H F_BB = Psi R Psi^H with row
        # and column s zeroed, so (Psi diagonal unitary, the matrix PSD) of the weighted R without s
        root_p = np.sqrt(share_cluster)
        weighted = root_p[:, :, None] * lay.r_gram * root_p[:, None, :]
        subs = weighted[:, lay.others[:, :, None], lay.others[:, None, :]]  # (T, N, N-1, N-1)
        kappa_s_unit = np.linalg.eigvalsh(subs)[..., -1] if n > 1 else np.zeros((len(subs), 1))

    if lay.singular:  # every draw of a singular configuration is excluded as such
        excluded = np.full(len(k_user), _SINGULAR)
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


def _evaluate(geo: _Geometry, p_totals, gap: bool = True):
    """Yield per-user (T, U) fields at each SNR P of p_totals, sigma^2 = 1: exact rate, rate_gap
    if gap and, if _view built geo's kappa_max(S) stack, bounds, their power-free prefixes computed
    once."""
    lay, cb = geo.layout, geo.layout.c_beta_sq
    bounds = geo.kappa_s_unit is not None
    if bounds:
        rho_sq = geo.rho**2
        miss = 1.0 - rho_sq
        miss_cb, rho_sq_kappa = miss * cb, rho_sq * lay.kappa_min
        kappa_s_unit = geo.kappa_s_unit[:, lay.cluster_of]
        k_first = geo.k_first[:, lay.cluster_of]  # ||K_anchor||^2
        zeta_noise = k_first / (lay.kappa_min * geo.k_user)
        with np.errstate(divide="ignore", invalid="ignore"):
            noise = 1.0 / (geo.k_user * cb)  # sigma^2 / (||K_u||^2 c|beta|^2)
        later = geo.position >= 2
    for p_total in p_totals:
        p_user = p_total * geo.share_user
        p_earlier = p_total * geo.share_earlier
        rate = _log2p(
            p_user * geo.own_gain / (p_earlier * geo.own_gain + p_total * geo.inter_gain_unit + 1.0)
        )
        out = {"rho": geo.rho, "rate_exact": rate}
        if gap:
            aligned = _log2p(p_user * cb / (p_earlier * cb + lay.own_finv))
            out["rate_gap"] = aligned - rate
        if bounds:
            kappa_s = p_total * kappa_s_unit
            zeta_intra = p_earlier * rho_sq * cb
            zeta_inter = miss_cb * kappa_s * k_first / lay.kappa_min
            with np.errstate(divide="ignore", invalid="ignore"):
                num = miss * kappa_s + noise
                den = rho_sq_kappa * p_earlier / k_first
                positive = den > 0.0
                gap_ub = np.where(positive, _log2p(num / np.where(positive, den, 1.0)), np.inf)
            out.update(
                rate_lb_thm1=_log2p(p_user * cb / (p_earlier * cb + 1.0 / lay.kappa_min)),
                rate_lb_thm2=_log2p(p_user * rho_sq * cb / (zeta_intra + zeta_inter + zeta_noise)),
                gap_ub_thm3=gap_ub,
                gap_ub_applicable=later & np.isfinite(gap_ub),
            )
        yield out


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


def _metrics(cfg: ScenarioConfig, seed: int, trials, snr_db, model_channels: bool) -> tuple:
    """(layout, geometry, fields) of the pipeline on a block of draws, excluded rows unmasked."""
    # a spec's rules for these arguments, before the layout cache hashes cfg
    if type(cfg) is not ScenarioConfig:
        raise ConfigError(f"cfg must be a ScenarioConfig, got {cfg!r}")
    if not _is_int(seed):
        raise ConfigError(f"seed must be an int, got {seed!r}")
    _check_seed(seed)
    if type(model_channels) is not bool:
        raise ConfigError(f"model_channels must be a bool, got {model_channels!r}")
    lay = _Layout.of(cfg)
    _check_block("trials", len(trials), len(lay.user), len(lay.anchors))
    _check_trials(trials)
    p_total = _power(cfg, lay, snr_db)
    geo = _view(_draw(cfg, lay, seed, trials), lay, slice(None), model_channels)
    return lay, geo, next(_evaluate(geo, (p_total,)))


def block_metrics(
    cfg: ScenarioConfig,
    seed: int,
    trials,
    snr_db: float | None = None,
    model_channels: bool = False,
) -> BlockMetrics:
    """The pipeline (synthesize, precode, allocate, rates, bounds) on a block of draws.

    Draw t of the block is the draw trial_metrics(cfg, seed, trials[t], ...) evaluates.
    """
    lay, geo, fields = _metrics(cfg, seed, trials, snr_db, model_channels)
    kept = (geo.excluded == 0)[:, None]
    applicable = fields.pop("gap_ub_applicable") & kept
    fields = {name: np.where(kept, value, np.nan) for name, value in fields.items()}
    return BlockMetrics(
        excluded=geo.excluded,
        cluster=lay.cluster,
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
) -> TrialMetrics:
    """One pipeline pass (synthesize, precode, allocate, rates, bounds), unaveraged.

    The one-draw case of block_metrics; an excluded draw raises its exception.
    """
    lay, geo, fields = _metrics(cfg, seed, (trial,), snr_db, model_channels)
    code = int(geo.excluded[0])
    if code == _SINGULAR:
        raise _singular_gram_error(lay.gram)
    if code:
        raise EXCLUSIONS[code](_EXCLUSION_MESSAGES[code])
    return TrialMetrics(
        cluster=lay.cluster,
        user=lay.user,
        position=geo.position[0],
        **{name: value[0] for name, value in fields.items()},
    )


def _is_int(x) -> bool:
    """Whether x is a Python or numpy integer but no bool: 1.5, True and "1" would key as 1."""
    return isinstance(x, (int, np.integer)) and type(x) is not bool


def _check_seed(seed: int) -> None:
    """ConfigError unless seed is in 0..2**64-1: counter_uniform keys on its low 64 bits."""
    if not 0 <= seed < 2**64:  # -1 would run seed 2**64 - 1, 2**64 + 1 seed 1
        raise ConfigError(f"seed must be in 0..2**64-1, got {seed}")


def _check_trials(trials) -> None:
    """ConfigError naming the first trial index that is no integer in 0..2**63 - 1 (int64 keys)."""
    for trial in trials:  # -1 would wrap to trial 2**64 - 1, 2**63 overflows
        if not (_is_int(trial) and 0 <= trial < 2**63):
            raise ConfigError(f"trial {trial} is not an integer in 0..2**63-1")


def _check_block(field: str, rows: int, users, clusters: int) -> None:
    """ConfigError naming field if rows x users x clusters floats exceed BLOCK_BUDGET."""
    if (size := rows * users * clusters) > BLOCK_BUDGET:
        raise ConfigError(f"{field} gives a block of {rows} rows x {users:.6g} users x {clusters} "
                          f"clusters, {size:.3g} floats, over the budget of {BLOCK_BUDGET}")


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

    SUMMED = ("rate_lb_thm1", "rate_lb_thm2", "rate_gap")

    def __init__(self, n_users: int):
        self.n = 0
        self.mean = np.zeros(n_users)  # the first block's merge into zeros writes its own bits
        self.m2 = np.zeros(n_users)
        self.sums: dict[str, np.ndarray] = {}
        self.sum_gap_ub = np.zeros(n_users)
        self.n_gap_ub = np.zeros(n_users, dtype=np.int64)

    def add(self, fields: dict[str, np.ndarray], rows, rho_sum: np.ndarray) -> None:
        """Merge one block's kept rows of (T, U) fields keyed like TrialMetrics.

        rows is a slice or the row indices; rho_sum is those rows' rho summed over axis 0.
        """
        rate = _rows(fields["rate_exact"], rows)
        n_block = rate.shape[0]
        if n_block == 0:
            return
        mean_block = rate.mean(axis=0)
        deviation = rate - mean_block
        m2_block = np.square(deviation, out=deviation).sum(axis=0)
        n = self.n + n_block
        delta = mean_block - self.mean
        self.mean = self.mean + delta * (n_block / n)
        self.m2 = self.m2 + m2_block + delta**2 * (self.n * n_block / n)
        self.n += n_block
        for name in self.SUMMED:
            if name in fields:
                self.sums[name] = self.sums.get(name, 0.0) + _rows(fields[name], rows).sum(axis=0)
        self.sums["rho"] = self.sums.get("rho", 0.0) + rho_sum
        if "gap_ub_thm3" in fields:
            applicable = _rows(fields["gap_ub_applicable"], rows)
            gap_ub = np.where(applicable, _rows(fields["gap_ub_thm3"], rows), 0.0)
            self.sum_gap_ub += gap_ub.sum(axis=0)
            self.n_gap_ub += applicable.sum(axis=0)

    def cell(self, system: str, sweep_value: float, lay: _Layout, excluded: int) -> ResultCell:
        """The cell's per-user means, NaN where a field is absent, and the rate's stderr."""
        columns = dict.fromkeys(_BOUND_COLUMNS, lay.nan_column)
        for name, total in self.sums.items():
            columns["rho_mean" if name == "rho" else name] = total / self.n
        with np.errstate(invalid="ignore"):  # 0/0: the gap bound never applied
            columns["gap_ub_thm3"] = self.sum_gap_ub / self.n_gap_ub
        return ResultCell(
            system,
            sweep_value,
            lay.cluster,
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


def _rows(x: np.ndarray, rows) -> np.ndarray:
    """x[rows] in C order, a view when it is already C-ordered.

    The sums over axis 0 then add row by row, as over a gathered copy; over
    an F-ordered array numpy would sum pairwise, in other bits.
    """
    return np.ascontiguousarray(x[rows])


def _reduce(
    accs: list[list[_Accumulator]], cell_fields, rho: np.ndarray, kept: np.ndarray, lens
) -> None:
    """Merge a block's kept rows into accs[i][c], the accumulator of spread i's cell c.

    The block stacks each spread's lens[i] rows in grid order; cell_fields
    yields each cell's (T, U) fields in turn. A spread whose rows are all
    kept hands its accumulators a row slice, and only one with an excluded
    row gathers. rho reads no power: it is summed once per spread.
    """
    ends = np.cumsum(lens)
    spans = []
    for start, stop in zip(ends - lens, ends):
        keep = kept[start:stop]
        spans.append(slice(start, stop) if keep.all() else start + np.flatnonzero(keep))
    rho_sums = [_rows(rho, rows).sum(axis=0) for rows in spans]
    for c, fields in enumerate(cell_fields):
        for i, rows in enumerate(spans):
            accs[i][c].add(fields, rows, rho_sums[i])


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
    """ConfigError if a drawn configuration or a cell's power overflows its layout (see _power)."""
    _draws(spec)


class _View(NamedTuple):
    """One configuration's users of a drawn block and the cells they feed."""

    layout: _Layout
    users: np.ndarray | slice  # the configuration's users among the draw's
    cells: list[tuple[float, float]]  # (sweep value, total power P) of each cell


def _draws(spec: ExperimentSpec) -> list[tuple[ScenarioConfig, _Layout, list[_View]]]:
    """(config, layout, views) of each configuration the sweep draws, cells at their power P.

    Rows take grid spreads; the first cell whose P overflows the drawn layout is named.
    """
    base = spec.scenario
    _Layout.of(base)  # its gains and own power, even those the sweep replaces

    def whole(cfg, snrs):
        lay = _Layout.of(cfg)
        return cfg, lay, [_View(lay, slice(None), [(v, _power(cfg, lay, snr)) for v, snr in snrs])]

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
            [(v, _power(cfg, lay))],
        )
        for v in spec.sweep_values
    ]
    return [(cfg, lay, views)]


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ResultTable:
    """Run the experiment; deterministic for fixed (spec, seed) at any worker count."""
    draws = _draws(spec)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    grid = spec.misalign_grid if spec.misalign_grid is not None else (spec.scenario.misalign_deg,)
    counts = [1 if b == 0.0 and not spec.baselines.model_channels else spec.trials for b in grid]
    # accs[d, v][i][c]: the accumulator of cell c of draw d's view v at spread i
    accs = {
        (d, v): [[_Accumulator(len(view.layout.user)) for _ in view.cells] for _ in grid]
        for d, (_, _, views) in enumerate(draws) for v, view in enumerate(views)
    }
    view_args = (spec.baselines.model_channels, spec.baselines.hb_lb)
    for d, (cfg, lay, views) in enumerate(draws):

        def one_block(block, cfg=cfg, lay=lay, views=views):
            # rows: each spread's trials of the block, spread by spread in grid order
            lens = np.clip(np.subtract(counts, block.start), 0, len(block))
            trials = np.concatenate([block[:n] for n in lens])
            draw = _draw(cfg, lay, spec.seed, trials, np.repeat(grid, lens))
            return lens, [_view(draw, view.layout, view.users, *view_args) for view in views]

        for lens, geos in _map_blocks(one_block, max(counts), workers):
            for v, (view, geo) in enumerate(zip(views, geos)):
                # one SNR's fields at a time: memory stays that of one view
                cell_fields = _evaluate(geo, [p for _, p in view.cells], spec.baselines.hb_gap)
                _reduce(accs[d, v], cell_fields, geo.rho, geo.excluded == 0, lens)

    cells: list[ResultCell] = []
    for i, b in enumerate(grid):
        label = _system_label(b, len(grid) > 1)
        for (d, v), spread_accs in accs.items():
            view = draws[d][2][v]
            for (value, _), acc in zip(view.cells, spread_accs[i]):
                if acc.n == 0:
                    raise DegenerateScenario(
                        f"all {counts[i]} trials excluded for system {label}, sweep value {value}"
                    )
                cells.append(acc.cell(label, value, view.layout, counts[i] - acc.n))

    for system in ("fd", "oma"):
        if getattr(spec.baselines, system):
            for cfg, _, views in draws:
                for view in views:
                    cells += _baseline_cells(system, cfg, view.layout, view.cells)
    return ResultTable(spec=spec, cells=cells)


def _baseline_cells(
    system: str, cfg: ScenarioConfig, lay: _Layout, view_cells: list
) -> list[ResultCell]:
    """The deterministic fully-digital or frame-averaged OMA cells of one layout.

    One cell per (sweep value, total power) pair of view_cells; the cluster sums
    and the decode order are built once for all of them. Neither reference
    depends on the angles. Fully digital: exact zero-forcing with unit-power
    columns leaves each user the SINR
    P_m c|beta|^2 / (sum over users decoded before it of P_k c|beta|^2 + sigma^2),
    decoding strongest c|beta|^2 first, with the cluster powers split in
    proportion to the summed c|beta|^2 and equally inside each cluster. OMA:
    each user alone at full power on its own beam, SINR P c |beta|^2 / sigma^2;
    the frame average divides the rates by the user count later. sigma^2 = 1 (see _power).
    """
    p_total = np.array([p for _, p in view_cells])[:, None]
    if system == "fd":
        gains = lay.c_beta_sq
        sums = np.array([float(np.sum(gains[s : s + m])) for s, m in zip(lay.starts, lay.sizes)])
        p = p_total * sums / float(np.sum(sums)) / lay.sizes  # (powers, N) per-user power
        # earlier[:, n, k]: power of cluster n's first k decoded users, summed in order
        earlier = np.zeros(p.shape + (int(lay.sizes.max()),))
        later = earlier[:, :, 1:]
        np.cumsum(np.broadcast_to(p[:, :, None], later.shape), axis=2, out=later)
        order = np.lexsort((-gains, lay.cluster_of))  # by cluster, strongest first, ties by index
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order)) - lay.starts[lay.cluster_of[order]]
        sinr = p[:, lay.cluster_of] * gains / (earlier[:, lay.cluster_of, slot] * gains + 1.0)
    else:
        # (P c) |beta|^2, not P (c |beta|^2): the two differ in the
        # last bit unless c is a power of two
        sinr = (p_total * float(cfg.n_bs * cfg.n_ue)) * lay.beta_sq
    return [
        ResultCell(
            system,
            sweep_value,
            lay.cluster,
            lay.user,
            # scalar log1p: numpy's differs in the last bit for some values
            rate_exact=np.array([math.log1p(x) / LOG2 for x in row]),
            stderr=np.zeros(len(row)),
            trials=1,
            excluded=0,
            **dict.fromkeys(_BOUND_COLUMNS, lay.nan_column),
        )
        for (sweep_value, _), row in zip(view_cells, sinr.tolist())
    ]


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
