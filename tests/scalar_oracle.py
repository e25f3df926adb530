"""Scalar reference for the batched engine, one scenario and one user at a time.

The engine (hbnoma.montecarlo) evaluates blocks of draws in closed form from
the Dirichlet kernel and never forms the N_BS dimension. This module walks
the same model the long way, as the paper states it: explicit N_BS-long
steering vectors, the analog precoder F_RF of the anchors' beams, the
zero-forcing stage F_BB = H_bar^{-1} Gamma by numpy.linalg.solve on the
square H_bar, eigenvalues from numpy.linalg.eigvalsh, and the exact SIC rate
and the Thm 1/2/3 bounds user by user. scalar_trial returns one draw's
fields in the layout of a block_metrics row.

From hbnoma it takes only the configuration and its validation, the angle
draw (user_angles; the counter RNG is tested on its own in test_engine.py),
the dB-to-gain conversion, the anchor choice, the exclusion thresholds and
the error types, so every formula here is an independent copy of the
engine's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hbnoma.channel import (
    first_user_index,
    gain_db_to_beta,
    user_angles,
    validate_config,
)
from hbnoma.errors import (
    ConfigError,
    DegenerateScenario,
    DegenerateSubspace,
    SingularMatrix,
)
from hbnoma.montecarlo import CONDITION_CAP, LEAK_NORM_FLOOR

LOG2 = math.log(2.0)
NOISE_VAR = 1.0  # sigma^2: powers are in units of the noise power, so P is the SNR


# ------------------------------------------------------------------ scenario


@dataclass(frozen=True)
class UserLink:
    """One user of a draw; cluster and user are 1-based, phi_norm is normalized."""

    cluster: int
    user: int
    beta: complex
    aod_deg: float
    phi_norm: float


@dataclass(frozen=True)
class Scenario:
    """One draw: the users cluster by cluster, array sizes and power budget."""

    clusters: tuple[tuple[UserLink, ...], ...]
    n_bs: int
    array_gain: float  # N_BS N_U
    total_power: float
    noise_var: float

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def links(self):
        for cluster in self.clusters:
            yield from cluster


def synthesize_scenario(cfg, seed: int, trial: int = 0) -> Scenario:
    """The draw `trial` of cfg: the angles user_angles draws, gains from cfg."""
    validate_config(cfg)
    aod, phi = (a[0].tolist() for a in user_angles(cfg, seed, [trial]))
    angles = iter(zip(aod, phi))
    clusters = tuple(
        tuple(
            UserLink(ci + 1, ui + 1, gain_db_to_beta(g), *next(angles))
            for ui, g in enumerate(cluster.gains_db)
        )
        for ci, cluster in enumerate(cfg.clusters)
    )
    return Scenario(
        clusters=clusters,
        n_bs=cfg.n_bs,
        array_gain=float(cfg.n_bs * cfg.n_ue),
        total_power=NOISE_VAR * 10.0 ** (cfg.snr_db / 10.0),
        noise_var=NOISE_VAR,
    )


def steering_vector(phi_norm: float, n: int) -> np.ndarray:
    """Unit-norm array response: entry k is exp(-j pi k phi) / sqrt(n)."""
    if abs(phi_norm) > 1.0:
        raise ValueError(f"normalized angle {phi_norm} outside [-1, 1]")
    return np.exp(-1j * math.pi * phi_norm * np.arange(n)) / math.sqrt(n)


def collinearity_sum(phi: float, anchor_phis, n: int) -> float:
    """sum over anchors l of |a^H(phi_l) a(phi)|^2 = ||h||^2 / (N_BS N_U |beta|^2)."""
    a = steering_vector(phi, n)
    return float(sum(abs(np.vdot(steering_vector(p, n), a)) ** 2 for p in anchor_phis))


# ----------------------------------------------------------------- precoder


@dataclass(frozen=True)
class HybridPrecoder:
    """F_RF (N_BS x N), F_BB (N x N), the ZF gains Gamma and the Gram quantities."""

    f_rf: np.ndarray
    f_bb: np.ndarray
    gamma: np.ndarray
    gram: np.ndarray
    kappa_min: float
    inv_gram_diag: np.ndarray
    first_users: tuple[int, ...]


def effective_channel(link: UserLink, f_rf: np.ndarray, array_gain: float) -> np.ndarray:
    """h with h^H = sqrt(N_BS N_U) beta a^H(phi) F_RF (matched receive combiner)."""
    a = steering_vector(link.phi_norm, f_rf.shape[0])
    return (math.sqrt(array_gain) * link.beta * (a.conj() @ f_rf)).conj()


def design_precoder(scen: Scenario) -> HybridPrecoder:
    """Analog beams at the anchors (strongest user per cluster), then zero-forcing.

    Gamma_n = sqrt(c / [F^{-1}]_nn) |beta_n1| makes every column of F_RF F_BB
    unit power; F_BB solves H_bar F_BB = Gamma with H_bar's rows h_{n,1}^H.
    """
    firsts = tuple(first_user_index([abs(link.beta) for link in c]) for c in scen.clusters)
    anchors = [c[m] for c, m in zip(scen.clusters, firsts)]
    f_rf = np.column_stack([steering_vector(link.phi_norm, scen.n_bs) for link in anchors])
    gram = f_rf.conj().T @ f_rf
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0.0 or eigs[-1] > CONDITION_CAP * eigs[0]:
        raise SingularMatrix("analog beams are nearly parallel")
    h_bar = np.stack([effective_channel(link, f_rf, scen.array_gain).conj() for link in anchors])
    inv_gram_diag = np.diag(np.linalg.inv(gram)).real
    gamma = np.sqrt(scen.array_gain / inv_gram_diag) * np.abs([link.beta for link in anchors])
    f_bb = np.linalg.solve(h_bar, np.diag(gamma).astype(np.complex128))
    return HybridPrecoder(f_rf, f_bb, gamma, gram, float(eigs[0]), inv_gram_diag, firsts)


def misalignment_factor(h_user: np.ndarray, h_first: np.ndarray) -> float:
    """rho: cosine of the Hermitian angle between a user's and its anchor's channel."""
    rho = abs(np.vdot(h_first, h_user)) / (np.linalg.norm(h_user) * np.linalg.norm(h_first))
    return min(float(rho), 1.0)


def leakage_direction(f_rf, first_links, cluster_powers, exclude, array_gain, weighted=True):
    """Unit combination of the other clusters' anchor channels, each by sqrt(P_l) if weighted."""
    acc = np.zeros(f_rf.shape[1], dtype=np.complex128)
    for ell, link in enumerate(first_links):
        if ell != exclude:
            weight = math.sqrt(cluster_powers[ell]) if weighted else 1.0
            acc += weight * effective_channel(link, f_rf, array_gain)
    norm = float(np.linalg.norm(acc))
    if norm < LEAK_NORM_FLOOR:
        raise DegenerateSubspace("leakage combination has (near-)zero norm")
    return acc / norm


def model_effective_channel(rho: float, h_first_hat, leak_dir) -> np.ndarray:
    """Modeled unit channel rho h1_hat + sqrt(1 - rho^2) g_hat."""
    return rho * h_first_hat + math.sqrt(1.0 - rho * rho) * leak_dir


def kappa_max_S(f_bb: np.ndarray, cluster_powers, exclude: int) -> float:
    """Largest eigenvalue of F_w F_w^H, F_w the other columns of F_BB scaled by sqrt(P_l)."""
    keep = [ell for ell in range(f_bb.shape[1]) if ell != exclude]
    if not keep:
        return 0.0
    weighted = f_bb[:, keep] * np.sqrt(np.asarray(cluster_powers)[keep])
    return float(np.linalg.eigvalsh(weighted @ weighted.conj().T)[-1])


# ------------------------------------------------------- power, order, rates


@dataclass(frozen=True)
class PowerAllocation:
    cluster_power: np.ndarray
    user_power: tuple[np.ndarray, ...]  # user_power[n][m], configured order


def allocate_power(norms_sq_by_cluster, total_power: float) -> PowerAllocation:
    """Cluster n gets P (its norm sum / grand sum); its users split that equally."""
    if not total_power > 0:
        raise DegenerateScenario(f"total power must be positive, got {total_power}")
    sums = np.array([float(np.sum(c)) for c in norms_sq_by_cluster])
    grand = float(np.sum(sums))
    if grand <= 0.0:
        raise DegenerateScenario("all effective channel norms are zero")
    cluster_power = total_power * sums / grand
    user_power = tuple(
        np.full(len(norms), p_n / len(norms))
        for norms, p_n in zip(norms_sq_by_cluster, cluster_power)
    )
    return PowerAllocation(cluster_power, user_power)


def order_users_by_effective(norms_sq) -> np.ndarray:
    """Decode order: strongest effective norm first, ties by index."""
    return np.argsort(-np.asarray(norms_sq, dtype=np.float64), kind="stable")


def rate_from_terms(signal: float, intra: float, inter: float, noise: float) -> float:
    return math.log1p(signal / (intra + inter + noise)) / LOG2


def exact_rate(h_eff, f_bb, cluster_idx, own_power, earlier_power, cluster_power, noise_var):
    """Rate with the intra-cluster interference of earlier-decoded users and every other beam."""
    beam_gains = np.abs(h_eff.conj() @ f_bb) ** 2
    own_gain = float(beam_gains[cluster_idx])
    inter = float(np.dot(cluster_power, beam_gains)) - float(cluster_power[cluster_idx]) * own_gain
    return rate_from_terms(own_power * own_gain, earlier_power * own_gain, inter, noise_var)


def oma_rate(beta: complex, total_power: float, noise_var: float, array_gain: float) -> float:
    """One user alone at full power on its own beam."""
    return rate_from_terms(total_power * array_gain * abs(beta) ** 2, 0.0, 0.0, noise_var)


def fully_digital_rates(scen: Scenario) -> dict[tuple[int, int], float]:
    """Per-user rates with one RF chain per antenna, keyed (cluster, user).

    Exact zero-forcing with unit-power columns leaves each user its own
    c|beta|^2 and the intra-cluster interference of the users decoded before
    it; misalignment never enters.
    """
    c = scen.array_gain
    norms = [np.array([c * abs(link.beta) ** 2 for link in cl]) for cl in scen.clusters]
    alloc = allocate_power(norms, scen.total_power)
    rates = {}
    for n, cluster in enumerate(scen.clusters):
        earlier = 0.0
        for idx in order_users_by_effective(norms[n]):
            gain = norms[n][idx]
            power = alloc.user_power[n][idx]
            link = cluster[idx]
            rates[(link.cluster, link.user)] = rate_from_terms(
                power * gain, earlier * gain, 0.0, scen.noise_var
            )
            earlier += power
    return rates


# ------------------------------------------------------------------- bounds


def theorem1_lower_bound(own_power, earlier_power, c_beta_sq, kappa_min_f, noise_var):
    """Aligned-rate lower bound: the noise factor [F^{-1}]_nn relaxed to 1/kappa_min(F)."""
    return rate_from_terms(
        own_power * c_beta_sq, earlier_power * c_beta_sq, 0.0, noise_var / kappa_min_f
    )


def theorem2_lower_bound(
    own_power, earlier_power, rho, c_beta_sq, kappa_max_s, kappa_min_f, k_first, k_user, noise_var
):
    """Misaligned-rate lower bound; returns (bound, zeta_intra, zeta_inter, zeta_noise)."""
    rho_sq = rho * rho
    zeta_intra = earlier_power * rho_sq * c_beta_sq
    zeta_inter = (1.0 - rho_sq) * c_beta_sq * kappa_max_s * k_first / kappa_min_f
    zeta_noise = noise_var * k_first / (kappa_min_f * k_user)
    bound = rate_from_terms(own_power * rho_sq * c_beta_sq, zeta_intra, zeta_inter, zeta_noise)
    return bound, zeta_intra, zeta_inter, zeta_noise


def theorem3_gap_bound(
    earlier_power, rho, c_beta_sq, kappa_max_s, kappa_min_f, k_first, k_user, noise_var, position
):
    """Bound on aligned minus misaligned rate: (bound, defined), undefined at position 1."""
    if position <= 1:
        return math.inf, False
    rho_sq = rho * rho
    numerator = (1.0 - rho_sq) * kappa_max_s + noise_var / (k_user * c_beta_sq)
    denominator = rho_sq * kappa_min_f * earlier_power / k_first
    if denominator <= 0.0:
        return math.inf, True
    return rate_from_terms(numerator, denominator, 0.0, 0.0), True


# -------------------------------------------------------------- one draw


FIELDS = ("rho", "rate_exact", "rate_lb_thm1", "rate_lb_thm2", "rate_gap")


def scalar_trial(cfg, seed, trial, snr_db, model_channels, leak_weighted):
    """One draw user by user: the fields of block_metrics' row for it, flat order.

    Raises the exception of an excluded draw (SingularMatrix,
    DegenerateSubspace, DegenerateScenario).
    """
    scen = synthesize_scenario(cfg, seed, trial)
    if model_channels and scen.n_clusters < 2:
        raise ConfigError("model-generated channels need at least two clusters")
    pre = design_precoder(scen)
    c = scen.array_gain
    firsts = pre.first_users
    first_links = [scen.clusters[n][firsts[n]] for n in range(scen.n_clusters)]
    anchor_phis = [link.phi_norm for link in first_links]
    eff = [[effective_channel(link, pre.f_rf, c) for link in cl] for cl in scen.clusters]
    k_user = [
        [collinearity_sum(link.phi_norm, anchor_phis, scen.n_bs) for link in cl]
        for cl in scen.clusters
    ]
    k_first = [k_user[n][firsts[n]] for n in range(scen.n_clusters)]
    rho = [
        [
            1.0
            if m == firsts[n] or link.phi_norm == anchor_phis[n]
            else misalignment_factor(eff[n][m], eff[n][firsts[n]])
            for m, link in enumerate(cl)
        ]
        for n, cl in enumerate(scen.clusters)
    ]
    if model_channels:
        raw = [np.array([float(np.vdot(h, h).real) for h in cl]) for cl in eff]
        raw_shares = allocate_power(raw, 1.0).cluster_power
        for n, cl in enumerate(scen.clusters):
            leak = leakage_direction(pre.f_rf, first_links, raw_shares, n, c, leak_weighted)
            h1 = eff[n][firsts[n]]
            for m, link in enumerate(cl):
                if m != firsts[n]:
                    scale = math.sqrt(c * abs(link.beta) ** 2 * k_user[n][m])
                    eff[n][m] = scale * model_effective_channel(
                        rho[n][m], h1 / np.linalg.norm(h1), leak
                    )
    norms = [np.array([float(np.vdot(h, h).real) for h in cl]) for cl in eff]
    p_total = scen.noise_var * 10.0 ** (snr_db / 10.0)
    alloc = allocate_power(norms, p_total)
    out = {name: [] for name in FIELDS + ("position", "gap_ub_thm3", "gap_ub_applicable")}
    for n, cl in enumerate(scen.clusters):
        order = list(order_users_by_effective(norms[n]))
        kappa_s = kappa_max_S(pre.f_bb, alloc.cluster_power, n)
        for m, link in enumerate(cl):
            position = order.index(m) + 1
            own = float(alloc.user_power[n][m])
            earlier = float(sum(alloc.user_power[n][i] for i in order[: position - 1]))
            c_beta_sq = c * abs(link.beta) ** 2
            exact = exact_rate(
                eff[n][m], pre.f_bb, n, own, earlier, alloc.cluster_power, scen.noise_var
            )
            aligned = rate_from_terms(
                own * c_beta_sq, earlier * c_beta_sq, 0.0, scen.noise_var * pre.inv_gram_diag[n]
            )
            terms = (rho[n][m], c_beta_sq, kappa_s, pre.kappa_min, k_first[n], k_user[n][m])
            gap_ub, defined = theorem3_gap_bound(earlier, *terms, scen.noise_var, position)
            out["position"].append(position)
            out["rho"].append(rho[n][m])
            out["rate_exact"].append(exact)
            out["rate_lb_thm1"].append(
                theorem1_lower_bound(own, earlier, c_beta_sq, pre.kappa_min, scen.noise_var)
            )
            out["rate_lb_thm2"].append(
                theorem2_lower_bound(own, earlier, *terms, scen.noise_var)[0]
            )
            out["rate_gap"].append(aligned - exact)
            out["gap_ub_thm3"].append(gap_ub)
            # the engine reports the Thm 3 bound where it is defined and finite
            out["gap_ub_applicable"].append(defined and math.isfinite(gap_ub))
    return {k: np.array(v) for k, v in out.items()}
