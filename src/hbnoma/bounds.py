"""Analytic rate bounds.

Three expressions: a perfect-alignment lower bound driven by the smallest
Gram eigenvalue, a misalignment lower bound driven by the factor rho and the
dominant eigenvalue of a power-weighted precoder Gram, and an upper bound on
the aligned-vs-misaligned rate gap. All powers are linear, all rates bits/s/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import UlaConfig, steering_vector
from .errors import DegenerateSubspace, ZeroVector
from .noma import rate_from_terms
from .numerics import EigenPair, gram_max_eigen

NORM_FLOOR = 1e-150
LEAK_NORM_FLOOR = 1e-12  # below this the leakage combination has no direction


@dataclass(frozen=True)
class BoundReport:
    """Per-user bound values with the intermediate interference terms."""

    lb_thm1: float
    lb_thm2: float
    gap_ub: float
    gap_ub_applicable: bool
    zeta_intra: float
    zeta_inter: float
    zeta_noise: float
    kappa_max_s: float
    kappa_min_f: float


def theorem1_lower_bound(
    own_power: float,
    earlier_power: float,
    c_beta_sq: float,
    kappa_min_f: float,
    noise_var: float,
) -> float:
    """Aligned-rate lower bound: the exact noise factor is relaxed to 1/kappa_min(F)."""
    return rate_from_terms(
        own_power * c_beta_sq, earlier_power * c_beta_sq, 0.0, noise_var / kappa_min_f
    )


def misalignment_factor(h_user: np.ndarray, h_first: np.ndarray) -> float:
    """Cosine of the Hermitian angle between a user's and its anchor's effective channel."""
    norm_u = float(np.linalg.norm(h_user))
    norm_f = float(np.linalg.norm(h_first))
    if norm_u < NORM_FLOOR or norm_f < NORM_FLOOR:
        raise ZeroVector("effective channel norm is zero; misalignment factor undefined")
    rho = abs(np.vdot(h_first, h_user)) / (norm_u * norm_f)
    return min(float(rho), 1.0)


def misalignment_factor_eigen(
    phi_user: float,
    phi_first: float,
    rf_modes: EigenPair,
    k_sum_user: float,
    k_sum_first: float,
    ula_bs: UlaConfig,
) -> float:
    """Eigen-expansion form of the misalignment factor.

    rf_modes holds the nonzero eigenmodes of F_RF F_RF^H (see
    beamforming.rf_subspace_modes). Each expansion term enters with its
    absolute value, so this form upper-bounds the direct Hermitian-angle form.
    """
    a_user = steering_vector(phi_user, ula_bs)
    a_first = steering_vector(phi_first, ula_bs)
    x = np.abs(a_user.conj() @ rf_modes.vectors)
    y = np.abs(rf_modes.vectors.conj().T @ a_first)
    numerator = float(np.sum(rf_modes.values * x * y))
    return min(numerator / math.sqrt(k_sum_user * k_sum_first), 1.0)


def leakage_direction(
    f_rf: np.ndarray,
    first_links,
    cluster_powers,
    exclude: int,
    array_gain: float,
    ula_bs: UlaConfig,
    weighted: bool = True,
) -> np.ndarray:
    """Unit vector spanning where misaligned energy leaks for cluster `exclude`.

    Combination of the other clusters' anchor effective channels; with
    weighted=True each contribution is scaled by sqrt(P_ell) (the form the
    inter-cluster interference bound requires), otherwise unweighted.
    """
    n = f_rf.shape[1]
    acc = np.zeros(n, dtype=np.complex128)
    for ell, link in enumerate(first_links):
        if ell == exclude:
            continue
        weight = math.sqrt(cluster_powers[ell]) if weighted else 1.0
        acc += weight * link.beta * (f_rf.conj().T @ steering_vector(link.phi_norm, ula_bs))
    acc *= math.sqrt(array_gain)
    norm = float(np.linalg.norm(acc))
    if norm < LEAK_NORM_FLOOR:
        raise DegenerateSubspace("leakage combination has (near-)zero norm")
    return acc / norm


def model_effective_channel(rho: float, h_first_hat: np.ndarray, leak_dir: np.ndarray) -> np.ndarray:
    """Modeled (unit-anchor) effective channel rho*h1_hat + sqrt(1-rho^2)*g_hat."""
    rho = min(max(rho, 0.0), 1.0)
    return rho * h_first_hat + math.sqrt(1.0 - rho * rho) * leak_dir


def kappa_max_S(f_bb: np.ndarray, cluster_powers, exclude: int) -> float:
    """Largest eigenvalue of S = F_w F_w^H, F_w the power-weighted off-cluster columns.

    Column ell of F_BB (ell != exclude) is scaled by sqrt(P_ell) so that
    g^H S g = sum_ell P_ell |g^H f_ell|^2. With a single cluster there is
    nothing to leak into and the value is 0.
    """
    powers = np.asarray(cluster_powers, dtype=np.float64)
    keep = [ell for ell in range(f_bb.shape[1]) if ell != exclude]
    if not keep:
        return 0.0
    weighted = f_bb[:, keep] * np.sqrt(powers[keep])
    return gram_max_eigen(weighted)


def theorem2_lower_bound(
    own_power: float,
    earlier_power: float,
    rho: float,
    c_beta_sq: float,
    kappa_max_s: float,
    kappa_min_f: float,
    k_sum_first: float,
    k_sum_user: float,
    noise_var: float,
) -> tuple[float, float, float, float]:
    """Misaligned-rate lower bound; returns (bound, zeta_intra, zeta_inter, zeta_noise)."""
    rho_sq = rho * rho
    zeta_intra = earlier_power * rho_sq * c_beta_sq
    zeta_inter = (1.0 - rho_sq) * c_beta_sq * kappa_max_s * k_sum_first / kappa_min_f
    zeta_noise = noise_var * k_sum_first / (kappa_min_f * k_sum_user)
    bound = rate_from_terms(own_power * rho_sq * c_beta_sq, zeta_intra, zeta_inter, zeta_noise)
    return bound, zeta_intra, zeta_inter, zeta_noise


def theorem3_gap_bound(
    earlier_power: float,
    rho: float,
    c_beta_sq: float,
    kappa_max_s: float,
    kappa_min_f: float,
    k_sum_first: float,
    k_sum_user: float,
    noise_var: float,
    position: int,
) -> tuple[float, bool]:
    """Upper bound on (aligned rate - misaligned rate) at the same powers.

    Undefined at decode position 1 (the intra sum is empty): returns
    (inf, False). Otherwise returns (bound, True).
    """
    if position <= 1:
        return math.inf, False
    rho_sq = rho * rho
    numerator = (1.0 - rho_sq) * kappa_max_s + noise_var / (k_sum_user * c_beta_sq)
    denominator = rho_sq * kappa_min_f * earlier_power / k_sum_first
    if denominator <= 0.0:
        return math.inf, True
    return rate_from_terms(numerator, denominator, 0.0, 0.0), True


def user_bounds(
    own_power: float,
    earlier_power: float,
    rho: float,
    c_beta_sq: float,
    kappa_max_s: float,
    kappa_min_f: float,
    k_sum_first: float,
    k_sum_user: float,
    noise_var: float,
    position: int,
) -> BoundReport:
    """All three bound values for one user from the same inputs."""
    lb1 = theorem1_lower_bound(own_power, earlier_power, c_beta_sq, kappa_min_f, noise_var)
    lb2, z_intra, z_inter, z_noise = theorem2_lower_bound(
        own_power, earlier_power, rho, c_beta_sq, kappa_max_s, kappa_min_f,
        k_sum_first, k_sum_user, noise_var,
    )
    gap_ub, applicable = theorem3_gap_bound(
        earlier_power, rho, c_beta_sq, kappa_max_s, kappa_min_f,
        k_sum_first, k_sum_user, noise_var, position,
    )
    return BoundReport(
        lb_thm1=lb1,
        lb_thm2=lb2,
        gap_ub=gap_ub,
        gap_ub_applicable=applicable,
        zeta_intra=z_intra,
        zeta_inter=z_inter,
        zeta_noise=z_noise,
        kappa_max_s=kappa_max_s,
        kappa_min_f=kappa_min_f,
    )
