"""Three-step hybrid precoder construction.

Step 1: the analog precoder's columns are steering vectors at the strongest
user's AoD per cluster.
Step 2: the digital stage zero-forces the strongest users' effective channels
with a diagonal scaling that makes every composite column unit power.
Step 3 (ordering and power split) lives in the noma module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Scenario, UlaConfig, UserLink, steering_vector
from .errors import SingularMatrix
from .numerics import EigenPair, hermitian_eig, hermitian_inverse, hermitian_solve

CONDITION_CAP = 1e10


@dataclass(frozen=True)
class HybridPrecoder:
    """Analog + digital precoder with the quantities the bounds reuse.

    gram is F = F_RF^H F_RF; gram_eigs its eigenvalues ascending; inv_gram_diag
    the diagonal of F^{-1}; first_users the 0-based strongest-user index per
    cluster.
    """

    f_rf: np.ndarray
    f_bb: np.ndarray
    gamma: np.ndarray
    gram: np.ndarray
    gram_eigs: np.ndarray
    inv_gram_diag: np.ndarray
    first_users: tuple[int, ...]

    @property
    def kappa_min(self) -> float:
        return float(self.gram_eigs[0])

    @property
    def n_clusters(self) -> int:
        return self.f_rf.shape[1]


def select_first_users(scenario: Scenario) -> tuple[int, ...]:
    """Per-cluster index of the user with the largest |beta| (ties: lowest index)."""
    chosen = []
    for cluster in scenario.clusters:
        best = 0
        for idx, link in enumerate(cluster):
            if abs(link.beta) > abs(cluster[best].beta):
                best = idx
        chosen.append(best)
    return tuple(chosen)


def build_rf_precoder(scenario: Scenario, first_users) -> np.ndarray:
    """Analog precoder: column n is the steering vector at cluster n's anchor AoD."""
    columns = [
        steering_vector(cluster[first].phi_norm, scenario.ula_bs)
        for cluster, first in zip(scenario.clusters, first_users)
    ]
    return np.column_stack(columns)


def effective_channel(link: UserLink, f_rf: np.ndarray, ula_bs: UlaConfig, array_gain: float) -> np.ndarray:
    """Effective channel h with h^H = sqrt(N_BS N_U) beta a_BS^H(phi) F_RF.

    The receive combiner is matched to the user's arrival direction, so it
    contributes a unit factor and the arrival angle never enters.
    """
    a_bs = steering_vector(link.phi_norm, ula_bs)
    h_dag = math.sqrt(array_gain) * link.beta * (a_bs.conj() @ f_rf)
    return h_dag.conj()


def build_zf_baseband(eff_first: np.ndarray, inv_gram_diag, betas_first, array_gain: float):
    """Zero-forcing digital precoder over the strongest users' effective channels.

    eff_first holds the per-cluster effective channels as columns (N x N, column
    n is h_{n,1}); inv_gram_diag is the diagonal of F^{-1}. Returns (F_BB, gamma)
    with F_BB = Hbar^H (Hbar Hbar^H)^{-1} G, Hbar the matrix whose rows are
    h_{n,1}^H, and G_nn chosen so each composite column F_RF F_BB e_n has
    exactly unit power.
    """
    h_bar = eff_first.conj().T  # rows are h^H
    a = h_bar @ h_bar.conj().T
    gamma = np.sqrt(array_gain / inv_gram_diag) * np.abs(np.asarray(betas_first))
    f_bb = h_bar.conj().T @ hermitian_solve(a, np.diag(gamma.astype(np.complex128)))
    return f_bb, gamma


def design_precoder(scenario: Scenario) -> HybridPrecoder:
    """Full precoder pipeline for one scenario realization."""
    first_users = select_first_users(scenario)
    f_rf = build_rf_precoder(scenario, first_users)
    gram = f_rf.conj().T @ f_rf
    eig = hermitian_eig(gram)
    eigs = eig.values
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > CONDITION_CAP:
        raise singular_gram_error(gram)
    array_gain = scenario.array_gain
    eff_first = np.column_stack(
        [
            effective_channel(cluster[first], f_rf, scenario.ula_bs, array_gain)
            for cluster, first in zip(scenario.clusters, first_users)
        ]
    )
    betas_first = np.array(
        [cluster[first].beta for cluster, first in zip(scenario.clusters, first_users)]
    )
    inv_gram_diag = np.diag(hermitian_inverse(gram)).real
    f_bb, gamma = build_zf_baseband(eff_first, inv_gram_diag, betas_first, array_gain)
    return HybridPrecoder(
        f_rf=f_rf,
        f_bb=f_bb,
        gamma=gamma,
        gram=gram,
        gram_eigs=eigs,
        inv_gram_diag=inv_gram_diag,
        first_users=first_users,
    )


def rf_subspace_modes(f_rf: np.ndarray, gram_eig: EigenPair) -> EigenPair:
    """Nonzero eigenmodes of F_RF F_RF^H from the small Gram decomposition.

    With F = U L U^H, the columns of F_RF U L^{-1/2} are orthonormal and carry
    the same nonzero eigenvalues L, avoiding an N_BS x N_BS decomposition.
    """
    values = gram_eig.values
    vectors = f_rf @ (gram_eig.vectors / np.sqrt(values))
    return EigenPair(values=values.copy(), vectors=vectors)


def singular_gram_error(gram: np.ndarray) -> SingularMatrix:
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
