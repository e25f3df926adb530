"""The numpy.linalg behaviour that the engine and the scalar oracle rely on.

The engine reads kappa_min(F) and kappa_max(S) off batched eigvalsh stacks
(ascending, so [..., 0] and [..., -1]), inverts the N x N Gram for the
zero-forcing stage, and takes kappa_max(S) on the N x N side F_w^H F_w: with
the excluded cluster's row and column zeroed, or, as the engine does, on the
principal submatrix without them (the matrix is PSD, so zeroing adds only an
eigenvalue 0). The oracle solves the square H_bar and takes kappa_max(S) on
the F_w F_w^H side. These tests pin each of those routes against closed forms
and against the other routes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbnoma import ClusterSpec, ScenarioConfig, block_metrics, trial_metrics
from hbnoma.errors import SingularMatrix
from scalar_oracle import kappa_max_S

finite_complex = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def hermitian_matrices(n):
    return st.lists(finite_complex, min_size=n * n, max_size=n * n).map(
        lambda xs: (lambda m: (m + m.conj().T) / 2.0)(
            np.array(xs, dtype=np.complex128).reshape(n, n)
        )
    )


def complex_matrices(rows, cols):
    return st.lists(finite_complex, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: np.array(xs, dtype=np.complex128).reshape(rows, cols)
    )


def _masked_max_eigen(f, powers, exclude):
    """kappa_max(S) on the N x N side, one row and column zeroed."""
    n = f.shape[1]
    root_p = np.sqrt(np.asarray(powers, dtype=float))
    weighted = root_p[:, None] * (f.conj().T @ f) * root_p[None, :]
    keep = 1.0 - np.maximum(np.eye(n)[:, :, None], np.eye(n)[:, None, :])
    return np.linalg.eigvalsh(weighted[None] * keep)[..., -1][exclude]


def test_eig_2x2_closed_form():
    # trace 5, det 4 -> eigenvalues {1, 4}, ascending in every slot of a stack
    a = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
    stack = np.stack([a, a.conj(), 2.0 * a])
    np.testing.assert_allclose(
        np.linalg.eigvalsh(stack), [[1.0, 4.0], [1.0, 4.0], [2.0, 8.0]], rtol=0, atol=1e-12
    )
    values, vectors = np.linalg.eigh(a)
    residual = a @ vectors - vectors * values
    assert np.max(np.abs(residual)) < 1e-12


@given(hermitian_matrices(3))
@settings(max_examples=60)
def test_eig_reconstructs_matrix(a):
    values, v = np.linalg.eigh(a)
    assert np.allclose(v @ np.diag(values) @ v.conj().T, a, atol=1e-9)
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-10)
    # the batched call the engine makes gives each matrix its own spectrum
    batched = np.linalg.eigvalsh(np.stack([a, -a]))
    assert np.all(np.diff(batched, axis=1) >= 0.0)
    np.testing.assert_allclose(batched[0], values, rtol=0, atol=1e-9)
    np.testing.assert_allclose(batched[1], -values[::-1], rtol=0, atol=1e-9)


def test_solve_frozen_oracle():
    # A = [[2, i], [-i, 2]], b = [1, 1] -> x = [(2-i)/3, (2+i)/3], by the
    # oracle's solve and by the engine's batched inverse
    a = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    b = np.array([1.0, 1.0])
    expect = np.array([(2.0 - 1.0j) / 3.0, (2.0 + 1.0j) / 3.0])
    assert np.allclose(np.linalg.solve(a, b), expect, atol=1e-14)
    assert np.allclose(np.linalg.inv(a[None])[0] @ b, expect, atol=1e-14)


@given(hermitian_matrices(3), st.lists(finite_complex, min_size=3, max_size=3))
@settings(max_examples=60)
def test_solve_satisfies_system(a, b_list):
    # shift to a safely positive-definite matrix
    a = a + (np.abs(np.linalg.eigvalsh(a)).max() + 1.0) * np.eye(3)
    b = np.array(b_list, dtype=np.complex128)
    assert np.allclose(a @ np.linalg.solve(a, b), b, atol=1e-8)
    assert np.allclose(a @ (np.linalg.inv(a[None])[0] @ b), b, atol=1e-8)


def test_solve_matrix_rhs():
    # a diagonal right-hand side, as in F_BB = H_bar^{-1} Gamma: solving and
    # scaling the inverse's columns agree
    a = np.array([[3.0, 1.0], [1.0, 3.0]], dtype=np.complex128)
    gamma = np.diag([2.0, 0.5]).astype(np.complex128)
    x = np.linalg.solve(a, np.eye(2))
    assert np.allclose(a @ x, np.eye(2), atol=1e-12)
    assert np.allclose(x, np.linalg.inv(a), atol=1e-12)
    assert np.allclose(np.linalg.solve(a, gamma), np.linalg.inv(a) * np.diag(gamma), atol=1e-12)


def test_solve_rejects_singular():
    # two single-user clusters on one beam: the Gram is exactly [[1, 1], [1, 1]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
    cfg = ScenarioConfig(clusters=(ClusterSpec(10.0, (0.0,)), ClusterSpec(10.0, (-1.0,))))
    block = block_metrics(cfg, 0, [0, 1])
    assert list(block.excluded) == [1, 1]
    assert np.all(np.isnan(block.rate_exact))
    with pytest.raises(SingularMatrix):
        trial_metrics(cfg, 0, 0)


def test_gram_max_eigen_scalar_and_zero():
    m = np.array([[3.0 + 4.0j]])
    assert np.linalg.eigvalsh(m @ m.conj().T)[-1] == pytest.approx(25.0, abs=1e-12)
    assert np.linalg.eigvalsh(np.zeros((3, 3)))[-1] == 0.0
    # a lone cluster leaves S empty on both routes
    assert _masked_max_eigen(m, [1.0], 0) == 0.0
    assert kappa_max_S(m, [1.0], 0) == 0.0


@given(
    complex_matrices(3, 3),
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    st.integers(0, 2),
)
@settings(max_examples=60)
def test_gram_max_eigen_matches_eig_route(f, powers, exclude):
    # the engine's masked N x N side against the oracle's F_w F_w^H side
    expect = kappa_max_S(f, powers, exclude)
    got = _masked_max_eigen(f, powers, exclude)
    assert got == pytest.approx(expect, rel=1e-8, abs=1e-10)


@given(complex_matrices(4, 2), st.lists(finite_complex, min_size=4, max_size=4))
@settings(max_examples=60)
def test_gram_max_eigen_dominates_rayleigh(m, g_list):
    g = np.array(g_list, dtype=np.complex128)
    norm = np.linalg.norm(g)
    if norm < 1e-6:
        return
    g = g / norm
    quad = float(np.linalg.norm(m.conj().T @ g) ** 2)
    assert quad <= np.linalg.eigvalsh(m @ m.conj().T)[-1] * (1.0 + 1e-9) + 1e-12


@given(
    complex_matrices(4, 4),
    st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    st.integers(0, 3),
)
@settings(max_examples=60)
def test_principal_submatrix_equals_the_zeroed_matrix(f, powers, exclude):
    # the engine's route: the (N-1) x (N-1) principal submatrix of the
    # weighted F_w^H F_w without the excluded cluster has the zeroed matrix's
    # largest eigenvalue, as the weighted matrix is PSD
    root_p = np.sqrt(np.asarray(powers))
    weighted = root_p[:, None] * (f.conj().T @ f) * root_p[None, :]
    others = [k for k in range(4) if k != exclude]
    got = np.linalg.eigvalsh(weighted[np.ix_(others, others)])[-1]
    assert got == pytest.approx(_masked_max_eigen(f, powers, exclude), rel=1e-10, abs=1e-12)
