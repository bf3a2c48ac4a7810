import numpy as np
import pytest
import scipy.linalg

from ctqmc.linalg import (
    PreconditionError,
    ShapeError,
    expm_apply,
    hermitian_eig,
    kron,
    unvec,
    vec,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def test_vec_kron_identity():
    rng = np.random.default_rng(3)
    a, x, b = (rng.normal(size=(3, 3)) for _ in range(3))
    assert np.allclose(vec(a @ x @ b.T), kron(a, b) @ vec(x))


def test_vec_unvec_roundtrip():
    m = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(unvec(vec(m), 2, 3), m)
    with pytest.raises(ShapeError):
        unvec(np.arange(5.0), 2, 3)


@pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (8, 2), (20, 3)])
def test_hermitian_eig_reconstructs(n, seed):
    h = random_hermitian(n, seed)
    d = hermitian_eig(h)
    assert np.abs(d.basis @ np.diag(d.eigenvalues) @ d.basis.conj().T - h).max() < 1e-12
    assert np.abs(d.basis.conj().T @ d.basis - np.eye(n)).max() < 1e-12
    # descending order, matches an independent solver
    assert np.all(np.diff(d.eigenvalues) <= 1e-14)
    assert np.abs(np.sort(d.eigenvalues) - np.linalg.eigvalsh(h)).max() < 1e-12


def test_hermitian_eig_deterministic():
    h = random_hermitian(6, 7)
    d1 = hermitian_eig(h)
    d2 = hermitian_eig(h.copy())
    assert np.array_equal(d1.basis, d2.basis)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_non_finite():
    h = np.eye(3)
    h[1, 1] = np.nan
    with pytest.raises(PreconditionError):
        hermitian_eig(h)


def test_expm_apply_rejects_non_finite():
    with pytest.raises(PreconditionError):
        expm_apply(np.eye(2), 1.0, np.array([np.inf, 0.0]))


def test_expm_apply_matches_expm():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(30, 30)) * 0.5
    v = rng.normal(size=30)
    assert np.abs(expm_apply(a, 4.0, v) - scipy.linalg.expm(4.0 * a) @ v).max() < 1e-10
