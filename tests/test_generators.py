import numpy as np
import pytest

from ctqmc.channels import KrausChannel, ValidationError, eigenbasis, superop_of
from ctqmc.generators import (
    Geometry,
    assemble_generator,
    check_symmetrizable,
    scalar_jacobi_matrix,
)
from ctqmc.linalg import kron
from ctqmc.presets import amplitude_damping, depolarizing, pq_channel


def test_geometry_validation():
    Geometry.line()
    Geometry.half_line("absorbing")
    Geometry.segment(5, left="absorbing", right="reflecting")
    with pytest.raises(ValidationError):
        Geometry(kind="line", left_boundary="absorbing")
    with pytest.raises(ValidationError):
        Geometry.half_line("open")
    with pytest.raises(ValidationError):
        Geometry.segment(1)
    with pytest.raises(ValidationError):
        Geometry(kind="circle")


def test_assemble_generator_structure():
    ch = depolarizing(0.5)
    rep = superop_of(ch).rep
    op = assemble_generator(ch, Geometry.segment(4), truncation=10)
    dense = op.dense()
    assert dense.shape == (16, 16)
    # reflecting ends carry rep - I, interior -I, off-diagonals rep
    assert np.abs(dense[:4, :4] - (rep - np.eye(4))).max() < 1e-14
    assert np.abs(dense[4:8, 4:8] + np.eye(4)).max() < 1e-14
    assert np.abs(dense[-4:, -4:] - (rep - np.eye(4))).max() < 1e-14
    assert np.abs(dense[:4, 4:8] - rep).max() < 1e-14
    op2 = assemble_generator(ch, Geometry.half_line("absorbing"), truncation=5)
    assert op2.window == (0, 4)
    assert np.abs(op2.dense()[:4, :4] + np.eye(4)).max() < 1e-14
    op3 = assemble_generator(ch, Geometry.line(), truncation=3)
    assert op3.window == (-3, 3)


# S rho S* / 4 + rho / 4 for the phase gate S: a complex 4x4 block.
PHASE = KrausChannel(kraus=(np.diag([0.5, 0.5j]), np.eye(2) / 2.0))


@pytest.mark.parametrize("ch", [depolarizing(0.4), PHASE], ids=["real", "complex"])
@pytest.mark.parametrize("g", [
    Geometry.line(),
    Geometry.half_line("reflecting"),
    Geometry.segment(5, "absorbing", "reflecting"),
], ids=lambda g: g.kind)
def test_block_matvec_and_norm_bound_match_dense(ch, g):
    op = assemble_generator(ch, g, truncation=6)
    dense = op.dense()
    rng = np.random.default_rng(5)
    real = rng.normal(size=(op.n_sites, 4, 3))
    for x in (real, real + 1j * rng.normal(size=real.shape)):
        want = (dense @ x.reshape(-1, 3)).reshape(x.shape)
        assert np.abs(op @ x - want).max() < 1e-14
    assert np.linalg.norm(dense, 1) <= op.norm1() + 1e-14


def test_generator_hamiltonian_term():
    ch = depolarizing(0.5)
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = assemble_generator(
        ch, Geometry.segment(2), hamiltonians={0: h}
    )
    dense = op.dense()
    extra = -1j * (kron(h, np.eye(2)) - kron(np.eye(2), h.conj()))
    rep = superop_of(ch).rep
    assert np.abs(dense[:4, :4] - (rep - np.eye(4) + extra)).max() < 1e-14


def test_scalar_reduction_block_diagonalizes():
    ch = pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0)
    g = Geometry.half_line("reflecting")
    basis = eigenbasis(superop_of(ch))
    n = 6
    dense = assemble_generator(ch, g, truncation=n).dense()
    big_b = kron(np.eye(n), basis.basis)
    transformed = big_b.conj().T @ dense @ big_b
    # after conjugation the operator interleaves the four scalar chains
    for k, lam in enumerate(basis.lambdas):
        scalar = scalar_jacobi_matrix(g, float(lam), truncation=n)
        assert np.abs(transformed[k::4, k::4] - scalar).max() < 1e-12
    off = transformed.copy()
    for k in range(4):
        off[k::4, k::4] = 0.0
    assert np.abs(off).max() < 1e-12


def test_scalar_jacobi_matrix_boundaries():
    m = scalar_jacobi_matrix(
        Geometry.segment(3, "reflecting", "absorbing"), 0.3, truncation=3
    )
    assert m[0, 0] == pytest.approx(0.3 - 1.0)
    assert m[2, 2] == pytest.approx(-1.0)
    assert m[0, 1] == pytest.approx(0.3)


def test_symmetrizable_homogeneous_hermitian():
    rep = superop_of(pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0)).rep
    n_max = 10
    res = check_symmetrizable(
        [rep] * n_max, [-np.eye(4)] * (n_max + 1), [rep] * n_max, n_max
    )
    assert res.verdict
    for r in res.r_matrices:
        assert np.abs(np.asarray(r) - np.eye(4)).max() < 1e-12


def test_symmetrizable_birth_death():
    n_max = 10
    lam = [1.0 + 0.1 * n for n in range(n_max + 1)]
    mu = [0.5 + 0.05 * n for n in range(1, n_max + 2)]
    a_seq = [[[lam[n]]] for n in range(n_max)]
    b_seq = [[[-(lam[n] + (mu[n - 1] if n > 0 else 0.0))]] for n in range(n_max + 1)]
    c_seq = [[[mu[n]]] for n in range(n_max)]
    res = check_symmetrizable(a_seq, b_seq, c_seq, n_max)
    assert res.verdict
    # R_n^2 equals the classical potential ratio (mu_1...mu_n)/(lam_0...lam_{n-1})
    prod = 1.0
    for n in range(1, n_max + 1):
        prod *= mu[n - 1] / lam[n - 1]
        r = complex(np.asarray(res.r_matrices[n])[0, 0])
        assert abs(r * r - prod) < 1e-12


def test_symmetrizable_rejects_amplitude_damping():
    rep = superop_of(amplitude_damping(0.5)).rep
    n_max = 10
    res = check_symmetrizable(
        [rep] * n_max, [-np.eye(4)] * (n_max + 1), [rep] * n_max, n_max
    )
    assert not res.verdict
    assert res.failure_reason is not None


def test_symmetrizable_singular_input_rejected():
    sing = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        check_symmetrizable([sing], [-np.eye(2)] * 2, [np.eye(2)], 1)
