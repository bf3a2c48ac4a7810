import math

import numpy as np
import pytest

from ctqmc.channels import (
    KrausChannel,
    QubitDensity,
    UnsupportedChannelError,
    ValidationError,
    detect_pq,
    eigenbasis,
    hamiltonian_admissibility,
    lindblad_decompose,
    superop_of,
)
from ctqmc.presets import (
    amplitude_damping,
    depolarizing,
    identity_channel,
    pq_channel,
    segment_example,
)
from oracles import lindblad_action


def test_kraus_normalization_enforced():
    with pytest.raises(ValidationError):
        KrausChannel(kraus=(np.eye(2),))  # sum V*V = I, not I/2
    KrausChannel(kraus=(np.eye(2) / math.sqrt(2.0),))


def test_kraus_apply():
    ch = depolarizing(1.0 / 3.0)
    rho = np.array([[0.7, 0.1], [0.1, 0.3]])
    out = ch.apply(rho)
    rep = superop_of(ch).rep
    assert np.allclose(out.reshape(-1), rep @ rho.reshape(-1))


def test_depolarizing_representation():
    # s = 1/3 gives p = 5/6, q = 2/3; P block [[p,1-p],[1-p,p]]/2, Q diag q/2
    rep = superop_of(depolarizing(1.0 / 3.0)).rep
    p, q = 5.0 / 6.0, 2.0 / 3.0
    expected = np.diag([p / 2, q / 2, q / 2, p / 2]).astype(complex)
    expected[0, 3] = expected[3, 0] = (1 - p) / 2
    assert np.abs(rep - expected).max() < 1e-14


def test_pq_detection():
    s = superop_of(pq_channel(0.8, 0.5, 0.2))
    assert detect_pq(s) is True
    p_part = s.rep[np.ix_([0, 3], [0, 3])]
    q_part = s.rep[np.ix_([1, 2], [1, 2])]
    assert np.abs(p_part - np.array([[0.4, 0.1], [0.1, 0.4]])).max() < 1e-14
    assert np.abs(q_part - np.array([[0.25, 0.1], [0.1, 0.25]])).max() < 1e-14
    # column stochastic after doubling
    assert np.abs(2 * p_part.real.sum(axis=0) - 1.0).max() < 1e-14
    assert detect_pq(superop_of(segment_example())) is False


def test_eigenbasis_lambdas():
    basis = eigenbasis(superop_of(depolarizing(1.0 / 3.0)))
    assert np.allclose(
        sorted(basis.lambdas), [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.5]
    )
    basis2 = eigenbasis(superop_of(segment_example()))
    assert np.allclose(
        sorted(basis2.lambdas), [-1.0 / 3.0, -1.0 / 3.0, 0.5, 0.5]
    )
    basis3 = eigenbasis(superop_of(identity_channel()))
    assert np.allclose(basis3.lambdas, 0.5)


def test_eigenbasis_rejects_non_hermitian():
    with pytest.raises(UnsupportedChannelError):
        eigenbasis(superop_of(amplitude_damping(0.5)))


def test_qubit_density_conversions():
    rho = QubitDensity.from_bloch(0.2, -0.3, 0.4)
    back = QubitDensity.from_matrix(rho.matrix)
    assert np.allclose(back.bloch, rho.bloch)
    # convention: rho = [[1+X, Y+iZ], [Y-iZ, 1-X]]/2
    assert rho.matrix[0, 1] == pytest.approx((-0.3 + 0.4j) / 2.0)


def test_qubit_density_validation():
    with pytest.raises(ValidationError):
        QubitDensity.from_bloch(1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        QubitDensity.from_matrix(np.array([[1.2, 0.0], [0.0, -0.2]]))
    with pytest.raises(ValidationError):
        QubitDensity.from_matrix(np.array([[0.5, 0.4], [0.1, 0.5]]))


def test_lindblad_decompose_reproduces_generator():
    ks = [math.sqrt(2.0) * v for v in depolarizing(0.4).kraus]
    dec = lindblad_decompose(ks)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    phi_rho = sum(k @ rho @ k.conj().T for k in ks)
    assert np.abs(lindblad_action(dec, rho) - (phi_rho - rho)).max() < 1e-12


def test_lindblad_decompose_validates_family():
    with pytest.raises(ValidationError):
        lindblad_decompose([np.eye(2) / 2.0])


def test_hamiltonian_admissibility():
    assert hamiltonian_admissibility(2.0 * np.eye(2), 0.5 * np.eye(2))
    sigma_z = np.diag([1.0, -1.0])
    assert not hamiltonian_admissibility(sigma_z, 0.5 * np.eye(2))
    with pytest.raises(ValidationError):
        hamiltonian_admissibility(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
