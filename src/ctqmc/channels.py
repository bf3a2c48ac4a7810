"""Kraus channels on a qubit and their superoperator representations.

The lattice walks in this package are driven by a completely positive map
T = sum_i V_i . V_i* with the normalization sum_i V_i* V_i = I/2, so that
the block tridiagonal operator built from T generates a trace-preserving
semigroup.  This module ingests Kraus matrices, forms the 4x4 matrix
representation sum_i V_i (x) conj(V_i) acting on row-vectorized densities,
decides whether it has the population/coherence (PQ) block structure,
diagonalizes Hermitian representations, and decomposes Phi - I into
standard Lindblad form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eig, kron

__all__ = [
    "ValidationError",
    "UnsupportedChannelError",
    "KrausChannel",
    "SuperOperator",
    "EigenChannelBasis",
    "QubitDensity",
    "LindbladDecomposition",
    "superop_of",
    "detect_pq",
    "eigenbasis",
    "lindblad_decompose",
    "hamiltonian_admissibility",
]

_EYE2 = np.eye(2, dtype=complex)


class ValidationError(ValueError):
    """An input value violates one of its documented invariants."""


class UnsupportedChannelError(ValueError):
    """The channel falls outside the Hermitian-representation class."""


@dataclass(frozen=True)
class KrausChannel:
    """CP map given by 2x2 Kraus matrices with sum V_i* V_i = I/2."""

    kraus: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(v, dtype=complex) for v in self.kraus)
        if not mats:
            raise ValidationError("channel needs at least one Kraus matrix")
        for v in mats:
            if v.shape != (2, 2):
                raise ValidationError(f"Kraus matrices must be 2x2, got {v.shape}")
        object.__setattr__(self, "kraus", mats)
        acc = sum(v.conj().T @ v for v in mats)
        residual = np.abs(acc - _EYE2 / 2.0).max()
        if residual > 1e-10:
            raise ValidationError(
                f"sum V*V deviates from I/2 by {residual:.3e} (tolerance 1e-10)"
            )

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        return sum(v @ x @ v.conj().T for v in self.kraus)


@dataclass(frozen=True)
class SuperOperator:
    """4x4 representation sum_i V_i (x) conj(V_i) with its Hermiticity flag."""

    rep: np.ndarray
    is_hermitian: bool


@dataclass(frozen=True)
class EigenChannelBasis:
    """Unitary diagonalization rep = basis @ diag(lambdas) @ basis*."""

    basis: np.ndarray
    lambdas: np.ndarray


@dataclass(frozen=True)
class QubitDensity:
    """2x2 density matrix with Bloch coordinates (X, Y, Z).

    Convention matches the walks here: rho = [[1+X, Y+iZ], [Y-iZ, 1-X]]/2.
    """

    matrix: np.ndarray
    bloch: tuple

    @classmethod
    def from_matrix(cls, m) -> "QubitDensity":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError(f"density must be 2x2, got {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValidationError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise ValidationError(f"density trace is {np.trace(m):.6f}, not 1")
        ev = np.linalg.eigvalsh(m)
        if ev.min() < -1e-12:
            raise ValidationError(f"density has negative eigenvalue {ev.min():.3e}")
        x = float((m[0, 0] - m[1, 1]).real)
        y = float(m[0, 1].real)
        z = float(m[0, 1].imag)
        return cls(matrix=m, bloch=(x, 2.0 * y, 2.0 * z))

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "QubitDensity":
        if x * x + y * y + z * z > 1.0 + 1e-12:
            raise ValidationError(
                f"Bloch vector has norm {np.sqrt(x*x+y*y+z*z):.6f} > 1"
            )
        m = 0.5 * np.array(
            [[1.0 + x, y + 1j * z], [y - 1j * z, 1.0 - x]], dtype=complex
        )
        return cls(matrix=m, bloch=(float(x), float(y), float(z)))


@dataclass(frozen=True)
class LindbladDecomposition:
    """Standard form of Phi - I: i[rho, H] + psi(rho) - {psi*(I), rho}/2."""

    hamiltonian: np.ndarray
    dissipator_kraus: tuple
    kappa: np.ndarray


def superop_of(ch: KrausChannel) -> SuperOperator:
    """Matrix representation of X -> sum_i V_i X V_i* on vec'd matrices."""
    rep = sum(kron(v, v.conj()) for v in ch.kraus)
    is_hermitian = bool(np.abs(rep - rep.conj().T).max() <= 1e-10)
    return SuperOperator(rep=rep, is_hermitian=is_hermitian)


_POPULATION = np.array([True, False, False, True])
_OFF_PQ = _POPULATION[:, None] != _POPULATION[None, :]


def detect_pq(s: SuperOperator) -> bool:
    """Whether the representation has PQ sparsity.

    The P (population) block sits on rows and columns 0 and 3, the Q
    (coherence) block on 1 and 2; every other entry is at most 1e-12.
    """
    return bool(np.abs(s.rep[_OFF_PQ]).max() <= 1e-12)


def eigenbasis(s: SuperOperator) -> EigenChannelBasis:
    """Unitary eigendecomposition of a Hermitian channel representation."""
    if not s.is_hermitian:
        raise UnsupportedChannelError(
            "channel representation is not Hermitian; non-Hermitian walks "
            "are outside the supported class"
        )
    decomp = hermitian_eig(s.rep)
    lambdas = decomp.eigenvalues
    if np.abs(lambdas).max() > 0.5 + 1e-12:
        raise ValidationError(
            f"channel eigenvalue {lambdas[np.abs(lambdas).argmax()]:.6f} exceeds 1/2"
        )
    # The solver can land an eigenvalue of exactly 1/2 an ulp outside.
    return EigenChannelBasis(basis=decomp.basis, lambdas=np.clip(lambdas, -0.5, 0.5))


def lindblad_decompose(kraus, x=None) -> LindbladDecomposition:
    """Split Phi - I into Hamiltonian and dissipative parts.

    ``kraus`` is a trace-preserving Kraus family (sum K*K = I) and ``x`` a
    unit vector of matching length (defaults to the first standard basis
    vector; observable results do not depend on the choice).
    """
    mats = [np.asarray(k, dtype=complex) for k in kraus]
    acc = sum(k.conj().T @ k for k in mats)
    dim = mats[0].shape[0]
    residual = np.abs(acc - np.eye(dim)).max()
    if residual > 1e-10:
        raise ValidationError(
            f"sum K*K deviates from identity by {residual:.3e}; "
            "lindblad_decompose expects a trace-preserving family"
        )
    if x is None:
        x = np.zeros(len(mats))
        x[0] = 1.0
    x = np.asarray(x, dtype=complex)
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise ValidationError("reference vector x must have unit norm")
    a_mats = tuple(k - xj * np.eye(dim) for k, xj in zip(mats, x))
    kappa = sum(np.conj(xj) * a for xj, a in zip(x, a_mats))
    hamiltonian = 1j * (kappa - kappa.conj().T) / 2.0
    return LindbladDecomposition(
        hamiltonian=hamiltonian, dissipator_kraus=a_mats, kappa=kappa
    )


def hamiltonian_admissibility(h: np.ndarray, r: np.ndarray) -> bool:
    """Whether G = -iH - R yields a Hermitian G (x) I + I (x) conj(G).

    True exactly when H is a multiple of the identity; a Hermitian block
    is required for the walk to carry a positive definite matrix measure.
    """
    h = np.asarray(h, dtype=complex)
    r = np.asarray(r, dtype=complex)
    if np.abs(h - h.conj().T).max() > 1e-10:
        raise ValidationError("H must be Hermitian")
    if np.abs(r - r.conj().T).max() > 1e-10 or np.linalg.eigvalsh(r).min() <= 0:
        raise ValidationError("R must be Hermitian positive definite")
    g = -1j * h - r
    eye = np.eye(h.shape[0])
    script_g = kron(g, eye) + kron(eye, g.conj())
    return bool(np.abs(script_g - script_g.conj().T).max() <= 1e-12)
