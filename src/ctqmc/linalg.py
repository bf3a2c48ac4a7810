"""Complex linear algebra for small matrices and block-structured operators.

Everything here operates on plain numpy arrays, except that
:func:`expm_apply` also propagates a structured operator (such as a
block tridiagonal generator) through its products alone.  Dense
matrices are small (4x4 blocks, or a chain matrix of a few dozen rows),
so simplicity and certifiable accuracy win over asymptotic speed.
Non-finite input and unconverged iterations raise
:class:`PreconditionError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "PreconditionError",
    "HermitianEigenDecomposition",
    "kron",
    "vec",
    "unvec",
    "hermitian_eig",
    "expm_apply",
]


class ShapeError(ValueError):
    """Raised on dimension mismatches."""


class PreconditionError(ValueError):
    """Raised when an operation's input contract is violated."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (i,j) block of the result is a[i,j]*b."""
    return np.kron(np.asarray(a), np.asarray(b))


def vec(a: np.ndarray) -> np.ndarray:
    """Row-stacking vectorization: vec([[a,b],[c,d]]) = (a, b, c, d).

    Satisfies vec(A X B^T) = kron(A, B) vec(X).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"vec expects a matrix, got ndim={a.ndim}")
    return a.reshape(-1)


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ShapeError(f"cannot reshape length-{v.size} vector to {rows}x{cols}")
    return v.reshape(rows, cols)


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Unitary eigendecomposition h = basis @ diag(eigenvalues) @ basis*.

    Eigenvalues are sorted in descending order; each eigenvector's first
    nonzero component is phase-normalized to positive real so repeated runs
    are bit-identical.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray


def _jacobi_sweeps(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations on a Hermitian matrix, at most 60 sweeps.

    Returns (eigenvalues, basis) with a = basis @ diag(w) @ basis*;
    raises :class:`PreconditionError` if 60 sweeps do not converge.
    """
    n = a.shape[0]
    a = a.astype(complex).copy()
    basis = np.eye(n, dtype=complex)
    scale = max(np.abs(a).max(), 1.0)
    for _ in range(60):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off <= 1e-15 * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                # Phase factor turns the pivot real, then a real rotation
                # annihilates it.
                phase = apq / abs(apq)
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * abs(apq))
                if tau >= 0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # Local unitary in the (p, q) plane: columns are the
                # rotated basis vectors.
                v_pp, v_pq = c, s * phase
                v_qp, v_qq = -s * np.conj(phase), c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = col_p * v_pp + col_q * v_qp
                a[:, q] = col_p * v_pq + col_q * v_qq
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = np.conj(v_pp) * row_p + np.conj(v_qp) * row_q
                a[q, :] = np.conj(v_pq) * row_p + np.conj(v_qq) * row_q
                b_p = basis[:, p].copy()
                b_q = basis[:, q].copy()
                basis[:, p] = b_p * v_pp + b_q * v_qp
                basis[:, q] = b_p * v_pq + b_q * v_qq
    else:
        raise PreconditionError("Jacobi eigensolve did not converge in 60 sweeps")
    # Clean the tiny imaginary residue on the diagonal.
    return np.diag(a).real.copy(), basis


def hermitian_eig(h: np.ndarray) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix via cyclic Jacobi rotations.

    Raises :class:`PreconditionError` if the input has a non-finite entry
    or deviates from Hermitian by more than 1e-10 in max-entry norm.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise PreconditionError("matrix has a non-finite entry")
    dev = np.abs(h - h.conj().T).max()
    if dev > 1e-10:
        raise PreconditionError(
            f"matrix is not Hermitian: max |h - h*| = {dev:.3e} exceeds 1.0e-10"
        )
    w, basis = _jacobi_sweeps((h + h.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    basis = basis[:, order]
    # Deterministic phases: first nonzero component positive real.
    for k in range(basis.shape[1]):
        col = basis[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        lead = col[idx[0]]
        basis[:, k] = col * (np.conj(lead) / abs(lead))
    return HermitianEigenDecomposition(basis=basis, eigenvalues=w)


def expm_apply(a, t: float, v: np.ndarray) -> np.ndarray:
    """Compute e^{t a} v with products of a and v only.

    ``a`` is a square array, with ``v`` a vector or a matrix of column
    vectors, or a structured operator that applies itself by ``a @ v``
    and bounds its 1-norm by ``a.norm1()``, with ``v`` of the shape it
    acts on.  Splits t into substeps of scaled norm <= 1/2 and sums a
    truncated Taylor series per substep until a term falls below 1e-17
    of the sum; the propagator itself is never formed.  Raises
    :class:`PreconditionError` on a non-finite input or when a substep
    needs more than 40 terms.
    """
    v = np.asarray(v)
    structured = hasattr(a, "norm1")
    if structured:
        v = v.astype(np.result_type(v.dtype, float))
        norm = a.norm1() * abs(t)
    else:
        a = np.asarray(a)
        v = v.astype(np.result_type(a.dtype, v.dtype, float))
        m = a * t
        norm = np.linalg.norm(m, 1)
    if not (np.isfinite(norm) and np.isfinite(v).all()):
        raise PreconditionError("expm_apply needs a finite operator, time and vector")
    steps = max(1, int(np.ceil(norm / 0.5)))
    if structured:
        dt = t / steps

        def next_term(term, k):
            return (a @ term) * (dt / k)
    else:
        h = m / steps

        def next_term(term, k):
            return h @ term / k
    for _ in range(steps):
        term = v
        acc = v.copy()
        for k in range(1, 40):
            term = next_term(term, k)
            acc = acc + term
            # initial=0 lets a state without columns pass the test.
            if np.abs(term).max(initial=0.0) <= 1e-17 * max(
                1.0, np.abs(acc).max(initial=0.0)
            ):
                break
        else:
            raise PreconditionError("Taylor series did not converge in 40 terms")
        v = acc
    return v
