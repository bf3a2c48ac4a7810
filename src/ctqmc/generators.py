"""Lattice geometries, block tridiagonal generators and symmetrizability.

A homogeneous walk places the same channel block T on the off-diagonals
of a block tridiagonal operator; the diagonal carries -I at interior and
absorbing sites and T - I at reflecting ends.  When the 4x4 representation
of T is Hermitian the whole operator block-diagonalizes into four scalar
Jacobi chains, one per eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, ValidationError, superop_of
from .linalg import kron

__all__ = [
    "Geometry",
    "BlockTridiagonalOperator",
    "SymmetrizerSequence",
    "assemble_generator",
    "scalar_jacobi_matrix",
    "check_symmetrizable",
]

ABSORBING = "absorbing"
REFLECTING = "reflecting"


@dataclass(frozen=True)
class Geometry:
    """Lattice descriptor: integer line, half-line or finite segment.

    ``left_boundary``/``right_boundary`` apply where the lattice has an
    end; ``sites`` is the number of vertices of a segment (N + 1).
    """

    kind: str  # "line" | "half_line" | "segment"
    left_boundary: str | None = None
    right_boundary: str | None = None
    sites: int | None = None

    def __post_init__(self):
        if self.kind == "line":
            if self.left_boundary or self.right_boundary or self.sites:
                raise ValidationError("the integer line has no boundaries")
        elif self.kind == "half_line":
            if self.left_boundary not in (ABSORBING, REFLECTING):
                raise ValidationError(
                    "half_line needs left_boundary 'absorbing' or 'reflecting'"
                )
            if self.right_boundary is not None or self.sites:
                raise ValidationError("half_line carries exactly one boundary")
        elif self.kind == "segment":
            if self.sites is None or self.sites < 2:
                raise ValidationError("segment needs sites >= 2")
            for b in (self.left_boundary, self.right_boundary):
                if b not in (ABSORBING, REFLECTING):
                    raise ValidationError(
                        "segment needs both boundaries set to "
                        "'absorbing' or 'reflecting'"
                    )
        else:
            raise ValidationError(f"unknown geometry kind {self.kind!r}")

    @classmethod
    def line(cls) -> "Geometry":
        return cls(kind="line")

    @classmethod
    def half_line(cls, boundary: str) -> "Geometry":
        return cls(kind="half_line", left_boundary=boundary)

    @classmethod
    def segment(cls, sites: int, left: str = REFLECTING, right: str = REFLECTING) -> "Geometry":
        return cls(kind="segment", left_boundary=left, right_boundary=right, sites=sites)


@dataclass(frozen=True)
class BlockTridiagonalOperator:
    """Finite (or truncated) block tridiagonal generator.

    ``diag_blocks`` stacks the diagonal blocks, shape (n_sites, d, d);
    ``off_block`` sits on both off-diagonals.  ``window`` is the
    inclusive site-index range (l_min, l_max); for the infinite
    geometries it is truncation metadata, for segments the operator is
    exact.  ``op @ x`` applies the operator block by block to a state of
    shape (n_sites, d, k), in O(n_sites) work, and :meth:`norm1` bounds
    its 1-norm from the blocks, so :func:`ctqmc.linalg.expm_apply`
    propagates it without forming it; :meth:`dense` forms it for checks.
    """

    diag_blocks: np.ndarray
    off_block: np.ndarray
    window: tuple

    @property
    def n_sites(self) -> int:
        return self.window[1] - self.window[0] + 1

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(x) and not np.iscomplexobj(self.off_block):
            # A real operator acts on real and imaginary parts alike, so
            # they travel as extra real columns: numpy's stacked real
            # matmul on 4x4 blocks is ~4x faster than the complex one.
            return (self @ np.ascontiguousarray(x).view(float)).view(complex)
        y = self.diag_blocks @ x
        off = self.off_block @ x
        y[:-1] += off[1:]
        y[1:] += off[:-1]
        return y

    def norm1(self) -> float:
        """Bound on the 1-norm: the largest diagonal-block column sum plus
        twice the largest off-block column sum."""
        diag = np.abs(self.diag_blocks).sum(axis=1).max()
        return float(diag + 2.0 * np.abs(self.off_block).sum(axis=0).max())

    def dense(self) -> np.ndarray:
        d = self.off_block.shape[0]
        n = self.n_sites
        out = np.zeros((n * d, n * d), dtype=self.off_block.dtype)
        for k, blk in enumerate(self.diag_blocks):
            out[k * d:(k + 1) * d, k * d:(k + 1) * d] = blk
        for k in range(n - 1):
            out[k * d:(k + 1) * d, (k + 1) * d:(k + 2) * d] = self.off_block
            out[(k + 1) * d:(k + 2) * d, k * d:(k + 1) * d] = self.off_block
        return out


def assemble_generator(
    ch: KrausChannel,
    g: Geometry,
    truncation: int = 50,
    hamiltonians=None,
) -> BlockTridiagonalOperator:
    """Block tridiagonal representation of the Lindblad generator Phi - I.

    ``truncation`` (at least 2) bounds the window of the line, which is
    symmetric about 0, and of the half-line.  ``hamiltonians`` optionally
    maps site index to a 2x2 Hermitian H_l, adding
    -i(H_l (x) I - I (x) conj(H_l)) on the diagonal; all shipped presets
    leave it None.
    """
    rep = superop_of(ch).rep
    eye4 = np.eye(4, dtype=rep.dtype)
    if truncation < 2:
        raise ValidationError("truncation must be >= 2")
    if g.kind == "segment":
        lo, hi = 0, g.sites - 1
    elif g.kind == "half_line":
        lo, hi = 0, truncation - 1
    else:
        lo, hi = -truncation, truncation
    n = hi - lo + 1
    diag = []
    for l in range(lo, hi + 1):
        blk = -eye4
        if g.kind in ("half_line", "segment") and l == 0 and g.left_boundary == REFLECTING:
            blk = rep - eye4
        if g.kind == "segment" and l == hi and g.right_boundary == REFLECTING:
            blk = rep - eye4
        if hamiltonians is not None and l in hamiltonians:
            h = np.asarray(hamiltonians[l], dtype=complex)
            eye2 = np.eye(2)
            blk = blk.astype(complex) - 1j * (kron(h, eye2) - kron(eye2, h.conj()))
        diag.append(blk)
    if np.iscomplexobj(rep) and np.abs(rep.imag).max() == 0 and all(
        not np.iscomplexobj(b) or np.abs(b.imag).max() == 0 for b in diag
    ):
        rep = rep.real
        diag = [b.real for b in diag]
    return BlockTridiagonalOperator(
        diag_blocks=np.stack(diag), off_block=rep, window=(lo, hi)
    )


def scalar_jacobi_matrix(g: Geometry, lam: float, truncation: int = 50) -> np.ndarray:
    """Dense matrix of the scalar chain with parameter lam on g.

    The window follows :func:`assemble_generator`; in the channel
    eigenbasis the block generator splits into one such chain per
    eigenvalue.
    """
    if g.kind == "segment":
        n = g.sites
    elif g.kind == "half_line":
        n = truncation
    else:
        n = 2 * truncation + 1
    m = np.diag(np.full(n, -1.0)) + np.diag(np.full(n - 1, lam), 1) + np.diag(
        np.full(n - 1, lam), -1
    )
    if g.kind in ("half_line", "segment") and g.left_boundary == REFLECTING:
        m[0, 0] = lam - 1.0
    if g.kind == "segment" and g.right_boundary == REFLECTING:
        m[-1, -1] = lam - 1.0
    return m


@dataclass(frozen=True)
class SymmetrizerSequence:
    """Result of the positive-definite-measure (symmetrizability) check."""

    r_matrices: tuple
    max_index: int
    verdict: bool
    failure_reason: str | None = None


def check_symmetrizable(a_seq, b_seq, c_seq, n_max: int) -> SymmetrizerSequence:
    """Test for a symmetrizing sequence R_n with R_0 = I.

    ``a_seq[n]`` is A_n (n = 0..n_max-1), ``b_seq[n]`` is B_n
    (n = 0..n_max) and ``c_seq[n]`` is C_{n+1} (n = 0..n_max-1) of the
    one-step block tridiagonal operator.  The verdict is true iff every
    S_n = (A_0*...A_{n-1}*)^{-1} C_1...C_n is Hermitian positive definite
    (R_n is then its Cholesky factor) and every R_n B_n R_n^{-1} is
    Hermitian.
    """
    a_seq = [np.atleast_2d(np.asarray(a, dtype=complex)) for a in a_seq]
    b_seq = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in b_seq]
    c_seq = [np.atleast_2d(np.asarray(c, dtype=complex)) for c in c_seq]
    for i, a in enumerate(a_seq[:n_max]):
        if abs(np.linalg.det(a)) < 1e-14:
            raise ValidationError(f"A_{i} is singular")
    for i, c in enumerate(c_seq[:n_max]):
        if abs(np.linalg.det(c)) < 1e-14:
            raise ValidationError(f"C_{i + 1} is singular")
    dim = b_seq[0].shape[0]
    r_mats = [np.eye(dim, dtype=complex)]
    verdict = True
    reason = None
    a_star_prod = np.eye(dim, dtype=complex)
    c_prod = np.eye(dim, dtype=complex)
    for n in range(1, n_max + 1):
        a_star_prod = a_star_prod @ a_seq[n - 1].conj().T
        c_prod = c_prod @ c_seq[n - 1]
        s = np.linalg.solve(a_star_prod, c_prod)
        if np.abs(s - s.conj().T).max() > 1e-10:
            verdict = False
            reason = f"S_{n} is not Hermitian"
            break
        s = (s + s.conj().T) / 2.0
        ev = np.linalg.eigvalsh(s)
        if ev.min() <= 1e-14:
            verdict = False
            reason = f"S_{n} is not positive definite (min eigenvalue {ev.min():.3e})"
            break
        r = np.linalg.cholesky(s).conj().T  # upper factor: R* R = S
        r_mats.append(r)
    if verdict:
        for n, r in enumerate(r_mats):
            conj = r @ b_seq[n] @ np.linalg.inv(r)
            if np.abs(conj - conj.conj().T).max() > 1e-10:
                verdict = False
                reason = f"R_{n} B_{n} R_{n}^-1 is not Hermitian"
                break
    return SymmetrizerSequence(
        r_matrices=tuple(r_mats),
        max_index=len(r_mats) - 1,
        verdict=verdict,
        failure_reason=reason,
    )
