"""Spectral measures, orthogonal polynomial families and Stieltjes transforms.

Each scalar Jacobi chain carries an orthogonality measure supported on
[1 - 2|lam|, 1 + 2|lam|] (absolutely continuous for the infinite
geometries, atomic for segments).  Segment atoms come from the closed-form
modes of :func:`segment_modes` for every pair of ends; the only
eigensolves left are the 4x4 ones of ``channels.eigenbasis`` and
:func:`duran_density`.  The polynomial families are Chebychev: second
kind for an absorbing left end, third kind for a reflecting one, and the
two-family system on the integer line.  Negative lam mirrors the support
while the polynomial argument (1 - x)/(2 lam) keeps its sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ValidationError
from .generators import ABSORBING, REFLECTING, Geometry
from .linalg import hermitian_eig
from .specfun import ChebKind, cheb_eval, gauss_chebyshev

__all__ = [
    "ScalarMeasure",
    "SpectralMatrix2",
    "scalar_measure",
    "segment_modes",
    "spectral_matrix_line",
    "polynomials",
    "stieltjes",
    "stieltjes_closed_form",
    "duran_density",
]

ABSOLUTELY_CONTINUOUS = "absolutely_continuous"
ATOMIC = "atomic"


def _validate_lambda(lam: float) -> None:
    if lam == 0.0:
        raise ValidationError("lambda = 0 gives a degenerate (decoupled) measure")
    if abs(lam) > 0.5:
        raise ValidationError(f"|lambda| = {abs(lam):.6f} exceeds 1/2")


@dataclass(frozen=True)
class ScalarMeasure:
    """Orthogonality measure of one scalar chain.

    AC form: ``support`` is (lo, hi) and ``density`` evaluates the
    Lebesgue density.  Atomic form: ``atoms``/``atom_weights`` list the
    point masses.
    """

    form: str
    lam: float
    geometry: Geometry
    support: tuple | None = None
    atoms: np.ndarray | None = None
    atom_weights: np.ndarray | None = None

    def density(self, x):
        if self.form != ABSOLUTELY_CONTINUOUS:
            raise ValidationError("atomic measures have no density")
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        lam = self.lam
        inside = (x > lo) & (x < hi)
        out = np.zeros_like(x)
        xs = np.where(inside, x, (lo + hi) / 2.0)
        if self.geometry.left_boundary == ABSORBING:
            val = np.sqrt((xs - lo) * (hi - xs)) / (2.0 * np.pi * lam * lam)
        else:
            if lam > 0:
                val = np.sqrt((hi - xs) / (xs - lo)) / (2.0 * np.pi * abs(lam))
            else:
                val = np.sqrt((xs - lo) / (hi - xs)) / (2.0 * np.pi * abs(lam))
        out = np.where(inside, val, 0.0)
        return out if out.ndim else float(out)

    def integrate(self, f, points: int = 128):
        """Integral of f against the measure.

        AC integrals map to the matching Gauss-Chebyshev rule via
        x = 1 - 2*lam*u, which turns the weight into an exact Chebychev
        weight; atomic integrals are finite sums.
        """
        if self.form == ATOMIC:
            total = np.sum(self.atom_weights * f(self.atoms))
            return complex(total) if np.iscomplexobj(total) else float(total)
        lam = self.lam
        if self.geometry.left_boundary == ABSORBING:
            rule = gauss_chebyshev(ChebKind.SECOND, points)
            return 2.0 / np.pi * rule.integrate(lambda u: f(1.0 - 2.0 * lam * u))
        rule = gauss_chebyshev(ChebKind.THIRD, points)
        return 1.0 / np.pi * rule.integrate(lambda u: f(1.0 - 2.0 * lam * u))

    def total_mass(self, points: int = 256) -> float:
        return self.integrate(lambda x: np.ones_like(np.asarray(x, float)), points)


def segment_modes(g: Geometry, lam: float, sites):
    """Atoms and eigenvector rows of the chain on segment g, in closed form.

    The chain is J = -I + lam*A, with A the path adjacency carrying a 1 at
    each reflecting end; A's eigenpairs (2 cos theta_k, u_k) are closed
    form for all four end pairs (Yueh 2005).  Returns the ascending atoms
    x_k = 1 - 2 lam cos theta_k and u[r, k] = u_k[sites[r]], computing
    only the requested rows.
    """
    _validate_lambda(lam)
    n = g.sites
    for s in sites:
        if not 0 <= s < n:
            raise ValidationError(f"site index {s} outside the {n}-site segment")
    idx = np.asarray(sites, dtype=float)
    left, right = g.left_boundary, g.right_boundary
    if left == right == ABSORBING:
        theta = np.arange(1, n + 1) * (np.pi / (n + 1))
        u = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(idx + 1.0, theta))
    elif left == right == REFLECTING:
        theta = np.arange(n) * (np.pi / n)
        u = np.sqrt(2.0 / n) * np.cos(np.outer(idx + 0.5, theta))
        u[:, 0] /= np.sqrt(2.0)
    else:  # reflecting/absorbing; absorbing/reflecting is its mirror image
        if left == ABSORBING:
            idx = n - 1.0 - idx
        theta = np.arange(1, 2 * n, 2) * (np.pi / (2 * n + 1))
        u = np.sqrt(4.0 / (2 * n + 1)) * np.cos(np.outer(idx + 0.5, theta))
    atoms = 1.0 - 2.0 * lam * np.cos(theta)
    if lam < 0:  # the atoms descend with theta
        return atoms[::-1], u[:, ::-1]
    return atoms, u


def scalar_measure(g: Geometry, lam: float) -> ScalarMeasure:
    """Spectral measure of the scalar chain with parameter lam on g."""
    _validate_lambda(lam)
    lo, hi = 1.0 - 2.0 * abs(lam), 1.0 + 2.0 * abs(lam)
    if g.kind == "half_line":
        return ScalarMeasure(
            form=ABSOLUTELY_CONTINUOUS, lam=lam, geometry=g, support=(lo, hi)
        )
    if g.kind == "line":
        raise ValidationError(
            "the integer line carries a 2x2 spectral matrix; "
            "use spectral_matrix_line"
        )
    atoms, u = segment_modes(g, lam, [0])
    return ScalarMeasure(
        form=ATOMIC, lam=lam, geometry=g, atoms=atoms, atom_weights=u[0] ** 2
    )


@dataclass(frozen=True)
class SpectralMatrix2:
    """2x2 spectral matrix of the doubly infinite chain.

    Entry density: psi^{ab}(x) = M_ab(u) / (pi * sqrt((x-lo)(hi-x))) with
    u = (1-x)/(2 lam) and M = [[1, u], [u, 1]]; the 1/pi factor makes the
    two polynomial families orthonormal.
    """

    lam: float
    support: tuple

    def density(self, x) -> np.ndarray:
        lo, hi = self.support
        x = float(x)
        if not lo < x < hi:
            return np.zeros((2, 2))
        u = (1.0 - x) / (2.0 * self.lam)
        w = 1.0 / (np.pi * np.sqrt((x - lo) * (hi - x)))
        return w * np.array([[1.0, u], [u, 1.0]])

    def quadrature(self, points: int = 128):
        """Nodes x_k and 2x2 weight matrices for integrals against psi."""
        rule = gauss_chebyshev(ChebKind.FIRST, points)
        xs = 1.0 - 2.0 * self.lam * rule.nodes
        mats = np.empty((points, 2, 2))
        for k, (u, w) in enumerate(zip(rule.nodes, rule.weights)):
            mats[k] = (w / np.pi) * np.array([[1.0, u], [u, 1.0]])
        return xs, mats


def spectral_matrix_line(lam: float) -> SpectralMatrix2:
    _validate_lambda(lam)
    return SpectralMatrix2(
        lam=lam, support=(1.0 - 2.0 * abs(lam), 1.0 + 2.0 * abs(lam))
    )


def _cheb_u_ext(n: int, u) -> float:
    # U_{-1} = 0 closes the line-family index arithmetic.
    if n == -1:
        return 0.0 * np.asarray(u, float) if np.ndim(u) else 0.0
    return cheb_eval(ChebKind.SECOND, n, u)


def polynomials(g: Geometry, lam: float, n: int, x):
    """Orthonormal polynomial value(s) for the chain on geometry g.

    Returns a scalar for half-lines and segments and a (family1, family2)
    pair for the integer line.
    """
    _validate_lambda(lam)
    u = (1.0 - np.asarray(x, dtype=float)) / (2.0 * lam)
    if g.kind == "line":
        if n >= 0:
            fam1 = _cheb_u_ext(n, u)
            fam2 = -_cheb_u_ext(n - 1, u)
        else:
            fam1 = -_cheb_u_ext(-n - 2, u)
            fam2 = _cheb_u_ext(-n - 1, u)
        return fam1, fam2
    if n < 0:
        raise ValidationError(f"site index {n} outside the geometry")
    if g.kind == "segment" and n >= g.sites:
        raise ValidationError(f"site index {n} outside the {g.sites}-site segment")
    if g.left_boundary == ABSORBING:
        return cheb_eval(ChebKind.SECOND, n, u)
    return cheb_eval(ChebKind.THIRD, n, u)


def stieltjes(m: ScalarMeasure, z: complex, points: int = 512) -> complex:
    """Stieltjes transform integral of 1/(x - z) against the measure."""
    z = complex(z)
    if m.form == ATOMIC:
        if np.min(np.abs(m.atoms - z)) < 1e-12:
            raise ValidationError(f"z = {z} lies on an atom of the measure")
        return complex(np.sum(m.atom_weights / (m.atoms - z)))
    lo, hi = m.support
    if abs(z.imag) < 1e-14 and lo - 1e-12 <= z.real <= hi + 1e-12:
        raise ValidationError(f"z = {z} lies on the support [{lo}, {hi}]")
    return complex(m.integrate(lambda x: 1.0 / (x - z), points=points))


def stieltjes_closed_form(g: Geometry, lam: float, z: complex) -> complex:
    """Closed-form Stieltjes transform for the half-line measures.

    Square-root branch is fixed by sqrt((z-1)^2 - 4 lam^2) ~ (z-1) at
    infinity so that z * B(z) -> -1 (total mass one).
    """
    _validate_lambda(lam)
    if g.kind != "half_line":
        raise ValidationError("closed forms cover the half-line measures only")
    z = complex(z)
    mu = abs(lam)

    def _transform(zz: complex, lm: float, reflecting: bool) -> complex:
        sigma_m, sigma_p = 1.0 - 2.0 * lm, 1.0 + 2.0 * lm
        root = (zz - 1.0) * np.sqrt(1.0 - 4.0 * lm * lm / (zz - 1.0) ** 2)
        if reflecting:
            return -(zz - sigma_m - root) / (2.0 * lm * (zz - sigma_m))
        return -(-1.0 + zz - root) / (2.0 * lm * lm)

    if g.left_boundary == ABSORBING:
        return _transform(z, mu, reflecting=False)
    if lam > 0:
        return _transform(z, lam, reflecting=True)
    # Negative lam mirrors the reflecting measure about x = 1.
    return -_transform(2.0 - z, mu, reflecting=True)


def duran_density(t_rep: np.ndarray, g_block: np.ndarray, x: float) -> np.ndarray:
    """Matrix measure density for a homogeneous block chain at point x.

    Valid when the off-diagonal block is positive definite and the
    diagonal block Hermitian, with no commutativity assumption.  The
    construction clips negative branches, so the result is always
    positive semidefinite; it reduces to the eigenbasis construction when
    the blocks commute.
    """
    t_rep = np.asarray(t_rep, dtype=complex)
    g_block = np.asarray(g_block, dtype=complex)
    t_eig = hermitian_eig(t_rep)
    if t_eig.eigenvalues.min() <= 1e-12:
        raise ValidationError("off-diagonal block must be positive definite")
    if np.abs(g_block - g_block.conj().T).max() > 1e-10:
        raise ValidationError("diagonal block must be Hermitian")
    b = t_eig.basis
    t_inv_sqrt = b @ np.diag(1.0 / np.sqrt(t_eig.eigenvalues)) @ b.conj().T
    t_inv = b @ np.diag(1.0 / t_eig.eigenvalues) @ b.conj().T
    # Spectral variable x refers to -L; the diagonal block enters as
    # (x I + g_block).
    shifted = x * np.eye(t_rep.shape[0]) + g_block
    h = t_inv_sqrt @ shifted @ t_inv @ shifted @ t_inv_sqrt - 4.0 * np.eye(
        t_rep.shape[0]
    )
    h_eig = hermitian_eig(-(h + h.conj().T) / 2.0)
    d_plus = np.clip(h_eig.eigenvalues, 0.0, None)
    u = h_eig.basis
    core = u @ np.diag(np.sqrt(d_plus)) @ u.conj().T
    return (t_inv_sqrt @ core @ t_inv_sqrt) / (2.0 * np.pi)
