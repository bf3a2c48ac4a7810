"""Independent references for the library's tests.

``bloch_ball_samples`` gives the points an optimum must beat, and
``pq_optimum`` is the closed form for PQ channels, which reads the
eigenvalues off the P and Q blocks instead of the channel eigenbasis.
``bessel_i_quadrature`` checks ``bessel_i``, ``lindblad_action``
checks ``lindblad_decompose`` and ``segment_atoms_by_eigensolve`` checks
the closed-form segment modes.
"""

import numpy as np

from ctqmc.channels import LindbladDecomposition, detect_pq
from ctqmc.generators import scalar_jacobi_matrix
from ctqmc.kernels import KernelRequest, scalar_kernel
from ctqmc.linalg import hermitian_eig


def bloch_ball_samples(count: int, seed: int = 20260825) -> np.ndarray:
    """Quasi-uniform sample of the closed Bloch ball (count x 3 array)."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / 3.0)
    return pts * radii[:, None]


def _pq_lambdas(rep):
    """The four eigenvalues in the fixed PQ order (trace, population,
    coherence-sum, coherence-difference), read off the P block (entries
    0 and 3) and the Q block (entries 1 and 2) of the representation."""
    lam1 = float((rep[0, 0] + rep[0, 3]).real)
    lam2 = float((rep[0, 0] - rep[0, 3]).real)
    lam3 = float((rep[1, 1] + rep[1, 2]).real)
    lam4 = float((rep[1, 1] - rep[1, 2]).real)
    return lam1, lam2, lam3, lam4


def pq_optimum(s, g, i, j, t, goal):
    """(a, b, c, d) with goal probability d + (a, b, c).r for a real PQ channel.

    The extremal values are d +- sqrt(a^2 + b^2 + c^2).
    """
    assert detect_pq(s) and np.abs(np.asarray(s.rep).imag).max() <= 1e-12
    lam1, lam2, lam3, lam4 = _pq_lambdas(s.rep)

    def kernel(lam):
        return scalar_kernel(KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t))

    psi1, psi2 = goal.psi
    a = (abs(psi1) ** 2 - 0.5) * kernel(lam2)
    b = (np.conj(psi1) * psi2).real * kernel(lam3)
    c = (np.conj(psi1) * psi2).imag * kernel(lam4)
    d = 0.5 * kernel(lam1)
    return a, b, c, d


def bessel_i_quadrature(n: int, x: float, points: int = 512) -> float:
    """I_n(x) from (1/pi) * integral_0^pi e^{x cos t} cos(n t) dt.

    Trapezoidal quadrature: the integrand extends to a smooth periodic
    function, so the rule converges spectrally.  This is the independent
    oracle for :func:`bessel_i`.
    """
    if x < 0:
        raise ValueError(f"bessel_i_quadrature requires x >= 0, got {x}")
    n = abs(int(n))
    theta = np.linspace(0.0, np.pi, points + 1)
    f = np.exp(x * np.cos(theta)) * np.cos(n * theta)
    h = np.pi / points
    return float((np.sum(f) - 0.5 * (f[0] + f[-1])) * h / np.pi)


def lindblad_action(decomp: LindbladDecomposition, rho: np.ndarray) -> np.ndarray:
    """Evaluate i[rho, H] + psi(rho) - {psi*(I), rho}/2 for testing."""
    rho = np.asarray(rho, dtype=complex)
    h = decomp.hamiltonian
    psi_rho = sum(a @ rho @ a.conj().T for a in decomp.dissipator_kraus)
    psi_adj_eye = sum(a.conj().T @ a for a in decomp.dissipator_kraus)
    return (
        1j * (rho @ h - h @ rho)
        + psi_rho
        - 0.5 * (psi_adj_eye @ rho + rho @ psi_adj_eye)
    )


def segment_atoms_by_eigensolve(g, lam):
    """Atoms and jumps of a finite chain from its tridiagonal eigensolve.

    The measure of the chain at site 0 places weight |v_k[0]|^2 at
    x_k = -mu_k for each eigenpair (mu_k, v_k) of the chain matrix.
    """
    m = scalar_jacobi_matrix(g, lam)
    decomp = hermitian_eig(m)
    atoms = -decomp.eigenvalues
    weights = np.abs(decomp.basis[0, :]) ** 2
    order = np.argsort(atoms)
    return atoms[order], weights[order]
