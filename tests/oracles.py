"""Independent references for the optimizer tests.

``bloch_ball_samples`` gives the points an optimum must beat, and
``pq_optimum`` is the closed form for PQ channels, which reads the
eigenvalues off the P and Q blocks instead of the channel eigenbasis.
"""

import numpy as np

from ctqmc.channels import detect_pq
from ctqmc.kernels import KernelRequest, scalar_kernel


def bloch_ball_samples(count: int, seed: int = 20260825) -> np.ndarray:
    """Quasi-uniform sample of the closed Bloch ball (count x 3 array)."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / 3.0)
    return pts * radii[:, None]


def _pq_lambdas(parts):
    """The four eigenvalues in the fixed PQ order (trace, population,
    coherence-sum, coherence-difference)."""
    lam1 = float((parts.p_part[0, 0] + parts.p_part[0, 1]).real)
    lam2 = float((parts.p_part[0, 0] - parts.p_part[0, 1]).real)
    lam3 = float((parts.q_part[0, 0] + parts.q_part[0, 1]).real)
    lam4 = float((parts.q_part[0, 0] - parts.q_part[0, 1]).real)
    return lam1, lam2, lam3, lam4


def pq_optimum(s, g, i, j, t, goal):
    """(a, b, c, d) with goal probability d + (a, b, c).r for a real PQ channel.

    The extremal values are d +- sqrt(a^2 + b^2 + c^2).
    """
    parts = detect_pq(s)
    assert parts is not None and np.abs(np.asarray(s.rep).imag).max() <= 1e-12
    lam1, lam2, lam3, lam4 = _pq_lambdas(parts)

    def kernel(lam):
        return scalar_kernel(KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t))

    psi1, psi2 = goal.psi
    a = (abs(psi1) ** 2 - 0.5) * kernel(lam2)
    b = (np.conj(psi1) * psi2).real * kernel(lam3)
    c = (np.conj(psi1) * psi2).imag * kernel(lam4)
    d = 0.5 * kernel(lam1)
    return a, b, c, d

