"""Transition kernels: closed forms, their oracles, and QMC probabilities.

The scalar kernels are the classical Karlin-McGregor integrals
P_ij(t) = int e^{-xt} Q_i Q_j dpsi, which collapse to modified Bessel
expressions on the infinite geometries and to finite sums over the
closed-form modes of every segment (no eigensolve); the oracles recompute
them by quadrature or by the scalar chain's matrix exponential.  Site/state
probabilities combine the four scalar kernels through the channel eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    EigenChannelBasis,
    KrausChannel,
    QubitDensity,
    ValidationError,
)
from .generators import ABSORBING, Geometry, assemble_generator, scalar_jacobi_matrix
from .linalg import expm_apply, kron, vec
from .specfun import bessel_i
from .spectra import polynomials, scalar_measure, segment_modes, spectral_matrix_line

__all__ = [
    "KernelRequest",
    "GoalState",
    "scalar_kernel",
    "km_quadrature_oracle",
    "site_probability",
    "state_probability",
    "evolve_oracle",
    "window_margin",
]


@dataclass(frozen=True)
class KernelRequest:
    """One scalar kernel evaluation: geometry, parameter, sites and time."""

    geometry: Geometry
    lam: float
    i: int
    j: int
    t: float

    def __post_init__(self):
        if self.t < 0:
            raise ValidationError(f"time must be >= 0, got {self.t}")
        if abs(self.lam) > 0.5 or self.lam == 0.0:
            raise ValidationError(f"lambda must be nonzero with |lambda| <= 1/2")
        g = self.geometry
        for idx in (self.i, self.j):
            if g.kind == "half_line" and idx < 0:
                raise ValidationError(f"site {idx} outside the half-line")
            if g.kind == "segment" and not 0 <= idx < g.sites:
                raise ValidationError(
                    f"site {idx} outside the {g.sites}-site segment"
                )


@dataclass(frozen=True)
class GoalState:
    """Target pure state |psi> with its projector gamma."""

    psi: np.ndarray
    gamma: np.ndarray

    @classmethod
    def from_psi(cls, psi) -> "GoalState":
        psi = np.asarray(psi, dtype=complex).reshape(2)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"goal state norm is {norm:.6f}, not 1")
        return cls(psi=psi, gamma=np.outer(psi, psi.conj()))


def _bessel_i_signed(n: int, arg: float) -> float:
    """I_n extended to negative argument via I_n(-y) = (-1)^n I_n(y)."""
    if arg >= 0:
        return bessel_i(n, arg)
    sign = -1.0 if (abs(int(n)) % 2) else 1.0
    return sign * bessel_i(n, -arg)


def scalar_kernel(req: KernelRequest) -> float:
    """Closed-form transition kernel of one scalar chain."""
    g, lam, i, j, t = req.geometry, req.lam, req.i, req.j, req.t
    if g.kind == "segment":
        atoms, u = segment_modes(g, lam, (i, j))
        return float(np.sum(u[0] * u[1] * np.exp(-atoms * t)))
    arg = 2.0 * lam * t
    if g.kind == "line":
        return math.exp(-t) * _bessel_i_signed(i - j, arg)
    if g.left_boundary == ABSORBING:
        return math.exp(-t) * (
            _bessel_i_signed(i - j, arg) - _bessel_i_signed(i + j + 2, arg)
        )
    return math.exp(-t) * (
        _bessel_i_signed(i - j, arg) + _bessel_i_signed(i + j + 1, arg)
    )


def km_quadrature_oracle(req: KernelRequest) -> float:
    """Kernel by a path independent of :func:`scalar_kernel`.

    The spectral integral by 200-point Gauss-Chebyshev quadrature on the
    infinite geometries; on segments the (i, j) entry of e^{tJ} for the
    chain matrix J, by scaling and squaring, without the spectral measure.
    """
    g, lam, i, j, t = req.geometry, req.lam, req.i, req.j, req.t
    if g.kind == "segment":
        # One Taylor step of scaled norm < 1/2, then s squarings: O(log t).
        chain = scalar_jacobi_matrix(g, lam)
        s = max(0, math.frexp(2.0 * t * np.linalg.norm(chain, 1))[1])
        step = expm_apply(chain, t / 2.0**s, np.eye(g.sites))
        return float(np.linalg.matrix_power(step, 2**s)[i, j])
    if g.kind == "line":
        xs, mats = spectral_matrix_line(lam).quadrature(200)
        qi = np.array(polynomials(g, lam, i, xs))
        qj = np.array(polynomials(g, lam, j, xs))
        per_node = np.einsum("ak,kab,bk->k", qi, mats, qj)
        return float(np.sum(np.exp(-xs * t) * per_node))
    m = scalar_measure(g, lam)

    def integrand(x):
        return (
            np.exp(-x * t)
            * polynomials(g, lam, i, x)
            * polynomials(g, lam, j, x)
        )

    return m.integrate(integrand, points=200)


_VEC_EYE = vec(np.eye(2, dtype=complex))


def _probability_row(
    basis: EigenChannelBasis,
    g: Geometry,
    i: int,
    j: int,
    t: float,
    goal: GoalState | None = None,
) -> np.ndarray:
    """Row r with probability Re(r @ vec(rho)) for a walk started at (j, rho).

    r = e . proj . B . diag(K) . B*, where e = vec(I) takes the trace,
    proj projects on the goal state (the identity for the site
    probability), B is the channel eigenbasis and K holds the four scalar
    kernels from j to i at time t.
    """
    b = basis.basis
    diag = np.array(
        [
            scalar_kernel(KernelRequest(geometry=g, lam=float(l), i=i, j=j, t=t))
            for l in basis.lambdas
        ]
    )
    e = _VEC_EYE if goal is None else _VEC_EYE @ kron(goal.gamma, goal.gamma.conj())
    return ((e @ b) * diag) @ b.conj().T


def site_probability(
    basis: EigenChannelBasis,
    g: Geometry,
    rho: QubitDensity,
    j: int,
    i: int,
    t: float,
) -> float:
    """Probability of finding the walk at site i at time t, started at (j, rho)."""
    return float((_probability_row(basis, g, i, j, t) @ vec(rho.matrix)).real)


def state_probability(
    basis: EigenChannelBasis,
    g: Geometry,
    rho: QubitDensity,
    j: int,
    i: int,
    goal: GoalState,
    t: float,
) -> float:
    """Probability of the goal-state measurement succeeding at site i, time t."""
    return float((_probability_row(basis, g, i, j, t, goal) @ vec(rho.matrix)).real)


def window_margin(t: float) -> int:
    """Sites the walk can meaningfully reach beyond its start in time t."""
    return int(math.ceil(2.0 * t + 10.0 * math.sqrt(t) + 20.0))


def evolve_oracle(
    ch: KrausChannel,
    g: Geometry,
    rho: QubitDensity,
    starts,
    times,
    truncation: int = 50,
):
    """Matrix-exponential evolution of the truncated block generator.

    Each start site j in ``starts`` is one column of a single state,
    holding rho at site j at time 0.  The state steps through the
    nondecreasing ``times``, each time from the previous one, by
    :func:`expm_apply` on the block tridiagonal operator, which is never
    formed densely.  Returns (sites, blocks): the site indices of the
    window and the evolved 2x2 density blocks, an array indexed
    [time, start, site].  Raises when the times decrease or are negative
    and when the truncation window cannot contain the probability flow
    of a start site for horizon t; (t, j) pairs are checked t outer,
    j inner.
    """
    starts = [int(j) for j in starts]
    times = [float(t) for t in times]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValidationError("times must be nondecreasing")
    if times and times[0] < 0:
        raise ValidationError(f"time must be >= 0, got {times[0]}")
    op = assemble_generator(ch, g, truncation=truncation)
    lo, hi = op.window
    for t in times:
        margin = window_margin(t)
        for j in starts:
            if g.kind == "half_line" and j + margin > hi:
                raise ValidationError(
                    f"truncation {truncation} too small: site {j} with horizon "
                    f"t={t} needs a window through site {j + margin}"
                )
            if g.kind == "line" and (j + margin > hi or j - margin < lo):
                raise ValidationError(
                    f"truncation {truncation} too small: site {j} with horizon "
                    f"t={t} needs |index| up to {abs(j) + margin}"
                )
            if not lo <= j <= hi:
                raise ValidationError(f"start site {j} outside window [{lo}, {hi}]")
    for j in starts:  # the loop above checks them only when there are times
        if not lo <= j <= hi:
            raise ValidationError(f"start site {j} outside window [{lo}, {hi}]")
    state = np.zeros((op.n_sites, 4, len(starts)), dtype=complex)
    for col, j in enumerate(starts):
        state[j - lo, :, col] = vec(rho.matrix)
    blocks = np.empty((len(times), len(starts), op.n_sites, 2, 2), dtype=complex)
    now = 0.0
    for k, t in enumerate(times):
        state = expm_apply(op, t - now, state)
        now = t
        blocks[k] = state.transpose(2, 0, 1).reshape(len(starts), op.n_sites, 2, 2)
    return list(range(lo, hi + 1)), blocks
