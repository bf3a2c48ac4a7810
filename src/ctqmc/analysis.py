"""Recurrence classification, absorption deficits and optimal initial states.

Recurrence of a site is divergence of the time integral of its return
probability.  The integral splits over the channel eigenbasis into scalar
pieces with exactly computable Laplace transforms, so classification
needs no numerical time integration.  The goal-state probability is
affine in the Bloch vector of the initial density, so the optimizer
returns the exact extremal states for every Hermitian channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import EigenChannelBasis, QubitDensity, ValidationError
from .generators import ABSORBING, Geometry
from .kernels import GoalState, KernelRequest, _probability_row, scalar_kernel, window_margin
from .linalg import vec
from .specfun import bessel_laplace
from .spectra import scalar_measure, polynomials

__all__ = [
    "RecurrenceVerdict",
    "OptimalStates",
    "recurrence_classify",
    "absorption_deficit",
    "optimal_initial_state",
]

RECURRENT = "recurrent"
TRANSIENT = "transient"

_WEIGHT_THRESHOLD = 1e-12


@dataclass(frozen=True)
class RecurrenceVerdict:
    """Outcome of the return-probability integral at one site."""

    site: int
    classification: str
    integral: float  # math.inf flags divergence
    contributing_lambdas: tuple  # (lambda_k, weight_k) with weight above threshold


def _laplace_signed(nu: int, lam: float) -> float:
    """Laplace transform at s=1 of e^{.} -> I_nu(2 lam .), signed lam."""
    val = bessel_laplace(nu, 2.0 * abs(lam), 1.0)
    if lam < 0 and nu % 2 and not math.isinf(val):
        return -val
    return val


def _scalar_return_integral(g: Geometry, lam: float, i: int) -> float:
    """Integral over all time of the scalar return kernel P_ii."""
    critical = abs(lam * lam - 0.25) <= _WEIGHT_THRESHOLD
    if g.kind == "segment":
        m = scalar_measure(g, lam)
        q = polynomials(g, lam, i, m.atoms)
        mass = m.atom_weights * q * q
        if np.any((np.abs(m.atoms) <= _WEIGHT_THRESHOLD) & (mass > _WEIGHT_THRESHOLD)):
            return math.inf
        keep = np.abs(m.atoms) > _WEIGHT_THRESHOLD
        return float(np.sum(mass[keep] / m.atoms[keep]))
    if g.kind == "line":
        return math.inf if critical else _laplace_signed(0, lam)
    if g.left_boundary == ABSORBING:
        if critical:
            # Limit of L(I_0) - L(I_{2i+2}) as the spectral gap closes.
            return float(2 * i + 2)
        return _laplace_signed(0, lam) - _laplace_signed(2 * i + 2, lam)
    if critical:
        return math.inf
    return _laplace_signed(0, lam) + _laplace_signed(2 * i + 1, lam)


def recurrence_classify(
    basis: EigenChannelBasis, g: Geometry, i: int, rho: QubitDensity
) -> RecurrenceVerdict:
    """Classify site i as recurrent or transient for initial density rho.

    The return probability decomposes as sum_k w_k P^{lambda_k}_ii(t)
    with w_k = (vec(I)^T b_k)(b_k^* vec(rho)); the weights sum to 1 and
    the verdict depends only on which eigencomponents carry weight.
    """
    vec_eye = vec(np.eye(2, dtype=complex))
    vec_rho = vec(rho.matrix)
    contributing = []
    total = 0.0
    divergent = False
    for k, lam in enumerate(basis.lambdas):
        b_k = basis.basis[:, k]
        w = complex(vec_eye @ b_k) * complex(b_k.conj() @ vec_rho)
        w = float(w.real)
        if abs(w) <= _WEIGHT_THRESHOLD:
            continue
        contributing.append((float(lam), w))
        piece = _scalar_return_integral(g, float(lam), i)
        if math.isinf(piece):
            divergent = True
        else:
            total += w * piece
    integral = math.inf if divergent else total
    return RecurrenceVerdict(
        site=i,
        classification=RECURRENT if divergent else TRANSIENT,
        integral=integral,
        contributing_lambdas=tuple(contributing),
    )


def absorption_deficit(g: Geometry, lam: float, j: int, t: float) -> float:
    """Probability mass absorbed at the boundary by time t.

    Defined as 1 minus the windowed sum of scalar kernels from site j;
    the window follows the Bessel-tail policy, so truncation error is far
    below the stated 1e-8 comparisons.
    """
    if g.left_boundary != ABSORBING and not (
        g.kind == "segment" and g.right_boundary == ABSORBING
    ):
        raise ValidationError("absorption deficit needs an absorbing boundary")
    if g.kind == "segment":
        hi = g.sites - 1
    else:
        hi = j + window_margin(t)
    total = sum(
        scalar_kernel(KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t))
        for i in range(0, hi + 1)
    )
    return 1.0 - total


@dataclass(frozen=True)
class OptimalStates:
    """KKT-optimal initial densities for a state-target probability."""

    rho_plus: QubitDensity
    rho_minus: QubitDensity
    value_plus: float
    value_minus: float
    coefficients: tuple  # (g_x, g_y, g_z, d) of f(r) = d + g.r
    degenerate: bool = False
    method: str = "closed_form"  # the only method; kept in the output schema


# Rows: vec(I/2), then the vec'd change of rho per unit step along the
# Bloch coordinates X, Y, Z (rho = [[1+X, Y+iZ], [Y-iZ, 1-X]]/2).
_BLOCH_FRAME = 0.5 * np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1j, -1j, 0]]
)


def optimal_initial_state(
    basis: EigenChannelBasis,
    g: Geometry,
    i: int,
    j: int,
    t: float,
    goal: GoalState,
) -> OptimalStates:
    """Initial densities extremizing the goal-state probability at (i, t).

    The probability is linear in the initial density, so in Bloch
    coordinates it is f(r) = d + g.r and the extrema over the ball are
    d +- |g|, attained at r = +-g/|g|.  d and g are read off one
    probability row, which holds for every channel with a Hermitian
    representation.  When |g| vanishes every density is optimal and the
    centre of the ball is returned with ``degenerate`` set.
    """
    row = _probability_row(basis, g, i, j, t, goal)
    d, gx, gy, gz = (float(v) for v in (_BLOCH_FRAME @ row).real)
    coefficients = (gx, gy, gz, d)
    norm = math.sqrt(gx * gx + gy * gy + gz * gz)
    if norm <= 1e-14:
        center = QubitDensity.from_bloch(0.0, 0.0, 0.0)
        return OptimalStates(
            rho_plus=center,
            rho_minus=center,
            value_plus=d,
            value_minus=d,
            coefficients=coefficients,
            degenerate=True,
        )
    direction = np.array([gx, gy, gz]) / norm
    return OptimalStates(
        rho_plus=QubitDensity.from_bloch(*direction),
        rho_minus=QubitDensity.from_bloch(*(-direction)),
        value_plus=d + norm,
        value_minus=d - norm,
        coefficients=coefficients,
    )
