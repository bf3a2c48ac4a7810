"""Chebychev polynomials, modified Bessel functions and Gauss-Chebyshev rules.

All evaluation is double precision.  The modified Bessel function of the
first kind is computed by power series for small arguments and by a
normalized downward (Miller) recurrence for large ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChebKind",
    "QuadratureRule",
    "cheb_eval",
    "cheb_zeros",
    "bessel_i",
    "bessel_laplace",
    "gauss_chebyshev",
]


class ChebKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    THIRD = "third"


_P1 = {
    ChebKind.FIRST: lambda x: x,
    ChebKind.SECOND: lambda x: 2.0 * x,
    ChebKind.THIRD: lambda x: 2.0 * x - 1.0,
}


def cheb_eval(kind: ChebKind, n: int, x):
    """Evaluate T_n, U_n or V_n at x via the shared three-term recurrence.

    All three families satisfy 2x P_n = P_{n+1} + P_{n-1}; they differ only
    in P_1 (x, 2x and 2x-1 respectively).  Works for scalar or array x.
    """
    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = _P1[kind](x)
    for _ in range(n - 1):
        p, p_prev = 2.0 * x * p - p_prev, p
    return p if p.ndim else float(p)


def cheb_zeros(n: int, kind: ChebKind = ChebKind.SECOND) -> np.ndarray:
    """Zeros of the degree-n polynomial of the given kind, ascending."""
    if n < 1:
        return np.array([])
    k = np.arange(1, n + 1, dtype=float)
    if kind is ChebKind.FIRST:
        nodes = np.cos((2.0 * k - 1.0) * np.pi / (2.0 * n))
    elif kind is ChebKind.SECOND:
        nodes = np.cos(k * np.pi / (n + 1.0))
    else:
        nodes = np.cos((2.0 * k - 1.0) * np.pi / (2.0 * n + 1.0))
    return np.sort(nodes)


def _bessel_i_series(n: int, x: float) -> float:
    # All terms positive: no cancellation; tail below 1e-16 relative.
    half = x / 2.0
    term = 1.0
    for m in range(1, n + 1):
        term *= half / m
    total = term
    m = 1
    while True:
        term *= half * half / (m * (m + n))
        total += term
        if term <= 1e-17 * total:
            return total
        m += 1


def _bessel_i_miller(n: int, x: float) -> float:
    # Downward recurrence I_{k-1} = I_{k+1} + (2k/x) I_k, normalized by
    # I_0 + 2 sum_{k>=1} I_k = e^x.
    start = int(max(n, 1.2 * x) + 60)
    f = np.zeros(start + 2)
    f[start] = 1e-300
    for k in range(start, 0, -1):
        f[k - 1] = f[k + 1] + (2.0 * k / x) * f[k]
        if f[k - 1] > 1e250:
            f *= 1e-250
    norm = f[0] + 2.0 * np.sum(f[1:])
    return float(f[n] * math.exp(x) / norm)


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function of the first kind I_n(x), integer order.

    Requires x >= 0; the symmetry I_{-n} = I_n is applied exactly.
    """
    if x < 0:
        raise ValueError(f"bessel_i requires x >= 0, got {x}")
    n = abs(int(n))
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x <= 20.0:
        return _bessel_i_series(n, x)
    return _bessel_i_miller(n, x)


def bessel_laplace(nu: int, alpha: float, s: float) -> float:
    """Laplace transform integral_0^inf e^{-s x} I_nu(alpha x) dx.

    Returns math.inf when the integral diverges (s <= |alpha|).
    """
    if nu < 0:
        raise ValueError(f"bessel_laplace requires nu >= 0, got {nu}")
    if alpha == 0.0:
        if s <= 0.0:
            return math.inf
        return 1.0 / s if nu == 0 else 0.0
    if s <= abs(alpha):
        return math.inf
    root = math.sqrt(s * s - alpha * alpha)
    return ((s - root) / alpha) ** nu / root


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for one of the three Chebychev weights on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: ChebKind

    def integrate(self, f):
        total = np.sum(self.weights * f(self.nodes))
        return complex(total) if np.iscomplexobj(total) else float(total)


def gauss_chebyshev(kind: ChebKind, m: int) -> QuadratureRule:
    """m-point Gauss rule, exact for polynomials of degree <= 2m-1.

    Weights functions: 1/sqrt(1-u^2) (first), sqrt(1-u^2) (second) and
    sqrt((1+u)/(1-u)) (third).  Nodes and weights are closed-form.
    """
    if m < 1:
        raise ValueError(f"quadrature needs m >= 1, got {m}")
    k = np.arange(1, m + 1, dtype=float)
    if kind is ChebKind.FIRST:
        nodes = np.cos((2.0 * k - 1.0) * np.pi / (2.0 * m))
        weights = np.full(m, np.pi / m)
    elif kind is ChebKind.SECOND:
        theta = k * np.pi / (m + 1.0)
        nodes = np.cos(theta)
        weights = np.pi / (m + 1.0) * np.sin(theta) ** 2
    else:
        theta = (2.0 * k - 1.0) * np.pi / (2.0 * m + 1.0)
        nodes = np.cos(theta)
        weights = 2.0 * np.pi / (2.0 * m + 1.0) * (1.0 + np.cos(theta))
    order = np.argsort(nodes)
    return QuadratureRule(nodes=nodes[order], weights=weights[order], kind=kind)
