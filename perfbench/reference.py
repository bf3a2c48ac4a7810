"""Independent references for the benchmark's correctness checks.

Nothing here imports ctqmc.  The infinite geometries use the integral
representation e^{-t} I_n(2 lam t) = (1/pi) int_0^pi e^{-t + 2 lam t cos u}
cos(n u) du, summed by the trapezoid rule (spectrally accurate for this
periodic integrand, and never overflowing), combined by the method of
images.  Finite segments exponentiate the whole block generator with
LAPACK's Hermitian eigensolver.  Channels are rebuilt from the paper's
formulas for their 4x4 representation.
"""

from __future__ import annotations

import math

import numpy as np

TOL_QUADRATURE = 1e-10  # infinite geometries, kernels and quadrature pairs
TOL_EXPM = 1e-8  # against a matrix-exponential evolution
TOL_ATTAINED = 1e-12  # an optimizer's state attains its reported value;
# on the five-site worked example this is stricter than its 1e-10 tolerance
EXAMPLE_SEARCH_GAP = 9.2e-5  # seed Bloch search vs the exact optimum


# Channels -----------------------------------------------------------------

def _pq_rep(p, q, r):
    rep = np.zeros((4, 4))
    rep[np.ix_((0, 3), (0, 3))] = np.array([[p, 1 - p], [1 - p, p]]) / 2.0
    rep[np.ix_((1, 2), (1, 2))] = np.array([[q, r], [r, q]]) / 2.0
    return rep.astype(complex)


def channel_rep(spec) -> np.ndarray:
    """4x4 representation of a preset channel spec from a config."""
    name = spec["preset"]
    if name == "depolarizing":
        s = float(spec["s"])
        return _pq_rep(1.0 - s / 2.0, 1.0 - s, 0.0)
    if name == "pq":
        return _pq_rep(float(spec["p"]), float(spec["q"]), float(spec["r"]))
    if name == "identity":
        return np.eye(4, dtype=complex) / 2.0
    if name == "segment_example":
        b = np.array([[1.0, 1.0], [1.0, 0.0]]) / math.sqrt(6.0)
        c = np.array([[0.0, -1.0], [-1.0, 1.0]]) / math.sqrt(6.0)
        return (np.kron(b, b) + np.kron(c, c)).astype(complex)
    raise ValueError(f"no reference for channel preset {name!r}")


def density_matrix(spec) -> np.ndarray:
    presets = {"E11": (1, 0, 0), "E22": (-1, 0, 0), "uniform_plus": (0, 1, 0),
               "maximally_mixed": (0, 0, 0)}
    x, y, z = spec["bloch"] if "bloch" in spec else presets[spec["preset"]]
    return bloch_matrix((x, y, z))


def bloch_matrix(r) -> np.ndarray:
    x, y, z = (float(v) for v in r)
    return 0.5 * np.array([[1 + x, y + 1j * z], [y - 1j * z, 1 - x]])


def goal_vector(spec) -> np.ndarray:
    return np.array([complex(a, b) for a, b in spec["psi"]])


# Scalar kernels -------------------------------------------------------------

def scaled_bessel(n, lam, t):
    """e^{-t} I_n(2 lam t) for integer n (array), signed lam and t >= 0."""
    n = np.abs(np.atleast_1d(np.asarray(n, dtype=float)))
    x = abs(2.0 * lam * t)
    m = int(64 + 2 * math.ceil(x + n.max() + 10.0 * math.sqrt(x)))
    u = np.linspace(0.0, math.pi, m + 1)
    f = np.exp(-t + 2.0 * lam * t * np.cos(u))[None, :] * np.cos(np.outer(n, u))
    return (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1])) / m


def kernel_infinite(geometry, lam, i, j, t) -> float:
    """Scalar kernel on the line or a half-line by the method of images."""
    if geometry["kind"] == "line":
        return float(scaled_bessel(i - j, lam, t)[0])
    if geometry["left_boundary"] == "absorbing":
        a, b = scaled_bessel([i - j, i + j + 2], lam, t)
        return float(a - b)
    a, b = scaled_bessel([i - j, i + j + 1], lam, t)
    return float(a + b)


def _chain_matrix(geometry, lam):
    n = int(geometry["sites"])
    m = np.diag(np.full(n, -1.0)) + lam * (np.eye(n, k=1) + np.eye(n, k=-1))
    if geometry["left_boundary"] == "reflecting":
        m[0, 0] += lam
    if geometry["right_boundary"] == "reflecting":
        m[-1, -1] += lam
    return m


def kernel_segment(geometry, lam, i, j, t) -> float:
    w, v = np.linalg.eigh(_chain_matrix(geometry, lam))
    return float(v[i] @ (np.exp(w * t) * v[j]))


def scalar_kernel(geometry, lam, i, j, t) -> float:
    if geometry["kind"] == "segment":
        return kernel_segment(geometry, lam, i, j, t)
    return kernel_infinite(geometry, lam, i, j, t)


def segment_atoms(geometry, lam):
    """Atoms and weights of a segment's measure seen from site 0."""
    w, v = np.linalg.eigh(_chain_matrix(geometry, lam))
    order = np.argsort(-w)
    return -w[order], v[0, order] ** 2


# Walk probabilities ---------------------------------------------------------

class Walk:
    """Density blocks rho_i(t) of the walk started at (j, rho).

    Segments exponentiate the exact block generator; infinite geometries
    combine scalar kernels in the eigenbasis of the representation.
    """

    def __init__(self, channel_spec, geometry, rho, j):
        self.rep = channel_rep(channel_spec)
        self.geometry = geometry
        self.rho = np.asarray(rho, dtype=complex)
        self.j = j
        if geometry["kind"] == "segment":
            n = int(geometry["sites"])
            gen = np.kron(np.eye(n), -np.eye(4)) + np.kron(
                np.eye(n, k=1) + np.eye(n, k=-1), self.rep)
            if geometry["left_boundary"] == "reflecting":
                gen[:4, :4] += self.rep
            if geometry["right_boundary"] == "reflecting":
                gen[-4:, -4:] += self.rep
            self._w, self._v = np.linalg.eigh(gen)
            start = np.zeros(4 * n, dtype=complex)
            start[4 * j:4 * j + 4] = self.rho.reshape(-1)
            self._coef = self._v.conj().T @ start
        else:
            self._lams, self._basis = np.linalg.eigh(self.rep)
            self._coef = self._basis.conj().T @ self.rho.reshape(-1)

    def block(self, i, t) -> np.ndarray:
        if self.geometry["kind"] == "segment":
            v = self._v[4 * i:4 * i + 4] @ (np.exp(self._w * t) * self._coef)
        else:
            k = [kernel_infinite(self.geometry, float(lam), i, self.j, t)
                 for lam in self._lams]
            v = self._basis @ (np.array(k) * self._coef)
        return v.reshape(2, 2)

    def site(self, i, t) -> float:
        return float(np.trace(self.block(i, t)).real)

    def state(self, i, t, psi) -> float:
        return float((psi.conj() @ self.block(i, t) @ psi).real)


def clamp(value):
    return min(1.0, max(0.0, value))


def affine_objective(channel_spec, geometry, i, j, t, psi):
    """The goal probability as an affine function of the Bloch vector.

    f(r) = d + g.r, so its extrema over the ball are d +- |g|, attained at
    +-g/|g|.  Returns (f, d, g).
    """
    def f(r):
        return Walk(channel_spec, geometry, bloch_matrix(r), j).state(i, t, psi)

    d = f((0.0, 0.0, 0.0))
    return f, d, np.array([f(e) - d for e in np.eye(3)])


# Measures, recurrence, deficits and Duran densities -------------------------

def measure_density(geometry, lam, x) -> float:
    lo, hi = 1.0 - 2.0 * abs(lam), 1.0 + 2.0 * abs(lam)
    if geometry["left_boundary"] == "absorbing":
        return math.sqrt((x - lo) * (hi - x)) / (2.0 * math.pi * lam * lam)
    ratio = (hi - x) / (x - lo) if lam > 0 else (x - lo) / (hi - x)
    return math.sqrt(ratio) / (2.0 * math.pi * abs(lam))


def line_matrix_density(lam, x) -> np.ndarray:
    lo, hi = 1.0 - 2.0 * abs(lam), 1.0 + 2.0 * abs(lam)
    u = (1.0 - x) / (2.0 * lam)
    return np.array([[1.0, u], [u, 1.0]]) / (math.pi * math.sqrt((x - lo) * (hi - x)))


def _laplace(nu, lam):
    """int_0^inf e^{-t} I_nu(2 lam t) dt for |lam| < 1/2."""
    root = math.sqrt(1.0 - 4.0 * lam * lam)
    val = ((1.0 - root) / (2.0 * abs(lam))) ** nu / root
    return -val if lam < 0 and nu % 2 else val


def return_integral(geometry, lam, i) -> float:
    """Time integral of the scalar return kernel P_ii on an infinite geometry."""
    critical = abs(abs(lam) - 0.5) < 1e-12
    if geometry["kind"] == "line":
        return math.inf if critical else _laplace(0, lam)
    if geometry["left_boundary"] == "absorbing":
        return 2.0 * i + 2.0 if critical else _laplace(0, lam) - _laplace(2 * i + 2, lam)
    return math.inf if critical else _laplace(0, lam) + _laplace(2 * i + 1, lam)


def recurrence(channel_spec, geometry, i, rho):
    """(classification, integral) of site i for initial density rho."""
    lams, basis = np.linalg.eigh(channel_rep(channel_spec))
    weights = {}
    for k, lam in enumerate(lams):
        w = (np.eye(2).reshape(-1) @ basis[:, k]) * (basis[:, k].conj() @ rho.reshape(-1))
        key = round(float(lam), 12)
        weights[key] = weights.get(key, 0.0) + float(w.real)
    total, divergent = 0.0, False
    for lam, w in weights.items():
        if abs(w) <= 1e-12:
            continue
        piece = return_integral(geometry, lam, i)
        if math.isinf(piece):
            divergent = True
        else:
            total += w * piece
    if divergent:
        return "recurrent", math.inf
    return "transient", total


def absorption_deficit(geometry, lam, j, t) -> float:
    """Mass absorbed by time t from site j.

    On the absorbing half-line the sum over i of I_{i-j} - I_{i+j+2}
    telescopes to the 2j + 2 orders -j .. j + 1.  On a segment it is one
    minus the row sum of the exact chain exponential.
    """
    if geometry["kind"] == "segment":
        w, v = np.linalg.eigh(_chain_matrix(geometry, lam))
        return float(1.0 - np.sum(v @ (np.exp(w * t) * v[j])))
    return float(1.0 - scaled_bessel(np.arange(-j, j + 2), lam, t).sum())


def duran_commuting(rep, x) -> np.ndarray:
    """Duran density for T = rep, G = -I, from the four absorbing densities."""
    lams, basis = np.linalg.eigh(rep)
    lo = 1.0 - 2.0 * np.abs(lams)
    hi = 1.0 + 2.0 * np.abs(lams)
    inside = (x > lo) & (x < hi)
    dens = np.where(inside, np.sqrt(np.clip((x - lo) * (hi - x), 0.0, None)), 0.0)
    dens = dens / (2.0 * math.pi * lams * lams)
    return basis @ np.diag(dens) @ basis.conj().T


def noncommuting_blocks(abcd):
    a, b, c, d = abcd
    v1 = np.array([[a, 0.0], [0.0, b]])
    v2 = np.array([[0.0, c], [d, 0.0]])
    t_rep = np.kron(v1, v1) + np.kron(v2, v2)
    g2 = -(v1.T @ v1 + v2.T @ v2)
    g_block = np.kron(g2, np.eye(2)) + np.kron(np.eye(2), g2)
    return t_rep, g_block


def duran_density(t_rep, g_block, x) -> np.ndarray:
    """Duran's matrix density evaluated with LAPACK eigensolves."""
    w, b = np.linalg.eigh(t_rep)
    t_inv_sqrt = b @ np.diag(w ** -0.5) @ b.conj().T
    t_inv = b @ np.diag(1.0 / w) @ b.conj().T
    shifted = x * np.eye(len(w)) + g_block
    h = t_inv_sqrt @ shifted @ t_inv @ shifted @ t_inv_sqrt - 4.0 * np.eye(len(w))
    e, u = np.linalg.eigh(-(h + h.conj().T) / 2.0)
    core = u @ np.diag(np.sqrt(np.clip(e, 0.0, None))) @ u.conj().T
    return t_inv_sqrt @ core @ t_inv_sqrt / (2.0 * math.pi)
