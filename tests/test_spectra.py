import math

import numpy as np
import pytest
import scipy.integrate

from ctqmc.channels import ValidationError, eigenbasis, superop_of
from ctqmc.generators import Geometry
from ctqmc.linalg import kron
from ctqmc.presets import pq_channel
from ctqmc.spectra import (
    duran_density,
    polynomials,
    scalar_measure,
    spectral_matrix_line,
    stieltjes,
    stieltjes_closed_form,
)

ABSORBING = Geometry.half_line("absorbing")
REFLECTING = Geometry.half_line("reflecting")
LAMBDAS = [0.5, 1.0 / 3.0, 0.25, -0.5, -1.0 / 3.0]


@pytest.mark.parametrize("g", [ABSORBING, REFLECTING])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_half_line_measure_mass_and_support(g, lam):
    m = scalar_measure(g, lam)
    lo, hi = m.support
    assert lo == pytest.approx(1.0 - 2.0 * abs(lam))
    assert hi == pytest.approx(1.0 + 2.0 * abs(lam))
    assert m.total_mass() == pytest.approx(1.0, abs=1e-10)
    assert m.density(lo - 0.1) == 0.0 and m.density(hi + 0.1) == 0.0


def test_absorbing_density_value():
    # at lam = 1/2 the density at x = 1 is 2/pi
    m = scalar_measure(ABSORBING, 0.5)
    assert m.density(1.0) == pytest.approx(2.0 / math.pi)


def test_measure_rejects_degenerate_lambda():
    with pytest.raises(ValidationError):
        scalar_measure(ABSORBING, 0.0)
    with pytest.raises(ValidationError):
        scalar_measure(ABSORBING, 0.6)
    with pytest.raises(ValidationError):
        scalar_measure(Geometry.line(), 0.3)


def test_segment_reflecting_two_sites():
    lam = 0.3
    m = scalar_measure(Geometry.segment(2), lam)
    assert np.allclose(np.sort(m.atoms), [1.0 - 2.0 * lam, 1.0])
    assert np.allclose(m.atom_weights, [0.5, 0.5])


@pytest.mark.parametrize("sites", [2, 7, 26, 51])
@pytest.mark.parametrize(
    "ends", [("reflecting", "reflecting"), ("absorbing", "absorbing"),
             ("reflecting", "absorbing")]
)
def test_segment_atom_weights_sum_to_one(sites, ends):
    m = scalar_measure(Geometry.segment(sites, *ends), 1.0 / 3.0)
    assert abs(m.atom_weights.sum() - 1.0) < 1e-14
    assert len(m.atoms) == sites


def test_segment_reflecting_closed_form_vs_eigensolve():
    # the printed atoms/jumps must agree with the generic eigensolve route
    from ctqmc.spectra import _segment_atoms_by_eigensolve

    g = Geometry.segment(6)
    for lam in (0.4, -0.25):
        m = scalar_measure(g, lam)
        atoms, weights = _segment_atoms_by_eigensolve(g, lam)
        assert np.abs(np.sort(m.atoms) - np.sort(atoms)).max() < 1e-10
        assert np.abs(
            m.atom_weights[np.argsort(m.atoms)] - weights[np.argsort(atoms)]
        ).max() < 1e-10


def test_segment_absorbing_abscissas():
    # eigensolve abscissas follow the N+2 cosine pattern that matches the
    # sin^2 weights
    sites = 5
    lam = 0.3
    m = scalar_measure(Geometry.segment(sites, "absorbing", "absorbing"), lam)
    k = np.arange(1, sites + 1, dtype=float)
    expected = np.sort(1.0 - 2.0 * lam * np.cos(k * np.pi / (sites + 1)))
    assert np.abs(np.sort(m.atoms) - expected).max() < 1e-12
    w_expected = 2.0 / (sites + 1) * np.sin(k * np.pi / (sites + 1)) ** 2
    order = np.argsort(1.0 - 2.0 * lam * np.cos(k * np.pi / (sites + 1)))
    assert np.abs(m.atom_weights - w_expected[order]).max() < 1e-12


@pytest.mark.parametrize("g", [ABSORBING, REFLECTING])
@pytest.mark.parametrize("lam", [0.5, 1.0 / 3.0, -0.4])
def test_polynomial_gram_identity(g, lam):
    m = scalar_measure(g, lam)
    deg = 21
    gram = np.array(
        [
            [
                m.integrate(
                    lambda x, a=a, b=b: polynomials(g, lam, a, x)
                    * polynomials(g, lam, b, x),
                    points=256,
                )
                for b in range(deg)
            ]
            for a in range(deg)
        ]
    )
    assert np.abs(gram - np.eye(deg)).max() < 1e-9


@pytest.mark.parametrize("g", [ABSORBING, REFLECTING, Geometry.line()])
def test_three_term_recurrence_residual(g):
    # -x Q_n = lam Q_{n-1} - Q_n + lam Q_{n+1} away from boundaries
    lam = 0.35
    xs = np.linspace(1.0 - 2.0 * lam + 1e-3, 1.0 + 2.0 * lam - 1e-3, 100)
    degrees = range(-5, 6) if g.kind == "line" else range(1, 8)
    for n in degrees:
        if g.kind == "line":
            for fam in (0, 1):
                qm = np.array([polynomials(g, lam, n - 1, x)[fam] for x in xs])
                q = np.array([polynomials(g, lam, n, x)[fam] for x in xs])
                qp = np.array([polynomials(g, lam, n + 1, x)[fam] for x in xs])
                assert np.abs(lam * qm + lam * qp - (1.0 - xs) * q).max() < 1e-11
        else:
            qm = polynomials(g, lam, n - 1, xs)
            q = polynomials(g, lam, n, xs)
            qp = polynomials(g, lam, n + 1, xs)
            assert np.abs(lam * qm + lam * qp - (1.0 - xs) * q).max() < 1e-11


def test_boundary_recurrence_row():
    lam = 0.35
    xs = np.linspace(1.0 - 2.0 * lam + 1e-3, 1.0 + 2.0 * lam - 1e-3, 50)
    # absorbing: -x Q_0 = -Q_0 + lam Q_1
    q0 = polynomials(ABSORBING, lam, 0, xs)
    q1 = polynomials(ABSORBING, lam, 1, xs)
    assert np.abs(-xs * q0 - (-q0 + lam * q1)).max() < 1e-11
    # reflecting: -x Q_0 = (lam - 1) Q_0 + lam Q_1
    v0 = polynomials(REFLECTING, lam, 0, xs)
    v1 = polynomials(REFLECTING, lam, 1, xs)
    assert np.abs(-xs * v0 - ((lam - 1.0) * v0 + lam * v1)).max() < 1e-11


def test_line_family_initial_conditions():
    g = Geometry.line()
    lam = 0.3
    x = 0.9
    f1_m1, f2_m1 = polynomials(g, lam, -1, x)
    f1_0, f2_0 = polynomials(g, lam, 0, x)
    assert f1_m1 == 0.0 and f1_0 == 1.0
    assert f2_m1 == 1.0 and f2_0 == 0.0


def test_spectral_matrix_line_properties():
    lam = 0.3
    sm = spectral_matrix_line(lam)
    d = sm.density(1.0)
    assert d[0, 1] == 0.0  # off-diagonal vanishes at x = 1
    for x in np.linspace(*sm.support, 20)[1:-1]:
        dd = sm.density(float(x))
        assert dd[0, 1] == pytest.approx(dd[1, 0])
        assert np.linalg.eigvalsh(dd).min() >= -1e-14


def test_line_two_family_orthonormality():
    lam = 1.0 / 3.0
    g = Geometry.line()
    sm = spectral_matrix_line(lam)
    xs, mats = sm.quadrature(200)
    idx = range(-10, 11)
    vals = {
        n: np.array([polynomials(g, lam, n, float(x)) for x in xs]) for n in idx
    }
    for n in idx:
        for m in idx:
            total = sum(
                float(vals[n][k] @ mats[k] @ vals[m][k]) for k in range(len(xs))
            )
            assert abs(total - (1.0 if n == m else 0.0)) < 1e-9


@pytest.mark.parametrize("g", [ABSORBING, REFLECTING])
@pytest.mark.parametrize("lam", [0.25, -0.25, 1.0 / 3.0, -1.0 / 3.0, 0.5])
def test_stieltjes_matches_closed_form(g, lam):
    m = scalar_measure(g, lam)
    for z in (3.0, -1.0, 1.0 + 1.0j, 0.3 - 2.0j):
        quad = stieltjes(m, z)
        closed = stieltjes_closed_form(g, lam, z)
        assert abs(quad - closed) < 1e-9


def test_stieltjes_total_mass_asymptotics():
    m = scalar_measure(ABSORBING, 0.25)
    z = 1e6
    assert abs(z * stieltjes(m, z) + 1.0) < 2e-6


def test_stieltjes_atomic_and_domain_errors():
    m = scalar_measure(Geometry.segment(3), 0.3)
    val = stieltjes(m, 5.0)
    assert val == pytest.approx(np.sum(m.atom_weights / (m.atoms - 5.0)))
    with pytest.raises(ValidationError):
        stieltjes(m, complex(m.atoms[0]))
    mac = scalar_measure(ABSORBING, 0.25)
    with pytest.raises(ValidationError):
        stieltjes(mac, 1.0)


def test_duran_commuting_matches_eigenbasis():
    s = superop_of(pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0))
    basis = eigenbasis(s)
    measures = [scalar_measure(ABSORBING, float(l)) for l in basis.lambdas]
    for x in np.linspace(0.05, 1.95, 50):
        dens = duran_density(s.rep, -np.eye(4), float(x))
        ref = (
            basis.basis
            @ np.diag([m.density(float(x)) for m in measures])
            @ basis.basis.conj().T
        )
        assert np.abs(dens - ref).max() < 1e-10


def noncommuting_blocks():
    a, b, c, d = 0.6, 0.5, 0.4, 0.4
    v1 = np.array([[a, 0.0], [0.0, b]], dtype=complex)
    v2 = np.array([[0.0, c], [d, 0.0]], dtype=complex)
    t_rep = (kron(v1, v1.conj()) + kron(v2, v2.conj())).real
    g2 = -(v1.conj().T @ v1 + v2.conj().T @ v2)
    g_block = (kron(g2, np.eye(2)) + kron(np.eye(2), g2.conj())).real
    return t_rep, g_block


def test_duran_noncommuting_psd():
    t_rep, g_block = noncommuting_blocks()
    assert np.abs(t_rep @ g_block - g_block @ t_rep).max() > 1e-3  # truly noncommuting
    for x in np.linspace(-0.5, 2.5, 50):
        w = duran_density(t_rep, g_block, float(x))
        assert np.linalg.eigvalsh((w + w.conj().T) / 2.0).min() >= -1e-12


def test_duran_noncommuting_moments():
    t_rep, g_block = noncommuting_blocks()
    n = 80
    jac = np.zeros((4 * n, 4 * n))
    for k in range(n):
        jac[4 * k:4 * k + 4, 4 * k:4 * k + 4] = -g_block
    for k in range(n - 1):
        jac[4 * k:4 * k + 4, 4 * (k + 1):4 * (k + 1) + 4] = t_rep
        jac[4 * (k + 1):4 * (k + 1) + 4, 4 * k:4 * k + 4] = t_rep
    # All 5 powers x 16 entries in one adaptive integration.
    moments = scipy.integrate.quad_vec(
        lambda x: np.multiply.outer(
            x ** np.arange(5), duran_density(t_rep, g_block, x).real
        ),
        -0.5,
        2.5,
        limit=2000,
        epsabs=1e-11,
        epsrel=1e-11,
    )[0]
    for power in range(5):
        corner = np.linalg.matrix_power(jac, power)[:4, :4]
        assert np.abs(moments[power] - corner).max() < 1e-8


def test_duran_precondition_errors():
    with pytest.raises(ValidationError):
        duran_density(np.diag([1.0, 1.0, 1.0, 0.0]), -np.eye(4), 1.0)
    with pytest.raises(ValidationError):
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        duran_density(np.eye(4), bad, 1.0)
