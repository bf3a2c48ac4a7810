import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from ctqmc.specfun import (
    ChebKind,
    bessel_i,
    bessel_laplace,
    cheb_eval,
    gauss_chebyshev,
)
from oracles import bessel_i_quadrature


@pytest.mark.parametrize("kind", list(ChebKind))
def test_cheb_recurrence_and_base_cases(kind):
    xs = np.linspace(-1.0, 1.0, 41)
    assert np.allclose(cheb_eval(kind, 0, xs), 1.0)
    for n in range(1, 15):
        lhs = 2.0 * xs * cheb_eval(kind, n, xs)
        rhs = cheb_eval(kind, n + 1, xs) + cheb_eval(kind, n - 1, xs)
        assert np.abs(lhs - rhs).max() < 1e-11


def test_cheb_known_values():
    # T_n(cos a) = cos(na); U_n(cos a) = sin((n+1)a)/sin a
    a = 0.7
    assert cheb_eval(ChebKind.FIRST, 5, math.cos(a)) == pytest.approx(math.cos(5 * a))
    assert cheb_eval(ChebKind.SECOND, 5, math.cos(a)) == pytest.approx(
        math.sin(6 * a) / math.sin(a)
    )
    # V_n = U_n - U_{n-1}
    assert cheb_eval(ChebKind.THIRD, 4, 0.3) == pytest.approx(
        cheb_eval(ChebKind.SECOND, 4, 0.3) - cheb_eval(ChebKind.SECOND, 3, 0.3)
    )


@pytest.mark.parametrize("x", [0.0, 0.1, 1.0, 5.0, 19.9, 20.1, 50.0, 200.0])
def test_bessel_i_vs_scipy(x):
    for n in range(0, 15):
        ref = scipy.special.iv(n, x)
        val = bessel_i(n, x)
        assert val == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_bessel_i_vs_quadrature_oracle():
    for n in (0, 1, 3, 8):
        for x in (0.5, 4.0, 12.0):
            assert bessel_i(n, x) == pytest.approx(
                bessel_i_quadrature(n, x), rel=1e-12
            )


def test_bessel_i_symmetry_and_domain():
    assert bessel_i(-3, 2.0) == bessel_i(3, 2.0)
    with pytest.raises(ValueError):
        bessel_i(2, -1.0)


def test_bessel_laplace_vs_numeric():
    for nu in (0, 1, 2, 5):
        for alpha, s in ((0.6, 1.0), (1.0, 1.2), (0.2, 0.5)):
            ref, _ = scipy.integrate.quad(
                lambda t: math.exp(-s * t) * scipy.special.iv(nu, alpha * t),
                0.0,
                80.0 / (s - alpha),
                limit=400,
            )
            assert bessel_laplace(nu, alpha, s) == pytest.approx(ref, rel=1e-9)


def test_bessel_laplace_divergence_flag():
    assert math.isinf(bessel_laplace(0, 1.0, 1.0))
    assert math.isinf(bessel_laplace(2, 1.0, 0.5))
    assert bessel_laplace(0, 0.0, 2.0) == pytest.approx(0.5)
    assert bessel_laplace(3, 0.0, 2.0) == 0.0


@pytest.mark.parametrize("kind", list(ChebKind))
def test_gauss_chebyshev_polynomial_exactness(kind):
    m = 8
    rule = gauss_chebyshev(kind, m)
    fine = gauss_chebyshev(kind, 200)
    for k in range(2 * m):
        exact = fine.integrate(lambda u: u ** k)
        assert rule.integrate(lambda u: u ** k) == pytest.approx(exact, abs=1e-13)


def test_gauss_chebyshev_total_weights():
    # total weight equals the mass of each Chebychev weight function
    assert gauss_chebyshev(ChebKind.FIRST, 20).weights.sum() == pytest.approx(np.pi)
    assert gauss_chebyshev(ChebKind.SECOND, 20).weights.sum() == pytest.approx(
        np.pi / 2.0
    )
    assert gauss_chebyshev(ChebKind.THIRD, 20).weights.sum() == pytest.approx(np.pi)
