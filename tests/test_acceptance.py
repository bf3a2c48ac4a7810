"""Acceptance gate: one test per criterion, each printing a PASS line."""

import math
import time

import numpy as np
import pytest
import scipy.integrate

from ctqmc.analysis import (
    absorption_deficit,
    optimal_initial_state,
    recurrence_classify,
)
from ctqmc.channels import QubitDensity, eigenbasis, superop_of
from ctqmc.generators import Geometry, check_symmetrizable
from ctqmc.kernels import (
    GoalState,
    KernelRequest,
    evolve_oracle,
    km_quadrature_oracle,
    scalar_kernel,
    site_probability,
    state_probability,
    window_margin,
)
from ctqmc.linalg import kron
from ctqmc.presets import (
    amplitude_damping,
    density_preset,
    depolarizing,
    identity_channel,
    pq_channel,
    segment_example,
)
from ctqmc.spectra import (
    duran_density,
    polynomials,
    scalar_measure,
    spectral_matrix_line,
)
from oracles import bloch_ball_samples

ABSORBING = Geometry.half_line("absorbing")
REFLECTING = Geometry.half_line("reflecting")
LINE = Geometry.line()
SEGMENTS_6 = [
    Geometry.segment(6, left, right)
    for left in ("absorbing", "reflecting")
    for right in ("absorbing", "reflecting")
]
GOAL = GoalState.from_psi([0.5, math.sqrt(3.0) / 2.0])


def test_criterion_01_closed_form_vs_matrix_exponential():
    ch = pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0)
    basis = eigenbasis(superop_of(ch))
    rho = density_preset("uniform_plus")
    start = time.time()
    worst = 0.0
    times = (0.5, 1.0, 2.0, 5.0, 10.0)
    _, blocks = evolve_oracle(ch, ABSORBING, rho, range(6), times, truncation=200)
    for at_t, t in zip(blocks, times):
        for j in range(6):
            for i in range(6):
                closed = site_probability(basis, ABSORBING, rho, j, i, t)
                oracle = float(np.trace(at_t[j, i]).real)
                worst = max(worst, abs(closed - oracle))
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed <= 30.0
    print(f"PASS criterion 1: closed form vs expm oracle, max err {worst:.2e}, "
          f"{elapsed:.1f} s")


def test_criterion_02_bessel_vs_quadrature():
    worst = 0.0
    lams = (0.5, -0.5, 1.0 / 3.0, -1.0 / 3.0, 0.25)
    times = (0.0, 0.5, 2.0, 10.0)
    for lam in lams:
        for g in (ABSORBING, REFLECTING):
            for i in range(11):
                for j in range(11):
                    for t in times:
                        req = KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t)
                        worst = max(
                            worst,
                            abs(scalar_kernel(req) - km_quadrature_oracle(req)),
                        )
        # line geometry, vectorized over the quadrature nodes
        sm = spectral_matrix_line(lam)
        xs, mats = sm.quadrature(200)
        fams = {
            n: np.array([polynomials(LINE, lam, n, float(x)) for x in xs])
            for n in range(-10, 11)
        }
        for i in range(-10, 11):
            for j in range(-10, 11):
                projected = np.einsum("ka,kab,kb->k", fams[i], mats, fams[j])
                for t in times:
                    oracle = float(np.sum(np.exp(-xs * t) * projected))
                    closed = scalar_kernel(
                        KernelRequest(geometry=LINE, lam=lam, i=i, j=j, t=t)
                    )
                    worst = max(worst, abs(closed - oracle))
    # segments: spectral sums vs the propagated chain, every end pair;
    # the kernel is symmetric, so i <= j covers every site pair, and one
    # lambda of each sign at two times keeps the per-call segment
    # eigensolve affordable
    for lam in (0.5, -1.0 / 3.0):
        for g in SEGMENTS_6:
            for i in range(6):
                for j in range(i, 6):
                    for t in (0.5, 10.0):
                        req = KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t)
                        worst = max(
                            worst,
                            abs(scalar_kernel(req) - km_quadrature_oracle(req)),
                        )
    assert worst <= 1e-10
    print(f"PASS criterion 2: closed forms vs quadrature, max err {worst:.2e}")


def test_criterion_03_recurrence_integrals():
    basis = eigenbasis(superop_of(depolarizing(1.0 / 3.0)))
    rho = density_preset("uniform_plus")
    for i in range(6):
        verdict = recurrence_classify(basis, ABSORBING, i, rho)
        assert verdict.classification == "transient"
        assert abs(verdict.integral - (2 * i + 2)) <= 1e-12
    for p in bloch_ball_samples(20, seed=4):
        rho_p = QubitDensity.from_bloch(*p)
        for g in (REFLECTING, LINE):
            assert recurrence_classify(basis, g, 1, rho_p).classification == "recurrent"
    from ctqmc.analysis import _scalar_return_integral

    lam, i = 1.0 / 3.0, 2
    root = math.sqrt(1.0 - 4.0 * lam * lam)
    closed = (1.0 / root) * (1.0 + ((1.0 - root) / (2.0 * lam)) ** (2 * i + 1))
    err = abs(_scalar_return_integral(REFLECTING, lam, i) - closed)
    assert err <= 1e-10
    print(f"PASS criterion 3: recurrence integrals (2i+2 exact; reflecting "
          f"closed form err {err:.2e})")


def test_criterion_04_figure1_endpoints():
    s = superop_of(depolarizing(1.0 / 3.0))
    basis = eigenbasis(s)
    opt = optimal_initial_state(basis, ABSORBING, 1, 1, 1.0, GOAL)
    cases = {
        "rho_plus": (opt.rho_plus, 1.0),
        "rho_minus": (opt.rho_minus, 0.0),
        "E11": (density_preset("E11"), 0.25),
        "E22": (density_preset("E22"), 0.75),
        "uniform_plus": (density_preset("uniform_plus"),
                         0.5 + math.sqrt(3.0) / 4.0),
    }
    worst = 0.0
    for rho, expected in cases.values():
        val = state_probability(basis, ABSORBING, rho, 1, 1, GOAL, 0.0)
        worst = max(worst, abs(val - expected))
    assert worst <= 1e-12
    print(f"PASS criterion 4: figure-1 endpoints, max err {worst:.2e}")


def test_criterion_05_figure3_ordering():
    for t in np.linspace(0.05, 10.0, 40):
        for i, j in ((0, 0), (1, 0), (2, 1)):
            r, l, a = (
                scalar_kernel(KernelRequest(geometry=g, lam=0.5, i=i, j=j,
                                            t=float(t)))
                for g in (REFLECTING, LINE, ABSORBING)
            )
            assert r > l > a
    print("PASS criterion 5: reflecting > line > absorbing kernels pointwise")


def test_criterion_06_measures_and_grams():
    worst_mass = 0.0
    for lam in (0.5, 1.0 / 3.0, 0.25):
        for g in (ABSORBING, REFLECTING,
                  Geometry.segment(6),
                  Geometry.segment(6, "absorbing", "absorbing")):
            m = scalar_measure(g, lam)
            worst_mass = max(worst_mass, abs(m.total_mass() - 1.0))
    assert worst_mass <= 1e-10
    worst_gram = 0.0
    deg = 21
    for g in (ABSORBING, REFLECTING):
        for lam in (0.5, 1.0 / 3.0, 0.25):
            m = scalar_measure(g, lam)
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
            worst_gram = max(worst_gram, np.abs(gram - np.eye(deg)).max())
    assert worst_gram <= 1e-9
    worst_atoms = 0.0
    for sites in (2, 11, 26, 51):
        for ends in (("reflecting", "reflecting"), ("absorbing", "absorbing")):
            m = scalar_measure(Geometry.segment(sites, *ends), 1.0 / 3.0)
            worst_atoms = max(worst_atoms, abs(m.atom_weights.sum() - 1.0))
    assert worst_atoms <= 1e-14
    print(f"PASS criterion 6: measures (mass err {worst_mass:.2e}, gram err "
          f"{worst_gram:.2e}, atom-sum err {worst_atoms:.2e})")


def test_criterion_07_segment_example():
    ch = segment_example()
    basis = eigenbasis(superop_of(ch))
    g = Geometry.segment(5)
    rho = density_preset("E11")
    worst = 0.0
    worst_lam1 = 0.0
    for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for j in range(5):
            _, blocks = evolve_oracle(ch, g, rho, [j], [t])
            blocks = blocks[0, 0]
            for i in range(5):
                closed = site_probability(basis, g, rho, j, i, t)
                worst = max(worst, abs(closed - float(np.trace(blocks[i]).real)))
                lam1_kernel = scalar_kernel(
                    KernelRequest(geometry=g, lam=0.5, i=i, j=j, t=t)
                )
                worst_lam1 = max(worst_lam1, abs(closed - lam1_kernel))
    assert worst <= 1e-10
    assert worst_lam1 <= 1e-10
    print(f"PASS criterion 7: segment example vs 20x20 expm, max err "
          f"{worst:.2e}; equals lam_1 kernel within {worst_lam1:.2e}")


def test_criterion_08_optimization():
    s = superop_of(pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0))
    basis = eigenbasis(s)
    opt = optimal_initial_state(basis, ABSORBING, 2, 1, 1.5, GOAL)
    best = max(
        state_probability(basis, ABSORBING, QubitDensity.from_bloch(*p), 1, 2,
                          GOAL, 1.5)
        for p in bloch_ball_samples(10000)
    )
    assert opt.value_plus >= best - 1e-9
    basis_dep = eigenbasis(superop_of(depolarizing(1.0 / 3.0)))
    ref_plus = ref_minus = None
    worst = 0.0
    for i in range(5):
        for j in range(5):
            for t in (0.5, 1.0, 2.0, 4.0, 8.0):
                o = optimal_initial_state(basis_dep, ABSORBING, i, j, t, GOAL)
                if ref_plus is None:
                    ref_plus = np.array(o.rho_plus.bloch)
                    ref_minus = np.array(o.rho_minus.bloch)
                worst = max(
                    worst,
                    np.abs(np.array(o.rho_plus.bloch) - ref_plus).max(),
                    np.abs(np.array(o.rho_minus.bloch) - ref_minus).max(),
                )
    assert worst <= 1e-12
    print(f"PASS criterion 8: KKT beats 1e4 samples "
          f"({opt.value_plus:.6f} >= {best:.6f}); depolarizing optimum "
          f"grid-independent within {worst:.2e}")


def test_criterion_09_duran():
    s = superop_of(pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0))
    basis = eigenbasis(s)
    measures = [scalar_measure(ABSORBING, float(l)) for l in basis.lambdas]
    worst_commuting = 0.0
    for x in np.linspace(0.05, 1.95, 50):
        dens = duran_density(s.rep, -np.eye(4), float(x))
        ref = (
            basis.basis
            @ np.diag([m.density(float(x)) for m in measures])
            @ basis.basis.conj().T
        )
        worst_commuting = max(worst_commuting, np.abs(dens - ref).max())
    assert worst_commuting <= 1e-10
    a, b, c, d = 0.6, 0.5, 0.4, 0.4
    v1 = np.array([[a, 0.0], [0.0, b]], dtype=complex)
    v2 = np.array([[0.0, c], [d, 0.0]], dtype=complex)
    t_rep = (kron(v1, v1.conj()) + kron(v2, v2.conj())).real
    g2 = -(v1.conj().T @ v1 + v2.conj().T @ v2)
    g_block = (kron(g2, np.eye(2)) + kron(np.eye(2), g2.conj())).real
    for x in np.linspace(-0.5, 2.5, 50):
        w = duran_density(t_rep, g_block, float(x))
        assert np.linalg.eigvalsh((w + w.conj().T) / 2.0).min() >= -1e-12
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
    worst_moment = 0.0
    for power in range(5):
        corner = np.linalg.matrix_power(jac, power)[:4, :4]
        worst_moment = max(worst_moment, np.abs(moments[power] - corner).max())
    assert worst_moment <= 1e-8
    print(f"PASS criterion 9: Duran commuting err {worst_commuting:.2e}; "
          f"non-commuting psd, moment err {worst_moment:.2e}")


def test_criterion_10_conservation_and_deficit():
    basis = eigenbasis(superop_of(depolarizing(1.0 / 3.0)))
    rho = density_preset("uniform_plus")
    worst = 0.0
    for g in (LINE, REFLECTING):
        for t in (0.5, 2.0, 8.0):
            w = window_margin(t)
            sites = range(-w, w + 1) if g.kind == "line" else range(0, w + 1)
            total = sum(site_probability(basis, g, rho, 0, i, t) for i in sites)
            worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-8
    prev = -1e-12
    for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        deficit = absorption_deficit(ABSORBING, 0.5, 0, t)
        assert deficit >= -1e-12
        assert deficit >= prev - 1e-12
        prev = deficit
    ch = identity_channel()
    worst_loss = 0.0
    for t in (1.0, 3.0):
        _, blocks = evolve_oracle(ch, ABSORBING, density_preset("E11"), [0], [t],
                                  truncation=120)
        loss = 1.0 - sum(float(np.trace(blk).real) for blk in blocks[0, 0])
        worst_loss = max(
            worst_loss, abs(absorption_deficit(ABSORBING, 0.5, 0, t) - loss)
        )
    assert worst_loss <= 1e-8
    print(f"PASS criterion 10: conservation err {worst:.2e}; deficit "
          f"monotone, oracle match {worst_loss:.2e}")


def test_criterion_11_symmetrizability():
    n_max = 10
    rep = superop_of(pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0)).rep
    res_h = check_symmetrizable(
        [rep] * n_max, [-np.eye(4)] * (n_max + 1), [rep] * n_max, n_max
    )
    assert res_h.verdict
    assert all(np.abs(np.asarray(r) - np.eye(4)).max() < 1e-12
               for r in res_h.r_matrices)
    lam = [1.0 + 0.1 * n for n in range(n_max + 1)]
    mu = [0.5 + 0.05 * n for n in range(1, n_max + 2)]
    res_bd = check_symmetrizable(
        [[[lam[n]]] for n in range(n_max)],
        [[[-(lam[n] + (mu[n - 1] if n > 0 else 0.0))]] for n in range(n_max + 1)],
        [[[mu[n]]] for n in range(n_max)],
        n_max,
    )
    assert res_bd.verdict
    rep_ad = superop_of(amplitude_damping(0.5)).rep
    res_ad = check_symmetrizable(
        [rep_ad] * n_max, [-np.eye(4)] * (n_max + 1), [rep_ad] * n_max, n_max
    )
    assert not res_ad.verdict
    print("PASS criterion 11: symmetrizability true/true/false "
          f"(amplitude damping fails: {res_ad.failure_reason})")
