import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from ctqmc.channels import (
    KrausChannel,
    QubitDensity,
    ValidationError,
    eigenbasis,
    superop_of,
)
from ctqmc.generators import Geometry, assemble_generator
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
from ctqmc.presets import (
    density_preset,
    depolarizing,
    identity_channel,
    pq_channel,
    segment_example,
)

ABSORBING = Geometry.half_line("absorbing")
REFLECTING = Geometry.half_line("reflecting")
LINE = Geometry.line()
SEGMENTS_6 = [
    Geometry.segment(6, left, right)
    for left in ("absorbing", "reflecting")
    for right in ("absorbing", "reflecting")
]
GOAL = GoalState.from_psi([0.5, math.sqrt(3.0) / 2.0])


def test_request_validation():
    with pytest.raises(ValidationError):
        KernelRequest(geometry=ABSORBING, lam=0.3, i=0, j=0, t=-1.0)
    with pytest.raises(ValidationError):
        KernelRequest(geometry=ABSORBING, lam=0.3, i=-1, j=0, t=1.0)
    with pytest.raises(ValidationError):
        KernelRequest(geometry=Geometry.segment(3), lam=0.3, i=3, j=0, t=1.0)
    with pytest.raises(ValidationError):
        KernelRequest(geometry=LINE, lam=0.7, i=0, j=0, t=1.0)


def test_goal_state_validation():
    with pytest.raises(ValidationError):
        GoalState.from_psi([1.0, 1.0])
    g = GoalState.from_psi([1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0)])
    assert np.abs(g.gamma @ g.gamma - g.gamma).max() < 1e-12


@pytest.mark.parametrize(
    "g", [ABSORBING, REFLECTING, LINE, Geometry.segment(4)]
)
def test_kernel_at_time_zero_is_delta(g):
    for i in (0, 2):
        for j in (0, 2):
            val = scalar_kernel(KernelRequest(geometry=g, lam=0.3, i=i, j=j, t=0.0))
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


def test_absorbing_kernel_bessel_value():
    val = scalar_kernel(KernelRequest(geometry=ABSORBING, lam=0.5, i=0, j=0, t=1.0))
    ref = math.exp(-1.0) * (scipy.special.iv(0, 1.0) - scipy.special.iv(2, 1.0))
    assert val == pytest.approx(ref, abs=1e-13)


def test_reflecting_kernel_bessel_value():
    lam, t = 0.4, 2.5
    val = scalar_kernel(KernelRequest(geometry=REFLECTING, lam=lam, i=0, j=0, t=t))
    ref = math.exp(-t) * (
        scipy.special.iv(0, 2 * lam * t) + scipy.special.iv(1, 2 * lam * t)
    )
    assert val == pytest.approx(ref, abs=1e-13)


def test_segment_two_site_closed_form():
    lam, t = 0.35, 1.7
    val = scalar_kernel(
        KernelRequest(geometry=Geometry.segment(2), lam=lam, i=0, j=0, t=t)
    )
    assert val == pytest.approx(
        0.5 * (math.exp(-(1.0 - 2.0 * lam) * t) + math.exp(-t)), abs=1e-13
    )


@pytest.mark.parametrize("g", [ABSORBING, REFLECTING, LINE] + SEGMENTS_6)
@pytest.mark.parametrize("lam", [0.5, -0.5, 1.0 / 3.0, -1.0 / 3.0, 0.25])
def test_kernel_matches_quadrature_oracle(g, lam):
    for i, j in ((0, 0), (1, 4), (7, 2), (10, 10)):
        if g.kind == "segment":  # the last site stands in for the far ones
            i, j = min(i, g.sites - 1), min(j, g.sites - 1)
        for t in (0.0, 0.7, 3.0, 10.0):
            req = KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t)
            assert abs(scalar_kernel(req) - km_quadrature_oracle(req)) < 1e-10


def test_segment_oracle_needs_no_spectral_measure(monkeypatch):
    # The segment oracle must not share the closed form's measure or its
    # modes, nor an eigensolve, or comparing the two would check nothing.
    reqs = [
        KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t)
        for g in SEGMENTS_6
        for lam in (0.5, -1.0 / 3.0)
        for i, j in ((0, 0), (0, 5), (2, 3), (5, 5))
        for t in (0.7, 5.0)
    ]
    closed = [scalar_kernel(req) for req in reqs]

    def unavailable(*args, **kwargs):
        raise AssertionError("the segment oracle reached the closed-form path")

    monkeypatch.setattr("ctqmc.kernels.scalar_measure", unavailable)
    monkeypatch.setattr("ctqmc.kernels.segment_modes", unavailable)
    monkeypatch.setattr("ctqmc.spectra.hermitian_eig", unavailable)
    for req, want in zip(reqs, closed):
        assert abs(km_quadrature_oracle(req) - want) < 1e-10


def test_kernel_ordering_reflecting_line_absorbing():
    for t in (0.1, 1.0, 5.0):
        for i, j in ((0, 0), (2, 1)):
            r, l, a = (
                scalar_kernel(KernelRequest(geometry=g, lam=0.5, i=i, j=j, t=t))
                for g in (REFLECTING, LINE, ABSORBING)
            )
            assert r > l > a


def test_chapman_kolmogorov_segment():
    g = Geometry.segment(5)
    lam = 1.0 / 3.0

    def pmat(t):
        return np.array(
            [
                [
                    scalar_kernel(KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t))
                    for j in range(5)
                ]
                for i in range(5)
            ]
        )

    assert np.abs(pmat(1.0) @ pmat(2.0) - pmat(3.0)).max() < 1e-10


def test_chapman_kolmogorov_line_windowed():
    lam, s, t = 0.4, 1.0, 2.0
    i, j = 1, -1
    w = window_margin(s + t)
    total = sum(
        scalar_kernel(KernelRequest(geometry=LINE, lam=lam, i=i, j=k, t=s))
        * scalar_kernel(KernelRequest(geometry=LINE, lam=lam, i=k, j=j, t=t))
        for k in range(-w, w + 1)
    )
    direct = scalar_kernel(KernelRequest(geometry=LINE, lam=lam, i=i, j=j, t=s + t))
    assert abs(total - direct) < 1e-8


def test_pq_site_probability_is_classical():
    # for PQ channels the site probability is the lam=1/2 kernel, rho-free
    basis = eigenbasis(superop_of(pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0)))
    for g in (ABSORBING, REFLECTING, LINE):
        for rho_name in ("E11", "uniform_plus", "maximally_mixed"):
            rho = density_preset(rho_name)
            val = site_probability(basis, g, rho, 1, 2, 1.5)
            ref = scalar_kernel(KernelRequest(geometry=g, lam=0.5, i=2, j=1, t=1.5))
            assert val == pytest.approx(ref, abs=1e-12)


def test_state_probability_time_zero_identities():
    basis = eigenbasis(superop_of(depolarizing(1.0 / 3.0)))
    rho_pure = density_preset("E11")
    # rho = gamma at i = j, t = 0 -> 1
    gamma_density = density_preset("E11")
    goal_e1 = GoalState.from_psi([1.0, 0.0])
    assert state_probability(
        basis, ABSORBING, gamma_density, 2, 2, goal_e1, 0.0
    ) == pytest.approx(1.0)
    # rho = E11 -> |psi_1|^2
    assert state_probability(
        basis, ABSORBING, rho_pure, 2, 2, GOAL, 0.0
    ) == pytest.approx(0.25)
    # antipodal state -> 0
    anti = GoalState.from_psi([math.sqrt(3.0) / 2.0, -0.5])
    from ctqmc.channels import QubitDensity

    rho_anti = QubitDensity.from_matrix(anti.gamma)
    assert state_probability(
        basis, ABSORBING, rho_anti, 2, 2, GOAL, 0.0
    ) == pytest.approx(0.0, abs=1e-13)


def test_state_probability_below_site_probability():
    basis = eigenbasis(superop_of(depolarizing(0.4)))
    rho = density_preset("uniform_plus")
    for t in (0.5, 2.0):
        sp = site_probability(basis, REFLECTING, rho, 0, 1, t)
        stp = state_probability(basis, REFLECTING, rho, 0, 1, GOAL, t)
        assert stp <= sp + 1e-12


def test_evolve_oracle_time_zero_and_blocks():
    ch = depolarizing(0.4)
    rho = density_preset("uniform_plus")
    sites, blocks = evolve_oracle(ch, Geometry.segment(4), rho, [1], [0.0])
    blocks = blocks[0, 0]
    assert sites == [0, 1, 2, 3]
    assert np.abs(blocks[1] - rho.matrix).max() < 1e-14
    assert all(np.abs(b).max() < 1e-14 for k, b in enumerate(blocks) if k != 1)
    _, blocks_t = evolve_oracle(ch, Geometry.segment(4), rho, [1], [2.0])
    blocks_t = blocks_t[0, 0]
    total = sum(np.trace(b).real for b in blocks_t)
    assert total == pytest.approx(1.0, abs=1e-10)
    for b in blocks_t:
        assert np.abs(b - b.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh((b + b.conj().T) / 2.0).min() > -1e-10


def test_evolve_oracle_matches_site_probability():
    ch = segment_example()
    basis = eigenbasis(superop_of(ch))
    rho = density_preset("E11")
    g = Geometry.segment(5)
    _, blocks = evolve_oracle(ch, g, rho, [2], [3.0])
    for i in range(5):
        assert site_probability(basis, g, rho, 2, i, 3.0) == pytest.approx(
            float(np.trace(blocks[0, 0, i]).real), abs=1e-10
        )


@pytest.mark.parametrize("ch", [
    depolarizing(1.0 / 3.0),
    # S rho S* / 4 + rho / 4 for the phase gate S: a complex 4x4 block.
    KrausChannel(kraus=(np.diag([0.5, 0.5j]), np.eye(2) / 2.0)),
], ids=["real_block", "complex_block"])
def test_batched_evolve_oracle_matches_expm(ch):
    times = (0.0, 0.5, 0.5, 1.25, 3.0)
    densities = (density_preset("E11"), QubitDensity.from_bloch(0.3, 0.4, -0.5))
    cases = (
        (LINE, [-2, 0, 3]),
        (ABSORBING, [0, 1, 3]),
        (REFLECTING, [3, 0, 1]),
        (Geometry.segment(6, "absorbing", "reflecting"), [0, 2, 5]),
    )
    for g, starts in cases:
        dense = assemble_generator(ch, g, truncation=50).dense()
        runs = [(rho, evolve_oracle(ch, g, rho, starts, times, truncation=50))
                for rho in densities]
        for a, t in enumerate(times):
            propagator = scipy.linalg.expm(t * dense)
            for rho, (sites, blocks) in runs:
                assert blocks.shape == (len(times), len(starts), len(sites), 2, 2)
                for b, j in enumerate(starts):
                    state = np.zeros(dense.shape[0], dtype=complex)
                    k = sites.index(j)
                    state[4 * k:4 * k + 4] = rho.matrix.reshape(-1)
                    want = (propagator @ state).reshape(len(sites), 2, 2)
                    assert np.abs(blocks[a, b] - want).max() <= 1e-12


def test_evolve_oracle_without_start_sites():
    sites, blocks = evolve_oracle(depolarizing(0.4), ABSORBING, density_preset("E11"),
                                  [], [0.5, 1.0], truncation=40)
    assert blocks.shape == (2, 0, len(sites), 2, 2)
    sites, blocks = evolve_oracle(depolarizing(0.4), ABSORBING, density_preset("E11"),
                                  [0, 3], [], truncation=40)
    assert blocks.shape == (0, 2, len(sites), 2, 2)
    for g, j in ((Geometry.segment(4), 7), (ABSORBING, -1)):
        with pytest.raises(ValidationError, match=f"start site {j} outside window"):
            evolve_oracle(depolarizing(0.4), g, density_preset("E11"), [j], [],
                          truncation=40)


def test_evolve_oracle_rejects_decreasing_times():
    rho = density_preset("E11")
    with pytest.raises(ValidationError, match="nondecreasing"):
        evolve_oracle(depolarizing(0.4), ABSORBING, rho, [0], [1.0, 0.5])


def test_evolve_oracle_window_insufficiency():
    ch = identity_channel()
    rho = density_preset("E11")
    with pytest.raises(ValidationError):
        evolve_oracle(ch, ABSORBING, rho, [0], [50.0], truncation=30)
    with pytest.raises(ValidationError):
        evolve_oracle(ch, LINE, rho, [0], [50.0], truncation=30)
