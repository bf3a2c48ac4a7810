import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from ctqmc.analysis import (
    absorption_deficit,
    optimal_initial_state,
    recurrence_classify,
)
from ctqmc.channels import QubitDensity, ValidationError, eigenbasis, superop_of
from ctqmc.generators import Geometry
from ctqmc.kernels import GoalState, state_probability, evolve_oracle
from ctqmc.presets import density_preset, depolarizing, pq_channel, segment_example
from oracles import bloch_ball_samples, pq_optimum

ABSORBING = Geometry.half_line("absorbing")
REFLECTING = Geometry.half_line("reflecting")
LINE = Geometry.line()
GOAL = GoalState.from_psi([0.5, math.sqrt(3.0) / 2.0])


def test_absorbing_integral_is_2i_plus_2():
    basis = eigenbasis(superop_of(depolarizing(1.0 / 3.0)))
    for i in range(6):
        for rho in (density_preset("E11"), density_preset("uniform_plus")):
            verdict = recurrence_classify(basis, ABSORBING, i, rho)
            assert verdict.classification == "transient"
            assert verdict.integral == pytest.approx(2 * i + 2, abs=1e-12)


def test_reflecting_and_line_recurrent_for_bloch_sample():
    basis = eigenbasis(superop_of(depolarizing(1.0 / 3.0)))
    for p in bloch_ball_samples(20, seed=4):
        rho = QubitDensity.from_bloch(*p)
        for g in (REFLECTING, LINE):
            verdict = recurrence_classify(basis, g, 1, rho)
            assert verdict.classification == "recurrent"
            assert math.isinf(verdict.integral)


def test_reflecting_scalar_integral_closed_form():
    from ctqmc.analysis import _scalar_return_integral

    lam, i = 1.0 / 3.0, 2
    root = math.sqrt(1.0 - 4.0 * lam * lam)
    closed = (1.0 / root) * (1.0 + ((1.0 - root) / (2.0 * lam)) ** (2 * i + 1))
    val = _scalar_return_integral(REFLECTING, lam, i)
    assert val == pytest.approx(closed, abs=1e-10)
    # independent numeric oracle over time
    ref, _ = scipy.integrate.quad(
        lambda t: math.exp(-t)
        * (scipy.special.iv(0, 2 * lam * t) + scipy.special.iv(2 * i + 1, 2 * lam * t)),
        0.0,
        300.0,
        limit=400,
    )
    assert val == pytest.approx(ref, abs=1e-9)


def test_negative_lambda_scalar_integral():
    from ctqmc.analysis import _scalar_return_integral

    lam, i = -1.0 / 3.0, 1
    val = _scalar_return_integral(REFLECTING, lam, i)
    ref, _ = scipy.integrate.quad(
        lambda t: math.exp(-t)
        * (
            scipy.special.iv(0, 2 * abs(lam) * t)
            - scipy.special.iv(2 * i + 1, 2 * abs(lam) * t)
        ),
        0.0,
        300.0,
        limit=400,
    )
    assert val == pytest.approx(ref, abs=1e-9)


def test_recurrence_weights_sum_to_one():
    basis = eigenbasis(superop_of(pq_channel(0.8, 0.5, 0.1)))
    rho = density_preset("uniform_plus")
    verdict = recurrence_classify(basis, ABSORBING, 0, rho)
    assert sum(w for _, w in verdict.contributing_lambdas) == pytest.approx(1.0)


def test_absorption_deficit_properties():
    prev = -1e-12
    for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        d = absorption_deficit(ABSORBING, 0.5, 0, t)
        assert d >= -1e-12
        assert d >= prev - 1e-12
        prev = d
    assert absorption_deficit(ABSORBING, 0.5, 0, 0.0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValidationError):
        absorption_deficit(REFLECTING, 0.5, 0, 1.0)


def test_absorption_deficit_matches_oracle_loss():
    from ctqmc.presets import identity_channel

    ch = identity_channel()
    rho = density_preset("E11")
    for t in (1.0, 3.0):
        _, blocks = evolve_oracle(ch, ABSORBING, rho, [0], [t], truncation=120)
        loss = 1.0 - sum(float(np.trace(b).real) for b in blocks[0, 0])
        assert absorption_deficit(ABSORBING, 0.5, 0, t) == pytest.approx(
            loss, abs=1e-8
        )


def test_optimal_state_beats_samples():
    basis = eigenbasis(superop_of(pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0)))
    opt = optimal_initial_state(basis, ABSORBING, 2, 1, 1.5, GOAL)
    assert opt.method == "closed_form"
    pts = bloch_ball_samples(10000)
    best = max(
        state_probability(basis, ABSORBING, QubitDensity.from_bloch(*p), 1, 2, GOAL, 1.5)
        for p in pts
    )
    assert opt.value_plus >= best - 1e-9
    # structural identities
    a, b, c, d = opt.coefficients
    norm = math.sqrt(a * a + b * b + c * c)
    assert opt.value_plus + opt.value_minus == pytest.approx(2 * d, abs=1e-12)
    assert opt.value_plus - opt.value_minus == pytest.approx(2 * norm, abs=1e-12)
    for rho in (opt.rho_plus, opt.rho_minus):
        assert np.linalg.norm(rho.bloch) == pytest.approx(1.0, abs=1e-12)


def test_optimal_state_values_are_attained():
    basis = eigenbasis(superop_of(pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0)))
    opt = optimal_initial_state(basis, REFLECTING, 1, 0, 2.0, GOAL)
    assert state_probability(
        basis, REFLECTING, opt.rho_plus, 0, 1, GOAL, 2.0
    ) == pytest.approx(opt.value_plus, abs=1e-12)
    assert state_probability(
        basis, REFLECTING, opt.rho_minus, 0, 1, GOAL, 2.0
    ) == pytest.approx(opt.value_minus, abs=1e-12)


def test_depolarizing_optimum_is_goal_projector():
    basis = eigenbasis(superop_of(depolarizing(1.0 / 3.0)))
    for t in (0.5, 1.0, 3.0):
        opt = optimal_initial_state(basis, ABSORBING, 1, 1, t, GOAL)
        assert np.abs(opt.rho_plus.matrix - GOAL.gamma).max() < 1e-12


def test_degenerate_optimum_flagged():
    basis = eigenbasis(superop_of(depolarizing(1.0 / 3.0)))
    # at t = 0 with i != j every kernel vanishes -> a = b = c = 0
    opt = optimal_initial_state(basis, ABSORBING, 1, 0, 0.0, GOAL)
    assert opt.degenerate
    assert opt.value_plus == opt.value_minus


def test_exact_optimum_for_non_pq():
    basis = eigenbasis(superop_of(segment_example()))
    g = Geometry.segment(5)
    opt = optimal_initial_state(basis, g, 1, 0, 1.0, GOAL)
    assert opt.method == "closed_form"
    assert not opt.degenerate
    for rho, value in ((opt.rho_plus, opt.value_plus), (opt.rho_minus, opt.value_minus)):
        assert abs(state_probability(basis, g, rho, 0, 1, GOAL, 1.0) - value) <= 1e-12
    samples = [
        state_probability(basis, g, QubitDensity.from_bloch(*p), 0, 1, GOAL, 1.0)
        for p in bloch_ball_samples(10000)
    ]
    assert opt.value_plus >= max(samples)
    assert opt.value_minus <= min(samples)
    assert all(math.isfinite(c) for c in opt.coefficients)


@pytest.mark.parametrize(
    "channel",
    [
        depolarizing(1.0 / 3.0),
        depolarizing(0.7),
        pq_channel(5.0 / 6.0, 2.0 / 3.0, 0.0),
        pq_channel(0.8, 0.5, 0.1),
        pq_channel(0.2, 0.1, -0.6),
    ],
)
def test_optimum_matches_pq_closed_form(channel):
    s = superop_of(channel)
    basis = eigenbasis(s)
    for g in (ABSORBING, REFLECTING, LINE):
        for i, j in ((0, 0), (1, 0), (2, 3)):
            for t in (0.0, 0.5, 2.0, 9.0, 30.0):
                opt = optimal_initial_state(basis, g, i, j, t, GOAL)
                a, b, c, d = pq_optimum(s, g, i, j, t, GOAL)
                norm = math.sqrt(a * a + b * b + c * c)
                assert np.abs(np.subtract(opt.coefficients, (a, b, c, d))).max() <= 1e-14
                assert abs(opt.value_plus - (d + norm)) <= 1e-14
                assert abs(opt.value_minus - (d - norm)) <= 1e-14
                assert opt.method == "closed_form"
