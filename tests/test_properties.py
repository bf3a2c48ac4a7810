"""Property tests of the segment kernels over random sizes, ends, lambda and t.

``scipy.linalg.expm`` of the chain matrix is the reference; it shares no
code with the closed-form modes or with the squaring segment oracle.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqmc.analysis import absorption_deficit
from ctqmc.generators import Geometry, scalar_jacobi_matrix
from ctqmc.kernels import KernelRequest, km_quadrature_oracle, scalar_kernel

END_PAIRS = [("absorbing", "absorbing"), ("reflecting", "reflecting"),
             ("reflecting", "absorbing"), ("absorbing", "reflecting")]
LAMBDAS = st.floats(-0.5, 0.5).filter(lambda lam: lam != 0.0)
TIMES = st.floats(0.0, 40.0)
# Few, reproducible examples keep the Tier-1 run short and stable.
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def segment_sites(draw, ends=st.sampled_from(END_PAIRS)):
    n = draw(st.integers(2, 60))
    g = Geometry.segment(n, *draw(ends))
    return g, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


def kernel(g, lam, i, j, t):
    return scalar_kernel(KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t))


@PROPERTY
@given(segment_sites(), LAMBDAS, TIMES)
def test_segment_kernel_matches_expm(case, lam, t):
    g, i, j = case
    want = scipy.linalg.expm(t * scalar_jacobi_matrix(g, lam))[i, j]
    assert abs(kernel(g, lam, i, j, t) - want) <= 1e-12


@PROPERTY
@given(segment_sites(), LAMBDAS, TIMES)
def test_segment_oracle_matches_expm(case, lam, t):
    g, i, j = case
    want = scipy.linalg.expm(t * scalar_jacobi_matrix(g, lam))[i, j]
    req = KernelRequest(geometry=g, lam=lam, i=i, j=j, t=t)
    assert abs(km_quadrature_oracle(req) - want) <= 1e-12


@PROPERTY
@given(segment_sites(), LAMBDAS, TIMES)
def test_segment_kernel_is_symmetric(case, lam, t):
    g, i, j = case
    assert abs(kernel(g, lam, i, j, t) - kernel(g, lam, j, i, t)) <= 1e-15


@PROPERTY
@given(segment_sites(st.just(("reflecting", "reflecting"))), TIMES)
def test_closed_segment_conserves_probability(case, t):
    g, _, j = case
    total = sum(kernel(g, 0.5, i, j, t) for i in range(g.sites))
    assert abs(total - 1.0) <= 1e-12


@PROPERTY
@given(segment_sites(st.sampled_from(END_PAIRS[0:1] + END_PAIRS[2:])), LAMBDAS, TIMES)
def test_segment_absorption_deficit(case, lam, t):
    g, _, j = case
    deficit = absorption_deficit(g, lam, j, t)
    kept = scipy.linalg.expm(t * scalar_jacobi_matrix(g, lam))[:, j].sum()
    assert abs(deficit - (1.0 - kept)) <= 1e-12
    # For lam < 0 the kernels alternate in sign, so only |1 - deficit| <= 1
    # holds; for lam > 0 the deficit is a probability.
    assert -1e-12 <= deficit <= (1.0 if lam > 0 else 2.0) + 1e-12
