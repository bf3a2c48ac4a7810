"""Continuous-time quantum Markov chains on 1-D qubit lattices.

Closed-form Karlin-McGregor transition kernels, spectral measures,
recurrence classification and optimal initial states, cross-checked by
quadrature and matrix-exponential oracles.
"""

from .analysis import (
    OptimalStates,
    RecurrenceVerdict,
    absorption_deficit,
    optimal_initial_state,
    recurrence_classify,
)
from .channels import (
    EigenChannelBasis,
    KrausChannel,
    LindbladDecomposition,
    QubitDensity,
    SuperOperator,
    UnsupportedChannelError,
    ValidationError,
    detect_pq,
    eigenbasis,
    lindblad_decompose,
    superop_of,
)
from .generators import (
    BlockTridiagonalOperator,
    Geometry,
    SymmetrizerSequence,
    assemble_generator,
    check_symmetrizable,
    scalar_jacobi_matrix,
)
from .kernels import (
    GoalState,
    KernelRequest,
    evolve_oracle,
    km_quadrature_oracle,
    scalar_kernel,
    site_probability,
    state_probability,
)
from .presets import (
    amplitude_damping,
    density_preset,
    depolarizing,
    identity_channel,
    pq_channel,
    segment_example,
)
from .spectra import (
    ScalarMeasure,
    SpectralMatrix2,
    duran_density,
    polynomials,
    scalar_measure,
    spectral_matrix_line,
    stieltjes,
    stieltjes_closed_form,
)

__version__ = "0.1.0"
