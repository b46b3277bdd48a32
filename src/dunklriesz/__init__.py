"""Dunkl-Hermite spectral systems, heat kernels, and numerical verification
of the Riesz-transform kernel estimates for finite reflection groups."""

from .reflection import (
    ReflectionGroup,
    RootSystem,
    generate_group,
    gamma,
    min_orbit_distance,
    reflect,
    root_system,
    weight,
)
from .polyalg import (
    DunklAlgebra,
    Polynomial,
    get_algebra,
)
from .hermite import (
    HermiteBasis,
    build_basis,
    c_kappa,
    enumerate_indices,
    hermite_functions_1d,
    load_basis,
    pairing,
    save_basis,
)
from .kernels import (
    KernelConfig,
    dunkl_kernel,
    dunkl_kernel_1d,
    dunkl_kernel_mehler,
    dunkl_kernel_z2d,
    gaussian_translate,
    heat_kernel,
    heat_kernel_classical,
    heat_kernel_series,
    riesz_kernel,
    riesz_kernel_both,
    riesz_kernel_many,
)
from .spectral import (
    OperatorMatrix,
    QuadratureRule,
    SpectralVector,
    analyze,
    delta_matrix,
    gauss_generalized_hermite,
    heat_apply,
    inv_sqrt_apply,
    operator_norm,
    quadrature_rule,
    riesz_matrix,
    synthesize,
)
from .verify import VerifyConfig, VerificationReport, run_checks

__version__ = "0.1.0"
