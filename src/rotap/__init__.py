"""rotap: almost-periodic evaluation, interpolation and approximation on
rotation-invariant planar grids, via the block-diagonal Fourier-Bessel
factorization of the evaluation operator."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    GridError,
    GridMismatch,
    InsufficientSample,
    InvalidGrid,
    NotInvariant,
    ParseError,
    RotapError,
    TrivialStabilizer,
    WellPosednessError,
)
from .grids import (
    RotInvariantGrid,
    SlicePoint,
    build_polar_grid,
    canonicalize,
    load_grid,
    save_grid,
    slice_of,
)
from .bessel import (
    FourierBesselBlocks,
    assemble_blocks,
    classical_bessel,
    generalized_bessel,
    kernel_limit_error,
)
from .transform import (
    ApCoefficients,
    BlockFactorization,
    SampleArray,
    Weights,
    approximate,
    approximation_objective,
    banded_weights,
    dft_rotation_axis,
    evaluate_at_point,
    evaluate_fast,
    evaluate_naive,
    interpolate,
    load_coefficients,
    load_samples,
    prefactorize,
    rotate_coefficients,
    save_coefficients,
    save_samples,
    translate_coefficients,
)
from .group_reps import (
    GroupElement,
    check_homomorphism,
    check_unitary,
    commutant_dimension,
    compose,
    inverse,
    matrix_coefficient_check,
    rep_matrix,
)
from .harness import (
    BenchReport,
    bench_evaluate,
    bench_solve_scaling,
    optimal_N,
)
from .image import RasterImage, bilinear_sample, load_image, synthetic_image
