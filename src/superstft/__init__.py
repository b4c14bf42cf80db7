"""Superoscillating signals under the short-time Fourier transform.

Closed-form time-frequency kernels for superoscillation-modulated
Gaussian and Hermite windows, the 2D-complex Hermite machinery behind
them, Zak-transform frame checks, and free Schroedinger evolution of the
resulting signals — each closed form backed by a quadrature oracle in
:mod:`superstft.verify`.
"""

from .approx import (app2_closed, approximating_function, apsthm_residual,
                     stft_approx_hermite_closed, stft_approx_via_ambiguity)
from .evolution import (EvolutionPoint, evolve_gaussian_closed,
                        evolve_hermite, evolve_numeric, evolve_superosc,
                        evolve_superosc_integral_representation,
                        evolve_superosc_signal, pde_residual)
from .kernels import (gabor_kernel_numeric, hermite_autoconvolution,
                      hermite_convolution_closed, hermite_pair_integral,
                      i_km_closed, i_km_series, norm_sq_closed_gaussian,
                      norm_sq_closed_hermite, normalized_fock_kernel,
                      stft_superosc_closed_grid, stft_superosc_cross,
                      stft_superosc_fock_form, stft_superosc_limit_grid,
                      stft_superosc_termwise_grid)
from .quadrature import QuadratureSpec, integrate, make_spec
from .signals import (Signal, Window, build_signal, custom_window,
                      gaussian_window, hermite_window, shifted_window,
                      signal_norm_sq, window_norm_sq)
from .special import (complex_hermite_2d, hermite_function, hermite_norm_sq,
                      hermite_polynomial, laguerre, theta)
from .superosc import (SuperoscParams, coefficients, f_n, frequencies,
                       supershift_probe)
from .transforms import (ComplexGrid, ambiguity, bargmann, convolve, fourier,
                         inner_product, moyal_double_integral,
                         moyal_inner_product, reconstruct, stft, stft_grid)
from .verify import run_suite
from .zak import (FrameVerdict, WienerEstimate, frame_check,
                  wiener_norm_estimate, zak, zak_grid, zak_superosc_termwise)

__version__ = "0.1.0"

__all__ = [
    "ComplexGrid", "EvolutionPoint", "FrameVerdict",
    "QuadratureSpec", "Signal", "SuperoscParams",
    "WienerEstimate", "Window", "ambiguity", "app2_closed",
    "approximating_function", "apsthm_residual", "bargmann",
    "build_signal", "coefficients", "complex_hermite_2d", "convolve",
    "custom_window", "evolve_gaussian_closed",
    "evolve_hermite", "evolve_numeric", "evolve_superosc",
    "evolve_superosc_integral_representation", "evolve_superosc_signal",
    "f_n", "fourier", "frame_check", "frequencies",
    "gabor_kernel_numeric", "gaussian_window", "hermite_autoconvolution",
    "hermite_convolution_closed", "hermite_function", "hermite_norm_sq",
    "hermite_pair_integral", "hermite_polynomial", "hermite_window",
    "i_km_closed", "i_km_series", "inner_product", "integrate",
    "laguerre", "make_spec",
    "moyal_double_integral", "moyal_inner_product", "norm_sq_closed_gaussian",
    "norm_sq_closed_hermite", "normalized_fock_kernel",
    "pde_residual", "reconstruct", "run_suite", "shifted_window",
    "signal_norm_sq", "stft", "stft_approx_hermite_closed",
    "stft_approx_via_ambiguity", "stft_grid",
    "stft_superosc_closed_grid", "stft_superosc_cross",
    "stft_superosc_fock_form", "stft_superosc_limit_grid",
    "stft_superosc_termwise_grid", "supershift_probe", "theta",
    "wiener_norm_estimate", "window_norm_sq", "zak", "zak_grid",
    "zak_superosc_termwise",
]
