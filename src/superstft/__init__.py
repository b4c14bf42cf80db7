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
                        evolve_superosc_signal, oscillation_hazard,
                        pde_residual)
from .kernels import (TFQuadruple, fock_kernel, gabor_kernel_numeric,
                      hermite_autoconvolution,
                      hermite_convolution_closed, hermite_pair_integral,
                      i_km_closed, i_km_series, norm_sq_closed_gaussian,
                      norm_sq_closed_hermite, normalized_fock_kernel,
                      stft_integral_representation, stft_superosc_closed_grid,
                      stft_superosc_cross, stft_superosc_fock_form,
                      stft_superosc_limit_grid, stft_superosc_termwise_grid,
                      weyl_action_on_basis)
from .quadrature import QuadratureSpec, integrate, make_spec
from .signals import (Signal, Window, build_signal, custom_window,
                      gaussian_window, hermite_window, shifted_window,
                      signal_norm_sq, time_frequency_shift, window_norm_sq)
from .special import (complex_hermite_2d, gaussian_integral,
                      hermite_function, hermite_norm_sq, hermite_polynomial,
                      laguerre, theta)
from .superosc import (SuperoscParams, coefficients, f_n, frequencies,
                       supershift_probe)
from .transforms import (ComplexGrid, ambiguity, bargmann, convolve, fourier,
                         inner_product, inverse_fourier, moyal_double_integral,
                         moyal_inner_product, reconstruct, spectrogram, stft,
                         stft_grid)
from .verify import run_suite
from .zak import (FrameVerdict, WienerEstimate, frame_check,
                  wiener_norm_estimate, zak, zak_gaussian, zak_grid,
                  zak_superosc, zak_superosc_termwise)

__version__ = "0.1.0"

__all__ = [
    "ComplexGrid", "EvolutionPoint", "FrameVerdict",
    "QuadratureSpec", "Signal", "SuperoscParams", "TFQuadruple",
    "WienerEstimate", "Window", "ambiguity", "app2_closed",
    "approximating_function", "apsthm_residual", "bargmann",
    "build_signal", "coefficients", "complex_hermite_2d", "convolve",
    "custom_window", "evolve_gaussian_closed",
    "evolve_hermite", "evolve_numeric", "evolve_superosc",
    "evolve_superosc_integral_representation", "evolve_superosc_signal",
    "f_n", "fock_kernel", "fourier", "frame_check", "frequencies",
    "gabor_kernel_numeric",
    "gaussian_integral", "gaussian_window", "hermite_autoconvolution",
    "hermite_convolution_closed", "hermite_function", "hermite_norm_sq",
    "hermite_pair_integral", "hermite_polynomial", "hermite_window",
    "i_km_closed", "i_km_series", "inner_product", "integrate",
    "inverse_fourier", "laguerre", "make_spec",
    "moyal_double_integral", "moyal_inner_product", "norm_sq_closed_gaussian",
    "norm_sq_closed_hermite", "normalized_fock_kernel", "oscillation_hazard",
    "pde_residual", "reconstruct", "run_suite", "shifted_window",
    "signal_norm_sq", "spectrogram", "stft", "stft_approx_hermite_closed",
    "stft_approx_via_ambiguity", "stft_grid", "stft_integral_representation",
    "stft_superosc_closed_grid", "stft_superosc_cross",
    "stft_superosc_fock_form", "stft_superosc_limit_grid",
    "stft_superosc_termwise_grid", "supershift_probe", "theta",
    "time_frequency_shift", "weyl_action_on_basis", "wiener_norm_estimate",
    "window_norm_sq", "zak", "zak_gaussian", "zak_grid", "zak_superosc",
    "zak_superosc_termwise",
]
