"""STFT of approximating sequences.

The approximating function of a signal psi under the (a, n) coefficient
pattern is

    phi_{psi,n,a}(t) = sum_j C_j(n, a) psi(t + omega_j),

a band-limited-shift average converging to psi(t + a).  Its STFT is
computed two independent ways — through the ambiguity function of the
window and through the 2D-complex Hermite closed form — plus the n -> oo
Gaussian limit.  On the Fourier side the average factorizes exactly:
F(phi_{psi,n,a}) = F(psi) F_n.
"""

import math

import numpy as np

from .kernels import _envelope, _hermite_term, hermite_pair_integral
from .signals import _supershift_radius, custom_window
from .special import SQRT_PI
from .superosc import f_n, supershift_probe
from .transforms import ambiguity, fourier


def approximating_function(psi, p):
    """phi_{psi,n,a} = sum_j C_j psi(. + omega_j) as a custom Window.

    The decay radius inflates by the unit shift plus the coefficient
    growth sum_j |C_j| = max(1, |a|)^n (for Gaussian-type decay)."""
    def func(t):
        t = np.asarray(t, dtype=float)
        return supershift_probe(
            lambda w: np.asarray(psi(t + w), dtype=complex), p)

    r = getattr(psi, "decay_radius", None)
    radius = None if r is None else 1.0 + _supershift_radius(r, p)
    return custom_window(func, decay_radius=radius)


def apsthm_residual(psi, p, lam):
    """Residual of the factorization F(phi_{psi,n,a}) = F(psi) F_n at lam
    (both sides by quadrature on the boxes the decay radii set; the
    identity is exact)."""
    phi = approximating_function(psi, p)
    lhs = fourier(phi, lam)
    rhs = fourier(psi, lam) * f_n(p, lam)
    return float(abs(lhs - rhs))


def stft_approx_via_ambiguity(g, p, u, eta):
    """V_g(phi_{g,n,a})(u, eta) through the window's ambiguity function:

        e^{-i u eta / 2} sum_j C_j e^{i eta omega_j / 2}
                               A[g](u + omega_j, eta).

    Each time-shifted term folds into one ambiguity evaluation."""
    total = supershift_probe(
        lambda w: np.exp(0.5j * eta * w) * ambiguity(g, u + w, eta),
        p)
    return complex(np.exp(-0.5j * u * eta) * total)


def stft_approx_hermite_closed(k, m, p, u, eta):
    """V_{h_k}(phi_{h_m,n,a})(u, eta) in closed form:

        sqrt(pi) i^{k+m} 2^{(k+m)/2} e^{-eta^2/4 - i u eta / 2}
          sum_j C_j e^{i eta omega_j / 2 - (u + omega_j)^2 / 4}
                H_{k,m}(z_j, w_j),

        z_j = (-eta - i (u + omega_j)) / sqrt2,
        w_j = (-eta + i (u + omega_j)) / sqrt2,

    that is, each term is the master pair integral at shift -omega_j and
    frequency -eta, hermite_pair_integral(k, m, u, -omega_j, -eta).  That
    pairing is the quadrature-confirmed one;
    stft_approx_hermite_uncalibrated evaluates the variant expression.
    Negative orders are a ValueError."""
    return complex(supershift_probe(
        lambda w: hermite_pair_integral(k, m, u, -w, -eta), p))


def stft_approx_hermite_uncalibrated(k, m, p, u, eta):
    """The variant closed expression

        sqrt(pi / k!) 2^{k/2} e^{-i u eta / 2 - (u^2 + eta^2)/4}
          sum_j C_j e^{-omega_j^2/4 - (u - i eta) omega_j / 2}
                H_{k,m}(z_j, conj(z_j)),

        z_j = ((u + omega_j) + i eta) / sqrt2,

    which is 2^{-m/2} / sqrt(k!) times the coefficient sum of the pair
    integral's envelope and polynomial at sum u - omega_j, difference
    u + omega_j, frequency -eta and slot-mirrored H-arguments.  Same
    exponential content as the calibrated route but a different constant;
    kept so tests can pin the exact relation between the two."""
    total = supershift_probe(
        lambda w: _envelope(-eta, u - w, u + w) * _hermite_term(k, m, u + w, eta),
        p)
    return complex(2.0 ** (-0.5 * m) / math.sqrt(math.factorial(k)) * total)


def app2_closed(u, eta, a):
    """The n -> oo limit of the Gaussian-window case:

        V_phi(e^{i a .} phi)(u, eta)
            = sqrt(pi) e^{-(u^2 + eta^2 + a^2)/4} e^{-(u - i eta) a / 2}
                       e^{-i u eta / 2}."""
    return complex(
        SQRT_PI
        * np.exp(-0.25 * (u * u + eta * eta + a * a))
        * np.exp(-0.5 * (u - 1j * eta) * a)
        * np.exp(-0.5j * u * eta)
    )
