"""Variant closed expressions that only the tests use.

Each evaluates an expression that circulates next to a library closed form
and differs from it by exchanging the two polynomial slots of H_{k,m} or
by a constant; the tests pin the exact relation between the two.
"""

import math

from superstft.kernels import _envelope, _hermite_term
from superstft.superosc import supershift_probe


def _pair_integral_mirror(k, m, u, x, lam):
    # sqrt(pi)(-1)^m 2^{(k+m)/2} e^{...} H_{k,m}(alpha, conj-alpha) with
    # alpha = (u - x + i lam)/sqrt2: the exchanged-slot expression
    return ((-1.0) ** m * _envelope(lam, x + u, x - u)
            * _hermite_term(k, m, u - x, lam))


def stft_superosc_cross_mirror(k, m, x, p, u, eta):
    """Slot-exchanged variant of stft_superosc_cross; equals
    (-1)^{k+m} * stft_superosc_cross identically."""
    return complex(supershift_probe(
        lambda w: _pair_integral_mirror(k, m, u, x, w - eta), p))


def stft_approx_hermite_uncalibrated(k, m, p, u, eta):
    """The variant closed expression

        sqrt(pi / k!) 2^{k/2} e^{-i u eta / 2 - (u^2 + eta^2)/4}
          sum_j C_j e^{-omega_j^2/4 - (u - i eta) omega_j / 2}
                H_{k,m}(z_j, conj(z_j)),

        z_j = ((u + omega_j) + i eta) / sqrt2,

    which is 2^{-m/2} / sqrt(k!) times the coefficient sum of the pair
    integral's envelope and polynomial at sum u - omega_j, difference
    u + omega_j, frequency -eta and slot-mirrored H-arguments.  Same
    exponential content as stft_approx_hermite_closed but a different
    constant."""
    total = supershift_probe(
        lambda w: _envelope(-eta, u - w, u + w) * _hermite_term(k, m, u + w, eta),
        p)
    return complex(2.0 ** (-0.5 * m) / math.sqrt(math.factorial(k)) * total)
