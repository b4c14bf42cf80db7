"""STFT of approximating sequences.

The approximating function of a signal psi under the (a, n) coefficient
pattern is

    phi_{psi,n,a}(t) = sum_j C_j(n, a) psi(t + omega_j),

a band-limited-shift average converging to psi(t + a).  On the Fourier
side the average factorizes exactly: F(phi_{psi,n,a}) = F(psi) F_n.  Its
STFT is computed two independent ways — through the ambiguity function of
the window (a coefficient sum) and, for Hermite windows, through that
factorization as the kernels module's Gauss-Hermite product-form grid —
plus the n -> oo Gaussian limit.
"""

import numpy as np

from .kernels import _tensor_axes, hermite_pair_integral, stft_superosc_cross
from .signals import _supershift_radius, custom_window
from .special import _as_result, _finite, ipow
from .superosc import f_n, supershift_probe
from .transforms import ambiguity, fourier


def approximating_function(psi, p):
    """phi_{psi,n,a} = sum_j C_j psi(. + omega_j) as a custom Window.

    The decay radius inflates by the unit shift plus the coefficient
    growth sum_j |C_j| = max(1, |a|)^n (for Gaussian-type decay)."""
    def func(t):
        return supershift_probe(
            lambda w: np.asarray(psi(np.add.outer(w, t)), dtype=complex), p)

    r = getattr(psi, "decay_radius", None)
    radius = None if r is None else 1.0 + _supershift_radius(r, p)
    return custom_window(func, decay_radius=radius)


def apsthm_residual(psi, p, lam):
    """Residual |F(phi_{psi,n,a}) - F(psi) F_n| of the factorization at
    every lam, an array of lam's shape (a float for 0-d lam).  Both sides
    are quadratures on the boxes the decay radii set, each one rule and one
    contraction over all of lam; the identity is exact."""
    lhs = fourier(approximating_function(psi, p), lam)
    res = np.abs(lhs - fourier(psi, lam) * f_n(p, lam))
    return float(res) if res.ndim == 0 else res


def stft_approx_via_ambiguity(g, p, u, eta):
    """V_g(phi_{g,n,a})(u, eta) through the window's ambiguity function:

        e^{-i u eta / 2} sum_j C_j e^{i eta omega_j / 2}
                               A[g](u + omega_j, eta).

    The time-shifted terms are one ambiguity evaluation at u + omega, on
    one rule."""
    total = supershift_probe(
        lambda w: np.exp(0.5j * eta * w) * ambiguity(g, u + w, eta),
        p)
    return complex(np.exp(-0.5j * u * eta) * total)


def stft_approx_hermite_closed(k, m, p, u, eta):
    """V_{h_k}(phi_{h_m,n,a})(u, eta) on the tensor grid of shape
    u.shape + eta.shape (a single complex value for 0-d u and eta).  With
    F(phi) = F(h_m) F_n and F(h_j) = sqrt(2 pi) (-i)^j h_j, Parseval gives

        V_{h_k} phi(u, eta) = (-i)^m i^k e^{-i u eta} W(eta, -u),

    W = stft_superosc_cross(k, m, 0, p, ., .), so nothing cancels at any n
    (the equal sum_j C_j hermite_pair_integral(k, m, u, -omega_j, -eta)
    does).  A non-finite u or eta is a ValueError that names it; negative
    orders are a ValueError too."""
    u, eta = _finite("u", u), _finite("eta", eta)
    w = np.moveaxis(np.asarray(stft_superosc_cross(k, m, 0.0, p, eta, -u)),
                    range(eta.ndim), range(-eta.ndim, 0))
    ug, eg = _tensor_axes(u, eta)
    return _as_result(ipow(k - m) * np.exp(-1j * ug * eg) * w)


def app2_closed(u, eta, a):
    """The n -> oo limit of the Gaussian-window case:

        V_phi(e^{i a .} phi)(u, eta)
            = sqrt(pi) e^{-(u^2 + eta^2 + a^2)/4} e^{-(u - i eta) a / 2}
                       e^{-i u eta / 2},

    the Gaussian pair integral hermite_pair_integral(0, 0, u, -a, -eta)."""
    return hermite_pair_integral(0, 0, u, -a, -eta)
