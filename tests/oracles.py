"""Variant expressions and explicit sums that only the tests use.

The variant closed expressions circulate next to a library closed form and
differ from it by exchanging the two polynomial slots of H_{k,m} (a
conjugation for real parameters) or by a constant; the tests pin the
exact relation between the two; their polynomial is the explicit
alternating sum of this module (_explicit_hermite_2d), not the library's
Laguerre form, so the relations also compare two evaluations.  The explicit sums and the quadrature
avatar are independent oracles for the library's recurrences, product
form and closed norms.  The full-grid frame check is the reference for
the library's blocked scan.  The mpmath evolution uses mpmath's own H_m in
place of the library's recurrence.  Two paper identities are kept here as
test oracles: the phase-space inversion that recovers F_n(y) from the
closed STFT, and the Gaussian window's Zak transform as a theta value.
The per-point verify cases are the references for the verify cases that
evaluate their fixed point sets in one grid call: they make the same draws
in the same order and call the library once per point.
"""

import math

import mpmath
import numpy as np

from superstft.approx import apsthm_residual
from superstft.evolution import (EvolutionPoint, evolve_gaussian_closed,
                                 evolve_hermite, evolve_numeric, pde_residual)
from superstft.kernels import stft_superosc_termwise_grid
from superstft.quadrature import QuadratureSpec, integrate, nodes_weights
from superstft.signals import Window, gaussian_window, hermite_window
from superstft.special import (SQRT2, SQRT_PI, TWO_PI, _descalarize, ipow,
                               theta)
from superstft.superosc import SuperoscParams, coefficients, supershift_probe
from superstft.transforms import ComplexGrid, reconstruct
from superstft.zak import FrameVerdict, theta_bound_check, zak_grid


def _explicit_hermite_2d(k, m, z, w):
    """H_{k,m}(z, w) = sum_j (-1)^j j! C(k,j) C(m,j) z^{m-j} w^{k-j} term by
    term in numpy (index k rides on w, as in complex_hermite_2d)."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    out = np.zeros(np.broadcast(z, w).shape, dtype=complex)
    for j in range(min(k, m) + 1):
        c = float((-1) ** j * math.factorial(j) * math.comb(k, j)
                  * math.comb(m, j))
        out = out + c * z ** (m - j) * w ** (k - j)
    return complex(out) if out.ndim == 0 else out


def _hermite_term(k, m, a, b):
    """2^{(k+m)/2} H_{k,m}((a + ib)/sqrt2, (a - ib)/sqrt2) by the explicit
    sum (a, b may be complex or arrays)."""
    return (2.0 ** ((k + m) / 2.0)
            * _explicit_hermite_2d(k, m, (a + 1j * b) / SQRT2,
                                   (a - 1j * b) / SQRT2))


def _envelope(lam, s, d):
    """sqrt(pi) e^{-lam^2/4 + i lam s/2 - d^2/4}, the Gaussian part of the
    pair integrals (s the sum, d the difference of the two shifts)."""
    return SQRT_PI * np.exp(-lam ** 2 / 4.0 + 0.5j * lam * s - d * d / 4.0)


def _pair_integral_mirror(k, m, u, x, lam):
    # sqrt(pi)(-1)^m 2^{(k+m)/2} e^{...} H_{k,m}(alpha, conj-alpha) with
    # alpha = (u - x + i lam)/sqrt2: the exchanged-slot expression
    return ((-1.0) ** m * _envelope(lam, x + u, x - u)
            * _hermite_term(k, m, u - x, lam))


def hermite_pair_integral_mp(k, m, u, x, lam, dps=300):
    """int e^{i t lam} h_k(t - u) h_m(t - x) dt as the explicit sum of
    H_{k,m}(z, conj z) in mpmath at dps digits, on the double inputs as
    given; the sum's cancellation costs none of the digits compared."""
    with mpmath.workdps(dps):
        u, x, lam = mpmath.mpf(u), mpmath.mpf(x), mpmath.mpf(lam)
        z = (lam - 1j * (u - x)) / mpmath.sqrt(2)
        poly = mpmath.fsum(
            (-1) ** j * mpmath.factorial(j) * mpmath.binomial(k, j)
            * mpmath.binomial(m, j) * z ** (m - j) * mpmath.conj(z) ** (k - j)
            for j in range(min(k, m) + 1))
        return complex(mpmath.sqrt(mpmath.pi) * mpmath.mpc(0, 1) ** (k + m)
                       * mpmath.sqrt(2) ** (k + m) * poly
                       * mpmath.exp(-lam ** 2 / 4 + 1j * lam * (u + x) / 2
                                    - (u - x) ** 2 / 4))


def complex_hermite_2d_mp(k, l, z, w, dps=130):
    """H_{k,l}(z, w) by its alternating sum in mpmath at dps digits, on the
    double inputs as given, and the sum of the moduli of its terms, which
    is j! |zeta|^d L_j^{(d)}(-|zw|) (j = min(k, l), d = |k - l|, zeta = z
    for l >= k, w otherwise); both as floats."""
    with mpmath.workdps(dps):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        terms = [(-1) ** j * mpmath.factorial(j) * mpmath.binomial(k, j)
                 * mpmath.binomial(l, j) * z ** (l - j) * w ** (k - j)
                 for j in range(min(k, l) + 1)]
        return (complex(mpmath.fsum(terms)),
                float(mpmath.fsum(abs(t) for t in terms)))


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


def hermite_convolution_mirror(k, m, x, u, lam):
    """Slot-exchanged variant of hermite_convolution_closed,
    sqrt(pi) i^{m-k} 2^{(k+m)/2} e^{...} H_{k,m}((u-x+i lam)/sqrt2, (u-x-i lam)/sqrt2);
    for real parameters this is the conjugate-polynomial evaluation and
    coincides with hermite_convolution_closed exactly when k = m."""
    return complex(ipow(m - k) * _envelope(lam, x + u, x - u)
                   * _hermite_term(k, m, u - x, lam))


def i_km_mirror(k, m, x, u, lam):
    """Slot-exchanged compact form
    (-1)^m 2^{(k+m)/2} H_{k,m}((u - x + i lam)/sqrt2, (u - x - i lam)/sqrt2);
    conjugate evaluation of i_km_closed for real arguments, equal to it
    exactly when k = m."""
    return complex((-1.0) ** m * _hermite_term(k, m, complex(u) - complex(x),
                                                complex(lam)))


def phi_na_norm(x, p):
    """(1/sqrt(pi)) int |phi_na(s)|^2 e^{-s^2} ds by quadrature on
    [-12, 12], with phi_na(s) = sum_l C_l e^{-2 l^2/n^2 + (2l/n)(s - ix)}.
    Equals norm_sq_closed_gaussian(x, p)/pi — the Gaussian-weighted 1D
    avatar of the time-frequency energy."""
    spec = QuadratureSpec(truncation_radius=12.0)
    c = coefficients(p)
    l = np.arange(p.n + 1)
    amp = c * np.exp(-2.0 * l ** 2 / p.n ** 2 - (2.0 * l / p.n) * 1j * x)

    def phi(s):
        return np.tensordot(amp, np.exp(np.multiply.outer(2.0 * l / p.n, s)),
                            axes=(0, 0))

    def integrand(s):
        v = phi(s)
        return np.abs(v) ** 2 * np.exp(-s * s)

    return float(integrate(integrand, spec).real) / SQRT_PI


def hermite_polynomial_sum(n, t):
    """Explicit-sum H_n(t); reference oracle for the recurrence, small n only."""
    t, scalar = _descalarize(t)
    out = np.zeros_like(t)
    for m in range(n // 2 + 1):
        coef = ((-1) ** m * math.factorial(n)
                / (math.factorial(m) * math.factorial(n - 2 * m)))
        out = out + coef * (2.0 * t) ** (n - 2 * m)
    return float(out) if scalar else out


def laguerre_sum(n, x):
    """Explicit-sum L_n(x) = sum_i (-1)^i C(n, n-i) x^i / i!; test oracle."""
    x, scalar = _descalarize(x)
    out = np.zeros_like(x)
    for i in range(n + 1):
        out = out + (-1.0) ** i * math.comb(n, n - i) * x ** i / math.factorial(i)
    return float(out) if scalar else out


def f_n_direct(p, t):
    """F_n(t) as the explicit exponential sum; oracle for f_n."""
    t = np.asarray(t, dtype=float)
    return supershift_probe(lambda w: np.exp(1j * np.multiply.outer(w, t)), p)


def stft_integral_representation(g, x, y, p):
    """Recover the superoscillating pointwise value F_n(y) from the closed
    STFT by the inversion integral:

        (1/(2 pi g(y - x) ||g||^2))
            int int V_g(S)(u, eta) e^{i eta y} g(y - u) du deta,

    which reproduces F_n(y) because S(y) = F_n(y) g(y - x).  That is
    reconstruct of the termwise grid (stft_superosc_termwise_grid) on
    |u| <= 14 + |x| + |y|, |eta| <= 16, divided by g(y - x).  Needs
    g(y - x) != 0 and a window with a closed-form kernel."""
    if not isinstance(g, Window) or g.kind not in ("gaussian", "hermite"):
        raise ValueError("integral representation needs a Gaussian or Hermite window")
    denom = complex(np.asarray(g(y - x), dtype=complex))
    if abs(denom) < 1e-12:
        raise ValueError(f"window vanishes at y - x = {y - x}; "
                         "the representation divides by g(y - x)")
    xu, _ = nodes_weights(QuadratureSpec(truncation_radius=14.0 + abs(x) + abs(y),
                                         nodes_per_unit=16))
    xe, _ = nodes_weights(QuadratureSpec(truncation_radius=16.0, nodes_per_unit=16))
    grid = ComplexGrid(xu, xe, stft_superosc_termwise_grid(g, x, p, xu, xe))
    return reconstruct(grid, g, y) / denom


def zak_gaussian(u, eta):
    """Closed expression for the Gaussian window's Zak transform,

        Z(e^{-t^2/2})(u, eta) = e^{-u^2/2} theta((eta - i u)/(2 pi), i/(2 pi)),

    i.e. the defining sum resummed as a Jacobi theta value."""
    z = (eta - 1j * u) / TWO_PI
    return complex(math.exp(-0.5 * u * u) * theta(z, 1j / TWO_PI))


def _scan_full(f, resolution):
    """|Z(f)| on the whole resolution^2 grid of [0, 1] x [0, 2 pi] and the
    (u, eta) of its np.argmin."""
    u_axis = np.linspace(0.0, 1.0, resolution)
    eta_axis = np.linspace(0.0, TWO_PI, resolution)
    mags = np.abs(zak_grid(f, u_axis, eta_axis))
    i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
    return mags, (float(u_axis[i]), float(eta_axis[j]))


def frame_check_full(f, resolution, tolerance):
    """frame_check with every scan held as a full grid and the refinement
    run to the end; oracle for the library's blocked, early-stopping scan."""
    mags, loc = _scan_full(f, resolution)
    lower = float(mags.min())
    upper = float(mags.max())
    if not math.isfinite(upper):
        verdict = "Inconclusive"
    elif lower > tolerance:
        verdict = "Frame"
    else:
        refined, _ = _scan_full(f, 2 * resolution)
        verdict = "NotFrame" if float(refined.min()) < tolerance else "Inconclusive"
    return FrameVerdict(lower_bound=lower, upper_bound=upper,
                        grid_resolution=resolution, verdict=verdict,
                        min_location=loc, tolerance=float(tolerance))


def evolve_hermite_mp(m, x, t, x0, k0):
    """evolve_hermite(m, EvolutionPoint(x, t, x0, k0)) at one point, in
    40-digit mpmath: with alpha = 1/2 + i t, s = x - x0 - 2 k0 t and
    gamma^2 = 1 - 1/alpha, the integral is sqrt(pi / alpha) e^{-s^2 / (4 alpha)}
    gamma^m H_m(i s / (2 alpha gamma)), with mpmath's H_m (the branch of
    gamma cancels, since H_m has the parity of m)."""
    with mpmath.workdps(40):
        x, t, x0, k0 = (mpmath.mpf(float(v)) for v in (x, t, x0, k0))
        alpha = mpmath.mpc(0.5, t)
        s = x - x0 - 2 * k0 * t
        gamma = mpmath.sqrt(1 - 1 / alpha)
        integral = (mpmath.sqrt(mpmath.pi / alpha)
                    * mpmath.exp(-s * s / (4 * alpha)) * gamma ** m
                    * mpmath.hermite(m, 1j * s / (2 * alpha * gamma)))
        return complex(mpmath.sqrt(2 * mpmath.pi) * mpmath.mpc(0, -1) ** m
                       * mpmath.expj(k0 * x - k0 * k0 * t) * integral)


def _fourier_factorization_per_point(rng):
    g = gaussian_window()
    return max(apsthm_residual(g, SuperoscParams(a=2.0, n=n), lam)
               for n in range(1, 5) for lam in (-2.0, -0.5, 0.0, 0.9, 2.3))


def _theta_bound_per_point(rng):
    worst = 0.0
    for (a, n) in [(2.0, 3), (1.5, 5), (2.0, 4)]:
        p = SuperoscParams(a=a, n=n)
        for u in (0.0, 0.25, 0.5, 0.9):
            for eta in (0.0, 1.0, 3.0, 6.0):
                value, bound = theta_bound_check(p, u, eta)
                worst = max(worst, value - bound)
    return max(worst, 0.0)


def _evolution_datum_per_point(rng):
    g = gaussian_window()
    worst = 0.0
    for _ in range(4):
        x, x0, k0 = rng.uniform(-1.0, 1.0, 3)
        pt = EvolutionPoint(x=x, t=0.0, x0=x0, k0=k0)
        datum = TWO_PI * (np.exp(1j * k0 * x) * g(x - x0))
        for route in (evolve_numeric(g, pt), evolve_gaussian_closed(pt)):
            worst = max(worst, float(np.abs(route - datum)))
    x, x0, k0 = 0.4, 0.0, 0.5
    pt = EvolutionPoint(x=x, t=0.0, x0=x0, k0=k0)
    for m in (1, 2):
        datum = np.exp(1j * k0 * x) * hermite_window(m)(x - x0)
        worst = max(worst, float(abs(evolve_hermite(m, pt) - TWO_PI * datum)))
    return worst


def _evolution_pde_per_point(rng):
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0)
        t = rng.uniform(-1.0, 1.0)
        x0, k0 = rng.uniform(-0.5, 0.5, 2)

        def f(xx, tt):
            return evolve_gaussian_closed(EvolutionPoint(xx, tt, x0, k0))

        worst = max(worst, pde_residual(f, x, t) / float(np.abs(f(x, t))))
    return worst


# verify case id -> its per-point reference, a function of the case's rng.
# A point's error is taken with numpy's abs, as the grid cases take it:
# Python's abs of a complex can differ from it in the last bit.
VERIFY_PER_POINT = {
    "fourier-factorization": _fourier_factorization_per_point,
    "theta-bound": _theta_bound_per_point,
    "evolution-initial-datum": _evolution_datum_per_point,
    "evolution-pde-residual": _evolution_pde_per_point,
}
