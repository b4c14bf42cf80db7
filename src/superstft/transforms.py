"""Time-frequency transforms backed by the quadrature engine.

Conventions (used consistently package-wide):

    fourier:      F(f)(lam) = int e^{-i t lam} f(t) dt
    inverse:      carries the 1/(2 pi)
    stft:         V_g f(u, eta) = int e^{-i t eta} conj(g(t - u)) f(t) dt
    inner:        <f, g> = int f(t) conj(g(t)) dt = V_g f(0, 0)
    convolution:  (f * g)(lam) = int f(t) g(lam - t) dt = V_{g~} f(lam, 0),
                  g~(s) = conj(g(-s))
    ambiguity:    A[f](x, omega) = e^{i x omega / 2} V_f f(x, omega)
    bargmann:     B(f)(z) = pi^{-3/4} int f(t) e^{-z^2/2 - t^2/2 + sqrt2 z t} dt
                          = pi^{-3/4} e^{-z^2/2 + (Re z)^2}
                            V_gamma f(sqrt2 Re z, -sqrt2 Im z),
                  gamma(s) = e^{-s^2/2}

Each transform is thus one stft_grid call, with its one quadrature guard
and contraction.  With these, the orthogonality relation reads
int int |V_g f|^2 du deta = 2 pi ||f||^2 ||g||^2, and inversion needs
the matching 1/(2 pi ||g||^2) factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (QuadratureSpec, _guard, band_spec, make_spec,
                         nodes_weights)
from .signals import Window, gaussian_window, window_norm_sq
from .special import (SQRT2, TWO_PI, _as_result, _finite, _phase_outer,
                      _real_phase_product)


def _decay_radius_of(f):
    return getattr(f, "decay_radius", None)


def _resolve_spec(spec, *funcs, shifts=()):
    """Use the given spec, or build one from the functions' decay radii."""
    if spec is not None:
        return spec
    radii = [_decay_radius_of(f) for f in funcs]
    known = [r for r in radii if r is not None]
    if not known:
        raise ValueError(
            "no quadrature spec given and none of the integrand factors "
            "carries a decay_radius"
        )
    return make_spec(max(known), *shifts)


def _unit(t):
    return np.ones(np.shape(t))


def fourier(f, lam, spec=None):
    """F(f)(lam) = int e^{-i t lam} f(t) dt; lam may be scalar or array.
    It is stft_grid of f against the unit window at u = 0, so a real f
    takes the real contraction, a non-finite sample raises
    FloatingPointError and a non-finite lam is a ValueError that names it."""
    return stft_grid(f, _unit, 0.0, _finite("lam", lam), spec)


def inner_product(f, g, spec=None):
    """L2 inner product int f(t) conj(g(t)) dt, the stft V_g f(0, 0)."""
    return stft(f, g, 0.0, 0.0, spec)


def stft(f, g, x, omega, spec=None):
    """Short-time Fourier transform
    V_g f(x, omega) = int e^{-i t omega} conj(g(t - x)) f(t) dt,
    the 0-d case of stft_grid.  A non-finite x or omega is a ValueError
    that names it."""
    return stft_grid(f, g, _finite("x", x), _finite("omega", omega), spec)


def convolve(f, g, lam, spec=None):
    """(f * g)(lam) = int f(t) g(lam - t) dt, the stft V_{g~} f(lam, 0) of
    the reflected conjugate g~(s) = conj(g(-s)), on the box of f's and g's
    decay radii shifted by |lam|.  A non-finite lam is a ValueError that
    names it."""
    spec = _resolve_spec(spec, f, g, shifts=(float(_finite("lam", lam)),))
    return stft(f, lambda s: np.conj(g(-s)), lam, 0.0, spec)


def ambiguity(g, u, eta):
    """Ambiguity function A[g](u, eta) = e^{i u eta/2} V_g g(u, eta)
    = int g(t + u/2) conj(g(t - u/2)) e^{-i eta t} dt, on the box the
    window's decay radius sets.  A non-finite u or eta is a ValueError that
    names it."""
    u, eta = _finite("u", u), _finite("eta", eta)
    return np.exp(0.5j * u * eta) * stft(g, g, u, eta)


def bargmann(f, z, spec=None):
    """Bargmann transform
    B(f)(z) = pi^{-3/4} int f(t) e^{-z^2/2 - t^2/2 + sqrt2 z t} dt,
    normalized so the Hermite function h_n maps to pi^{-1/4} 2^{n/2} z^n:
    one stft against the Gaussian on the box of f's radius shifted by
    sqrt2 |z|.  A non-finite z is a ValueError naming it; |Re z| > 26.6 or
    |z| > 37.6, where its factors overflow, is a FloatingPointError."""
    z = complex(_finite("z", z))
    spec = _resolve_spec(spec, f, shifts=(SQRT2 * abs(z),))
    val = stft(f, gaussian_window(), SQRT2 * z.real, -SQRT2 * z.imag, spec)
    with np.errstate(over="raise", invalid="raise"):
        return math.pi ** (-0.75) * np.exp(z.real ** 2) * np.exp(-z * z / 2.0) * val


@dataclass(frozen=True)
class ComplexGrid:
    """Complex values sampled on a rectangular (u, eta) grid, the validated
    input of reconstruct.

    u and eta are 1D strictly increasing axes; values has shape
    (len(u), len(eta))."""

    u: np.ndarray
    eta: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        u = _finite("grid axis u", self.u)
        eta = _finite("grid axis eta", self.eta)
        vals = np.asarray(self.values, dtype=complex)
        if u.ndim != 1 or eta.ndim != 1:
            raise ValueError("grid axes must be one-dimensional")
        if np.any(np.diff(u) <= 0) or np.any(np.diff(eta) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if vals.shape != (u.size, eta.size):
            raise ValueError(
                f"values shape {vals.shape} does not match axes "
                f"({u.size}, {eta.size})"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "values", vals)


def stft_grid(f, g, u_axis, eta_axis, spec=None):
    """V_g f on the tensor grid u x eta, an array of shape
    u.shape + eta.shape (a complex for 0-d axes), evaluated over the
    raveled axes as one contraction: row i collects
    w_t f(t) conj(g(t - u_i)) in the dtype of the factors, column j
    applies e^{-i t eta_j}.  A complex integrand (a superoscillating
    signal, a modulated window) is one complex matrix product.  A real one
    (real f and g) goes to _real_phase_product: two real matrix products
    on the halves t >= 0 and eta >= 0 of mirrored axes, within
    32 eps sum_t |a(u, t)| of the complex product per cell.

    The axes must be finite (ValueError naming the axis otherwise); their
    order does not matter.  The weighted integrand goes through the
    quadrature guard before the contraction: a non-finite sample raises
    FloatingPointError, and components that underflowed to subnormal
    numbers in the windows' Gaussian tails are set to zero, which keeps
    the values bit-identical while sparing the matrix products the slow
    subnormal arithmetic."""
    u_axis = _finite("u_axis", u_axis)
    eta_axis = _finite("eta_axis", eta_axis)
    u, eta = u_axis.ravel(), eta_axis.ravel()
    shift = float(np.max(np.abs(u))) if u.size else 0.0
    spec = _resolve_spec(spec, f, g, shifts=(shift,))
    t, w = nodes_weights(spec)
    a = _guard(w * np.asarray(f(t))
               * np.conj(np.asarray(g(t[None, :] - u[:, None]))))
    if np.iscomplexobj(a):
        v = a @ _phase_outer(t, eta)
    else:
        v = _real_phase_product(a, t, eta)
    return _as_result(v.reshape(u_axis.shape + eta_axis.shape))


def _boundary_max(mags):
    """Largest entry on the edge of a 2D grid of magnitudes."""
    return max(mags[0].max(), mags[-1].max(), mags[:, 0].max(), mags[:, -1].max())


def _band(h):
    """Spectral radius of a factor: its decay radius, which bounds the
    Fourier transform of a Hermite-type function too, plus 1 for the
    frequencies |omega_j| <= 1 of F_n in a superoscillating signal."""
    tones = 0.0 if getattr(h, "superosc", None) is None else 1.0
    return float(h.decay_radius) + tones


def moyal_double_integral(f1, g1, f2=None, g2=None):
    """int int V_{g1} f1 (u, eta) conj(V_{g2} f2 (u, eta)) du deta by
    tensor quadrature of two stft_grid calls, each a real contraction on
    the mirrored halves of its rules when its factors are real, as the
    Gaussian and Hermite windows are.  The outer rule takes
    |u|, |eta| <= R at 16 Simpson nodes per unit, R the largest decay
    radius of f1, g1, f2 and g2.  That box does not always cover the
    transforms: V_{h_k} h_k reaches out to about the sum of the two radii,
    so the edge check below refuses the equal-order Hermite pairs
    k = 6, 8, 9, 11, 12 and 14 to 24 (edge/peak 6.6e-12 to 2.8e-10 up to
    k = 12); a pair with a Gaussian factor stays inside it.  Each
    stft_grid integrates t on make_spec(f.decay_radius)'s box:
    f(t) conj(g(t - u)) is negligible wherever f is, so the shift by |u|
    does not widen it.  Its density is band_spec's for the band
    B_f + B_g + R, B a factor's decay radius (plus 1 for an F_n signal)
    and R the largest |eta|: the integrand f(t) conj(g(t - u)) e^{-i t eta}
    has no spectrum beyond it, which
    gives 16 nodes per unit for every Hermite window up to order 24.  A
    factor without a decay_radius is a ValueError that names it, and so
    is an integrand above 1e-12 of its peak on the box's edge (a function
    whose transform outlasts its time radius, such as a narrow custom
    window): a larger decay_radius widens the box.
    Defaults f2 = f1, g2 = g1 give the energy
    int int |V_g f|^2 = 2 pi ||f||^2 ||g||^2."""
    if f2 is None:
        f2 = f1
    if g2 is None:
        g2 = g1
    factors = {"f1": f1, "g1": g1, "f2": f2, "g2": g2}
    for name, h in factors.items():
        if _decay_radius_of(h) is None:
            raise ValueError(
                f"moyal_double_integral: {name} carries no decay_radius")
    radius = max(float(h.decay_radius) for h in factors.values())
    x, w = nodes_weights(QuadratureSpec(radius, 16))

    def inner(f, g):
        return band_spec(_band(f) + _band(g) + radius, f.decay_radius)

    v1 = stft_grid(f1, g1, x, x, inner(f1, g1))
    v2 = v1 if (f2 is f1 and g2 is g1) else stft_grid(f2, g2, x, x, inner(f2, g2))
    integrand = v1 * np.conj(v2)
    mags = np.abs(integrand)
    edge, peak = _boundary_max(mags), mags.max()
    if edge > 1e-12 * peak:
        raise ValueError(
            f"moyal_double_integral: the (u, eta) box |u|, |eta| <= {radius:g} "
            f"does not cover the transforms (edge/peak = {edge / peak:.1e}); "
            "a larger decay_radius widens it")
    return complex(w @ integrand @ w)


def moyal_inner_product(f1, f2, g1, g2):
    """The closed side of the orthogonality relation:
    2 pi <f1, f2> <g2, g1>, inner products done by quadrature."""
    return TWO_PI * inner_product(f1, f2) * inner_product(g2, g1)


def _axis_weights(axis):
    """Integration weights for a uniform 1D grid: composite Simpson when
    the interval count is even, trapezoid otherwise."""
    n = axis.size
    if n < 2:
        raise ValueError("integration axis needs at least two points")
    h = np.diff(axis)
    if not np.allclose(h, h[0], rtol=1e-12, atol=0.0):
        raise ValueError("integration axis must be uniformly spaced")
    h = float(h[0])
    w = np.full(n, h)
    if (n - 1) % 2 == 0:
        w *= 1.0 / 3.0
        w[1:-1:2] *= 4.0
        w[2:-1:2] *= 2.0
    else:
        w[0] = w[-1] = h / 2.0
    return w


def reconstruct(grid, g, y):
    """Recover f(y) from its sampled STFT:

        f(y) = 1/(2 pi ||g||^2) int int V_g f(u, eta) e^{i eta y} g(y - u) du deta,

    with the grid's own nodes as quadrature nodes (Simpson weights on each
    uniform axis).  A grid whose boundary values are not negligible next
    to its largest value (1e-6 of it) does not cover the transform's
    support, and is a ValueError; so is a non-finite y, named.
    """
    y_arr = _finite("y", y)
    norm_sq = window_norm_sq(g) if isinstance(g, Window) else inner_product(g, g).real
    if not norm_sq > 0.0:
        raise ValueError("window has zero norm; reconstruction is undefined")
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    xu, xe = grid.u, grid.eta
    wu = _axis_weights(xu)
    we = _axis_weights(xe)
    vals = grid.values
    mags = np.abs(vals)
    boundary = _boundary_max(mags)
    interior = mags.max()
    if interior > 0.0 and boundary > 1e-6 * interior:
        tail = boundary * 2.0 * ((xu[-1] - xu[0]) + (xe[-1] - xe[0]))
        raise ValueError(
            "grid does not cover the transform's support; estimated "
            f"truncation tail ~ {tail:.3e}"
        )
    out = np.empty(y_arr.shape, dtype=complex)
    for i, yi in enumerate(y_arr):
        gwin = np.asarray(g(yi - xu), dtype=complex)
        phase = np.exp(1j * xe * yi)
        out[i] = (wu * gwin) @ vals @ (we * phase)
    out /= TWO_PI * norm_sq
    return complex(out[0]) if scalar else out
