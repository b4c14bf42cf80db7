"""Closed-form kernels and identities.

Everything here ultimately specializes one master integral,

    hermite_pair_integral(k, m, u, x, lam)
        = int e^{i t lam} h_k(t - u) h_m(t - x) dt
        = sqrt(pi) i^{k+m} 2^{(k+m)/2}
          e^{-lam^2/4 + i lam (u+x)/2 - (u-x)^2/4} H_{k,m}(z, conj z),
    z = (lam - i(u - x))/sqrt2,

with H_{k,m} the 2D-complex Hermite polynomials, evaluated in their
Laguerre form, which does not cancel.  Gabor kernels, the closed-form STFTs
of superoscillating signals, Hermite convolutions, the closed norms and
approx.app2_closed are all calls of it; the compact I_{k,m} forms, which
take complex arguments, call complex_hermite_2d, the same Laguerre form.

The Gabor kernel K_g(x, omega; u, eta) of the window h_n (n = 0 the
Gaussian) is hermite_pair_integral(n, n, u, x, omega - eta), which
stft_superosc_limit_grid(g, x, omega, u, eta) returns; a scalar call is
the 0-d case of the grid call.  Closed sums over the superoscillation
coefficients cancel, since sum_j |C_j| = max(1, |a|)^n, so no
superoscillation STFT with a Hermite window forms one by default.  The
same-window grid (stft_superosc_closed_grid), the cross-window grid
(stft_superosc_cross, signal on h_m, window h_k) and the
approximating-sequence grid (approx.stft_approx_hermite_closed) are all
calls of one core, _hermite_superosc_grid, which integrates the product
form of F_n against the window pair by Gauss-Hermite quadrature.  The
coefficient sum of pair integrals stays only as that core's fallback and
as its closed twin, stft_superosc_termwise_grid; both are calls of
_termwise_grid, the one coefficient sum that forms C_j itself (the Fock
form and the closed norms are superosc.supershift_probe calls); it applies
the part of the phase that no term owns once, after the sum.  The
evolution's integral representation takes the Gaussian window's two
factors of that sum from _termwise_factors and applies the phase itself.
The generating checks build their order tables in one pass
(_convolution_table, on special._laguerre_table), each entry the
per-order call's to the bit.
"""

import math
from functools import lru_cache

import numpy as np

from .quadrature import _guard
from .signals import (build_signal, hermite_window, shifted_window,
                      signal_norm_sq)
from .special import (
    SQRT2,
    SQRT_PI,
    TWO_PI,
    _as_result,
    _check_orders,
    _finite,
    _flat_points,
    _generating_weights,
    _laguerre_table,
    _order_sum,
    _phase_outer,
    complex_hermite_2d,
    hermite_function,
    hermite_norm_sq,
    hermite_polynomial,
    ipow,
    laguerre,
)
from .superosc import coefficients, f_n, frequencies, supershift_probe
from .transforms import stft, stft_grid


# |lam| or |u - x| beyond which e^{-lam^2/4} or e^{-(u-x)^2/4} is exactly 0
# in double precision; clipping there keeps the pair integral's Laguerre
# factor and the product form's H_m(s_k +- d/2) finite
_D_MAX = 60.0


def _pair_scale(k, m):
    """2^{(k+m)/2} j!, j = min(k, m): the pair integral's constant."""
    return 2.0 ** ((k + m) / 2.0) * math.factorial(min(k, m))


def _clear_lost_phase(out, lost, log_gauss):
    """out with its cells of non-finite phase (the mask lost) set to 0 where
    the Gaussian factor e^{log_gauss()} is 0; a ValueError where it is not,
    since a phase beyond double range has no value to give."""
    if not lost.any():
        return out
    gauss = np.exp(log_gauss())
    if np.any(np.broadcast_to(gauss, out.shape)[lost] != 0):
        raise ValueError("the phase lam (u + x) / 2 of the pair integral "
                         "is not finite where its modulus is not 0")
    return np.where(lost, 0j, out)


def _pair_gaussian(u, x, lam):
    """lam and u - x clipped at _D_MAX, and the pair integral's
    k = m = 0 value sqrt(pi) e^{-lam^2/4 + i lam (u+x)/2 - (u-x)^2/4}."""
    # maximum/minimum: np.clip's call overhead is twice theirs on small grids;
    # u - x, u + x and the phase may overflow, which _clear_lost_phase handles
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.minimum(np.maximum(lam, -_D_MAX), _D_MAX)
        ux = np.minimum(np.maximum(u - x, -_D_MAX), _D_MAX)
        out = SQRT_PI * np.exp(-lam ** 2 / 4.0 + 0.5j * lam * (u + x)
                               - ux * ux / 4.0)
    out = _clear_lost_phase(out, ~np.isfinite(out),
                            lambda: -lam ** 2 / 4.0 - ux * ux / 4.0)
    return lam, ux, out


def _zeta_power(k, m, lam, ux):
    """zeta^d of the Laguerre form, d = |k - m|: i z = (i lam + ux)/sqrt2
    for k < m, its conjugate's (i lam - ux)/sqrt2 for k > m."""
    return ((1j * lam + (ux if k < m else -ux)) / SQRT2) ** abs(k - m)


def hermite_pair_integral(k, m, u, x, lam):
    """int e^{i t lam} h_k(t - u) h_m(t - x) dt in closed form (see module
    docstring) for real u, x and lam that broadcast together and orders
    0..MAX_HERMITE_ORDER (a ValueError otherwise).  The polynomial is
    evaluated in the Laguerre form

        i^{k+m} 2^{(k+m)/2} H_{k,m}(z, conj z)
            = 2^{(k+m)/2} j! zeta^d L_j^{(d)}(|z|^2),

    j = min(k, m), d = |k - m|, zeta = i z for k <= m, i conj(z) for k > m,
    so no term cancels.  lam and u - x are clipped at _D_MAX, where the
    Gaussian factor is already exactly 0: far arguments give 0, not 0 times
    an overflowed polynomial.  The phase lam (u + x) / 2 can still overflow:
    the value is 0 where the Gaussian factor is, and a ValueError where it
    is not."""
    _check_orders(k, m)
    lam, ux, out = _pair_gaussian(u, x, lam)
    if k or m:
        # in place: a second full-size complex array kept alive through the
        # Laguerre recurrence made 121x121 Hermite grids several % slower
        out *= _pair_scale(k, m)
        out *= laguerre(min(k, m), (lam * lam + ux * ux) / 2.0, abs(k - m))
        if k != m:
            out *= _zeta_power(k, m, lam, ux)
    return _as_result(out)


def _pair_integral_table(K, u, x, lam):
    """hermite_pair_integral(k, m, u, x, lam) for every k, m <= K, one array
    of shape (K + 1, K + 1) + the points' shape: special._laguerre_table on
    the Gaussian factor, so for array arguments each entry is the per-order
    call's to the bit."""
    lam, ux, gauss = _pair_gaussian(u, x, lam)
    table = _laguerre_table(K, (lam * lam + ux * ux) / 2.0, gauss,
                            lambda j, d: _pair_scale(j, j + d),
                            (1j * lam + ux) / SQRT2, (1j * lam - ux) / SQRT2)
    table[0, 0] = gauss  # k = m = 0 is the Gaussian factor alone
    return table


# ---------------------------------------------------------------------------
# Gabor kernels  K_g(x, omega; u, eta) = <M_omega T_x g, M_eta T_u g>
# ---------------------------------------------------------------------------

def gabor_kernel_numeric(g, x, omega, u, eta):
    """K_g(x, omega; u, eta) = int e^{it(omega - eta)} g(t - x) conj(g(t - u)) dt
    by quadrature; ground truth for the closed kernels of
    stft_superosc_limit_grid, whose arguments it takes.  By the covariance
    t = s + x it is e^{i x (omega - eta)} V_g g(u - x, eta - omega), one
    stft of the window against itself on the box make_spec(decay radius,
    u - x); a window without a decay radius is a ValueError, and so is a
    non-finite x, omega, u or eta, named."""
    for name, value in (("x", x), ("omega", omega), ("u", u), ("eta", eta)):
        _finite(name, value)
    return complex(np.exp(1j * x * (omega - eta)) * stft(g, g, u - x, eta - omega))


# ---------------------------------------------------------------------------
# Closed-form STFTs of superoscillating signals
# ---------------------------------------------------------------------------

def _grid_axes(x, u_axis, eta_axis):
    """u and eta as float arrays, after checking that x and every point are
    finite (a ValueError naming the argument otherwise)."""
    _finite("x", x)
    return _finite("u", u_axis), _finite("eta", eta_axis)


def _tensor_axes(u_axis, eta_axis):
    """u shaped to broadcast against eta to the tensor grid u x eta, of
    shape u.shape + eta.shape (0-d axes give a single point)."""
    return u_axis.reshape(u_axis.shape + (1,) * eta_axis.ndim), eta_axis


# ---------------------------------------------------------------------------
# Fock-space forms
# ---------------------------------------------------------------------------

def normalized_fock_kernel(w, z):
    """Unit-norm kernel element k_w evaluated at z:
    (1/sqrt(pi)) e^{z conj(w) - |w|^2 / 2}.  w and z broadcast together;
    a scalar call returns a complex, the array call's entry to the bit."""
    w, z = np.asarray(w, dtype=complex), np.asarray(z, dtype=complex)
    return _as_result(np.exp(z * np.conj(w) - np.abs(w) ** 2 / 2.0) / SQRT_PI)


def stft_superosc_fock_form(x, p, u, eta):
    """The Gaussian-window closed STFT reassembled from normalized Fock
    kernel elements:

        pi e^{ux} M_inv sum_j C_j k_{omega_j/sqrt2}(conj(q)/sqrt2),

    q = eta - i(u + x),  M_inv = e^{-eta^2/4 - (u+x)^2/4 - i(u+x)eta/2}.

    Time-frequency data enter the complex plane scaled by 1/sqrt2 (both the
    kernel index omega_j/sqrt2 and the evaluation point conj(q)/sqrt2);
    with that scaling the sum is algebraically identical to
    stft_superosc_termwise_grid with the Gaussian window; the sum is a
    supershift_probe of one array normalized_fock_kernel call."""
    q = _finite("q", eta - 1j * (u + x))
    m_inv = np.exp(-eta ** 2 / 4.0 - (u + x) ** 2 / 4.0 - 0.5j * (u + x) * eta)
    total = supershift_probe(
        lambda w: normalized_fock_kernel(w / SQRT2, np.conj(q) / SQRT2), p)
    return complex(math.pi * np.exp(u * x) * m_inv * total)


# ---------------------------------------------------------------------------
# Closed norm twins of signal_norm_sq
# ---------------------------------------------------------------------------

def norm_sq_closed_gaussian(x, p):
    """Closed double sum
    pi sum_{j,k} C_j C_k e^{-2ix(j-k)/n - (k-j)^2/n^2}; equals
    ||phi||^2 ||S||^2 for the Gaussian window phi and the signal S built on
    it (so the full time-frequency energy is 2 pi times this value).  It is
    norm_sq_closed_hermite(0, 0, x, p): ||h_0||^2 is sqrt(pi) exactly."""
    return norm_sq_closed_hermite(0, 0, x, p)


def norm_sq_closed_hermite(k, m, x, p):
    """Closed double sum for the Hermite pair (analysis window h_k, signal
    built on h_m):

        (-1)^m 2^{m+k} k! pi sum_{s,l} C_s C_l e^{-(s-l)^2/n^2}
            e^{2i(s-l)x/n} H_{m,m}(sqrt2 (s-l)/n, sqrt2 (s-l)/n).

    Equals ||h_k||^2 ||S||^2 (time-frequency energy again 2 pi times this),
    returned as a real number: ||h_k||^2 times ||F_n(.) h_m(. - x)||^2,

        sqrt(pi) (-2)^m  sum_{s,l} C_s C_l e^{-d^2 + 2 i d x}
                                   H_{m,m}(sqrt2 d, sqrt2 d),

    d = (l - s)/n, whose summand hermite_pair_integral(m, m, x, x,
    omega_s - omega_l) two nested supershift_probe calls contract.  Its
    imaginary part cancels pairwise; a sum that comes out non-real
    (cancellation at large n) raises FloatingPointError.  Orders outside
    0..MAX_HERMITE_ORDER are a ValueError."""
    _check_orders(k, m)
    total = supershift_probe(lambda ws: supershift_probe(
        lambda wl: hermite_pair_integral(m, m, x, x, ws - wl[:, None]), p), p)
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise FloatingPointError(f"norm sum came out non-real: {total}")
    return hermite_norm_sq(k) * total.real


# ---------------------------------------------------------------------------
# Hermite convolutions and the compact pair-integral polynomial
# ---------------------------------------------------------------------------

def hermite_convolution_closed(k, m, x, u, lam):
    """Convolution of modulated Hermite functions
    (M_x h_k * M_u h_m)(lam) in closed form:

        sqrt(pi) i^{k-m} 2^{(k+m)/2} e^{-lam^2/4 + i lam (x+u)/2 - (x-u)^2/4}
            H_{k,m}((x - u + i lam)/sqrt2, (x - u - i lam)/sqrt2).

    This is the variant the convolution quadrature confirms.  It is
    (-1)^m e^{i u lam} hermite_pair_integral(k, m, 0, lam, x - u).  x, u
    and lam broadcast together; a scalar call returns a complex."""
    return _as_result((-1.0) ** m * np.exp(1j * u * lam)
                      * hermite_pair_integral(k, m, 0.0, lam, x - u))


def hermite_autoconvolution(k, m, lam):
    """(h_k * h_m)(lam) = sqrt(pi) 2^{(k+m)/2} e^{-lam^2/4}
    H_{k,m}(lam/sqrt2, lam/sqrt2) — the unmodulated x = u = 0 case."""
    return hermite_convolution_closed(k, m, 0.0, 0.0, lam)


def i_km_series(k, m, x, u, lam):
    """The pair-integral polynomial I_{k,m} as a finite series:

        sum_{l=0}^{m} 2^{(k+l)/2} i^{k+l} C(m,l) (2(x-u))^{m-l}
            H_{k,l}(beta, beta),   beta = (lam + i(x-u))/sqrt2.

    Defined so that sqrt(pi) e^{-lam^2/4 + i lam (x+u)/2 - (x-u)^2/4} I_{k,m}
    equals int e^{it lam} h_k(t-x) h_m(t-u) dt.  Accepts complex x, u, lam
    (it is a polynomial identity); orders outside 0..MAX_HERMITE_ORDER are
    a ValueError."""
    _check_orders(k, m)
    x = complex(x)
    u = complex(u)
    lam = complex(lam)
    beta = (lam + 1j * (x - u)) / SQRT2
    total = 0.0 + 0.0j
    for l in range(m + 1):
        total += (2.0 ** ((k + l) / 2.0) * ipow(k + l) * math.comb(m, l)
                  * (2.0 * (x - u)) ** (m - l)
                  * complex_hermite_2d(k, l, beta, beta))
    return complex(total)


def i_km_closed(k, m, x, u, lam):
    """Compact closed form of the same polynomial:
    (-1)^m 2^{(k+m)/2} H_{k,m}((u - x - i lam)/sqrt2, (u - x + i lam)/sqrt2);
    identical to i_km_series for all (complex) arguments, and refuses the
    same orders (complex_hermite_2d does)."""
    a, b = complex(u) - complex(x), -complex(lam)
    return complex((-1.0) ** m * 2.0 ** ((k + m) / 2.0) * complex_hermite_2d(
        k, m, (a + 1j * b) / SQRT2, (a - 1j * b) / SQRT2))


# ---------------------------------------------------------------------------
# Generating-sum checks
# ---------------------------------------------------------------------------

def _convolution_table(K, x, lam):
    """hermite_convolution_closed(k, m, x, x, lam) for every k, m <= K, one
    array of shape (K + 1, K + 1) + the points' shape: the prefactors
    (-1)^m e^{i x lam} times _pair_integral_table, so for array arguments
    each entry is the per-order call's to the bit."""
    signs = np.array([(-1.0) ** m for m in range(K + 1)])
    phase = np.exp(1j * x * lam)
    pre = signs.reshape(signs.shape + (1,) * np.ndim(phase)) * phase
    return pre * _pair_integral_table(K, 0.0, lam, x - x)


def generating_sum_check(x, u, v, lam, K):
    """Pair (LHS, RHS) of the modulated-convolution generating identity:

        LHS = sum_{k,m <= K} u^k v^m / (2^{(k+m)/2} k! m!) (M_x h_k * M_x h_m)(lam)
        RHS = sqrt(pi) e^{-lam^2/4 + lam (i x + (u+v)/sqrt2)} e^{-uv}.

    The truncated LHS converges to the RHS for |u|, |v| <= 1.  x, u, v and
    lam broadcast together: each side is an array of the points' shape, or
    a complex for a scalar call.  The convolutions form one order table
    (_convolution_table); K outside 0..MAX_HERMITE_ORDER is a ValueError."""
    shape, (x, u, v, lam) = _flat_points(x, u, v, lam)
    lhs = _order_sum(_generating_weights(u, v, K, 2.0)
                     * _convolution_table(K, x, lam))
    rhs = SQRT_PI * np.exp(-lam ** 2 / 4.0
                           + lam * (1j * x + (u + v) / SQRT2) - u * v)
    return _as_result(lhs.reshape(shape)), _as_result(rhs.reshape(shape))


def generating_product_check(x, u, v, lam, K):
    """Pair (LHS, RHS) of the pointwise Hermite-product generating identity
    (Fourier side of generating_sum_check):

        LHS = 2 pi sum_{k,m <= K} u^k v^m / (2^{(k+m)/2} k! m!)
                  (-i)^{k+m} h_k(lam - x) h_m(lam - x)
        RHS = 2 pi e^{-uv - (x-lam)^2 + (u+v)^2/2 + sqrt2 i (x-lam)(u+v)}.

    The 2 pi carries the Fourier-pairing normalization of this library's
    transform convention.  x, u, v, lam and K as in generating_sum_check;
    h_k(lam - x) is evaluated once per order."""
    shape, (x, u, v, lam) = _flat_points(x, u, v, lam)
    weights = _generating_weights(u, v, K, 2.0)
    s = lam.astype(float) - x.astype(float)
    h = np.stack([hermite_function(k, s) for k in range(K + 1)])
    turns = np.array([[ipow(-(k + m)) for m in range(K + 1)]
                      for k in range(K + 1)])
    lhs = TWO_PI * _order_sum(weights * turns[:, :, None]
                              * h[:, None] * h[None, :])
    rhs = TWO_PI * np.exp(-u * v - s * s + (u + v) ** 2 / 2.0
                          - SQRT2 * 1j * s * (u + v))
    return _as_result(lhs.reshape(shape)), _as_result(rhs.reshape(shape))


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature of the product form
# ---------------------------------------------------------------------------

# (N, nu): the N-node rule integrates e^{-s^2 - i nu' s} to about 1e-14 for
# every |nu'| <= nu (measured against sqrt(pi) e^{-nu'^2/4})
_GH_BANDS = ((64, 12.5), (80, 15.0), (100, 18.0), (120, 20.5), (160, 25.25),
             (240, 33.0), (320, 39.75))
# numpy's hermgauss gives NaN weights from 372 nodes on; the truncation
# check compares with a rule _GH_CHECK_NODES larger, both within the cap
_GH_MAX_NODES = 360
_GH_CHECK_NODES = 40
# the route's absolute tolerance, in units of max(1, ||S|| ||g||)
_ROUTE_TOL = 1e-12
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@lru_cache(maxsize=None)
def _gauss_hermite(nodes):
    """Read-only Gauss-Hermite nodes s_k and weights w_k (weight e^{-s^2})."""
    # imported here: numpy.polynomial adds about 4.5 ms to every CLI start
    from numpy.polynomial.hermite import hermgauss

    s, w = hermgauss(nodes)
    assert np.isfinite(w).all(), f"hermgauss({nodes}) weights are not finite"
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


def _rule_nodes(band, k, m):
    """Nodes of the smallest rule resolving the band, plus k + m for the
    H_m H_k factor, or None if that exceeds the cap."""
    for nodes, nu in _GH_BANDS:
        if band <= nu:
            nodes += k + m
            return nodes if nodes + _GH_CHECK_NODES <= _GH_MAX_NODES else None
    return None


def _product_matrix(k, m, x, p, u, s, w):
    """A[u, i] = w_i e^{-d^2/4} F_n(c + s_i) H_m(s_i + d/2) H_k(s_i - d/2)
    for a 1-D u, and c = (x + u)/2."""
    c = (x + u) / 2.0
    half = np.clip(u - x, -_D_MAX, _D_MAX)[:, None] / 2.0
    a = np.exp(-half * half) * w
    if k or m:
        a = (a * hermite_polynomial(m, s + half)
             * hermite_polynomial(k, s - half))
    return _guard(a * f_n(p, c[:, None] + s)), c


def _gauss_hermite_grid(k, m, x, p, u, eta, nodes):
    """V on the 1-D axes u x eta from the nodes-point rule, with its
    truncation estimate (the largest change of the extreme-eta columns on a
    rule _GH_CHECK_NODES larger) and its roundoff bound
    max_u (n + N) u sum_i |A[u, i]|."""
    s, w = _gauss_hermite(nodes)
    a, c = _product_matrix(k, m, x, p, u, s, w)
    phase = _phase_outer(c, eta)
    v = a @ _phase_outer(s, eta)
    v *= phase
    ends = [int(np.argmin(eta)), int(np.argmax(eta))]
    s2, w2 = _gauss_hermite(nodes + _GH_CHECK_NODES)
    a2, _ = _product_matrix(k, m, x, p, u, s2, w2)
    check = a2 @ _phase_outer(s2, eta[ends])
    check *= phase[:, ends]
    trunc = float(np.max(np.abs(check - v[:, ends])))
    roundoff = ((p.n + nodes) * _UNIT_ROUNDOFF
                * float(np.max(np.abs(a).sum(axis=1))))
    return v, trunc, roundoff


def _termwise_factors(x, p, u, eta):
    """The factors of _termwise_grid on the 1-D axes u and eta: half =
    (u + x)/2, ux = u - x and lam_j = omega_j - eta clipped at _D_MAX, the
    rows sqrt(pi) C_j e^{i omega_j half - ux^2/4} and gauss = e^{-lam^2/4}.
    For the Gaussian window the grid is (rows.T @ gauss) e^{-i eta half}."""
    w = frequencies(p)
    with np.errstate(over="ignore", invalid="ignore"):
        half = (u + x) / 2.0
        ux = np.minimum(np.maximum(u - x, -_D_MAX), _D_MAX)
        rows = (SQRT_PI * coefficients(p))[:, None] * np.exp(
            1j * np.multiply.outer(w, half) - ux * ux / 4.0)
    lam = np.minimum(np.maximum(np.subtract.outer(w, eta), -_D_MAX), _D_MAX)
    return half, ux, rows, lam, np.exp(-lam * lam / 4.0)


def _termwise_grid(k, m, x, p, u_axis, eta_axis):
    """The coefficient sum sum_j C_j hermite_pair_integral(k, m, u, x,
    omega_j - eta) on the tensor grid of the finite axes u_axis x eta_axis
    (shape u.shape + eta.shape, a complex for 0-d axes).

    The phase e^{i lam (u + x)/2} of term j splits into e^{i omega_j (u+x)/2},
    one value per u, and e^{-i eta (u + x)/2}, which is the same for every
    term and multiplies the sum once.  What each term keeps is the real
    Gaussian-Laguerre factor e^{-lam^2/4 - (u-x)^2/4} L_i^{(d)}(|z|^2),
    i = min(k, m), times zeta^d for k != m; for the Gaussian window it is
    an outer product, so the sum is one (U x J) @ (J x E) matrix product
    with C_j folded into its first factor, whose two factors
    _termwise_factors builds.  It forms C_j itself because
    supershift_probe's (J, U, E) term array would add 433^2 x 5 x 16 B =
    15 MB on a 433 x 433 grid, a quarter of verify's peak RSS.  As
    in the pair integral, lam and u - x are clipped at _D_MAX, and a cell
    whose phase is not finite is 0 where the Gaussian factor is 0, a
    ValueError where it is not."""
    u, eta = u_axis.ravel(), eta_axis.ravel()
    half, ux, rows, lam, gauss = _termwise_factors(x, p, u, eta)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = _phase_outer(half, eta)
    ux = ux[:, None]
    if k or m:
        order = min(k, m)
        total = np.zeros(phase.shape, dtype=complex)
        for row, lam_j, gauss_j in zip(rows, lam, gauss):
            factor = gauss_j * laguerre(order, (lam_j * lam_j + ux * ux) / 2.0,
                                        abs(k - m))
            if k != m:
                factor = factor * _zeta_power(k, m, lam_j, ux)
            total += row[:, None] * factor
        total *= _pair_scale(k, m)
    else:
        total = rows.T @ gauss
    total *= phase
    total = _clear_lost_phase(
        total, ~np.isfinite(phase),
        lambda: -np.min(lam * lam, axis=0) / 4.0 - ux * ux / 4.0)
    return _as_result(total.reshape(u_axis.shape + eta_axis.shape))


def _hermite_superosc_grid(k, m, x, p, u_axis, eta_axis):
    """V_{h_k}(S)(u, eta) for S(t) = F_n(t) h_m(t - x) on the tensor grid of
    the finite axes u_axis x eta_axis (shape u.shape + eta.shape, a single
    complex value for 0-d axes), by Gauss-Hermite quadrature of the
    product form:

        V(u, eta) = int e^{-it eta} F_n(t) h_m(t - x) h_k(t - u) dt
                  = e^{-i c eta} sum_i A[u, i] e^{-i s_i eta},
        A[u, i] = w_i e^{-d^2/4} F_n(c + s_i) H_m(s_i + d/2) H_k(s_i - d/2),

    c = (x + u)/2, d = u - x, with F_n(t) = (cos(t/n) + i a sin(t/n))^n
    evaluated as a product, so nothing cancels and the cost of the one
    (U x N) @ (N x E) product does not grow with n.  The N-node rule is
    picked from the band max|eta| + max(1, |a|) (_GH_BANDS) plus k + m
    nodes.

    The result is within 1e-12 max(1, ||S|| ||h_k||) of the truth, where
    ||S|| ||h_k|| bounds |V| everywhere (Cauchy-Schwarz).  Two checks hold
    it there: the extreme-eta columns must agree with a rule of N + 40
    nodes, and the roundoff bound (n + N) u sum_i |A[u, i]| (u the unit
    roundoff) must be within the tolerance.  When no rule up to
    _GH_MAX_NODES passes, the coefficient sum of pair integrals
    sum_j C_j hermite_pair_integral(k, m, u, x, omega_j - eta), evaluated
    by _termwise_grid, is used if its Higham bound
    (n + 1) u max(1, |a|)^n ||h_k|| ||h_m|| is within the tolerance; for
    k = m it is stft_superosc_termwise_grid to the bit.  Failing
    that, this raises ValueError naming the eta range; orders outside
    0..MAX_HERMITE_ORDER are a ValueError too."""
    _check_orders(k, m)
    u, eta = u_axis.ravel(), eta_axis.ravel()
    shape = u_axis.shape + eta_axis.shape
    if not (u.size and eta.size):
        return np.zeros(shape, dtype=complex)
    k_norm_sq = hermite_norm_sq(k)
    tol = _ROUTE_TOL * max(1.0, math.sqrt(
        signal_norm_sq(build_signal(hermite_window(m), x, p)) * k_norm_sq))
    band = float(np.max(np.abs(eta))) + max(1.0, abs(p.a))
    nodes = _rule_nodes(band, k, m)
    if nodes is None:
        why = (f"no rule within {_GH_MAX_NODES} nodes resolves the band "
               f"{band:.4g}")
    else:
        v, trunc, roundoff = _gauss_hermite_grid(k, m, x, p, u, eta, nodes)
        if max(trunc, roundoff) <= tol:
            return _as_result(v.reshape(shape))
        why = (f"{nodes} nodes leave truncation {trunc:.3g} and roundoff "
               f"bound {roundoff:.3g}")
    # Higham's bound of the termwise sum, in log space: max(1, |a|)^n and
    # the coefficients themselves overflow for large n
    log_bound = (math.log((p.n + 1) * _UNIT_ROUNDOFF
                          * math.sqrt(k_norm_sq * hermite_norm_sq(m)))
                 + p.n * math.log(max(1.0, abs(p.a))))
    if log_bound <= math.log(tol):
        return _termwise_grid(k, m, x, p, u_axis, eta_axis)
    raise ValueError(
        f"superoscillation STFT (n = {p.n}, a = {p.a}, windows h_{k} and "
        f"h_{m}) not resolved to {tol:.3g} for eta in "
        f"[{eta.min():.6g}, {eta.max():.6g}]: Gauss-Hermite: {why}; "
        f"termwise sum: roundoff bound 10^{log_bound / math.log(10.0):.1f}")


def stft_superosc_closed_grid(g, x, p, u_axis, eta_axis):
    """V_g(S)(u, eta) for the signal S(t) = F_n(t) g(t - x) built on the
    same window g, on a tensor grid of shape u.shape + eta.shape (a single
    complex value for 0-d u and eta); by linearity it equals
    sum_j C_j K_g(x, omega_j; u, eta).  A gaussian or hermite window h_m
    takes _hermite_superosc_grid with k = m.  A custom window has no closed
    kernel: its grid is one stft_grid of build_signal(g, x, p), on the box
    the signal's decay radius sets, so the
    window needs one.  Either way F_n is evaluated as a product, so nothing
    cancels at any n.  A non-finite x, u or eta is a ValueError that names
    it."""
    u_axis, eta_axis = _grid_axes(x, u_axis, eta_axis)
    if g.kind == "custom":
        return stft_grid(build_signal(g, x, p), g, u_axis, eta_axis)
    return _hermite_superosc_grid(g.order, g.order, x, p, u_axis, eta_axis)


def stft_superosc_cross(k, m, x, p, u, eta):
    """V_{h_k}(S)(u, eta) for the signal S(t) = F_n(t) h_m(t - x) built on
    the *other* Hermite window h_m, by _hermite_superosc_grid: a tensor
    grid of shape u.shape + eta.shape, a complex for 0-d u and eta.  It
    equals the cancelling sum of pair integrals
    sum_j C_j hermite_pair_integral(k, m, u, x, omega_j - eta).  A
    non-finite x, u or eta is a ValueError that names it."""
    return _hermite_superosc_grid(k, m, x, p, *_grid_axes(x, u, eta))


def stft_superosc_termwise_grid(g, x, p, u_axis, eta_axis):
    """The closed twin of stft_superosc_closed_grid: the coefficient sum
    sum_j C_j K_g(x, omega_j; u, eta) of closed Gabor kernels, term by term.
    Same grid shapes; gaussian and hermite windows only.  Exact in exact
    arithmetic, but the sum cancels: sum_j |C_j| = max(1, |a|)^n, so its
    roundoff grows like (n + 1) u max(1, |a|)^n ||g||^2 and it is wrong
    from about n = 32 at a = 2.  The verify cases that pin the closed
    kernel sum and the evolution's integral representation, which inverts
    it, use it.  It is _termwise_grid with k = m the window's order, the same code
    as _hermite_superosc_grid's fallback."""
    if g.kind not in ("gaussian", "hermite"):
        raise ValueError("the termwise sum needs a gaussian or hermite window")
    return _termwise_grid(g.order, g.order, x, p,
                          *_grid_axes(x, u_axis, eta_axis))


def stft_superosc_limit_grid(g, x, a, u_axis, eta_axis):
    """The large-n limit of stft_superosc_closed_grid: V_g of the limit
    signal e^{i a t} g(t - x), the tone shifted_window(g, x, a), on a tensor
    grid (a single complex value for 0-d u and eta).  For a gaussian or
    hermite window that is the closed Gabor kernel K_g(x, a; u, eta), whose
    quadrature oracle is gabor_kernel_numeric; a custom window takes it by
    quadrature, one stft_grid.  A non-finite a, x, u or eta is a ValueError
    that names it."""
    _finite("a", a)
    u_axis, eta_axis = _grid_axes(x, u_axis, eta_axis)
    if g.kind == "custom":
        return stft_grid(shifted_window(g, x, a), g, u_axis, eta_axis)
    ug, eg = _tensor_axes(u_axis, eta_axis)
    return hermite_pair_integral(g.order, g.order, ug, x, a - eg)
