import math

import numpy as np
import pytest

from oracles import stft_approx_hermite_uncalibrated
from superstft.approx import (app2_closed, approximating_function,
                              apsthm_residual, stft_approx_hermite_closed,
                              stft_approx_via_ambiguity)
from superstft.signals import (build_signal, custom_window, gaussian_window,
                               hermite_window)
from superstft.superosc import SuperoscParams, coefficients, frequencies, f_n
from superstft.transforms import fourier, stft

rng = np.random.default_rng(55)


def test_approximating_function_values():
    """phi_{psi,n,a}(t) = sum_j C_j psi(t + omega_j), termwise."""
    g = gaussian_window()
    p = SuperoscParams(a=1.5, n=3)
    phi = approximating_function(g, p)
    assert phi.kind == "custom"
    assert phi.decay_radius is not None
    c = coefficients(p)
    w = frequencies(p)
    for t in (-1.0, 0.0, 0.7):
        expect = sum(cj * g(t + wj) for cj, wj in zip(c, w))
        assert abs(phi(t) - expect) < 1e-13


def test_one_growth_radius_for_signal_and_average():
    """The modulated signal and the approximating average grow their decay
    radius by the same rule, ceil(sqrt(R^2 + 2 n log max(1, |a|)) + 1)."""
    h3 = hermite_window(3)
    r = h3.decay_radius
    for (a, n) in [(2.0, 64), (0.5, 3), (-3.0, 17)]:
        p = SuperoscParams(a=a, n=n)
        grown = math.ceil(math.sqrt(r * r + 2.0 * n * math.log(max(1.0, abs(a))))
                          + 1.0)
        assert build_signal(h3, -0.7, p).decay_radius == 0.7 + grown
        assert approximating_function(h3, p).decay_radius == 1.0 + grown


def test_approximating_function_supershifts_to_time_shift():
    """The n -> infinity limit is the time shift psi(t + a), not a
    modulation."""
    g = gaussian_window()
    a, t = 1.5, 0.4
    errs = []
    for n in (10, 40):
        phi = approximating_function(g, SuperoscParams(a=a, n=n))
        errs.append(abs(phi(t) - g(t + a)))
    assert errs[1] < 0.6 * errs[0]


def test_fourier_factorization():
    """F(phi_{psi,n,a})(lam) = F(psi)(lam) f_n(lam) exactly (APS sum)."""
    g = gaussian_window()
    lams = (-1.5, 0.0, 0.8)
    for n in (1, 3, 5):
        p = SuperoscParams(a=2.0, n=n)
        _assert_grid_is_its_points(g, p, lams)
    # explicitly, at one point
    p = SuperoscParams(a=2.0, n=3)
    phi = approximating_function(g, p)
    lam = 0.6
    lhs = fourier(phi, lam)
    rhs = fourier(g, lam) * f_n(p, lam)
    assert abs(lhs - rhs) < 1e-11


def test_factorization_hermite_window():
    _assert_grid_is_its_points(hermite_window(2), SuperoscParams(a=1.5, n=2),
                               (-0.7, 1.2))


def _assert_grid_is_its_points(psi, p, lams):
    """Each residual is below 1e-10, as a 0-d call (a float) and as an entry
    of the lam array, which is its point call's value to 1e-13 of the
    transform F(psi)(lam) F_n(lam) it is the residual of."""
    grid = apsthm_residual(psi, p, np.array(lams))
    assert grid.shape == (len(lams),)
    for lam, entry in zip(lams, grid):
        point = apsthm_residual(psi, p, lam)
        assert type(point) is float and point < 1e-10
        scale = abs(fourier(psi, lam) * f_n(p, lam))
        assert abs(entry - point) <= 1e-13 * scale


def test_ambiguity_route_vs_direct_quadrature():
    """V_g(phi_{g,n,a}) assembled from ambiguity shifts = direct STFT."""
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=3)
    phi = approximating_function(g, p)
    for (u, eta) in [(0.3, 0.5), (-0.4, 1.1)]:
        via = stft_approx_via_ambiguity(g, p, u, eta)
        direct = stft(phi, g, u, eta)
        assert abs(via - direct) < 1e-11


def test_hermite_closed_route_agreement():
    """2D-Hermite closed form = ambiguity route for h_m windows."""
    p = SuperoscParams(a=2.0, n=3)
    for m in (0, 1, 2):
        g = hermite_window(m)
        for (u, eta) in [(0.3, 0.5), (-0.4, 1.1)]:
            via = stft_approx_via_ambiguity(g, p, u, eta)
            closed = stft_approx_hermite_closed(m, m, p, u, eta)
            assert abs(via - closed) < 1e-10


def test_cross_order_closed_vs_quadrature():
    """Window order k, shifted-family order m, k != m."""
    p = SuperoscParams(a=1.5, n=2)
    k, m = 1, 2
    hk, hm = hermite_window(k), hermite_window(m)
    phi = approximating_function(hm, p)
    for (u, eta) in [(0.2, 0.6)]:
        direct = stft(phi, hk, u, eta)
        closed = stft_approx_hermite_closed(k, m, p, u, eta)
        assert abs(direct - closed) < 1e-10


def test_uncalibrated_variant_ratio():
    """The literal variant differs by the flat factor 2^{-k/2}/sqrt(k!) on
    the diagonal (and equals the calibrated form at k = 0)."""
    p = SuperoscParams(a=1.5, n=3)
    u, eta = 0.4, 0.9
    v0 = stft_approx_hermite_uncalibrated(0, 0, p, u, eta)
    assert abs(v0 - stft_approx_hermite_closed(0, 0, p, u, eta)) < 1e-12
    k = 2
    unc = stft_approx_hermite_uncalibrated(k, k, p, u, eta)
    cal = stft_approx_hermite_closed(k, k, p, u, eta)
    ratio = unc / cal
    assert abs(ratio - 2.0 ** (-k / 2.0) / math.sqrt(math.factorial(k))) < 1e-10


def test_app2_closed_form():
    """Closed limit transform = STFT of the time-shifted window."""
    g = gaussian_window()
    a = 1.5
    shifted = custom_window(lambda t: g(np.asarray(t, dtype=float) + a),
                            decay_radius=g.decay_radius + a)
    for (u, eta) in [(0.0, 0.0), (0.2, 0.1), (-0.7, 1.3)]:
        quad = stft(shifted, g, u, eta)
        assert abs(quad - app2_closed(u, eta, a)) < 1e-12


def test_convergence_to_app2():
    a = 1.5
    for (u, eta) in [(0.2, 0.1), (0.4, 0.8)]:
        tgt = app2_closed(u, eta, a)
        errs = [abs(stft_approx_hermite_closed(0, 0, SuperoscParams(a=a, n=n),
                                               u, eta) - tgt)
                for n in (10, 40)]
        assert errs[1] < 0.6 * errs[0], (u, eta)


def test_negative_orders_rejected():
    p = SuperoscParams(a=1.5, n=2)
    with pytest.raises(ValueError):
        stft_approx_hermite_closed(-1, 0, p, 0.0, 0.0)
    with pytest.raises(ValueError):
        stft_approx_hermite_closed(0, -2, p, 0.0, 0.0)
