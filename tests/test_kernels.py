import math
import warnings

import mpmath
import numpy as np
import pytest

from oracles import (hermite_convolution_mirror, i_km_mirror, phi_na_norm,
                     stft_integral_representation, stft_superosc_cross_mirror)
from superstft import kernels, special, superosc, transforms, verify
from superstft.approx import stft_approx_hermite_closed
from superstft.kernels import (gabor_kernel_numeric, generating_product_check,
                               generating_sum_check, hermite_autoconvolution,
                               hermite_convolution_closed,
                               hermite_pair_integral, i_km_closed,
                               i_km_series, norm_sq_closed_gaussian,
                               norm_sq_closed_hermite, normalized_fock_kernel,
                               stft_superosc_closed_grid, stft_superosc_cross,
                               stft_superosc_fock_form,
                               stft_superosc_limit_grid,
                               stft_superosc_termwise_grid)
from superstft.quadrature import QuadratureSpec, make_spec, nodes_weights
from superstft.signals import (build_signal, custom_window, gaussian_window,
                               hermite_window, shifted_window, signal_norm_sq,
                               window_norm_sq)
from superstft.special import (complex_hermite_generating_sum,
                               hermite_function, hermite_norm_sq, laguerre)
from superstft.superosc import SuperoscParams, f_n, supershift_probe
from superstft.transforms import (convolve, fourier, moyal_double_integral,
                                  stft, stft_grid)

rng = np.random.default_rng(2024)

SQRT_PI = math.sqrt(math.pi)


def test_pair_integral_vs_quadrature():
    """int e^{i t lam} h_k(t-u) h_m(t-x) dt against direct quadrature."""
    for _ in range(8):
        k = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        u, x, lam = rng.uniform(-1.5, 1.5, 3)
        spec = make_spec(12.0, u, x)
        quad = fourier(lambda t: hermite_function(k, t - u)
                       * hermite_function(m, t - x), -lam, spec=spec)
        assert abs(quad - hermite_pair_integral(k, m, u, x, lam)) < 1e-11


def test_gabor_kernel_gaussian_closed():
    """The closed Gaussian kernel K_g(x, omega; u, eta), the 0-d
    stft_superosc_limit_grid, against quadrature; the order-0 Hermite
    kernel and its quadrature are the same numbers."""
    g, h0 = gaussian_window(), hermite_window(0)
    for _ in range(10):
        x, omega, u, eta = rng.uniform(-2.0, 2.0, 4)
        closed = stft_superosc_limit_grid(g, x, omega, u, eta)
        numeric = gabor_kernel_numeric(g, x, omega, u, eta)
        assert abs(closed - numeric) < 1e-12
        assert stft_superosc_limit_grid(h0, x, omega, u, eta) == closed
        assert gabor_kernel_numeric(h0, x, omega, u, eta) == numeric


def test_gabor_kernel_hermite_calibrated():
    """The Laguerre-form Hermite kernel needs the 2^n n! calibration."""
    g0 = gaussian_window()
    for n in (1, 2, 3):
        g = hermite_window(n)
        for _ in range(4):
            x, omega, u, eta = rng.uniform(-1.5, 1.5, 4)
            closed = stft_superosc_limit_grid(g, x, omega, u, eta)
            numeric = gabor_kernel_numeric(g, x, omega, u, eta)
            assert abs(closed - numeric) < 1e-10
            # and the Laguerre product alone is off by exactly that factor
            r2 = ((x - u) ** 2 + (omega - eta) ** 2) / 2.0
            base = stft_superosc_limit_grid(g0, x, omega, u, eta) * laguerre(n, r2)
            assert abs(base * 2.0**n * math.factorial(n) - closed) < 1e-13


def test_gabor_kernel_numeric_far_from_the_origin():
    """The covariance t = s + x that makes gabor_kernel_numeric one stft of
    the window against itself, e^{i x (omega - eta)} V_g g(u - x, eta - omega),
    holds with |x| and |u| up to 20, where the phase x (omega - eta)
    reaches about 120: within 1e-13 ||g||^2 of the closed kernel."""
    draws = np.random.default_rng(7)
    for n in (0, 2, 5):
        g = hermite_window(n)
        for _ in range(6):
            x = draws.uniform(-20.0, 20.0)
            u = float(np.clip(x + draws.uniform(-3.0, 3.0), -20.0, 20.0))
            omega, eta = draws.uniform(-3.0, 3.0, 2)
            closed = stft_superosc_limit_grid(g, x, omega, u, eta)
            numeric = gabor_kernel_numeric(g, x, omega, u, eta)
            assert type(numeric) is complex
            assert abs(closed - numeric) <= 1e-13 * hermite_norm_sq(n), (
                n, x, u, omega, eta)


def test_gabor_kernel_numeric_needs_decay_radius():
    """A custom window without a decay radius cannot size the quadrature
    box: a ValueError that names decay_radius, as stft_grid raises."""
    w = custom_window(lambda t: np.exp(-np.asarray(t) ** 2))
    with pytest.raises(ValueError, match="decay_radius"):
        gabor_kernel_numeric(w, 0.1, 0.2, 0.3, 0.4)


@pytest.mark.parametrize("name", ["x", "omega", "u", "eta"])
def test_gabor_kernel_numeric_names_the_non_finite_argument(name):
    """gabor_kernel_numeric takes the arguments of its closed twin
    stft_superosc_limit_grid and, like it, refuses a NaN or infinite one
    with a ValueError that names it."""
    for bad in (math.nan, -math.inf):
        args = {"x": 0.1, "omega": 0.2, "u": 0.3, "eta": 0.4, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gabor_kernel_numeric(gaussian_window(), **args)


def test_stft_superosc_closed_vs_numeric():
    """Closed kernel sum = quadrature STFT of the modulated signal, at
    points and on the 5x5 grid over [-2, 2]^2 (n = 2, 4, 8)."""
    for (kind, a, n, x) in [("gaussian", 1.5, 3, 0.0),
                            ("gaussian", 2.0, 5, 0.5),
                            ("hermite", 1.5, 2, 0.3)]:
        g = gaussian_window() if kind == "gaussian" else hermite_window(1)
        p = SuperoscParams(a=a, n=n)
        s = build_signal(g, x, p)
        for (u, eta) in [(0.4, -0.6), (0.0, 1.0)]:
            closed = stft_superosc_closed_grid(g, x, p, u, eta)
            numeric = stft(s, g, u, eta)
            assert abs(closed - numeric) < 1e-10 * (1 + a) ** n
    grid = np.linspace(-2.0, 2.0, 5)
    for g in (gaussian_window(), hermite_window(1)):
        for a in (1.5, 2.0):
            for n in (2, 4, 8):
                p = SuperoscParams(a=a, n=n)
                for x in (0.0, 0.5):
                    s = build_signal(g, x, p)
                    closed = stft_superosc_closed_grid(g, x, p, grid, grid)
                    numeric = stft_grid(s, g, grid, grid, spec=make_spec(
                        s.decay_radius, 2.0))
                    err = np.max(np.abs(closed - numeric))
                    assert err < 1e-10 * (1 + a) ** n, (g.kind, a, n, x, err)


def test_stft_superosc_limit_is_single_kernel():
    """The limit tone's transform is one kernel evaluation K_g(x, a; .)."""
    g = gaussian_window()
    x, a = 0.3, 2.0
    s = shifted_window(g, x, a)
    for (u, eta) in [(0.2, 0.5), (-1.0, 1.5)]:
        closed = stft_superosc_limit_grid(g, x, a, u, eta)
        assert abs(closed - stft(s, g, u, eta)) < 1e-12
        assert abs(closed - gabor_kernel_numeric(g, x, a, u, eta)) < 1e-12


def test_cross_reduces_to_gaussian():
    """Order-(0,0) cross kernels coincide with the Gaussian kernel sum."""
    g = gaussian_window()
    p = SuperoscParams(a=1.5, n=3)
    for (u, eta) in [(0.3, 0.4), (-0.5, 1.0)]:
        cross = stft_superosc_cross(0, 0, 0.2, p, u, eta)
        plain = stft_superosc_closed_grid(g, 0.2, p, u, eta)
        assert abs(cross - plain) < 1e-12


def test_cross_hermite_vs_quadrature():
    """V_{h_k}(F_n h_m(.-x)) as a J-sum against direct quadrature."""
    p = SuperoscParams(a=1.5, n=2)
    x = 0.2
    for (k, m) in [(0, 1), (1, 1), (2, 1)]:
        hm = hermite_window(m)
        s = build_signal(hm, x, p)
        hk = hermite_window(k)
        for (u, eta) in [(0.4, 0.7)]:
            direct = stft(s, hk, u, eta)
            closed = stft_superosc_cross(k, m, x, p, u, eta)
            assert abs(direct - closed) < 1e-10


def test_cross_mirror_relation():
    """Mirror variant is the k = m diagonal twin of the direct one."""
    p = SuperoscParams(a=1.5, n=3)
    for m in (0, 1, 2):
        for (u, eta) in [(0.3, -0.2), (0.8, 1.1)]:
            a = stft_superosc_cross(m, m, 0.1, p, u, eta)
            b = stft_superosc_cross_mirror(m, m, 0.1, p, u, eta)
            assert abs(a - b) < 1e-12


def test_limit_cross_is_n_to_infinity_limit():
    """The cross-window and Gaussian transforms approach their limit
    kernels, the single pair integral at frequency a: the error at n = 40
    is below 0.6 times that at n = 10."""
    a, x4, u, eta = 1.5, 0.3, 0.4, 0.8
    g = gaussian_window()
    errs = {}
    for n in (10, 40):
        p = SuperoscParams(a=a, n=n)
        errs[n] = abs(stft_superosc_cross(1, 2, x4, p, u, eta)
                      - hermite_pair_integral(1, 2, u, x4, a - eta))
    assert errs[40] < 0.6 * errs[10]
    for n in (10, 40):
        p = SuperoscParams(a=a, n=n)
        errs[n] = abs(stft_superosc_closed_grid(g, x4, p, u, eta)
                      - stft_superosc_limit_grid(g, x4, a, u, eta))
    assert errs[40] < 0.6 * errs[10]


def test_fock_kernel_reproducing_values():
    w = -0.3 + 0.7j
    # normalized kernel has unit self-overlap factor e^{|w|^2/2 - |w|^2} ...
    val = normalized_fock_kernel(w, w)
    assert abs(val - np.exp(abs(w) ** 2 / 2.0) / SQRT_PI) < 1e-13


def test_fock_kernel_array_call_equals_its_scalar_calls():
    """An array call is the scalar calls' values to the bit, and a scalar
    call is a complex; w and z broadcast together, as in the Fock form."""
    w = np.array([-0.3 + 0.7j, 1.1, -2.0j, 0.45 - 0.2j])
    z = np.array([0.2 - 1.3j, 0.6j, -0.9, 1.7 + 0.4j])
    for ws, zs in ((w, z), (w, z[0]), (w[:, None], z)):
        grid = normalized_fock_kernel(ws, zs)
        for i in np.ndindex(grid.shape):
            one = normalized_fock_kernel(np.broadcast_to(ws, grid.shape)[i],
                                         np.broadcast_to(zs, grid.shape)[i])
            assert type(one) is complex and one == grid[i]


def test_fock_form_equals_closed():
    """Coherent-state reassembly of the Gaussian-window closed transform."""
    g = gaussian_window()
    for _ in range(6):
        x, u, eta = rng.uniform(-1.5, 1.5, 3)
        p = SuperoscParams(a=float(rng.uniform(1.2, 2.2)),
                           n=int(rng.integers(1, 6)))
        lhs = stft_superosc_fock_form(x, p, u, eta)
        rhs = stft_superosc_closed_grid(g, x, p, u, eta)
        assert abs(lhs - rhs) < 1e-12


def test_norm_closed_gaussian():
    g = gaussian_window()
    for (a, n, x) in [(1.5, 2, 0.0), (2.0, 4, 0.3)]:
        p = SuperoscParams(a=a, n=n)
        closed = norm_sq_closed_gaussian(x, p)
        # the k = m = 0 Hermite norm, to the bit: ||h_0||^2 is sqrt(pi)
        assert type(closed) is float
        assert closed == norm_sq_closed_hermite(0, 0, x, p)
        s = build_signal(g, x, p)
        from superstft.quadrature import QuadratureSpec, integrate
        spec = QuadratureSpec(truncation_radius=float(s.decay_radius))
        sig = integrate(lambda t: np.abs(s(t)) ** 2, spec).real
        assert abs(closed - SQRT_PI * sig) < 1e-10 * abs(closed)
        # 1D Gaussian-weighted avatar agrees after the pi normalization
        assert abs(phi_na_norm(x, p) - closed / math.pi) < 1e-9


def test_norm_closed_hermite():
    p = SuperoscParams(a=1.5, n=3)
    for (k, m) in [(0, 1), (2, 1), (1, 2)]:
        closed = norm_sq_closed_hermite(k, m, 0.2, p)
        hm = hermite_window(m)
        s = build_signal(hm, 0.2, p)
        from superstft.quadrature import QuadratureSpec, integrate
        spec = QuadratureSpec(truncation_radius=float(s.decay_radius))
        sig = integrate(lambda t: np.abs(s(t)) ** 2, spec).real
        expect = window_norm_sq(hermite_window(k)) * sig
        assert abs(closed - expect) < 1e-9 * abs(expect)


def test_hermite_convolution_closed():
    """(M_x h_k * M_u h_m)(lam) closed form against quadrature."""
    for _ in range(6):
        k = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        x, u = rng.uniform(-1.5, 1.5, 2)
        lam = rng.uniform(-3.0, 3.0)
        quad = convolve(lambda t: np.exp(1j * x * t) * hermite_function(k, t),
                        lambda t: np.exp(1j * u * t) * hermite_function(m, t),
                        lam, spec=make_spec(12.0, lam))
        closed = hermite_convolution_closed(k, m, x, u, lam)
        assert type(closed) is complex
        assert abs(quad - closed) < 1e-11
    # every pair k, m <= 4, with the unmodulated specialization and the
    # slot-exchanged print on the diagonal
    draws = np.random.default_rng(42)
    for k in range(5):
        for m in range(5):
            x, u = draws.uniform(-1.0, 1.0, 2)
            lam = draws.uniform(-3.0, 3.0)
            quad = convolve(
                lambda t: np.exp(1j * x * t) * hermite_function(k, t),
                lambda t: np.exp(1j * u * t) * hermite_function(m, t),
                lam, spec=make_spec(12.0, lam))
            closed = hermite_convolution_closed(k, m, x, u, lam)
            assert abs(quad - closed) < 1e-11, (k, m)
            if k == m:
                assert abs(hermite_convolution_mirror(k, m, x, u, lam)
                           - closed) < 1e-12, k
            quad0 = convolve(lambda t: hermite_function(k, t),
                             lambda t: hermite_function(m, t),
                             lam, spec=make_spec(12.0, lam))
            assert abs(quad0 - hermite_autoconvolution(k, m, lam)) < 1e-11


def test_hermite_convolution_mirror_relation():
    """mirror(k, m) = (-1)^{k+m} closed(m, k); equal on the diagonal."""
    for _ in range(8):
        k = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        x, u, lam = rng.uniform(-1.5, 1.5, 3)
        mir = hermite_convolution_mirror(k, m, x, u, lam)
        swp = hermite_convolution_closed(m, k, x, u, lam)
        assert abs(mir - (-1.0) ** (k + m) * swp) < 1e-12
    d = hermite_convolution_mirror(2, 2, 0.4, -0.1, 0.9)
    assert abs(d - hermite_convolution_closed(2, 2, 0.4, -0.1, 0.9)) < 1e-13


def test_hermite_autoconvolution():
    for (k, m) in [(0, 0), (1, 2), (3, 1)]:
        for lam in (-1.0, 0.5, 2.0):
            quad = convolve(lambda t: hermite_function(k, t),
                            lambda t: hermite_function(m, t),
                            lam, spec=make_spec(12.0, lam))
            assert abs(quad - hermite_autoconvolution(k, m, lam)) < 1e-11
            assert abs(hermite_autoconvolution(k, m, lam)
                       - hermite_convolution_closed(k, m, 0.0, 0.0, lam)) < 1e-12


def test_i_km_series_equals_closed():
    """Polynomial identity, so it must hold at complex points too."""
    for _ in range(12):
        k = int(rng.integers(0, 7))
        m = int(rng.integers(0, 7))
        x, u, lam = (rng.uniform(-1.0, 1.0, 3)
                     + 1j * rng.uniform(-1.0, 1.0, 3))
        s = i_km_series(k, m, x, u, lam)
        c = i_km_closed(k, m, x, u, lam)
        assert abs(s - c) < 1e-10 * max(1.0, abs(c))


def test_i_km_mirror_diagonal():
    for m in (0, 1, 3):
        x, u, lam = 0.3, -0.8, 1.2
        assert abs(i_km_mirror(m, m, x, u, lam)
                   - i_km_closed(m, m, x, u, lam)) < 1e-12


def test_i_km_reassembles_pair_integral():
    """sqrt(pi) e^{...} I_{k,m} = the pair integral (x and u swap slots)."""
    for (k, m) in [(0, 0), (1, 0), (2, 3)]:
        x, u, lam = 0.5, -0.3, 0.9
        pre = SQRT_PI * np.exp(-lam**2 / 4.0 + 0.5j * lam * (x + u)
                               - (x - u) ** 2 / 4.0)
        val = pre * i_km_series(k, m, x, u, lam)
        direct = hermite_pair_integral(k, m, x, u, lam)
        assert abs(val - direct) < 1e-11


def test_generating_checks_agree():
    for (x, lam) in [(0.0, 0.5), (0.4, -1.0)]:
        lhs, rhs = generating_sum_check(x, 0.3, -0.2, lam, 20)
        assert abs(lhs - rhs) < 1e-10
        lhs, rhs = generating_product_check(x, 0.3, -0.2, lam, 20)
        assert abs(lhs - rhs) < 1e-10
    # frozen reference value of the product identity
    u = v = 0.2
    x, lam = 0.1, 0.5
    lhs, _ = generating_product_check(x, u, v, lam, 20)
    frozen = 2.0 * math.pi * np.exp(-u * v - (x - lam) ** 2 + (u + v) ** 2 / 2.0
                                    + math.sqrt(2.0) * 1j * (x - lam) * (u + v))
    assert abs(lhs - frozen) < 1e-10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_convolution_table_is_the_per_order_values(seed):
    """Every entry of the generating-sum order table is
    hermite_convolution_closed(k, m, x, x, lam)'s to the bit, for k, m <= 20
    on the generating-sum draw domain (five points, |x| <= 1,
    |lam| <= 1.5)."""
    draw = np.random.default_rng(seed)
    x, lam = draw.uniform(-1.0, 1.0, 5), draw.uniform(-1.5, 1.5, 5)
    table = kernels._convolution_table(20, x, lam)
    assert table.shape == (21, 21, 5)
    for k in range(21):
        for m in range(21):
            ref = hermite_convolution_closed(k, m, x, x, lam)
            assert table[k, m].tobytes() == ref.tobytes(), (k, m)


def test_pair_integral_table_is_the_per_order_values():
    """The same for the pair-integral table on a wider domain, far and
    clipped arguments included: each entry is hermite_pair_integral's, down
    to the -0 imaginary part of an underflowed cell whose phase is in the
    third quadrant (u = 3.5/30, x = 0, lam clipped to 60)."""
    draw = np.random.default_rng(5)
    u, x = draw.uniform(-8.0, 8.0, (2, 7))
    lam = np.append(draw.uniform(-10.0, 10.0, 6), 90.0)
    u, x, lam = np.append(u, 3.5 / 30), np.append(x, 0.0), np.append(lam, 100.0)
    table = kernels._pair_integral_table(24, u, x, lam)
    for k in range(25):
        for m in range(25):
            ref = hermite_pair_integral(k, m, u, x, lam)
            assert table[k, m].tobytes() == ref.tobytes(), (k, m)


@pytest.mark.parametrize("check", [generating_sum_check,
                                   generating_product_check])
def test_generating_checks_on_point_arrays(check):
    """Five points in one call give the five scalar calls' values; a
    scalar call returns a pair of complex."""
    gen = np.random.default_rng(7)
    x = gen.uniform(-1.0, 1.0, 5)
    lam = gen.uniform(-1.5, 1.5, 5)
    u = gen.uniform(-0.5, 0.5, 5) + 1j * gen.uniform(-0.25, 0.25, 5)
    v = gen.uniform(-0.5, 0.5, 5) + 1j * gen.uniform(-0.25, 0.25, 5)
    scalar = [check(*pt, 20) for pt in zip(x, u, v, lam)]
    assert all(type(side) is complex for pair in scalar for side in pair)
    lhs, rhs = check(x, u, v, lam, 20)
    assert lhs.shape == rhs.shape == (5,)
    np.testing.assert_allclose(lhs, [p[0] for p in scalar], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(rhs, [p[1] for p in scalar], rtol=1e-15, atol=0.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_integral_representation_recovers_f_n():
    """Phase-space inversion reproduces the pointwise sequence values."""
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=4)
    for (x, y) in [(0.0, 0.5), (0.3, -0.4)]:
        rep = stft_integral_representation(g, x, y, p)
        assert abs(rep - f_n(p, y)) < 1e-8
    h1 = hermite_window(1)
    # hermite windows work too, away from the window's zero at y = x
    rep = stft_integral_representation(h1, 0.0, 0.7, p)
    assert abs(rep - f_n(p, 0.7)) < 1e-7
    with pytest.raises(ValueError):
        stft_integral_representation(h1, 0.0, 0.0, p)  # h_1(0) = 0


def test_closed_grids_match_scalars():
    """Grid entries equal the 0-d calls at the same points."""
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=3)
    u = np.linspace(-1.0, 1.0, 4)
    eta = np.linspace(-2.0, 2.0, 3)
    grid = stft_superosc_closed_grid(g, 0.2, p, u, eta)
    for i in (0, 3):
        for j in (0, 2):
            assert abs(grid[i, j] - stft_superosc_closed_grid(
                g, 0.2, p, u[i], eta[j])) < 1e-13
    lim = stft_superosc_limit_grid(g, 0.2, 2.0, u, eta)
    for i in (1, 2):
        for j in (0, 1):
            assert abs(lim[i, j] - stft_superosc_limit_grid(
                g, 0.2, 2.0, u[i], eta[j])) < 1e-13


def test_custom_window_falls_back_to_quadrature():
    """A custom window has no closed kernel: each grid is one quadrature
    STFT of the signal F_n g (or of the limit tone), which does not cancel
    at n = 64, a = 2, agrees with the Gaussian window's closed routes, and
    matches its own per-point calls on a 13 x 11 grid."""
    g = gaussian_window()
    c = custom_window(g.func, decay_radius=9.0)
    for p in (SuperoscParams(a=1.5, n=3), SuperoscParams(a=2.0, n=64)):
        for (u, eta) in [(0.4, -0.6), (-1.0, 1.2)]:
            assert abs(stft_superosc_closed_grid(c, 0.3, p, u, eta)
                       - stft_superosc_closed_grid(g, 0.3, p, u, eta)) < 1e-12
            assert abs(stft_superosc_limit_grid(c, 0.3, p.a, u, eta)
                       - stft_superosc_limit_grid(g, 0.3, p.a, u, eta)) < 1e-12
    p = SuperoscParams(a=2.0, n=64)
    u = np.linspace(-3.0, 3.0, 13)
    eta = np.linspace(-2.5, 2.5, 11)
    for grid, point in (
            (stft_superosc_closed_grid(c, 0.5, p, u, eta),
             lambda ui, ei: stft_superosc_closed_grid(c, 0.5, p, ui, ei)),
            (stft_superosc_limit_grid(c, 0.5, 2.0, u, eta),
             lambda ui, ei: stft_superosc_limit_grid(c, 0.5, 2.0, ui, ei))):
        assert grid.shape == (13, 11)
        points = np.array([[point(ui, ei) for ei in eta] for ui in u])
        assert np.max(np.abs(grid - points)) < 1e-14
    # any axis shapes: the grid is u.shape + eta.shape
    block = stft_superosc_closed_grid(c, 0.5, p, u[:12].reshape(3, 4), eta[:2])
    assert block.shape == (3, 4, 2)
    assert np.array_equal(block.reshape(12, 2),
                          stft_superosc_closed_grid(c, 0.5, p, u[:12], eta[:2]))
    # the quadrature box comes from the window's decay radius
    with pytest.raises(ValueError, match="decay_radius"):
        stft_superosc_closed_grid(custom_window(g.func), 0.5, p, u, eta)
    with pytest.raises(ValueError, match="gaussian or hermite"):
        stft_superosc_termwise_grid(c, 0.5, p, u, eta)


@pytest.mark.parametrize("g", [gaussian_window(), hermite_window(1),
                               hermite_window(3),
                               custom_window(gaussian_window().func,
                                             decay_radius=9.0)])
def test_closed_grids_take_0d_axes(g):
    """With scalar u and eta the grids return a complex, the value of the
    one-point grid to the bit."""
    p = SuperoscParams(a=2.0, n=5)
    for (u, eta) in [(0.4, -0.6), (-1.3, 2.1)]:
        v = stft_superosc_closed_grid(g, 0.2, p, u, eta)
        assert type(v) is complex
        assert v == stft_superosc_closed_grid(g, 0.2, p, [u], [eta])[0, 0]
        v = stft_superosc_limit_grid(g, 0.2, 2.0, u, eta)
        assert type(v) is complex
        assert v == stft_superosc_limit_grid(g, 0.2, 2.0, [u], [eta])[0, 0]


def test_closed_routes_reject_non_finite_points():
    g = hermite_window(2)
    p = SuperoscParams(a=2.0, n=3)
    axis = np.linspace(-1.0, 1.0, 3)
    for call in (lambda: stft_superosc_closed_grid(g, 0.0, p, math.nan, 0.5),
                 lambda: stft_superosc_limit_grid(g, math.inf, 2.0, 0.1, 0.5),
                 lambda: stft_superosc_limit_grid(g, 0.0, math.nan, 0.1, 0.5),
                 lambda: stft_superosc_closed_grid(g, 0.0, p, axis,
                                                   np.append(axis, math.nan)),
                 lambda: stft_superosc_cross(1, 2, 0.3, SuperoscParams(2, 8),
                                             math.nan, 0.5),
                 lambda: stft_approx_hermite_closed(1, 2, p, 0.1, math.inf)):
        with pytest.raises(ValueError, match="^(x|a|u|eta) must be finite"):
            call()


@pytest.mark.parametrize("g", [gaussian_window(), hermite_window(3),
                               custom_window(gaussian_window().func,
                                             decay_radius=9.0)],
                         ids=["gaussian", "hermite3", "custom"])
@pytest.mark.parametrize("name", ["x", "u", "eta"])
def test_grids_name_the_non_finite_argument(g, name):
    """For every window kind, a NaN or infinite x, u or eta is a ValueError
    that names it, from both grids and whether the point is 0-d or on an
    axis."""
    p = SuperoscParams(a=2.0, n=8)
    for bad in (math.nan, -math.inf, [0.0, math.inf]):
        args = {"x": 0.5, "u": [0.3, 0.4], "eta": 1.7, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            stft_superosc_closed_grid(g, args["x"], p, args["u"], args["eta"])
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            stft_superosc_limit_grid(g, args["x"], 2.0, args["u"],
                                     args["eta"])


# ---------------------------------------------------------------------------
# Gauss-Hermite route of the superoscillation STFT
# ---------------------------------------------------------------------------

def _laguerre_mp(n, z, alpha=0):
    prev, cur = mpmath.mpf(1), 1 + alpha - z
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - z) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def _termwise_mp(k, m, x, p, points):
    """sum_j C_j hermite_pair_integral(k, m, u, x, omega_j - eta) at each
    (u, eta) in mpmath, in the Laguerre form, with n log10(max(1, |a|)) + 30
    digits so the sum's cancellation costs none of the digits compared.
    For k = m it is sum_j C_j K_{h_m}(x, omega_j; u, eta)."""
    n, j, d = p.n, min(k, m), abs(k - m)
    with mpmath.workdps(int(n * math.log10(max(1.0, abs(p.a)))) + 30):
        a, x = mpmath.mpf(p.a), mpmath.mpf(x)
        coef = [mpmath.binomial(n, i) * ((1 + a) / 2) ** (n - i)
                * ((1 - a) / 2) ** i for i in range(n + 1)]
        calib = mpmath.sqrt(mpmath.pi) * mpmath.sqrt(2) ** (k + m) * mpmath.factorial(j)
        out = []
        for u, eta in points:
            u, eta = mpmath.mpf(u), mpmath.mpf(eta)
            total = mpmath.mpc(0)
            for i, ci in enumerate(coef):
                lam = 1 - mpmath.mpf(2 * i) / n - eta
                r2 = (u - x) ** 2 + lam ** 2
                zeta = (1j * lam + (u - x if k < m else x - u)) / mpmath.sqrt(2)
                total += (ci * mpmath.expj((u + x) * lam / 2)
                          * mpmath.exp(-r2 / 4) * _laguerre_mp(j, r2 / 2, d)
                          * zeta ** d)
            out.append(complex(calib * total))
    return np.array(out)


@pytest.mark.parametrize("orders", [0, 3, 8, pytest.param((1, 4), id="1-4"),
                                    pytest.param((6, 2), id="6-2")])
def test_closed_grid_matches_high_precision_sum(orders):
    """The default route against the termwise sum in mpmath, within
    1e-12 max(1, max|V|), over n = 32..96, a up to -4 and |u|, |x| <= 20,
    where the double-precision sum is off by up to 1e29; window h_k, signal
    on h_m (an int order is k = m).  For k != m the scale is the route's
    own, max(1, ||S|| ||h_k||), which bounds |V|."""
    k, m = orders if isinstance(orders, tuple) else (orders, orders)
    draw = np.random.default_rng(600 + 10 * k + m if k != m else 600 + m)
    for n in (32, 64, 96):
        for a in (1.5, 2.0, 3.0, -4.0):
            p = SuperoscParams(a=a, n=n)
            x = draw.uniform(-20.0, 20.0)
            u = np.clip(x + draw.uniform(-4.0, 4.0, 2), -20.0, 20.0)
            eta = draw.uniform(-6.0, 6.0, 2)
            v = stft_superosc_cross(k, m, x, p, u, eta)
            ref = _termwise_mp(k, m, x, p, [(ui, ei) for ui in u for ei in eta])
            err = np.max(np.abs(v.ravel() - ref))
            scale = np.max(np.abs(ref)) if k == m else math.sqrt(
                signal_norm_sq(build_signal(hermite_window(m), x, p))
                * hermite_norm_sq(k))
            assert err <= 1e-12 * max(1.0, scale), (n, a, x, err)


@pytest.mark.parametrize("k, m", [(0, 0), (2, 2), (1, 4), (6, 2), (0, 5)])
def test_termwise_grid_matches_high_precision_sum(k, m):
    """The termwise core against the same sum in mpmath at small n, within
    8 (n + 1) u max(1, |a|)^n ||h_k|| ||h_m||, the Higham bound the
    fallback accepts with a factor 8 to spare, on |u|, |x| <= 20 and
    |eta| <= 30."""
    draw = np.random.default_rng(700 + 10 * k + m)
    norms = math.sqrt(hermite_norm_sq(k) * hermite_norm_sq(m))
    for n, a in ((1, 3.0), (4, 2.0), (8, -2.0), (12, 0.5)):
        p = SuperoscParams(a=a, n=n)
        x = draw.uniform(-20.0, 20.0)
        u = np.clip(x + draw.uniform(-4.0, 4.0, 3), -20.0, 20.0)
        eta = draw.uniform(-30.0, 30.0, 3)
        v = kernels._termwise_grid(k, m, x, p, u, eta)
        ref = _termwise_mp(k, m, x, p, [(ui, ei) for ui in u for ei in eta])
        bound = (8 * (n + 1) * np.finfo(float).eps / 2
                 * max(1.0, abs(a)) ** n * norms)
        assert np.max(np.abs(v.ravel() - ref)) <= bound, (n, a)


def test_closed_headline_cell():
    """spectrogram --n 64 --a 2 --x 0.5 at (u, eta) = (0.3, 1.7); the
    termwise sum gives about 812 here."""
    p = SuperoscParams(a=2.0, n=64)
    v = stft_superosc_closed_grid(gaussian_window(), 0.5, p, 0.3, 1.7)
    truth = _termwise_mp(0, 0, 0.5, p, [(0.3, 1.7)])[0]
    assert abs(truth - (1.7291548539502524 + 0.21297391851867206j)) < 1e-15
    assert abs(v - truth) < 1e-10
    assert abs(stft_superosc_termwise_grid(gaussian_window(), 0.5, p, 0.3, 1.7)
               - truth) > 1.0


def _pair_sum_mp(k, m, p, shifts):
    """sum_j C_j hermite_pair_integral(k, m, u, x_j, lam_j) in mpmath with
    n log10(max(1, |a|)) + 30 digits, (u, x_j, lam_j) = shifts(omega_j)."""
    n = p.n
    with mpmath.workdps(int(n * math.log10(max(1.0, abs(p.a)))) + 30):
        a = mpmath.mpf(p.a)
        total = mpmath.mpc(0)
        for j in range(n + 1):
            u, x, lam = shifts(1 - mpmath.mpf(2 * j) / n)
            z = (lam - 1j * (u - x)) / mpmath.sqrt(2)
            w = (lam + 1j * (u - x)) / mpmath.sqrt(2)
            poly = sum((-1) ** i * mpmath.factorial(i) * mpmath.binomial(k, i)
                       * mpmath.binomial(m, i) * z ** (m - i) * w ** (k - i)
                       for i in range(min(k, m) + 1))
            total += (mpmath.binomial(n, j) * ((1 + a) / 2) ** (n - j)
                      * ((1 - a) / 2) ** j * mpmath.sqrt(mpmath.pi)
                      * 1j ** (k + m) * mpmath.sqrt(2) ** (k + m)
                      * mpmath.exp(-lam ** 2 / 4 + 1j * lam * (u + x) / 2
                                   - (u - x) ** 2 / 4) * poly)
        return complex(total)


def test_mixed_order_headline_cells():
    """The cross-window and approximating-sequence transforms at n = 64,
    a = 2, (k, m) = (2, 3), (u, eta) = (0.3, 1.7), within
    1e-10 max(1, ||S|| ||h_k||) of the mpmath pair-integral sum, where the
    double-precision sum is off by thousands; the 0-d calls are the
    one-point grids to the bit."""
    p = SuperoscParams(a=2.0, n=64)
    k, m, x, u, eta = 2, 3, 0.5, 0.3, 1.7
    mp = mpmath.mpf
    k_norm = math.sqrt(window_norm_sq(hermite_window(k)))
    for value, grid, shifts, x_sig, expect in (
            (stft_superosc_cross(k, m, x, p, u, eta),
             stft_superosc_cross(k, m, x, p, [u], [eta]),
             lambda w: (mp(u), mp(x), w - mp(eta)), x,
             -8.7535944862680597 + 11.789617035638132j),
            (stft_approx_hermite_closed(k, m, p, u, eta),
             stft_approx_hermite_closed(k, m, p, [u], [eta]),
             lambda w: (mp(u), -w, -mp(eta)), 0.0,
             -2.904239386124034 - 4.3925266514968666j)):
        truth = _pair_sum_mp(k, m, p, shifts)
        assert abs(truth - expect) < 1e-15
        # ||phi|| = ||F_n h_m|| for phi = sum_j C_j h_m(. + omega_j)
        norm = math.sqrt(signal_norm_sq(build_signal(hermite_window(m),
                                                     x_sig, p)))
        assert abs(value - truth) <= 1e-10 * max(1.0, norm * k_norm)
        assert type(value) is complex and value == grid[0, 0]
    assert abs(supershift_probe(lambda w: hermite_pair_integral(
        k, m, u, x, w - eta), p) - stft_superosc_cross(k, m, x, p, u, eta)) > 1e3


def test_closed_grid_supershift_rate_up_to_n2000(monkeypatch):
    """V_n tends to the limit kernel like 1/n, through n = 2000, where the
    coefficients overflow: the route never forms them."""
    def refuse(p):
        raise AssertionError("the Gauss-Hermite route formed the coefficients")

    monkeypatch.setattr(superosc, "coefficients", refuse)
    g, a, x = gaussian_window(), 2.0, 0.5
    axis = np.linspace(-3.0, 3.0, 13)
    lim = stft_superosc_limit_grid(g, x, a, axis, axis)
    scaled = [n * np.max(np.abs(stft_superosc_closed_grid(
        g, x, SuperoscParams(a=a, n=n), axis, axis) - lim))
        for n in (250, 500, 1000, 2000)]
    assert max(scaled) < 4.0 and max(scaled) - min(scaled) < 0.1, scaled


def test_verify_stable_case_passes_its_draws():
    case_id, _, _, tolerance, run = next(c for c in verify._CASES
                                         if c[0] == "superosc-stft-stable")
    drawn = set()
    for seed in range(1, 9):
        err, params = run(np.random.default_rng(seed))
        assert err <= tolerance, (seed, params, err)
        drawn.add((params["k"], params["m"], params["n"], params["a"]))
    assert len(drawn) > 1


def test_wide_eta_axis_falls_back_to_termwise_sum():
    """No rule under the cap resolves |eta| = 50; at n = 8 the termwise sum's
    roundoff bound is within tolerance, so it is used: the fallback is the
    termwise core, the twin's."""
    g, p = gaussian_window(), SuperoscParams(a=2.0, n=8)
    u, eta = np.linspace(-3.0, 3.0, 61), np.linspace(-50.0, 50.0, 101)
    v = stft_superosc_closed_grid(g, 0.0, p, u, eta)
    twin = stft_superosc_termwise_grid(g, 0.0, p, u, eta)
    # one code path: the fallback is the twin to the bit
    assert v.tobytes() == twin.tobytes()


@pytest.mark.parametrize("n, a, eta, why", [
    (64, 2.0, [-50.0, 50.0], "no rule within 360 nodes"),
    (100000, 2.0, [-1.0, 1.0], "roundoff bound"),
    # both rules agree to 4e-13 here; only the roundoff bound objects
    (12000, 0.5, [-1.0, 1.0], "roundoff bound"),
])
def test_unresolved_closed_grid_raises(n, a, eta, why):
    """Too wide a band (no rule under the cap), or a roundoff bound of the
    n-th power beyond the tolerance, with the termwise sum no better:
    ValueError naming the eta range."""
    p = SuperoscParams(a=a, n=n)
    lo, hi = eta
    with pytest.raises(ValueError, match=rf"eta in \[{lo:g}, {hi:g}\].*{why}"):
        stft_superosc_closed_grid(gaussian_window(), 0.5, p,
                                  np.linspace(-1.0, 1.0, 3), np.array(eta))


def test_cross_orders_above_32_fall_back_to_pair_integrals():
    """No rule resolves |eta| = 50, so (k, m) = (40, 33) takes the sum of
    pair integrals, whose Laguerre form has no order-32 cap: within the
    route's tolerance 1e-12 ||S|| ||h_k|| of stft_grid.  Where Higham's bound
    of that sum fails too (n = 64), the route's ValueError names the eta
    range and the bound."""
    p = SuperoscParams(2, 8)
    u, eta = np.array([0.0, 1.5]), np.array([-50.0, -3.0, 0.0, 2.0, 50.0])
    v = stft_superosc_cross(40, 33, 0.0, p, u, eta)
    signal = build_signal(hermite_window(33), 0.0, p)
    scale = math.sqrt(signal_norm_sq(signal)
                      * window_norm_sq(hermite_window(40)))
    assert np.max(np.abs(v)) > 0.2 * scale
    quad = stft_grid(signal, hermite_window(40), u, eta)
    assert np.max(np.abs(v - quad)) <= kernels._ROUTE_TOL * scale
    with pytest.raises(ValueError,
                       match=r"eta in \[-50, 50\].*roundoff bound 10\^8"):
        stft_superosc_cross(3, 5, 0.0, SuperoscParams(2, 64), 0.0, [-50, 50])


@pytest.mark.parametrize("order", [1, 32, 64])
@pytest.mark.parametrize("far", [1e3, 1e5, 1e155, 1e307])
def test_pair_integral_far_arguments_are_zero(order, far):
    """Beyond |lam|, |u - x| = 60 the Gaussian factor is exactly 0; the
    kernel clips there, so far shifts and frequencies give 0 with no
    overflow of the Laguerre factor, nor NaN where the phase lam (u + x) / 2
    overflows (warnings are errors)."""
    g = hermite_window(order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, lam in ((far, 0.5), (-far, 0.5), (0.3, far), (far, -far)):
            for k, m in ((order, order), (order, 0), (1, order)):
                assert hermite_pair_integral(k, m, u, 0.0, lam) == 0.0
        grid = stft_superosc_limit_grid(g, 0.0, 2.0, [far, -far, 0.5],
                                        [0.0, far])
        assert np.all(grid[:2] == 0.0) and np.all(grid[2, 1:] == 0.0)
        assert grid[2, 0] != 0.0


def test_phase_matrices_are_the_complex_exponential(monkeypatch):
    """Every phase matrix stft_grid builds for the moyal-full case and
    _gauss_hermite_grid builds for a bench grid (h_3, n = 64, 121 x 121 on
    [-6, 6]^2) is np.exp(-1j * outer)'s to the bit, so those grids keep
    their bytes.  moyal-full's integrands are real, so their tables cover
    t >= 0 of the mirrored 545- and 577-node rules and eta >= 0 of the
    mirrored 321-point axis."""
    seen = []
    phase_outer = special._phase_outer

    def spy(a, b):
        out = phase_outer(a, b)
        seen.append((a, b, out))
        return out

    for module in (special, transforms, kernels):
        monkeypatch.setattr(module, "_phase_outer", spy)
    moyal_double_integral(hermite_window(0), gaussian_window(),
                          hermite_window(1), hermite_window(1))
    axis = np.linspace(-6.0, 6.0, 121)
    stft_superosc_closed_grid(hermite_window(3), 0.5, SuperoscParams(2.0, 64),
                              axis, axis)
    assert [out.shape for *_, out in seen] == [(273, 161), (289, 161),
                                               (121, 121), (70, 121), (110, 2)]
    for a, b, out in seen:
        ref = np.exp(-1j * np.multiply.outer(a, b))
        assert out.tobytes() == ref.tobytes(), out.shape


def test_mirrored_phase_matrices_are_the_complex_exponential():
    """When its first axis is an exact mirror _phase_outer exponentiates
    half the rows and conjugates the rest; the matrix is
    np.exp(-1j * outer)'s to the bit for odd and even lengths, a mirrored
    second axis too, a 0.0 (or -0.0) centre, 1-element and 0-d axes, and a
    near-mirror that takes the full path."""
    near, _ = nodes_weights(QuadratureSpec(11.3, 16))
    assert near.size == 363 and np.sum(near != -near[::-1]) == 186
    odd, even = np.arange(-272.0, 273.0) / 16, np.arange(-271.5, 272.0) / 16
    eta, eta_even = np.arange(-160.0, 161.0) / 16, np.arange(-4.5, 5.0) / 2
    centre = np.arange(-500.0, 501.0) / 64
    centre[500] = -0.0
    cases = [(odd, eta, 1), (even, eta, 1), (odd, eta_even, 1),
             (even, eta_even, 1), (centre, eta, 1), (eta, near, 1),
             (odd, np.array([0.7]), 1), (odd, np.array(0.7), 1),
             (np.array([-0.0, 0.0]), odd, 1), (near, eta, 0),
             (np.array([-0.3]), odd, 0), (np.array(-0.0), odd, 0),
             (np.array([0.0]), np.array([0.0]), 0),
             (np.array(0.0), np.array(1.3), 0)]
    for a, b, mirrored in cases:
        assert (special._mirror_start(a) > 0) == mirrored, a.shape
        out = special._phase_outer(a, b)
        ref = np.exp(-1j * np.multiply.outer(a, b))
        assert out.tobytes() == ref.tobytes(), (a.shape, b.shape)
        assert out.flags.c_contiguous


def test_termwise_grid_phase_overflow():
    """The termwise core keeps the pair integral's rule for a phase beyond
    double range: 0 where the Gaussian factor is 0, with no warning, and a
    ValueError where it is not."""
    p = SuperoscParams(a=2.0, n=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, m in ((0, 0), (2, 2), (1, 3)):
            grid = kernels._termwise_grid(k, m, 0.0, p,
                                          np.array([1e308, -1e308, 0.5]),
                                          np.array([0.0, 5.0]))
            assert np.all(grid[:2] == 0.0) and np.all(grid[2] != 0.0)
            with pytest.raises(ValueError, match=r"phase lam \(u \+ x\) / 2"):
                kernels._termwise_grid(k, m, 1e308, p, np.array([0.0, 1e308]),
                                       np.array([0.5]))


@pytest.mark.parametrize("u, x, lam", [(1e308, 1e308, 1.5),
                                       (1e308, 1e308, 0.5),
                                       (1.7e308, 1.7e308, -20.0)])
def test_pair_integral_phase_overflow_is_an_error(u, x, lam):
    """A phase beyond double range where the modulus is not 0 has no value
    to return: a ValueError, not NaN (warnings are errors)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, m in ((0, 0), (3, 5)):
            with pytest.raises(ValueError, match=r"phase lam \(u \+ x\) / 2"):
                hermite_pair_integral(k, m, np.array([0.0, u]), x, lam)


def test_pair_integral_order_check():
    """Orders outside 0..64 are a ValueError from the kernel itself."""
    for k, m in ((65, 0), (0, 65), (-1, 2)):
        with pytest.raises(ValueError, match=r"outside 0\.\.64"):
            hermite_pair_integral(k, m, 0.0, 0.0, 0.0)


def test_i_km_order_check():
    """Both I_{k,m} forms refuse the same orders, naming them: a negative
    m is not an empty series."""
    for k, m in ((2, -1), (-1, 2), (65, 0), (0, 65)):
        for form in (i_km_series, i_km_closed):
            with pytest.raises(ValueError,
                               match=rf"orders \({k}, {m}\) outside 0\.\.64"):
                form(k, m, 0.1, 0.2, 0.3)


@pytest.mark.parametrize("check", [complex_hermite_generating_sum,
                                   generating_sum_check,
                                   generating_product_check])
@pytest.mark.parametrize("K", [-1, 65])
def test_generating_checks_refuse_orders(check, K):
    """A truncation order outside 0..64 is a ValueError naming it, on each
    of the three generating sums."""
    with pytest.raises(ValueError, match=rf"order {K} outside 0\.\.64"):
        check(0.1, 0.2, -0.1, 0.3, K)


def test_gauss_hermite_rules_resolve_their_bands():
    """Each rule of the band table integrates e^{-s^2 - i nu s} to 1e-13 over
    its band; the largest rule allowed has finite weights; rules are cached
    and read-only."""
    for nodes, band in kernels._GH_BANDS:
        s, w = kernels._gauss_hermite(nodes)
        nu = np.linspace(0.0, band, 64)
        err = np.abs(w @ np.exp(-1j * np.multiply.outer(s, nu))
                     - SQRT_PI * np.exp(-nu * nu / 4.0))
        assert err.max() < 1e-13, (nodes, err.max())
    rule = kernels._gauss_hermite(kernels._GH_MAX_NODES)
    assert np.isfinite(rule[1]).all() and not rule[1].flags.writeable
    assert kernels._gauss_hermite(kernels._GH_MAX_NODES) is rule
