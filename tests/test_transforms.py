import math
import warnings

import numpy as np
import pytest

from superstft.quadrature import (DEFAULT_PAD, QuadratureSpec, integrate,
                                  make_spec, nodes_weights)
from superstft.signals import (build_signal, custom_window, gaussian_window,
                               hermite_window, shifted_window)
from superstft.special import (_mirror_start, _real_phase_product,
                               hermite_function, hermite_norm_sq)
from superstft.superosc import SuperoscParams
from superstft.transforms import (ComplexGrid, _unit, ambiguity, bargmann,
                                  convolve, fourier, inner_product,
                                  moyal_double_integral, moyal_inner_product,
                                  reconstruct, stft, stft_grid)
from superstft.zak import zak, zak_grid, zak_superosc_termwise

rng = np.random.default_rng(99)

SQRT_PI = math.sqrt(math.pi)
TWO_PI = 2.0 * math.pi


def test_fourier_of_gaussian():
    """F(e^{-t^2/2})(lam) = sqrt(2 pi) e^{-lam^2/2}."""
    g = gaussian_window()
    for lam in (-2.0, 0.0, 0.7, 1.9):
        val = fourier(g, lam)
        assert abs(val - math.sqrt(TWO_PI) * math.exp(-lam * lam / 2.0)) < 1e-13


def test_fourier_eigenrelation():
    """F(h_k) = sqrt(2 pi) (-i)^k h_k."""
    lam = np.linspace(-2.0, 2.0, 9)
    for k in range(5):
        hk = hermite_window(k)
        vals = fourier(hk, lam)
        expect = math.sqrt(TWO_PI) * (-1j) ** k * hermite_function(k, lam)
        np.testing.assert_allclose(vals, expect, atol=1e-12)


def test_inner_product_orthogonality():
    h0, h1 = hermite_window(0), hermite_window(1)
    assert abs(inner_product(h0, h1)) < 1e-13
    for k in (0, 1, 3):
        hk = hermite_window(k)
        expect = 2.0**k * math.factorial(k) * SQRT_PI
        assert abs(inner_product(hk, hk) - expect) < 1e-11


def test_stft_gaussian_closed_form():
    """V_phi phi(u, eta) = sqrt(pi) e^{-i u eta / 2} e^{-(u^2+eta^2)/4}."""
    g = gaussian_window()
    for (u, eta) in [(0.0, 0.0), (1.0, -0.5), (-0.7, 2.0)]:
        val = stft(g, g, u, eta)
        expect = (SQRT_PI * np.exp(-0.5j * u * eta)
                  * math.exp(-(u * u + eta * eta) / 4.0))
        assert abs(val - expect) < 1e-13


def test_stft_covariance():
    """V_g(M_w T_y f)(u, eta) = e^{-i y (eta - w)} V_g f(u - y, eta - w)."""
    g = gaussian_window()
    y, w = 0.6, 1.2
    f = shifted_window(g, y, w)
    for (u, eta) in [(0.5, 0.8), (-0.3, 1.5)]:
        lhs = stft(f, g, u, eta)
        rhs = np.exp(-1j * y * (eta - w)) * stft(g, g, u - y, eta - w)
        assert abs(lhs - rhs) < 1e-12


def test_convolve_gaussians():
    """(e^{-t^2/2} * e^{-t^2/2})(lam) = sqrt(pi) e^{-lam^2/4}."""
    g = gaussian_window()
    for lam in (-1.0, 0.0, 2.3):
        val = convolve(g, g, lam)
        assert abs(val - SQRT_PI * math.exp(-lam * lam / 4.0)) < 1e-13


def test_ambiguity_of_gaussian_is_real():
    """A[phi](u, eta) = sqrt(pi) e^{-(u^2 + eta^2)/4}."""
    g = gaussian_window()
    for (u, eta) in [(0.0, 0.0), (1.1, 0.4), (-0.8, -1.3)]:
        val = ambiguity(g, u, eta)
        expect = SQRT_PI * math.exp(-(u * u + eta * eta) / 4.0)
        assert abs(val - expect) < 1e-13


def test_bargmann_of_hermites():
    """B(h_n)(z) = pi^{-1/4} 2^{n/2} z^n."""
    z = 0.8 - 0.3j
    for n in range(4):
        val = bargmann(hermite_window(n), z)
        expect = math.pi ** (-0.25) * 2.0 ** (n / 2.0) * z**n
        assert abs(val - expect) < 1e-12


def test_convolve_matches_its_integrand():
    """convolve, one stft of the reflected conjugate window, against the
    integral int f(t) g(lam - t) dt itself, for the tones
    e^{i a t} h_k(t - x) of shifted_window, the second translated: it is
    neither real nor symmetric, so a dropped reflection or conjugate
    shows."""
    for k, m, a, b, lam in [(0, 0, 0.0, 1.3, 0.4), (1, 3, 0.8, -1.1, -1.2),
                            (4, 2, -0.6, 0.9, 2.1), (5, 5, 1.7, 0.3, -0.3)]:
        f = shifted_window(hermite_window(k), 0.0, a)
        g = shifted_window(hermite_window(m), 0.7, b)
        spec = make_spec(f.decay_radius + g.decay_radius, lam)
        ref = integrate(lambda t: f(t) * g(lam - t), spec)
        scale = math.sqrt(hermite_norm_sq(k) * hermite_norm_sq(m))
        assert abs(convolve(f, g, lam) - ref) <= 1e-13 * scale, (k, m)


def test_bargmann_matches_its_integrand():
    """bargmann, one stft against the Gaussian, against the integral
    pi^{-3/4} int f(t) e^{-z^2/2 - t^2/2 + sqrt2 z t} dt at z with both
    parts nonzero up to |z| = 2, for real and modulated Hermite functions,
    relative to the bound ||f|| e^{|z|^2/2} / sqrt(pi) on |B(f)(z)|."""
    for k, a in [(0, 0.0), (2, 0.0), (3, 0.9), (6, -1.4)]:
        f = shifted_window(hermite_window(k), 0.0, a)
        for z in (0.3 + 0.2j, -1.1 + 0.7j, 1.2 - 1.6j, -0.5 - 1.9j):
            spec = make_spec(f.decay_radius, math.sqrt(2.0) * abs(z))
            ref = math.pi ** -0.75 * integrate(
                lambda t: f(t) * np.exp(-z * z / 2 - t * t / 2
                                        + math.sqrt(2.0) * z * t), spec)
            scale = (math.sqrt(hermite_norm_sq(k)) * math.exp(abs(z) ** 2 / 2)
                     / SQRT_PI)
            assert abs(bargmann(f, z) - ref) <= 1e-13 * scale, (k, z)


def test_bargmann_fails_loudly_where_its_factors_overflow():
    """B(h_0)(z) = pi^{-1/4} holds out to |Re z| = 26.6; beyond it the
    factor e^{(Re z)^2}, and beyond |z| = 37.6 the factor e^{|z|^2/2},
    leaves double range, which is a FloatingPointError with no warning
    first (warnings are errors), not an inf or NaN value."""
    h0 = hermite_window(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(bargmann(h0, 26.6) - math.pi ** -0.25) < 1e-12
        for z in (26.7, -26.7 + 1j, 37.7j):
            with pytest.raises(FloatingPointError, match="overflow"):
                bargmann(h0, z)


@pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf, [0.3, np.nan]])
def test_reconstruct_rejects_non_finite_y(y):
    """A non-finite y is a ValueError naming it, raised before any
    arithmetic (warnings are errors), not a NaN value."""
    axis = np.linspace(-8.0, 8.0, 33)
    g = gaussian_window()
    grid = ComplexGrid(axis, axis, stft_grid(g, g, axis, axis))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^y must be finite"):
            reconstruct(grid, g, y)


def test_complex_grid_validation():
    with pytest.raises(ValueError):
        ComplexGrid(u=np.array([0.0, 0.0, 1.0]), eta=np.array([0.0, 1.0]),
                    values=np.zeros((3, 2), dtype=complex))
    with pytest.raises(ValueError):
        ComplexGrid(u=np.array([0.0, 1.0]), eta=np.array([0.0, 1.0]),
                    values=np.zeros((3, 2), dtype=complex))


def test_stft_grid_matches_pointwise():
    g = gaussian_window()
    p = SuperoscParams(a=1.5, n=3)
    s = build_signal(g, 0.3, p)
    u = np.linspace(-1.0, 1.0, 5)
    eta = np.linspace(-1.5, 1.5, 4)
    grid = stft_grid(s, g, u, eta)
    for i in (0, 2, 4):
        for j in (0, 3):
            direct = stft(s, g, u[i], eta[j])
            assert abs(grid[i, j] - direct) < 1e-12


@pytest.mark.parametrize("f", [build_signal(gaussian_window(), 0.3,
                                            SuperoscParams(a=2.0, n=8)),
                               hermite_window(3)])
def test_scalar_calls_are_one_point_grids(f):
    """stft and zak are the one-point cases of stft_grid and zak_grid, to
    the bit."""
    g = hermite_window(2)
    for (x, omega) in [(0.4, -0.6), (-1.3, 2.1)]:
        assert stft(f, g, x, omega) == stft_grid(f, g, [x], [omega])[0, 0]
        assert zak(f, x, omega) == zak_grid(f, [x], [omega])[0, 0]


def test_moyal_energy_identity():
    """Double phase-space integral of |V_g f|^2 = 2 pi ||f||^2 ||g||^2."""
    g = gaussian_window()
    h1 = hermite_window(1)
    val = moyal_double_integral(h1, g)
    expect = TWO_PI * (2.0 * SQRT_PI) * SQRT_PI
    assert abs(val - expect) < 1e-6 * expect


def test_moyal_mixed_orthogonality():
    """<V_phi h0, V_h1 h1> = 2 pi <h0,h1><h1,phi> = 0."""
    h0, h1, g = hermite_window(0), hermite_window(1), gaussian_window()
    num = moyal_double_integral(h0, g, h1, h1)
    closed = moyal_inner_product(h0, h1, g, h1)
    assert abs(closed) < 1e-12
    assert abs(num - closed) < 1e-8


def test_reconstruct_recovers_signal():
    """Inversion integral returns f pointwise from its transform grid."""
    g = gaussian_window()
    h0 = hermite_window(0)
    axis = np.linspace(-11.0, 11.0, 89)
    grid = ComplexGrid(axis, axis, stft_grid(h0, g, axis, axis))
    pts = np.array([-1.0, 0.0, 0.7])
    rec = reconstruct(grid, g, pts)
    np.testing.assert_allclose(rec, h0(pts), atol=1e-6)
    # a window that is not a Window takes its norm as <g, g> by quadrature
    bare = build_signal(g, 0.0, SuperoscParams(a=1.0, n=4))  # F_n = e^{it}
    grid = ComplexGrid(axis, axis, stft_grid(h0, bare, axis, axis))
    np.testing.assert_allclose(reconstruct(grid, bare, pts), h0(pts),
                               atol=1e-6)


def test_reconstruct_rejects_undersized_grid():
    g = gaussian_window()
    axis = np.linspace(-2.0, 2.0, 17)  # transform clearly not decayed yet
    grid = ComplexGrid(axis, axis, stft_grid(g, g, axis, axis))
    with pytest.raises(ValueError):
        reconstruct(grid, g, np.array([0.0]))


def _unguarded_stft_grid(f, g, u_axis, eta_axis, spec=None):
    """stft_grid's contraction rebuilt without the quadrature guard, on the
    given spec or on stft_grid's implicit box: the weighted integrand in its
    factors' dtype, times np.exp(-1j * outer) when it is complex and through
    _real_phase_product when it is real.  Returns the integrand and the
    product."""
    if spec is None:
        spec = make_spec(max(f.decay_radius, g.decay_radius),
                         float(np.max(np.abs(u_axis))))
    t, w = nodes_weights(spec)
    a = w * np.asarray(f(t)) * np.conj(np.asarray(g(t[None, :] - u_axis[:, None])))
    if np.iscomplexobj(a):
        return a, a @ np.exp(-1j * np.multiply.outer(t, eta_axis))
    return a, _real_phase_product(a, t, eta_axis)


def _has_subnormals(a):
    tiny = np.finfo(float).tiny
    parts = np.concatenate([a.real.ravel(), a.imag.ravel()])
    return np.any((parts != 0.0) & (np.abs(parts) < tiny))


# a +-12 outer grid, wide enough that the windows' tails underflow
@pytest.mark.parametrize("f", [build_signal(gaussian_window(), 0.3,
                                            SuperoscParams(a=2.0, n=8)),
                               hermite_window(3)])
def test_grids_follow_the_tensor_convention(f):
    """stft_grid, zak_grid and zak_superosc_termwise return shape
    u.shape + eta.shape, the call on the raveled axes reshaped, for axes in
    any order; 0-d axes give a complex, the one-point call's value.  The
    termwise expansion is the lattice sum of its signal within
    1e-13 sum_j |C_j|."""
    g = hermite_window(2)
    u = np.array([[0.4, -1.3, 0.4], [2.0, 0.0, -0.5]])
    eta = np.array([2.1, -0.6, -0.6, 1.0])
    p = SuperoscParams(a=2.0, n=8)
    lattice = zak_grid(build_signal(g, 0.3, p), u, eta)
    termwise = zak_superosc_termwise(g, 0.3, p, u, eta)
    assert np.max(np.abs(termwise - lattice)) <= 1e-13 * 2.0 ** p.n
    for grid in (lambda a, b: stft_grid(f, g, a, b),
                 lambda a, b: zak_grid(f, a, b),
                 lambda a, b: zak_superosc_termwise(g, 0.3, p, a, b)):
        full = grid(u, eta)
        assert full.shape == (2, 3, 4)
        assert np.array_equal(full, grid(u.ravel(), eta).reshape(2, 3, 4))
        point = grid(0.4, -0.6)
        assert type(point) is complex and point == grid([0.4], [-0.6])[0, 0]
        row = grid(0.4, eta)
        assert row.shape == (4,) and np.array_equal(row, grid([0.4], eta)[0])


WIDE_OUTER = QuadratureSpec(truncation_radius=12.0, nodes_per_unit=16)


def test_stft_grid_bit_identical_to_unguarded_product():
    """Zeroing the subnormal tails of the real integrand leaves every value
    of a wide outer grid unchanged to the bit."""
    h1 = hermite_window(1)
    xu, _ = nodes_weights(WIDE_OUTER)
    a, ref = _unguarded_stft_grid(h1, h1, xu, xu)
    assert _has_subnormals(a)  # the guard has something to zero here
    assert np.array_equal(stft_grid(h1, h1, xu, xu), ref)


def test_moyal_double_integral_bit_identical_to_unguarded(monkeypatch):
    """The Moyal integral is the tensor quadrature of two stft_grid
    products: outer rule |u|, |eta| <= the largest decay radius at 16
    nodes per unit, inner box make_spec(f.decay_radius) at the band
    density, which is 16 nodes per unit for these windows.  Its nonzero
    samples stay above e^-552, far from the subnormal range below e^-708,
    so the guard has nothing to zero here; the subnormal case is the test
    above."""
    monkeypatch.delenv("SUPERSTFT_QUAD_NODES", raising=False)
    h0, h1, phi = hermite_window(0), hermite_window(1), gaussian_window()
    xu, wu = nodes_weights(QuadratureSpec(h1.decay_radius, 16))
    _, v1 = _unguarded_stft_grid(h0, phi, xu, xu,
                                 QuadratureSpec(h0.decay_radius + DEFAULT_PAD, 16))
    _, v2 = _unguarded_stft_grid(h1, h1, xu, xu,
                                 QuadratureSpec(h1.decay_radius + DEFAULT_PAD, 16))
    ref = complex(wu @ (v1 * np.conj(v2)) @ wu)
    got = moyal_double_integral(h0, phi, h1, h1)
    assert got.real == ref.real and got.imag == ref.imag


EPS = np.finfo(float).eps
# QuadratureSpec(11.3, 16) has 186 of its 363 nodes off their mirror
_NEAR_MIRROR, _ = nodes_weights(QuadratureSpec(11.3, 16))
_ETA_ODD = np.arange(-160.0, 161.0) / 16
_ETA_CENTRE = np.arange(-500.0, 501.0) / 64
_ETA_CENTRE[500] = -0.0
_REAL_PATH_ETAS = [_ETA_ODD, np.arange(-4.5, 5.0) / 2, _ETA_CENTRE,
                   _NEAR_MIRROR, np.array([0.7]), np.array([0.0]),
                   np.array([-0.0, 0.0]), np.linspace(-30.0, 29.0, 60)]


@pytest.mark.parametrize("t", [
    nodes_weights(QuadratureSpec(13.0, 16))[0],
    _NEAR_MIRROR,
    np.arange(-271.5, 272.0) / 16,
], ids=["mirrored-odd", "unmirrored", "mirrored-even"])
def test_real_phase_product_within_rounding_of_complex_product(t):
    """The real contraction of a real integrand a(u, t) is the complex
    product a @ e^{-i t eta} within 32 eps sum_t |a(u, t)| in every cell
    (the largest measured is 13.5 eps sum_t |a|), for a t rule folded
    over +-t or taken whole, and eta axes mirrored or not, of odd and even
    length, with a +-0 centre, or of one element."""
    assert (_mirror_start(t) > 0) == (t is not _NEAR_MIRROR)
    u = np.linspace(-11.0, 11.0, 45)
    a = (hermite_window(3)(t) * hermite_window(2)(t[None, :] - u[:, None])
         / 16.0)
    bound = 32 * EPS * np.abs(a).sum(axis=1, keepdims=True)
    for eta in _REAL_PATH_ETAS:
        ref = a.astype(complex) @ np.exp(-1j * np.multiply.outer(t, eta))
        got = _real_phase_product(a, t, eta)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= bound), eta.size


def test_real_stft_grid_within_rounding_of_complex_product():
    """stft_grid of moyal-full's real integrands on moyal_double_integral's
    rules is the complex product within 32 eps sum_t |a(u, t)| per cell,
    also for 0-d and one-element eta axes."""
    h0, h1, phi = hermite_window(0), hermite_window(1), gaussian_window()
    xu, _ = nodes_weights(QuadratureSpec(h1.decay_radius, 16))
    for f, g in ((h0, phi), (h1, h1)):
        spec = QuadratureSpec(f.decay_radius + DEFAULT_PAD, 16)
        t, w = nodes_weights(spec)
        a = w * f(t) * g(t[None, :] - xu[:, None])
        bound = 32 * EPS * np.abs(a).sum(axis=1, keepdims=True)
        for eta in (xu, np.array([1.25]), np.array(-0.5)):
            ref = a.astype(complex) @ np.exp(-1j * np.multiply.outer(t, eta.ravel()))
            got = stft_grid(f, g, xu, eta, spec)
            assert got.shape == xu.shape + eta.shape
            assert np.all(np.abs(got.reshape(ref.shape) - ref) <= bound)


def test_real_stft_grid_is_conjugate_symmetric_in_eta():
    """On a mirrored eta axis the real path computes V(u, eta) for eta >= 0
    and fills V(u, -eta) = conj V(u, eta) by conjugation, to the bit."""
    h3, h2 = hermite_window(3), hermite_window(2)
    u = np.linspace(-4.0, 4.0, 9)
    for eta in (_ETA_ODD, np.arange(-4.5, 5.0) / 2, _ETA_CENTRE):
        v = stft_grid(h3, h2, u, eta)
        k = _mirror_start(eta)
        assert k > 0
        assert v[:, :k].tobytes() == np.conj(v[:, :-k - 1:-1]).tobytes()
        assert np.all(v[:, k:eta.size - k].imag == 0.0)  # a 0 centre is real


@pytest.mark.parametrize("f, g", [
    (build_signal(gaussian_window(), 0.3, SuperoscParams(a=2.0, n=8)),
     hermite_window(2)),
    (hermite_window(1), shifted_window(gaussian_window(), 0.5, 1.5)),
], ids=["superosc-signal", "modulated-window"])
def test_complex_stft_grid_keeps_the_complex_product(f, g):
    """A complex integrand is still contracted as a @ e^{-i t eta}, to the
    bit, on mirrored and unmirrored eta axes."""
    u = np.linspace(-6.0, 6.0, 25)
    for eta in (_ETA_ODD, _NEAR_MIRROR, np.array([0.7])):
        a, ref = _unguarded_stft_grid(f, g, u, eta)
        assert np.iscomplexobj(a)
        assert stft_grid(f, g, u, eta).tobytes() == ref.tobytes()


def test_real_stft_grid_rejects_a_nan_sample():
    """The guard checks the real integrand before it is folded: a NaN in a
    real factor raises FloatingPointError."""
    f = custom_window(lambda t: np.where(np.abs(t) < 0.5, np.nan,
                                         np.exp(-np.asarray(t) ** 2 / 2.0)),
                      decay_radius=9.0)
    assert f(np.zeros(1)).dtype == float
    for u, eta in ((np.zeros(3), _ETA_ODD), (0.0, 0.0)):
        with pytest.raises(FloatingPointError, match="non-finite integrand"):
            stft_grid(f, gaussian_window(), u, eta)


_NARROW = custom_window(lambda t: np.exp(-np.asarray(t) ** 2), decay_radius=11.0)
# h_24 on the smallest integer radius whose (u, eta) box covers V_{h_24} h_24:
# at its own decay radius 16 the box edge carries 9.4e-8 of the peak, which
# moyal_double_integral refuses
_H24 = custom_window(hermite_window(24).func, decay_radius=18.0)


@pytest.mark.parametrize("factors", [
    (hermite_window(0), gaussian_window()),
    (hermite_window(0), gaussian_window(), hermite_window(1), hermite_window(1)),
    (hermite_window(4), hermite_window(4)),
    (hermite_window(8), hermite_window(2)),
    (_H24, _H24),
    (_NARROW, _NARROW),
], ids=["energy", "moyal-full", "h4-h4", "h8-h2", "h24-h24", "narrow"])
def test_moyal_band_rule_matches_default_density(factors, monkeypatch):
    """The inner t rule at the band density (18 nodes per unit for h_24 on
    radius 18, 16 for the others) gives the Moyal integral of the default
    64 nodes per unit to 1e-14 of 2 pi ||f1|| ||f2|| ||g1|| ||g2||: for
    verify's two calls, for Hermite pairs up to order 24 and for the
    narrow e^{-t^2}."""
    f1, g1, f2, g2 = factors * 2 if len(factors) == 2 else factors
    norms = [math.sqrt(inner_product(h, h).real) for h in (f1, g1, f2, g2)]
    scale = TWO_PI * math.prod(norms)
    monkeypatch.delenv("SUPERSTFT_QUAD_NODES", raising=False)
    band = moyal_double_integral(*factors)
    monkeypatch.setenv("SUPERSTFT_QUAD_NODES", "64")
    default = moyal_double_integral(*factors)
    assert abs(band - default) <= 1e-14 * scale


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "the (u, eta) box takes the largest single decay radius (11 for h_6), "
    "but V_{h_6} h_6 reaches out to about the sum of the two radii: the "
    "edge check refuses it at edge/peak 6.6e-12"))
def test_moyal_double_integral_equal_order_hermite_energy():
    h6 = hermite_window(6)
    energy = TWO_PI * hermite_norm_sq(6) ** 2
    assert abs(moyal_double_integral(h6, h6) - energy) <= 1e-12 * energy


def test_moyal_double_integral_names_factor_without_decay_radius():
    """Every factor sizes a box, so one without a decay radius is refused
    by name."""
    g = gaussian_window()
    bare = custom_window(lambda t: np.exp(-0.5 * np.asarray(t) ** 2))
    with pytest.raises(ValueError, match="f1 carries no decay_radius"):
        moyal_double_integral(bare, g)
    with pytest.raises(ValueError, match="g2 carries no decay_radius"):
        moyal_double_integral(g, g, g, bare)


def test_moyal_double_integral_refuses_a_box_that_truncates():
    """e^{-t^2} is below 1e-16 past |t| = 6.5, but its transform lasts
    longer: on the box that radius sets, the energy came out 4.3e-6 low.
    That box is refused; a wider decay radius gives the energy."""
    narrow = lambda t: np.exp(-np.asarray(t) ** 2)
    energy = math.pi ** 2  # 2 pi ||w||^4, ||w||^2 = sqrt(pi / 2)
    short = custom_window(narrow, decay_radius=6.5)
    with pytest.raises(ValueError, match="does not cover the transforms"):
        moyal_double_integral(short, short)
    wide = custom_window(narrow, decay_radius=11.0)
    assert abs(moyal_double_integral(wide, wide) - energy) < 1e-12 * energy


def test_stft_grid_rejects_non_finite_window():
    """A window that yields NaN or inf raises like the scalar stft does,
    instead of filling the grid with NaN."""
    u = np.linspace(-1.0, 1.0, 3)
    for bad in (np.nan, np.inf):
        g = custom_window(lambda t, bad=bad: np.where(np.abs(t) < 0.5, bad,
                                                      np.exp(-t * t / 2.0)),
                          decay_radius=9.0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite integrand"):
                stft(gaussian_window(), g, 0.0, 0.0)
            with pytest.raises(FloatingPointError, match="non-finite integrand"):
                stft_grid(gaussian_window(), g, u, u)


@pytest.mark.parametrize("name, call", [
    ("u_axis", lambda g: stft_grid(g, g, [0.0, np.nan], [0.0, 1.0])),
    ("u_axis", lambda g: stft_grid(g, g, [0.0, np.inf], [0.0, 1.0])),
    ("eta_axis", lambda g: stft_grid(g, g, [0.0, 1.0], [0.0, np.nan])),
    ("eta_axis", lambda g: stft_grid(g, g, [0.0, 1.0], [-np.inf, 1.0])),
    ("lam", lambda g: fourier(g, [0.0, np.nan])),
    ("lam", lambda g: fourier(g, np.inf)),
])
def test_non_finite_axes_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(gaussian_window())


def test_complex_grid_rejects_non_finite_axes():
    vals = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError, match="grid axis u must be finite"):
        ComplexGrid(u=np.array([0.0, np.nan]), eta=np.array([0.0, 1.0]),
                    values=vals)
    with pytest.raises(ValueError, match="grid axis eta must be finite"):
        ComplexGrid(u=np.array([0.0, 1.0]), eta=np.array([0.0, np.inf]),
                    values=vals)


def test_fourier_rejects_non_finite_window():
    """A window that yields NaN or inf raises like stft_grid does, instead
    of returning NaN."""
    for bad in (np.nan, np.inf):
        g = custom_window(lambda t, bad=bad: np.where(np.abs(t) < 0.5, bad,
                                                      np.exp(-t * t / 2.0)),
                          decay_radius=9.0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                fourier(g, [0.0, 1.0])


def test_fourier_bit_identical_to_unguarded_product():
    """The guard leaves Fourier values unchanged to the bit, also where it
    zeroes subnormal tails (a Gaussian with a generous decay radius); a real
    f against the unit window takes the real contraction."""
    lam = np.linspace(-6.0, 6.0, 25)
    wide = custom_window(lambda t: np.exp(-t * t / 2.0), decay_radius=30.0)
    for g in (gaussian_window(), wide):
        a, ref = _unguarded_stft_grid(g, _unit, np.zeros(1), lam,
                                      make_spec(g.decay_radius))
        assert a.dtype == float
        assert np.array_equal(fourier(g, lam), ref[0])
    assert _has_subnormals(a)  # the wide window's tails need the guard


@pytest.mark.parametrize("name, call", [
    ("x", lambda g: stft(g, g, np.nan, 0.0)),
    ("x", lambda g: stft(g, g, np.inf, 0.0)),
    ("omega", lambda g: stft(g, g, 0.0, np.nan)),
    ("omega", lambda g: stft(g, g, 0.0, -np.inf)),
    ("u", lambda g: ambiguity(g, np.nan, 1.0)),
    ("u", lambda g: ambiguity(g, np.inf, 0.0)),
    ("eta", lambda g: ambiguity(g, 1.0, np.nan)),
    ("eta", lambda g: ambiguity(g, 1.0, -np.inf)),
    ("lam", lambda g: convolve(g, g, np.nan)),
    ("lam", lambda g: convolve(g, g, np.inf)),
    ("lam", lambda g: convolve(g, g, -np.inf, spec=make_spec(9.0))),
    ("z", lambda g: bargmann(g, np.nan)),
    ("z", lambda g: bargmann(g, complex(0.5, np.inf))),
    ("z", lambda g: bargmann(g, complex(-np.inf, 0.5), spec=make_spec(9.0))),
])
def test_scalar_stft_rejects_non_finite_shifts_by_name(name, call):
    """Each shift is checked by its own name before any arithmetic on it,
    so no floating-point warning comes first (warnings are errors)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(gaussian_window())
