import math

import mpmath
import numpy as np
import pytest

from superstft.kernels import norm_sq_closed_gaussian, norm_sq_closed_hermite
from superstft.quadrature import QuadratureSpec, integrate
from superstft.signals import (Signal, build_signal, custom_window, evaluate,
                               gaussian_window, hermite_window, shifted_window,
                               signal_norm_sq, window_norm_sq)
from superstft.special import hermite_function
from superstft.superosc import SuperoscParams, f_n

SQRT_PI = math.sqrt(math.pi)


def test_gaussian_window_values():
    g = gaussian_window()
    assert g.kind == "gaussian" and g.order == 0
    t = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(g(t), np.exp(-t * t / 2.0), rtol=1e-15)
    assert g.decay_radius == 9.0


def test_hermite_window_values():
    h2 = hermite_window(2)
    assert h2.kind == "hermite" and h2.order == 2
    t = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(h2(t), hermite_function(2, t), rtol=1e-15)
    # the decay radius really does bound the values
    assert abs(h2(h2.decay_radius)) < 1e-15
    # order 0 degrades to the gaussian window
    assert hermite_window(0).kind == "gaussian"


def test_window_kind_validation():
    from superstft.signals import Window
    with pytest.raises(ValueError):
        Window(kind="boxcar", order=0, func=lambda t: t, decay_radius=1.0)


def test_window_norms():
    assert abs(window_norm_sq(gaussian_window()) - SQRT_PI) < 1e-15
    for m in (1, 2, 3):
        expect = 2.0**m * math.factorial(m) * SQRT_PI
        assert window_norm_sq(hermite_window(m)) == expect
        # quadrature agrees when the same function is wrapped as custom
        w = custom_window(lambda t, m=m: hermite_function(m, t),
                          decay_radius=hermite_window(m).decay_radius)
        assert abs(window_norm_sq(w) - expect) < 1e-10 * expect


def test_custom_window_needs_radius_for_norm():
    w = custom_window(lambda t: np.exp(-np.abs(t)))
    with pytest.raises(ValueError):
        window_norm_sq(w)
    # with a decay radius the norm is integrated on [-R, R]
    val = window_norm_sq(custom_window(w.func, decay_radius=40.0))
    assert abs(val - 1.0) < 1e-8  # int e^{-2|t|} = 1


def test_norm_quadrature_honors_node_override(monkeypatch):
    """SUPERSTFT_QUAD_NODES sets the node density of the rule both norm
    quadratures integrate on."""
    import superstft.signals as signals
    seen = []

    def spy(f, spec):
        seen.append(spec.nodes_per_unit)
        return integrate(f, spec)

    monkeypatch.setattr(signals, "integrate", spy)
    monkeypatch.setenv("SUPERSTFT_QUAD_NODES", "128")
    p = SuperoscParams(a=2.0, n=4)
    signal_norm_sq(build_signal(gaussian_window(), 0.3, p))
    window_norm_sq(custom_window(lambda t: np.exp(-t * t), decay_radius=9.0))
    assert seen == [128, 128]


def test_time_frequency_shift():
    """shifted_window(g, x, omega) evaluates M_omega T_x g: a complex at a
    scalar t, an array of t's shape otherwise."""
    g = gaussian_window()
    x, omega, t = 0.7, 2.0, 1.1
    expect = np.exp(1j * omega * t) * np.exp(-((t - x) ** 2) / 2.0)
    w = shifted_window(g, x, omega)
    assert w.kind == "custom"
    assert w.decay_radius == g.decay_radius + abs(x)
    assert type(w(t)) is complex
    assert abs(w(t) - expect) < 1e-15
    ts = np.array([[t], [-t]])
    assert w(ts).shape == ts.shape
    assert abs(w(ts)[0, 0] - expect) < 1e-15


def test_signal_decay_radius_is_derived():
    """The radius is |x| plus the window's radius, grown by F_n for a
    signal, never a constructor argument.  A Signal is always modulated:
    the unmodulated translate is the tone shifted_window(g, x, 0)."""
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=8)
    assert shifted_window(g, -1.5, 0.0).decay_radius == 1.5 + g.decay_radius
    # ceil(sqrt(9^2 + 2 * 8 * log 2) + 1) = 11
    assert build_signal(g, -1.5, p).decay_radius == 1.5 + 11.0
    bare = custom_window(g.func)
    assert shifted_window(bare, 0.0, 0.0).decay_radius is None
    assert build_signal(bare, 0.0, p).decay_radius is None
    with pytest.raises(TypeError):
        Signal(window=g, x=0.0)
    with pytest.raises(TypeError):
        Signal(window=g, x=0.0, superosc=p, decay_radius=3.0)
    with pytest.raises(TypeError):
        Signal(window=g, x=0.0, superosc=p, limit_frequency=2.0)


def test_signal_and_tone_reject_non_finite_parameters():
    """A NaN or infinite center (or tone frequency) fails by name when the
    signal or the tone is built, not later as a NaN radius in a quadrature
    box or a lattice truncation."""
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=8)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^x must be finite"):
            build_signal(g, bad, p)
        with pytest.raises(ValueError, match="^x must be finite"):
            Signal(window=g, x=bad, superosc=p)
        with pytest.raises(ValueError, match="^x must be finite"):
            shifted_window(g, bad, 2.0)
        with pytest.raises(ValueError, match="^omega must be finite"):
            shifted_window(g, 0.5, bad)


def test_signal_evaluation():
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=4)
    s = build_signal(g, 0.5, p)
    t = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(s(t), f_n(p, t) * g(t - 0.5), atol=1e-14)
    lim = shifted_window(g, 0.5, 2.0)
    np.testing.assert_allclose(lim(t), np.exp(2j * t) * g(t - 0.5), atol=1e-14)
    bare = shifted_window(g, 0.5, 0.0)
    assert bare(t).dtype == complex and isinstance(bare(0.3), complex)
    np.testing.assert_allclose(bare(t), g(t - 0.5) + 0j, atol=1e-15)
    assert isinstance(evaluate(s, 0.3), complex)


def test_signal_radius_accounts_for_amplitude_growth():
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=8)
    s = build_signal(g, 1.0, p)
    assert s.decay_radius > g.decay_radius + 1.0
    # the radius is honest: the signal is tiny there
    assert abs(s(s.decay_radius)) < 1e-13


def test_signal_norm_closed_vs_quadrature():
    """||S||^2 by quadrature of |S|^2 against the closed double-sum twin."""
    g = gaussian_window()
    for (a, n, x) in [(1.5, 3, 0.0), (2.0, 5, 0.4)]:
        p = SuperoscParams(a=a, n=n)
        closed = norm_sq_closed_gaussian(x, p) / window_norm_sq(g)
        s = build_signal(g, x, p)
        spec = QuadratureSpec(truncation_radius=float(s.decay_radius))
        quad = integrate(lambda t: np.abs(s(t)) ** 2, spec).real
        got = signal_norm_sq(s)
        assert type(got) is float and got == quad
        assert abs(closed - quad) < 1e-10 * abs(quad)


def test_signal_norm_hermite_window():
    """One route for every window: a Hermite window and the same evaluator
    wrapped as a custom window give the same bits, and both agree with
    the closed twin."""
    h1 = hermite_window(1)
    p = SuperoscParams(a=1.5, n=3)
    # norm_sq_closed_hermite(0, m, ...) is ||h_0||^2 ||S||^2
    closed = norm_sq_closed_hermite(0, 1, 0.2, p) / SQRT_PI
    w = custom_window(h1.func, decay_radius=h1.decay_radius)
    quad = signal_norm_sq(build_signal(h1, 0.2, p))
    assert signal_norm_sq(build_signal(w, 0.2, p)) == quad
    assert abs(closed - quad) < 1e-9 * abs(quad)
    lim = shifted_window(gaussian_window(), 0.3, 2.0)
    # unimodular tone: the norm is the window norm
    assert abs(window_norm_sq(lim) - SQRT_PI) < 1e-14


def _norm_sq_mpmath(m, x, a, n):
    """int (cos^2(t/n) + a^2 sin^2(t/n))^n h_m(t - x)^2 dt in mpmath: the
    integrand is positive, so 20 digits leave no cancellation to fear."""
    with mpmath.workdps(20):
        a, x = mpmath.mpf(a), mpmath.mpf(x)

        def integrand(t):
            c, s = mpmath.cos(t / n), mpmath.sin(t / n)
            return ((c * c + a * a * s * s) ** n * mpmath.exp(-(t - x) ** 2)
                    * mpmath.hermite(m, t - x) ** 2)

        cuts = [-mpmath.inf, -8, 0, 8, mpmath.inf]
        return float(mpmath.quad(integrand, cuts, method="gauss-legendre"))


@pytest.mark.parametrize("m", [0, 3])
def test_signal_norm_large_n_matches_mpmath(m):
    """The closed double sum raises from about n = 12 at a = 2; the
    quadrature of |S|^2 stays within 1e-12 of the truth up to n = 128."""
    for n in (16, 32, 64, 128):
        for a in (2.0, 3.0, -4.0):
            got = signal_norm_sq(build_signal(hermite_window(m), 0.4,
                                              SuperoscParams(a=a, n=n)))
            ref = _norm_sq_mpmath(m, 0.4, a, n)
            assert abs(got - ref) <= 1e-12 * ref, (n, a, got, ref)


def test_custom_window_norm_needs_radius():
    w = custom_window(lambda t: np.exp(-t * t))
    p = SuperoscParams(a=1.5, n=2)
    with pytest.raises(ValueError):
        signal_norm_sq(build_signal(w, 0.0, p))
