import math
import warnings

import numpy as np
import pytest

from superstft.evolution import (OSCILLATION_HAZARD, EvolutionPoint,
                                 evolve_gaussian_closed, evolve_hermite,
                                 evolve_numeric, evolve_superosc,
                                 evolve_superosc_integral_representation,
                                 evolve_superosc_signal, oscillation_hazard,
                                 pde_residual)
from superstft.quadrature import QuadratureSpec
from superstft.signals import (build_signal, custom_window, gaussian_window,
                               hermite_window)
from superstft.superosc import SuperoscParams

rng = np.random.default_rng(31)

TWO_PI = 2.0 * math.pi


def test_point_validation():
    with pytest.raises(ValueError):
        EvolutionPoint(x=math.nan, t=0.0, x0=0.0, k0=0.0)
    with pytest.raises(ValueError):
        EvolutionPoint(x=0.0, t=math.inf, x0=0.0, k0=0.0)


def test_numeric_matches_gaussian_closed():
    g = gaussian_window()
    for _ in range(6):
        x, t, x0, k0 = rng.uniform(-1.0, 1.0, 4)
        pt = EvolutionPoint(x=x, t=t, x0=x0, k0=k0)
        num = evolve_numeric(g, pt)
        closed = evolve_gaussian_closed(pt)
        assert abs(num - closed) < 1e-10


def test_hermite_zero_is_gaussian():
    for _ in range(4):
        x, t, x0, k0 = rng.uniform(-1.0, 1.0, 4)
        pt = EvolutionPoint(x=x, t=t, x0=x0, k0=k0)
        assert abs(evolve_hermite(0, pt) - evolve_gaussian_closed(pt)) < 1e-11


def test_hermite_matches_numeric():
    for m in (1, 2):
        hm = hermite_window(m)
        pt = EvolutionPoint(x=0.4, t=0.3, x0=0.1, k0=0.8)
        assert abs(evolve_numeric(hm, pt) - evolve_hermite(m, pt)) < 1e-10


def test_initial_datum_scale():
    """At t = 0 every path returns 2 pi times e^{i k0 x} g(x - x0)."""
    g = gaussian_window()
    x, x0, k0 = 0.7, -0.2, 1.3
    pt = EvolutionPoint(x=x, t=0.0, x0=x0, k0=k0)
    datum = np.exp(1j * k0 * x) * g(x - x0)
    assert abs(evolve_gaussian_closed(pt) - TWO_PI * datum) < 1e-12
    assert abs(evolve_numeric(g, pt) - TWO_PI * datum) < 1e-11
    assert abs(evolve_gaussian_closed(pt, normalized=True) - datum) < 1e-13
    for m in (1, 3):
        hm = hermite_window(m)
        datum_m = np.exp(1j * k0 * x) * hm(x - x0)
        assert abs(evolve_hermite(m, pt) - TWO_PI * datum_m) < 1e-10


def test_closed_form_solves_pde():
    """i d_t u + d_x^2 u = 0 for the closed Gaussian evolution."""
    x0, k0 = 0.2, 0.9

    def f(x, t):
        return evolve_gaussian_closed(EvolutionPoint(x, t, x0, k0))

    for _ in range(6):
        x = rng.uniform(-1.0, 1.0)
        t = rng.uniform(-1.0, 1.0)
        res = pde_residual(f, x, t)
        assert res < 1e-4 * abs(f(x, t))


def test_oscillation_hazard_predicate():
    assert not oscillation_hazard(0.0, 20.0)
    assert not oscillation_hazard(10.0, 20.0)  # 4000 < threshold
    assert oscillation_hazard(30.0, 20.0)      # 12000 > threshold
    assert OSCILLATION_HAZARD == 1e4


def test_hazard_warning_emitted():
    pt = EvolutionPoint(x=0.0, t=2000.0, x0=0.0, k0=0.0)
    with pytest.warns(RuntimeWarning):
        evolve_hermite(1, pt)


def test_custom_window_needs_spec():
    w = custom_window(lambda t: np.exp(-t * t), decay_radius=9.0)
    pt = EvolutionPoint(x=0.0, t=0.1, x0=0.0, k0=0.0)
    with pytest.raises(ValueError):
        evolve_numeric(w, pt)
    # with an explicit momentum-space spec it matches the closed variance-
    # halved Gaussian datum at t = 0 (F(e^{-t^2}) decays within ~ 10)
    pt0 = EvolutionPoint(x=0.3, t=0.0, x0=0.0, k0=0.0)
    val = evolve_numeric(w, pt0, spec=QuadratureSpec(truncation_radius=12.0))
    assert abs(val - TWO_PI * np.exp(-0.3 ** 2)) < 1e-9


def test_superosc_mode_sum():
    """F_n(y, 0) = F_n(y); as n grows it tracks e^{i a y - i a^2 t}."""
    from superstft.superosc import f_n
    a, y, t = 2.0, 0.4, 0.3
    p = SuperoscParams(a=a, n=6)
    assert abs(evolve_superosc(p, y, 0.0) - f_n(p, y)) < 1e-12
    target = np.exp(1j * a * y - 1j * a * a * t)
    errs = [abs(evolve_superosc(SuperoscParams(a=a, n=n), y, t) - target)
            for n in (10, 40)]
    assert errs[1] < 0.6 * errs[0]


def test_superosc_signal_datum():
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=4)
    s = build_signal(g, 0.5, p)
    for y in (-0.3, 0.0, 0.8):
        assert abs(evolve_superosc_signal(g, 0.5, p, y, 0.0) - s(y)) < 1e-11


def test_superosc_signal_hermite_window():
    h1 = hermite_window(1)
    p = SuperoscParams(a=1.5, n=2)
    s = build_signal(h1, 0.0, p)
    assert abs(evolve_superosc_signal(h1, 0.0, p, 0.4, 0.0) - s(0.4)) < 1e-9
    w = custom_window(lambda t: np.exp(-t * t), decay_radius=9.0)
    with pytest.raises(ValueError):
        evolve_superosc_signal(w, 0.0, p, 0.0, 0.1)


def test_integral_representation_path():
    """Phase-space inversion route agrees with the mode-sum route."""
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=4)
    for (y, t) in [(0.7, 0.4), (-0.3, 0.1)]:
        v1 = evolve_superosc_signal(g, 0.5, p, y, t)
        v2 = evolve_superosc_integral_representation(g, 0.5, p, y, t)
        assert abs(v1 - v2) < 1e-9
    h1 = hermite_window(1)
    with pytest.raises(ValueError):
        evolve_superosc_integral_representation(h1, 0.0, p, 0.3, 0.1)


EPS = np.finfo(float).eps


def test_hermite_grid_matches_point_calls():
    xs = np.linspace(-4.0, 4.0, 41)
    for m, t, x0, k0 in [(0, 0.0, 0.0, 0.0), (3, 0.7, 0.2, 0.9),
                         (3, -0.5, 0.1, -1.0)]:
        grid = evolve_hermite(m, EvolutionPoint(xs, t, x0, k0))
        ref = np.array([evolve_hermite(m, EvolutionPoint(x, t, x0, k0))
                        for x in xs])
        assert grid.shape == xs.shape
        assert np.max(np.abs(grid - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the frequency can be the array instead, as in the mode-wise signal sum
    ks = np.linspace(-1.0, 1.0, 9)
    grid = evolve_hermite(2, EvolutionPoint(0.3, 0.4, 0.1, ks), normalized=True)
    ref = np.array([evolve_hermite(2, EvolutionPoint(0.3, 0.4, 0.1, k),
                                   normalized=True) for k in ks])
    assert np.max(np.abs(grid - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_hermite_grid_needs_scalar_t():
    with pytest.raises(ValueError):
        evolve_hermite(1, EvolutionPoint(0.0, np.array([0.1, 0.2]), 0.0, 0.0))


def test_gaussian_closed_grid_matches_point_calls():
    x, t = np.meshgrid(np.linspace(-4.0, 4.0, 21), np.linspace(-1.0, 1.0, 9))
    grid = evolve_gaussian_closed(EvolutionPoint(x, t, 0.3, 1.7))
    ref = np.array([[evolve_gaussian_closed(EvolutionPoint(xi, ti, 0.3, 1.7))
                     for xi, ti in zip(rx, rt)] for rx, rt in zip(x, t)])
    assert grid.shape == x.shape
    assert np.all(np.abs(grid - ref) <= 1e-14 * np.abs(ref))


def test_superosc_grid_matches_point_calls():
    from superstft.superosc import coefficients
    y, t = np.meshgrid(np.linspace(-4.0, 4.0, 21), np.linspace(0.0, 1.0, 6))
    for n in (8, 32):
        p = SuperoscParams(a=2.0, n=n)
        grid = evolve_superosc(p, y, t)
        ref = np.array([[evolve_superosc(p, yi, ti) for yi, ti in zip(ry, rt)]
                        for ry, rt in zip(y, t)])
        assert grid.shape == y.shape
        bound = 32.0 * EPS * np.sum(np.abs(coefficients(p)))
        assert np.max(np.abs(grid - ref)) <= bound
    # a scalar y against a t axis broadcasts too
    p = SuperoscParams(a=2.0, n=8)
    ts = np.array([0.0, 0.5])
    assert np.allclose(evolve_superosc(p, 0.4, ts),
                       [evolve_superosc(p, 0.4, tk) for tk in ts],
                       rtol=0.0, atol=32.0 * EPS * np.sum(np.abs(coefficients(p))))


def test_point_validation_covers_arrays():
    with pytest.raises(ValueError):
        EvolutionPoint(x=np.array([0.0, math.nan]), t=0.0, x0=0.0, k0=0.0)


def test_hazard_warns_once_per_grid_call():
    pt = EvolutionPoint(x=np.linspace(0.0, 1.0, 5), t=2000.0, x0=0.0, k0=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evolve_hermite(1, pt)
    assert [w.category for w in caught] == [RuntimeWarning]
