import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_hermite

from oracles import hermite_polynomial_sum, laguerre_sum
from superstft import special
from superstft.quadrature import QuadratureSpec, integrate
from superstft.special import (MAX_HERMITE_ORDER,
                               complex_hermite_2d,
                               complex_hermite_generating_sum,
                               hermite_function, hermite_norm_sq,
                               hermite_polynomial, ipow, laguerre, theta)

rng = np.random.default_rng(1234)

# theta(0, i/2pi) = sum_k e^{-k^2/2}, summed directly to machine precision
THETA_AT_GAUSSIAN_NOME = 2.506628288042906


def test_ipow_quarter_turns():
    for n in range(-8, 9):
        assert ipow(n) == 1j ** (n % 4)


def test_hermite_polynomial_low_orders():
    """First few H_n against their textbook expansions at t = 0.7."""
    t = 0.7
    assert hermite_polynomial(0, t) == 1.0
    assert hermite_polynomial(1, t) == 2.0 * t
    assert abs(hermite_polynomial(2, t) - (4.0 * t**2 - 2.0)) < 1e-14
    assert abs(hermite_polynomial(3, t) - (-5.656)) < 1e-12
    assert abs(hermite_polynomial(4, t) - (-7.6784)) < 1e-12


def test_hermite_polynomial_vs_scipy():
    t = rng.uniform(-3.0, 3.0, 25)
    for n in (0, 1, 2, 5, 9, 16):
        np.testing.assert_allclose(hermite_polynomial(n, t),
                                   eval_hermite(n, t), rtol=1e-12)


def test_hermite_recurrence_vs_sum():
    t = rng.uniform(-2.0, 2.0, 10)
    for n in range(9):
        np.testing.assert_allclose(hermite_polynomial(n, t),
                                   hermite_polynomial_sum(n, t),
                                   rtol=1e-11, atol=1e-11)


def test_hermite_order_limits():
    with pytest.raises(ValueError):
        hermite_polynomial(-1, 0.0)
    with pytest.raises(ValueError):
        hermite_polynomial(MAX_HERMITE_ORDER + 1, 0.0)


def test_hermite_function_norm():
    """||h_n||^2 = 2^n n! sqrt(pi), checked against quadrature."""
    spec = QuadratureSpec(truncation_radius=14.0)
    for n in range(7):
        quad = integrate(lambda t: hermite_function(n, t) ** 2, spec)
        assert abs(quad - hermite_norm_sq(n)) < 1e-10 * hermite_norm_sq(n)


def test_hermite_orthogonality():
    spec = QuadratureSpec(truncation_radius=14.0)
    val = integrate(lambda t: hermite_function(2, t) * hermite_function(5, t),
                    spec)
    assert abs(val) < 1e-12


def test_laguerre_vs_scipy():
    x = rng.uniform(0.0, 6.0, 20)
    for n in (0, 1, 3, 6):
        np.testing.assert_allclose(laguerre(n, x), eval_genlaguerre(n, 0, x),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(laguerre(n, x), laguerre_sum(n, x),
                                   rtol=1e-11, atol=1e-11)


def test_generalized_laguerre_vs_scipy():
    """L_n^{(alpha)} by the recurrence against scipy, relative to the
    largest |L| on the draw; alpha = 0 is the default call to the bit, and
    a scalar x gives a float."""
    x = np.concatenate([rng.uniform(0.0, 6.0, 20), rng.uniform(0.0, 60.0, 20)])
    for n in (0, 1, 2, 5, 16, 32, 64):
        for alpha in (0, 1, 3.5, 17, 64):
            ref = eval_genlaguerre(n, alpha, x)
            np.testing.assert_allclose(laguerre(n, x, alpha), ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))
        assert laguerre(n, x, 0).tobytes() == laguerre(n, x).tobytes()
    assert type(laguerre(3, 0.5, 2)) is float
    assert laguerre(1, 0.5, 2) == 2.5


def test_complex_hermite_monomial_edges():
    """H_{k,0}(z,w) = w^k and H_{0,l}(z,w) = z^l (index k rides on w)."""
    z, w = 0.4 + 0.9j, -1.1 + 0.2j
    for k in range(5):
        assert abs(complex_hermite_2d(k, 0, z, w) - w**k) < 1e-13
        assert abs(complex_hermite_2d(0, k, z, w) - z**k) < 1e-13


def test_complex_hermite_symmetries():
    for _ in range(10):
        k = int(rng.integers(0, 6))
        m = int(rng.integers(0, 6))
        z, w = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        h = complex_hermite_2d(k, m, z, w)
        # index swap mirrors the arguments
        assert abs(h - complex_hermite_2d(m, k, w, z)) < 1e-12
        # joint sign flip
        assert abs(complex_hermite_2d(k, m, -z, -w)
                   - (-1.0) ** (k + m) * h) < 1e-12
        # quarter-turn rotation H(iA, -iB) = i^{m-k} H(A, B)
        assert abs(complex_hermite_2d(k, m, 1j * z, -1j * w)
                   - 1j ** ((m - k) % 4) * h) < 1e-12


def test_complex_hermite_diagonal_is_laguerre():
    """H_{n,n}(z, conj z) = (-1)^n n! L_n(|z|^2)."""
    for n in range(6):
        for _ in range(4):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = complex_hermite_2d(n, n, z, np.conj(z))
            rhs = (-1.0) ** n * math.factorial(n) * laguerre(n, abs(z) ** 2)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_complex_hermite_at_origin():
    for m in range(9):
        assert complex_hermite_2d(m, m, 0.0, 0.0) == (-1.0) ** m * math.factorial(m)


def test_complex_hermite_order_limit():
    """Orders 0..64 are evaluated; any other order is a ValueError naming
    the pair."""
    for k, l in ((MAX_HERMITE_ORDER + 1, 0), (0, MAX_HERMITE_ORDER + 1),
                 (-1, 2)):
        with pytest.raises(ValueError, match=rf"orders \({k}, {l}\) outside 0\.\.64"):
            complex_hermite_2d(k, l, 0.0, 0.0)
    top = math.factorial(MAX_HERMITE_ORDER)
    diagonal = complex_hermite_2d(64, 64, 0.0, 0.0)
    assert diagonal == complex_hermite_2d(64, 64, [0.0], [0.0])[0]
    # numpy's complex division gives 49 / 49.0 = 1 - 2^-53 in the Laguerre
    # recurrence, so the value is 64! to 4 eps, not to the bit
    assert abs(diagonal - top) <= 4 * np.finfo(float).eps * top
    assert complex_hermite_2d(0, MAX_HERMITE_ORDER, 0.5j, 2.0) == 0.5j ** 64


def test_complex_hermite_scalar_is_its_array_entry():
    """A 0-d call gives the bits of its point in a 1-element array call,
    on 2,000 seeded draws at orders <= 12 (numpy multiplies complex scalars
    otherwise than complex arrays; the 0-d case runs as an array)."""
    draws = np.random.default_rng(22)
    for _ in range(2000):
        k, l = (int(order) for order in draws.integers(0, 13, 2))
        z, w = draws.uniform(-1.0, 1.0, 2) + 1j * draws.uniform(-1.0, 1.0, 2)
        scalar = complex_hermite_2d(k, l, z, w)
        assert type(scalar) is complex
        assert scalar == complex_hermite_2d(k, l, [z], [w])[0], (k, l, z, w)


def test_generating_sum_matches_exponential():
    """sum H_{k,l} u^k v^l / (k! l!) -> e^{u w + v z - u v}."""
    points = []
    for _ in range(5):
        z, w = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        u, v = rng.uniform(-0.5, 0.5, 2)
        lhs = complex_hermite_generating_sum(z, w, u, v, 20)
        assert type(lhs) is complex
        rhs = np.exp(u * w + v * z - u * v)
        assert abs(lhs - rhs) < 1e-10
        points.append((z, w, u, v, lhs))
    # the five points in one call give the five scalar values
    z, w, u, v, scalar = (np.array(col) for col in zip(*points))
    np.testing.assert_allclose(complex_hermite_generating_sum(z, w, u, v, 20),
                               scalar, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_complex_hermite_table_is_the_per_order_values(seed):
    """Every entry of the Laguerre table on complex_hermite_generating_sum's
    arguments is complex_hermite_2d's to the bit, for k, l <= 20 on the
    generating-pairing draw domain (five points with z, w in
    [-1, 1] + i[-1, 1])."""
    draw = np.random.default_rng(seed)
    z, w = draw.uniform(-1, 1, (2, 5)) + 1j * draw.uniform(-1, 1, (2, 5))
    table = special._laguerre_table(20, z * w, np.ones(5, dtype=complex),
                                    special._hermite_2d_scale, z, w)
    assert table.shape == (21, 21, 5)
    for k in range(21):
        for l in range(21):
            assert (table[k, l].tobytes()
                    == complex_hermite_2d(k, l, z, w).tobytes()), (k, l)


def test_laguerre_steps_are_the_per_degree_values():
    """The step generator's degree n is laguerre(n, ., alpha) to the bit."""
    x = np.linspace(0.0, 40.0, 17)
    for alpha in (0, 1, 7):
        steps = special._laguerre_steps(x, alpha)
        for n in range(25):
            assert next(steps).tobytes() == laguerre(n, x, alpha).tobytes()


@pytest.mark.parametrize("shape_a, shape_b", [((545,), (321,)), ((64,), ()),
                                              ((), (9,))])
def test_phase_outer_is_the_complex_exponential(shape_a, shape_b):
    """e^{-i a b} by the in-place helper is np.exp(-1j * a b) to the bit,
    zeros and signed zeros included."""
    draw = np.random.default_rng(11)
    a = draw.uniform(-30.0, 30.0, shape_a)
    b = draw.uniform(-30.0, 30.0, shape_b)
    if np.ndim(b):
        b[0] = 0.0
    ref = np.exp(-1j * np.multiply.outer(a, b))
    out = special._phase_outer(a, b)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


def test_theta_frozen_value():
    """theta(0, i/2pi) against the directly summed e^{-k^2/2} series."""
    assert abs(theta(0.0, 1j / (2.0 * math.pi)) - THETA_AT_GAUSSIAN_NOME) < 1e-13


def test_theta_periodicity():
    tau = 0.3 + 0.8j
    z = 0.37 - 0.21j
    assert abs(theta(z + 1.0, tau) - theta(z, tau)) < 1e-12
    # quasi-period tau: theta(z + tau) = e^{-i pi tau - 2 i pi z} theta(z)
    lhs = theta(z + tau, tau)
    rhs = np.exp(-1j * math.pi * tau - 2j * math.pi * z) * theta(z, tau)
    assert abs(lhs - rhs) < 1e-11


def test_theta_requires_upper_half_plane():
    with pytest.raises(ValueError):
        theta(0.0, 1.0 - 0.5j)
