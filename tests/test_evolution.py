import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import evolve_hermite_mp
from superstft.cli import main
from superstft.evolution import (_BLOCK, OSCILLATION_HAZARD, EvolutionPoint,
                                 _atom_table,
                                 evolve_gaussian_closed,
                                 evolve_hermite, evolve_numeric,
                                 evolve_superosc,
                                 evolve_superosc_integral_representation,
                                 evolve_superosc_signal, oscillation_hazard,
                                 pde_residual)
from superstft.kernels import stft_superosc_termwise_grid
from superstft.quadrature import QuadratureSpec, nodes_weights
from superstft.signals import (build_signal, custom_window, gaussian_window,
                               hermite_window, window_norm_sq)
from superstft.special import hermite_norm_sq
from superstft.superosc import SuperoscParams

rng = np.random.default_rng(31)

TWO_PI = 2.0 * math.pi


def test_point_validation():
    with pytest.raises(ValueError, match="^x must be finite"):
        EvolutionPoint(x=math.nan, t=0.0, x0=0.0, k0=0.0)
    with pytest.raises(ValueError, match="^t must be finite"):
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
        assert evolve_hermite(0, pt) == evolve_gaussian_closed(pt)


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
    assert abs(evolve_hermite(0, pt, normalized=True) - datum) < 1e-13
    for m in (1, 3):
        hm = hermite_window(m)
        datum_m = np.exp(1j * k0 * x) * hm(x - x0)
        assert abs(evolve_hermite(m, pt) - TWO_PI * datum_m) < 1e-10


def test_closed_form_solves_pde():
    """i d_t u + d_x^2 u = 0 for the closed Gaussian evolution."""
    x0, k0 = 0.2, 0.9

    def f(x, t):
        return evolve_gaussian_closed(EvolutionPoint(x, t, x0, k0))

    xs, ts = [], []
    for _ in range(6):
        x = rng.uniform(-1.0, 1.0)
        t = rng.uniform(-1.0, 1.0)
        res = pde_residual(f, x, t)
        assert type(res) is float and res < 1e-4 * abs(f(x, t))
        xs.append(x)
        ts.append(t)
    # the draws as one array call: each entry is its point call's to the bit
    grid = pde_residual(f, np.array(xs), np.array(ts))
    assert grid.tolist() == [pde_residual(f, x, t) for x, t in zip(xs, ts)]
    # and x and t broadcast, here to a (2, 3) grid
    grid = pde_residual(f, np.array(xs[:2])[:, None], np.array(ts[:3]))
    assert grid.tolist() == [[pde_residual(f, x, t) for t in ts[:3]]
                             for x in xs[:2]]


def test_oscillation_hazard_predicate():
    assert not oscillation_hazard(0.0, 20.0)
    assert not oscillation_hazard(10.0, 20.0)  # 4000 < threshold
    assert oscillation_hazard(30.0, 20.0)      # 12000 > threshold
    assert OSCILLATION_HAZARD == 1e4


def test_hazard_warning_emitted():
    pt = EvolutionPoint(x=0.0, t=2000.0, x0=0.0, k0=0.0)
    with pytest.warns(RuntimeWarning):
        evolve_numeric(hermite_window(1), pt)


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
    # a 0-d array or numpy scalar is the scalar case, to the bit
    assert (evolve_superosc_signal(g, 0.5, p, np.array(0.8), np.float64(0.3))
            == evolve_superosc_signal(g, 0.5, p, 0.8, 0.3))


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
    points = [(0.7, 0.4), (-0.3, 0.1), (0.0, 0.8)]
    scalar = []
    for (y, t) in points:
        v1 = evolve_superosc_signal(g, 0.5, p, y, t)
        v2 = evolve_superosc_integral_representation(g, 0.5, p, y, t)
        assert type(v2) is complex
        assert abs(v1 - v2) < 2e-15
        scalar.append(v2)
    # y and t broadcast: one call gives each point's one-point value
    y, t = np.array(points).T
    grid = evolve_superosc_integral_representation(g, 0.5, p, y, t)
    assert grid.shape == (3,)
    np.testing.assert_allclose(grid, scalar, rtol=1e-15, atol=0.0)
    col = evolve_superosc_integral_representation(g, 0.5, p, y[:, None], 0.4)
    assert col.shape == (3, 1)
    assert abs(col[0, 0] - scalar[0]) <= 1e-15 * abs(scalar[0])
    h1 = hermite_window(1)
    with pytest.raises(ValueError):
        evolve_superosc_integral_representation(h1, 0.0, p, 0.3, 0.1)
    with pytest.raises(ValueError):
        evolve_superosc_integral_representation(h1, 0.0, p, y, t)


def _whole_atom_contractions(g, x, p, points):
    """For each (y, t) of points, the phase-space double integral with every
    evolved atom taken whole from evolve_hermite(0, ...) on the (u, eta)
    grid, and the absolute mass sum |w_i w_j V_ij phi_ij| of its terms,
    both over (2 pi)^2 ||g||^2."""
    xu, w = nodes_weights(QuadratureSpec(13.0 + abs(x), 16))
    wv = np.outer(w, w) * stft_superosc_termwise_grid(g, x, p, xu, xu)
    scale = TWO_PI ** 2 * window_norm_sq(g)
    for y, t in points:
        terms = wv * evolve_hermite(0, EvolutionPoint(y, t, xu[:, None], xu))
        yield complex(terms.sum()) / scale, float(np.abs(terms).sum()) / scale


def test_separated_integral_representation_matches_whole_atoms():
    """The separated atoms (a phase on the weights, one 2-D exponential of
    modulus <= 1) give the contraction of the whole atoms within 1e-13 of
    the integrand's absolute mass, with no floating-point warning.  The
    mass is the scale, since where the value is far below it (y = -30 at
    t = 0, say) both sums are rounding residue.  The last cases sit where
    a split of e^{-(y-u)^2/(2c)} from its cross term overflows: box
    half-widths 39 and 58 at t = 0.5, up to the packet's centre y = x = 45,
    where the value is of order 1.  A grid entry is its one-point call's
    value to the bit."""
    g = gaussian_window()
    p = SuperoscParams(a=2.0, n=4)
    y = np.array([0.0, 3.0, -30.0])[:, None]
    t = np.array([0.0, 0.5, -0.5, 2.0, -2.0, 50.0, -50.0])
    cases = [(x, y, t) for x in (0.5, -12.0, 26.0)]
    cases += [(26.0, np.array([[40.0], [-40.0]]), np.array([0.5])),
              (45.0, np.array([[45.0]]), np.array([0.5]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y, t in cases:
            grid = evolve_superosc_integral_representation(g, x, p, y, t)
            points = [(y[i, 0], t[j]) for i, j in np.ndindex(grid.shape)]
            refs = _whole_atom_contractions(g, x, p, points)
            for value, (ref, mass), pt in zip(grid.ravel(), refs, points):
                assert abs(value - ref) <= 1e-13 * mass, (x, pt)
            assert grid[-1, -1] == evolve_superosc_integral_representation(
                g, x, p, y[-1, 0], t[-1])
    assert abs(grid[0, 0]) > 1.0


EPS = np.finfo(float).eps


def test_anchored_atom_table_is_the_exponential_of_its_exponent():
    """Every cell of the anchored table of evolved atoms is within
    128 eps (1 + |phi|) |e^phi| of np.exp of its own exponent phi, plus 32
    subnormal spacings 2^-1074: a cell is at most 16 products from its
    anchor, each of which rounds both parts of a subnormal value to that
    spacing.  The cases cover t = 0, negative t, |t| = 50 and boxes of
    half-width up to 58, with blocks whose anchor underflows; nothing
    overflows, and the columns past the lattice's end hold their own
    exponentials too.  The table treats each u on its own, so its rows are
    every third node of the box; its columns are the whole eta lattice.
    Far from the packet, where an anchor's step e^sigma would overflow,
    every block is 0 and the twin is 0, with no floating-point error."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert evolve_superosc_integral_representation(
            gaussian_window(), 0.5, SuperoscParams(2.0, 4), 3e4, 0.5) == 0
    for x in (0.5, -12.0, 26.0, 45.0):
        nodes, _ = nodes_weights(QuadratureSpec(13.0 + abs(x), 16))
        u, h = nodes[::3], nodes[-1] / (nodes.size // 2)
        half, blocks = (u + x) / 2.0, -(-nodes.size // _BLOCK)
        k = np.arange(-(nodes.size // 2), -(nodes.size // 2) + _BLOCK * blocks)
        eta = (h * k).reshape(blocks, _BLOCK).T
        assert np.array_equal(eta.T.ravel()[:nodes.size], nodes)
        table = np.empty((_BLOCK, u.size, blocks), dtype=complex)
        for y, t in itertools.product((0.0, 3.0, -30.0, x),
                                      (0.0, 0.1, -0.5, 0.8, 2.0, -2.0,
                                       50.0, -50.0)):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                gamma = _atom_table(y - u, half, eta[0], h, t, table)
            for r in range(_BLOCK):
                z = np.subtract.outer(y - u, 2.0 * t * eta[r])
                phi = z * z * (-0.5 / (1.0 + 2j * t))
                phi.imag -= np.multiply.outer(half, eta[r])
                ref = np.exp(phi)
                bound = (128 * EPS * (1.0 + np.abs(phi)) * np.abs(ref)
                         + 32 * 2.0**-1074)
                assert np.all(np.abs(table[r] * gamma[r] - ref) <= bound), (
                    x, y, t, r)


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


@pytest.mark.parametrize("m", [0, 3, 8, 64])
def test_hermite_grid_over_every_field_is_its_point_calls(m):
    """t, x, x0 and k0 on four axes of one grid call: every entry is its
    point call's value to the bit, and a point call is a complex."""
    draws = np.random.default_rng(m)
    t = draws.uniform(-3.0, 3.0, (5, 1, 1, 1))
    x = draws.uniform(-6.0, 6.0, (1, 7, 1, 1))
    x0 = draws.uniform(-1.0, 1.0, (1, 1, 3, 1))
    k0 = draws.uniform(-2.0, 2.0, 4)
    grid = evolve_hermite(m, EvolutionPoint(x, t, x0, k0))
    assert grid.shape == (5, 7, 3, 4)
    for i, j, k, l in np.ndindex(grid.shape):
        value = evolve_hermite(m, EvolutionPoint(x[0, j, 0, 0], t[i, 0, 0, 0],
                                                 x0[0, 0, k, 0], k0[l]))
        assert type(value) is complex and value == grid[i, j, k, l]


def test_hermite_order_zero_matches_mpmath():
    """The Gaussian atom is the recurrence's order 0: within 1e-14 of the
    grid maximum of a 40-digit oracle on x in [-8, 8] with |k0| <= 20 and
    |t| <= 100.  Where the packet is followed out to |x| ~ 4000, each value
    is within 4 eps (1 + |k0 x| + |k0^2 t| + |s^2 / (4 alpha)|) of its
    modulus: the terms of the exponent, whose rounding any double
    evaluation keeps."""
    draws = np.random.default_rng(20)
    t = np.concatenate([[0.0, 0.5, -1.5], draws.uniform(-100.0, 100.0, 5)])
    k0 = np.concatenate([[0.0], draws.uniform(-20.0, 20.0, 4)])
    x, t, k0 = np.broadcast_arrays(np.linspace(-8.0, 8.0, 8), t[:, None, None],
                                   k0[:, None])
    for follow in (False, True):
        if follow:
            x = 0.3 + 2.0 * k0 * t + draws.uniform(-3.0, 3.0, x.shape) * (
                1.0 + 2.0 * abs(t))
        got = evolve_hermite(0, EvolutionPoint(x, t, 0.3, k0))
        ref = np.reshape([evolve_hermite_mp(0, *v, 0.3, kv) for *v, kv in
                          zip(x.ravel(), t.ravel(), k0.ravel())], x.shape)
        err = np.abs(got - ref)
        if not follow:
            assert np.max(err) <= 1e-14 * np.max(np.abs(ref))
            continue
        s = x - 0.3 - 2.0 * k0 * t
        terms = (abs(k0 * x) + k0 * k0 * abs(t)
                 + abs(s * s / (4.0 * (0.5 + 1j * t))))
        assert np.all(err <= 4.0 * EPS * (1.0 + terms) * np.abs(ref))


@pytest.mark.parametrize("k0", [1e200, np.array([0.5, 1e160])])
def test_hermite_phase_overflow_is_a_value_error(k0):
    """A k0 whose k0^2 t overflows is a ValueError naming it, with no
    floating-point warning first."""
    pt = EvolutionPoint(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]), 0.0, k0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (0, 3):
            with pytest.raises(ValueError, match=r"overflows the phase k0\^2 t"):
                evolve_hermite(m, pt)


@pytest.mark.parametrize("k0", [1e200, np.array([0.5, 1e200])])
def test_numeric_phase_overflow_is_a_value_error(k0):
    """evolve_numeric takes evolve_hermite's check: a scalar k0 = 1e200
    raised OverflowError from the float k0**2, and an array one returned
    NaN with three RuntimeWarnings."""
    pt = EvolutionPoint(0.0, 1.0, 0.0, k0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^k0 overflows the phase k0\^2 t"):
            evolve_numeric(gaussian_window(), pt)


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


@pytest.mark.parametrize("n", [8, 9, 20])
@pytest.mark.parametrize("shapes", [
    ((9,), ()), ((), (9,)), ((1, 9), (10, 1)), ((10, 9), (9,)),
    ((21,), ()), ((), (21,)), ((1, 21), (9, 1)), ((9, 21), (21,))])
def test_superosc_broadcasts_like_its_point_calls(shapes, n):
    """Each factor's j axis leads, also where len(y) or len(t) is n + 1
    (9 at n = 8, 10 at n = 9, 21 at n = 20): every grid entry is its
    point call's value within 32 eps sum |C_j|."""
    from superstft.superosc import coefficients
    p = SuperoscParams(a=2.0, n=n)
    rng = np.random.default_rng(n)
    y = rng.uniform(-4.0, 4.0, shapes[0])
    t = rng.uniform(0.0, 1.0, shapes[1])
    grid = evolve_superosc(p, y, t)
    yb, tb = np.broadcast_arrays(y, t)
    assert grid.shape == yb.shape
    ref = np.array([evolve_superosc(p, yi, ti)
                    for yi, ti in zip(yb.ravel(), tb.ravel())])
    bound = 32.0 * EPS * np.sum(np.abs(coefficients(p)))
    assert np.max(np.abs(grid.ravel() - ref)) <= bound


def test_superosc_grid_matches_mpmath_on_bench_axes():
    """n = 8, a = 2 (sum |C_j| = 2^8) on the (1, 201) x (21, 1) grid of
    the x -4:4:201, t 0:1:21 request, against an mpmath mode sum."""
    import mpmath
    from superstft.superosc import coefficients, frequencies
    p = SuperoscParams(a=2.0, n=8)
    xs, ts = np.linspace(-4.0, 4.0, 201), np.linspace(0.0, 1.0, 21)
    grid = evolve_superosc(p, xs[None, :], ts[:, None])
    assert grid.shape == (21, 201)
    assert np.sum(np.abs(coefficients(p))) == 256.0
    terms = list(zip(coefficients(p), frequencies(p)))
    with mpmath.workdps(30):
        ref = np.array([[complex(mpmath.fsum(
            c * mpmath.expj(w * mpmath.mpf(x) - w * w * mpmath.mpf(t))
            for c, w in terms)) for x in xs] for t in ts])
    assert np.max(np.abs(grid - ref)) <= 1e-12


@pytest.mark.parametrize("x, y, t", [
    (0.5, np.array([0.1, 0.7]), 0.3),  # len(y) = n + 1 at n = 1
    (0.5, np.array([0.1, 0.4, 0.7]), 0.3),  # len(y) = n + 1 at n = 2
    (0.5, 0.1, np.array([0.3])),
    (np.array([0.5, 0.6]), 0.1, 0.3),
    (np.array([[0.5], [-0.2]]), np.array([-0.4, 0.1, 0.7]),
     np.array([[0.0], [0.3]]))])
@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("m", [0, 3])
def test_superosc_signal_broadcasts_like_its_point_calls(x, y, t, n, m):
    """x, y and t broadcast together, each atom's k0 = omega_j on its own
    leading axis, also where an axis has omega's length n + 1: every entry
    is its point call's value within 32 eps sum |C_j|."""
    from superstft.superosc import coefficients
    g, p = hermite_window(m), SuperoscParams(a=2.0, n=n)
    grid = evolve_superosc_signal(g, x, p, y, t)
    xb, yb, tb = np.broadcast_arrays(x, y, t)
    assert grid.shape == xb.shape
    ref = [evolve_superosc_signal(g, xi, p, yi, ti)
           for xi, yi, ti in zip(xb.ravel(), yb.ravel(), tb.ravel())]
    bound = 32.0 * EPS * np.sum(np.abs(coefficients(p)))
    assert np.max(np.abs(grid.ravel() - ref)) <= bound


@pytest.mark.parametrize("name, y, t, x", [
    ("y", np.array([0.1, math.nan]), 0.3, 0.5), ("t", 0.1, math.inf, 0.5),
    ("x", 0.1, 0.3, np.array([0.5, -math.inf]))])
def test_superosc_signal_names_a_non_finite_point(name, y, t, x):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        evolve_superosc_signal(gaussian_window(), x, p=SuperoscParams(2.0, 1),
                               y=y, t=t)


def test_point_validation_covers_arrays():
    with pytest.raises(ValueError):
        EvolutionPoint(x=np.array([0.0, math.nan]), t=0.0, x0=0.0, k0=0.0)


@pytest.mark.parametrize("y, t, name", [
    (math.nan, 0.5, "y"), (np.array([0.0, math.inf]), 0.5, "y"),
    (0.5, -math.inf, "t"), (0.5, np.array([0.0, math.nan]), "t")])
def test_superosc_evolution_rejects_non_finite_points(y, t, name):
    """A non-finite y or t is a ValueError naming it, not a NaN value."""
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        evolve_superosc(SuperoscParams(2.0, 64), y, t)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_integral_representation_names_a_non_finite_x(x):
    """x sets the (u, eta) box, so it is checked before the box is built,
    with no floating-point warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^x must be finite"):
            evolve_superosc_integral_representation(
                gaussian_window(), x, SuperoscParams(2.0, 4), 0.3, 0.1)


def test_hazard_warns_once_per_grid_call():
    pt = EvolutionPoint(x=np.linspace(0.0, 1.0, 5), t=2000.0, x0=0.0, k0=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evolve_numeric(hermite_window(1), pt)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert caught[0].filename == __file__  # the caller's line, not ours


# ---------------------------------------------------------------------------
# closed Gaussian-moment route of evolve_hermite
# ---------------------------------------------------------------------------

def _quadrature_hermite(m, pt):
    """evolve_hermite's integral by quadrature: evolve_numeric of h_m on
    its default box."""
    return evolve_numeric(hermite_window(m), pt)


def test_hermite_closed_matches_numeric_oracle():
    xs = np.array([-1.5, 0.4, 2.5])
    x0, k0 = 0.3, -0.8
    for m in (1, 2, 3, 5, 8):
        hm = hermite_window(m)
        for t in (-0.7, 0.0, 0.5, 1.0, 10.0):
            closed = evolve_hermite(m, EvolutionPoint(xs, t, x0, k0))
            ref = np.array([evolve_numeric(hm, EvolutionPoint(x, t, x0, k0))
                            for x in xs])
            assert np.max(np.abs(closed - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("m, t", [
    *((m, t) for m in (0, 1, 2, 3, 5, 8, 16, 32, 64) for t in (0.0, 0.3)),
    (1, -1.0), (8, -1.0), (64, -1.0), (2, 2.0), (16, 2.0), (3, 10.0),
    (32, 10.0),
])
def test_hermite_closed_matches_quadrature(m, t):
    pt = EvolutionPoint(np.linspace(-12.0, 12.0, 41), t, 0.3, -0.8)
    closed = evolve_hermite(m, pt)
    ref = _quadrature_hermite(m, pt)
    assert np.max(np.abs(closed - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_hermite_closed_initial_datum():
    xs = np.linspace(-6.0, 6.0, 49)
    x0, k0 = -0.4, 1.1
    for m in (0, 1, 4, 17, 64):
        datum = np.exp(1j * k0 * xs) * hermite_window(m)(xs - x0)
        pt = EvolutionPoint(xs, 0.0, x0, k0)
        tol = 1e-13 * np.max(np.abs(datum))
        err = np.abs(evolve_hermite(m, pt) - TWO_PI * datum)
        assert np.max(err) <= TWO_PI * tol
        err = np.abs(evolve_hermite(m, pt, normalized=True) - datum)
        assert np.max(err) <= tol


def test_hermite_closed_solves_pde():
    """The residual is the O(h^2) finite-difference error, which grows with
    the order, so h is smaller than pde_residual's default."""
    x0, k0 = 0.2, 0.9
    for m in (1, 3, 6):
        def f(x, t, m=m):
            return evolve_hermite(m, EvolutionPoint(x, t, x0, k0))

        for t in (-0.6, 0.4, 1.5):
            scale = np.max(np.abs(f(np.linspace(-4.0, 4.0, 81), t)))
            for x in (-0.8, 0.1, 0.9):
                assert pde_residual(f, x, t, h=2.5e-4) < 1e-4 * scale


def test_hermite_closed_builds_no_rule_and_warns_not(monkeypatch):
    def no_rule(spec):
        raise AssertionError("the closed route built a quadrature rule")

    monkeypatch.setattr("superstft.evolution.nodes_weights", no_rule)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = np.linspace(-4.0, 4.0, 9)
        for t in (0.0, 0.5, 10.0):
            evolve_hermite(3, EvolutionPoint(xs, t, 0.1, 0.5))
        evolve_hermite(2, EvolutionPoint(0.3, -1.0, 0.0, 0.0), normalized=True)


@pytest.mark.parametrize("m", [1, 8, 32, 64])
def test_hermite_closed_on_hazardous_slices_matches_mpmath(m):
    """Where evolve_numeric's rule runs out of nodes (|t| T^2 > 10^4) the
    closed form still holds, with no warning."""
    draws = np.random.default_rng(m)
    scale = math.sqrt(TWO_PI * hermite_norm_sq(m))
    for t in (2e3, -5e3, 1e5):
        xs = draws.uniform(-20.0, 20.0, 4)
        x0, k0 = draws.uniform(-3.0, 3.0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evolve_hermite(m, EvolutionPoint(xs, t, x0, k0))
        ref = [evolve_hermite_mp(m, x, t, x0, k0) for x in xs]
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_hermite_order_above_maximum_rejected():
    for t in (0.0, 2000.0):
        with pytest.raises(ValueError):
            evolve_hermite(65, EvolutionPoint(0.0, t, 0.0, 0.0))


def test_hermite_closed_far_tails_are_zero(capsys):
    """Far outside the packet the closed routes return exact zeros, with
    no overflow of the Hermite recurrence or of the Gaussian's square and
    no floating-point warning."""
    xs = np.array([1e5, -1e200, 1.7e308])
    t = np.array([[0.0], [0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # at k0 = 2 the unclipped phase k0 x would overflow at x = 1.7e308
        for m, k0 in itertools.product((0, 3, 64), (-0.5, 2.0)):
            vals = evolve_hermite(m, EvolutionPoint(xs, t, 0.1, k0))
            assert np.array_equal(vals, np.zeros((2, 3)))
        assert main(["evolve", "--window", "gaussian", "--x", "-1e200:1e200:3",
                     "--t", "0:0.3:2"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 6
    assert all((float(r[4]) == 0.0) == (float(r[0]) != 0.0) for r in rows)


def test_numeric_grid_matches_point_calls():
    """evolve_numeric takes arrays of x, x0 and k0 at one t; each point is
    its one-point call's value to the bit."""
    xs = np.linspace(-4.0, 4.0, 41)
    for g, t, x0, k0 in [(gaussian_window(), 0.4, 0.1, 1.0),
                         (hermite_window(3), -0.7, 0.2, -0.9),
                         (hermite_window(2), 0.0, -0.3, np.linspace(-1, 1, 41))]:
        pt = EvolutionPoint(xs, t, x0, k0)
        grid = evolve_numeric(g, pt)
        ref = [evolve_numeric(g, EvolutionPoint(x, t, x0, k))
               for x, k in zip(xs, np.broadcast_to(k0, xs.shape))]
        assert grid.shape == xs.shape
        assert np.array_equal(grid, ref)
    with pytest.raises(ValueError, match="one t per call"):
        evolve_numeric(gaussian_window(),
                       EvolutionPoint(0.0, np.array([0.1, 0.2]), 0.0, 0.0))
