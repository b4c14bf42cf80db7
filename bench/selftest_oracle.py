"""Cross-checks of the reference formulas against mpmath.quad of the
defining integrals.  Run with

    python3 -m pytest bench/selftest_oracle.py bench/selftest_harness.py
"""

import ast
import os

import mpmath
import pytest

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


def close(a, b, tol=1e-30):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


def test_oracle_does_not_import_the_package():
    tree = ast.parse(open(os.path.join(HERE, "oracle.py")).read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    assert names == {"functools", "mpmath"}


def test_coefficients_sum_to_one_and_reproduce_the_product_form():
    terms = oracle.superosc_terms(12, 2.0)
    assert close(sum(c for c, _ in terms), 1)
    for y in (0.0, 0.7, -3.1):
        assert close(oracle.evolve_superosc_points(12, 2.0, [(y, 0.0)])[0],
                     oracle.f_n_product(12, 2.0, y), 1e-15)


@pytest.mark.parametrize("order,n,u,eta", [
    (0, 8, 0.3, 1.7), (0, 8, -2.0, 0.5), (3, 8, 0.3, 1.7), (3, 8, -1.1, -2.4),
    (3, 64, 0.5, 0.5),
])
def test_spectrogram_cells_match_the_defining_integral(order, n, u, eta):
    ref = oracle.stft_superosc_cells(order, 0.5, n, 2.0, [(u, eta)])[0][0]
    quad = oracle.stft_superosc_quad(order, 0.5, n, 2.0, u, eta)
    assert abs(ref - quad) <= 1e-14 * max(1.0, abs(quad))


def test_spectrogram_cells_share_factors_without_changing_values():
    cells = [(u, e) for u in (-1.0, 0.25) for e in (0.0, 2.5)]
    values, sums = oracle.stft_superosc_cells(3, 0.5, 16, 2.0, cells)
    alone = [oracle.stft_superosc_cells(3, 0.5, 16, 2.0, [c]) for c in cells]
    assert values == [v[0] for v, _ in alone]
    assert sums == [s[0] for _, s in alone]


def test_term_sums_bound_the_values_and_grow_like_a_to_the_n():
    assert close(oracle.coefficient_abs_sum(12, 2.0), 2.0 ** 12, 1e-15)
    cells = [(0.3, 1.7), (-2.0, 0.5)]
    for n in (8, 32):
        values, sums = oracle.stft_superosc_cells(0, 0.5, n, 2.0, cells)
        assert all(abs(v) <= s for v, s in zip(values, sums))
    small = oracle.stft_superosc_cells(0, 0.5, 8, 2.0, cells)[1]
    large = oracle.stft_superosc_cells(0, 0.5, 32, 2.0, cells)[1]
    assert all(b > 1e3 * a for a, b in zip(small, large))


@pytest.mark.parametrize("x0,k0,x,t", [
    (0.0, 2.0, 0.3, 0.5), (0.0, 2.0, -2.0, 1.0), (0.7, -1.0, 1.5, 0.25),
])
def test_gaussian_evolution_matches_the_momentum_integral(x0, k0, x, t):
    ref = oracle.evolve_gaussian_points(x0, k0, [(x, t)])[0]
    quad = oracle.evolve_momentum_quad(0, x0, k0, x, t)
    assert abs(ref - quad) <= 1e-14 * max(1.0, abs(quad))


@pytest.mark.parametrize("m,x0,k0,x,t", [
    (3, 0.0, 0.0, 0.3, 0.5), (3, 0.0, 0.0, -2.0, 1.0), (3, 0.0, 0.0, 4.0, 0.0),
    (2, 0.5, 1.0, 1.0, 0.75),
])
def test_hermite_evolution_matches_the_momentum_integral(m, x0, k0, x, t):
    ref = oracle.evolve_hermite_points(m, x0, k0, [(x, t)])[0]
    quad = oracle.evolve_momentum_quad(m, x0, k0, x, t)
    assert abs(ref - quad) <= 1e-14 * max(1.0, abs(quad))


def _mp40():
    mp = mpmath.mp.clone()
    mp.dps = 40
    return mp


def test_hermite_gauss_fourier_matches_direct_quadrature():
    mp = _mp40()
    for m, t, y in ((0, 0.3, 1.2), (3, 1.0, -0.8), (5, 2.5, 2.0)):
        alpha = mp.mpc(0.5, t)
        ref = complex(oracle.hermite_gauss_fourier(m, alpha, mp.mpf(y)))
        # unit panels keep the oscillatory integrand resolved; the Gaussian
        # tail beyond |u| = 14 is below 1e-40
        quad = complex(mp.quad(lambda u: mp.exp(-alpha * u * u + 1j * y * u)
                               * mp.hermite(m, u), mp.linspace(-14, 14, 29)))
        assert abs(ref - quad) <= 1e-14 * abs(quad)


def test_superosc_mode_sum_solves_the_free_equation():
    mp = _mp40()
    terms = [(mp.mpf(c), mp.mpf(w)) for c, w in oracle.superosc_terms(6, 2.0)]

    def phi(y, t):
        return mp.fsum(c * mp.expj(w * y - w * w * t) for c, w in terms)

    y, t = mp.mpf(0.4), mp.mpf(0.3)
    residual = (1j * mp.diff(lambda s: phi(y, s), t)
                + mp.diff(lambda s: phi(s, t), y, 2))
    assert abs(residual) < 1e-25


def test_zak_abs_is_quasi_periodic_and_vanishes_for_odd_hermite_at_origin():
    for kind, order, n in (("hermite", 3, 0), ("superosc-gaussian", 0, 8)):
        a, b = oracle.zak_abs(kind, order, n, 2.0, [(0.3, 1.1), (1.3, 1.1)])
        assert abs(a - b) <= 1e-14 * max(1.0, a)
    assert oracle.zak_abs("hermite", 3, 0, 2.0, [(0.0, 0.0)])[0] < 1e-60
