"""Acceptance battery: one test per criterion A1-A14, each at its stated
tolerance, so ``pytest -v`` emits one pass/fail line per criterion."""

import math

import numpy as np
import pytest

from superstft import approx as ap
from superstft import evolution as ev
from superstft import kernels as kn
from superstft import signals as sg
from superstft import special as sp
from superstft import transforms as tr
from superstft.quadrature import make_spec
from superstft.superosc import SuperoscParams
from superstft.zak import (frame_check, theta_bound_check, zak,
                           zak_shift_identity_check, zak_superosc_termwise)

TWO_PI = 2.0 * math.pi


def _report(tag, err, tol):
    print(f"{tag}: max_error={err:.3e} tolerance={tol:.3e} "
          f"{'PASS' if err <= tol else 'FAIL'}")


def test_A1_superosc_stft_kernel_sum():
    """Numeric STFT of the superoscillating signal equals the closed
    kernel sum within 1e-8 (1+a)^n on a 5x5 grid over [-2,2]^2."""
    grid = np.linspace(-2.0, 2.0, 5)
    worst = 0.0
    for g in (sg.gaussian_window(), sg.hermite_window(1)):
        for a in (1.5, 2.0):
            for n in (2, 4, 8):
                p = SuperoscParams(a=a, n=n)
                tol = 1e-8 * (1.0 + a) ** n
                for x in (0.0, 0.5):
                    s = sg.build_signal(g, x, p)
                    closed = kn.stft_superosc_closed_grid(g, x, p, grid, grid)
                    numeric = tr.stft_grid(
                        s, g, grid, grid,
                        spec=make_spec(s.decay_radius, 2.0)).values
                    err = float(np.max(np.abs(closed - numeric)))
                    worst = max(worst, err / tol)
                    assert err <= tol, (g.kind, a, n, x, err, tol)
    _report("A1", worst, 1.0)


def test_A2_phase_space_energy():
    """Truncated phase-space energy of (h_0, phi) equals
    2 pi ||h_0||^2 ||phi||^2 = 2 pi^2 within 1e-4 relative; the
    four-function identity holds within 1e-5 absolute."""
    g = sg.gaussian_window()
    h0, h1 = sg.hermite_window(0), sg.hermite_window(1)
    energy = tr.moyal_double_integral(h0, g)
    target = TWO_PI * math.pi
    rel = abs(energy - target) / target
    _report("A2a", rel, 1e-4)
    assert rel <= 1e-4

    num = tr.moyal_double_integral(h0, g, h1, h1)
    closed = tr.moyal_inner_product(h0, h1, g, h1)
    err = float(abs(num - closed))
    _report("A2b", err, 1e-5)
    assert err <= 1e-5


def test_A3_gaussian_kernel_closed_form():
    """Closed Gaussian time-frequency kernel matches quadrature to 1e-10
    at 20 random quadruples."""
    rng = np.random.default_rng(42)
    g = sg.gaussian_window()
    worst = 0.0
    for _ in range(20):
        x, omega, u, eta = rng.uniform(-2.0, 2.0, 4)
        q = kn.TFQuadruple(x=x, omega=omega, u=u, eta=eta)
        worst = max(worst, float(abs(kn.gabor_kernel_gaussian(q)
                                     - kn.gabor_kernel_numeric(g, q))))
    _report("A3", worst, 1e-10)
    assert worst <= 1e-10


def test_A4_hermite_kernel_calibrated():
    """Calibrated Hermite kernel matches quadrature to 1e-8 for n <= 4."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in range(5):
        g = sg.hermite_window(n)
        for _ in range(5):
            x, omega, u, eta = rng.uniform(-1.5, 1.5, 4)
            q = kn.TFQuadruple(x=x, omega=omega, u=u, eta=eta)
            worst = max(worst, float(abs(kn.gabor_kernel_hermite(n, q)
                                         - kn.gabor_kernel_numeric(g, q))))
    _report("A4", worst, 1e-8)
    assert worst <= 1e-8


def test_A5_hermite_convolution():
    """Closed modulated-Hermite convolution matches quadrature to 1e-8
    for k, m <= 4 and |lam| <= 3; the slot-exchanged print coincides at
    k = m; the unmodulated specialization agrees as well."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(5):
        for m in range(5):
            x, u = rng.uniform(-1.0, 1.0, 2)
            lam = rng.uniform(-3.0, 3.0)
            quad = tr.convolve(
                lambda t: np.exp(1j * x * t) * sp.hermite_function(k, t),
                lambda t: np.exp(1j * u * t) * sp.hermite_function(m, t),
                lam, spec=make_spec(12.0, lam))
            worst = max(worst, float(abs(
                quad - kn.hermite_convolution_closed(k, m, x, u, lam))))
            if k == m:
                worst = max(worst, float(abs(
                    kn.hermite_convolution_mirror(k, m, x, u, lam)
                    - kn.hermite_convolution_closed(k, m, x, u, lam))))
            quad0 = tr.convolve(lambda t: sp.hermite_function(k, t),
                                lambda t: sp.hermite_function(m, t),
                                lam, spec=make_spec(12.0, lam))
            worst = max(worst, float(abs(
                quad0 - kn.hermite_autoconvolution(k, m, lam))))
    _report("A5", worst, 1e-8)
    assert worst <= 1e-8


def test_A6_pair_integral_polynomial():
    """The pair-integral polynomial's series and compact forms agree to
    1e-10 at 20 random complex points (k, m <= 6), and the master
    integral matches quadrature to 1e-8."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(0, 7))
        m = int(rng.integers(0, 7))
        x, u, lam = (rng.uniform(-1.0, 1.0, 3)
                     + 1j * rng.uniform(-1.0, 1.0, 3))
        worst = max(worst, float(abs(kn.i_km_series(k, m, x, u, lam)
                                     - kn.i_km_closed(k, m, x, u, lam))))
    _report("A6a", worst, 1e-10)
    assert worst <= 1e-10

    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        u, x, lam = rng.uniform(-1.5, 1.5, 3)
        spec = make_spec(12.0, u, x)
        quad = tr.fourier(
            lambda t: sp.hermite_function(k, t - u)
            * sp.hermite_function(m, t - x),
            -lam, spec=spec)
        worst = max(worst, float(abs(
            quad - kn.hermite_pair_integral(k, m, u, x, lam))))
    _report("A6b", worst, 1e-8)
    assert worst <= 1e-8


def test_A7_closed_norms():
    """Closed signal energies match quadrature to 1e-5 relative
    (Gaussian n <= 8, Hermite n <= 4 with k, m <= 2); the diagonal
    2D-Hermite value at the origin is (-1)^m m! to 1e-8."""
    g = sg.gaussian_window()
    worst = 0.0
    for n in range(1, 9):
        for a in (1.5, 2.0):
            p = SuperoscParams(a=a, n=n)
            closed = kn.norm_sq_closed_gaussian(0.4, p)
            quad = sg.window_norm_sq(g) * sg.signal_norm_sq(
                sg.build_signal(g, 0.4, p))
            worst = max(worst, abs(closed - quad) / abs(quad))
    for n in range(1, 5):
        p = SuperoscParams(a=1.5, n=n)
        for k in range(3):
            for m in range(3):
                closed = kn.norm_sq_closed_hermite(k, m, 0.3, p)
                signal = sg.build_signal(sg.hermite_window(m), 0.3, p)
                quad = (sg.window_norm_sq(sg.hermite_window(k))
                        * sg.signal_norm_sq(signal))
                worst = max(worst, abs(closed - quad) / abs(quad))
    _report("A7a", worst, 1e-5)
    assert worst <= 1e-5

    diag = max(abs(sp.complex_hermite_2d(m, m, 0.0, 0.0)
                   - (-1.0) ** m * math.factorial(m)) for m in range(9))
    _report("A7b", float(diag), 1e-8)
    assert diag <= 1e-8


def test_A8_supershift_convergence():
    """In all three settings the distance to the limit object at n = 40
    is at most 0.6 times the distance at n = 10 (a = 1.5)."""
    a, x, u, eta = 1.5, 0.3, 0.4, 0.8
    g = sg.gaussian_window()
    ratios = {}

    errs = {n: abs(kn.stft_superosc_closed_grid(g, x, SuperoscParams(a, n),
                                                u, eta)
                   - kn.stft_superosc_limit_grid(g, x, a, u, eta))
            for n in (10, 40)}
    ratios["gaussian-kernel"] = errs[40] / errs[10]

    errs = {n: abs(kn.stft_superosc_cross(1, 2, x, SuperoscParams(a, n), u, eta)
                   - kn.stft_superosc_limit_cross(1, 2, x, a, u, eta))
            for n in (10, 40)}
    ratios["hermite-cross"] = errs[40] / errs[10]

    tgt = ap.app2_closed(u, eta, a)
    errs = {n: abs(ap.stft_approx_hermite_closed(0, 0, SuperoscParams(a, n),
                                                 u, eta) - tgt)
            for n in (10, 40)}
    ratios["approx-target"] = errs[40] / errs[10]

    worst = max(ratios.values())
    _report("A8", float(worst), 0.6)
    assert all(r <= 0.6 for r in ratios.values()), ratios


def test_A9_reconstruction():
    """h_0 is recovered from its transform at 5 points within 1e-3
    (truncation-limited tolerance)."""
    g = sg.gaussian_window()
    h0 = sg.hermite_window(0)
    axis = np.arange(-11.0, 11.0 + 0.125, 0.25)
    grid = tr.stft_grid(h0, g, axis, axis)
    points = np.array([-1.2, -0.4, 0.0, 0.3, 1.1])
    rec = tr.reconstruct(grid, g, points)
    worst = float(np.max(np.abs(rec - h0(points))))
    _report("A9", worst, 1e-3)
    assert worst <= 1e-3


def test_A10_zak_suite():
    """Lattice-transform suite: termwise expansion to 1e-10; shift
    covariance to 1e-10; theta bound never violated; theta value at the
    Gaussian nome; Frame verdict for (a, n) = (2, 4) stable under grid
    doubling."""
    g = sg.gaussian_window()
    worst = 0.0
    for kind in ("gaussian", "hermite"):
        win = g if kind == "gaussian" else sg.hermite_window(1)
        for n in (2, 4):
            p = SuperoscParams(a=2.0, n=n)
            s = sg.build_signal(win, 0.0, p)
            for u in np.linspace(0.05, 0.95, 4):
                for eta in np.linspace(0.1, 6.0, 4):
                    worst = max(worst, abs(
                        zak(s, float(u), float(eta))
                        - zak_superosc_termwise(win, 0.0, p, float(u),
                                                float(eta))))
    _report("A10a", float(worst), 1e-10)
    assert worst <= 1e-10

    cov = max(zak_shift_identity_check(g, 1.0, math.pi, 0.3, 0.5),
              zak_shift_identity_check(sg.hermite_window(1),
                                       0.5, 2.0, 0.1, 0.9),
              float(abs(zak(g, 1.3, 0.7)
                        - np.exp(1j * 0.7) * zak(g, 0.3, 0.7))))
    _report("A10b", cov, 1e-10)
    assert cov <= 1e-10

    violation = 0.0
    for (a, n) in [(2.0, 3), (1.5, 5), (2.0, 4)]:
        p = SuperoscParams(a=a, n=n)
        for u in (0.0, 0.25, 0.5, 0.9):
            for eta in (0.0, 1.0, 3.0, 6.0):
                value, bound = theta_bound_check(p, u, eta)
                violation = max(violation, value - bound)
    _report("A10c", max(violation, 0.0), 0.0)
    assert violation <= 0.0

    theta_err = abs(float(np.real(sp.theta(0.0, 1j / TWO_PI))) - 2.506628)
    _report("A10d", theta_err, 1e-6)
    assert theta_err <= 1e-6

    s = sg.build_signal(g, 0.0, SuperoscParams(a=2.0, n=4))
    v128 = frame_check(s, 128)
    v256 = frame_check(s, 256)
    print(f"A10e: verdicts {v128.verdict}/{v256.verdict} "
          f"lower bounds {v128.lower_bound:.6e}/{v256.lower_bound:.6e}")
    assert v128.verdict == "Frame" and v256.verdict == "Frame"


def test_A11_evolution():
    """Free evolution: quadrature matches the closed Gaussian solution to
    1e-7; every path returns 2 pi times the datum at t = 0 to 1e-7; the
    finite-difference equation residual is below 1e-4 relative at 10
    points."""
    rng = np.random.default_rng(42)
    g = sg.gaussian_window()
    worst = 0.0
    for _ in range(6):
        x, t, x0, k0 = rng.uniform(-1.0, 1.0, 4)
        pt = ev.EvolutionPoint(x=x, t=t, x0=x0, k0=k0)
        worst = max(worst, float(abs(ev.evolve_numeric(g, pt)
                                     - ev.evolve_gaussian_closed(pt))))
    _report("A11a", worst, 1e-7)
    assert worst <= 1e-7

    worst = 0.0
    for _ in range(4):
        x, x0, k0 = rng.uniform(-1.0, 1.0, 3)
        pt = ev.EvolutionPoint(x=x, t=0.0, x0=x0, k0=k0)
        datum = TWO_PI * np.exp(1j * k0 * x) * g(x - x0)
        worst = max(worst, float(abs(ev.evolve_numeric(g, pt) - datum)))
        worst = max(worst, float(abs(ev.evolve_gaussian_closed(pt) - datum)))
    for m in (1, 2):
        hm = sg.hermite_window(m)
        pt = ev.EvolutionPoint(x=0.4, t=0.0, x0=0.0, k0=0.5)
        datum = TWO_PI * np.exp(1j * 0.5 * 0.4) * hm(0.4)
        worst = max(worst, float(abs(ev.evolve_hermite(m, pt) - datum)))
    _report("A11b", worst, 1e-7)
    assert worst <= 1e-7

    worst = 0.0
    for _ in range(10):
        x, t = rng.uniform(-1.0, 1.0, 2)
        x0, k0 = rng.uniform(-0.5, 0.5, 2)

        def f(xx, tt):
            return ev.evolve_gaussian_closed(ev.EvolutionPoint(xx, tt, x0, k0))

        worst = max(worst, ev.pde_residual(f, x, t) / abs(f(x, t)))
    _report("A11c", float(worst), 1e-4)
    assert worst <= 1e-4


def test_A12_approximating_sequence():
    """Averaged-shift suite: exact Fourier factorization to 1e-8; the
    ambiguity route equals the 2D-Hermite route to 1e-8; the closed
    Gaussian limit target matches quadrature to 1e-8."""
    g = sg.gaussian_window()
    worst = 0.0
    for n in range(1, 5):
        p = SuperoscParams(a=2.0, n=n)
        for lam in (-2.0, -0.5, 0.0, 0.9, 2.3):
            worst = max(worst, ap.apsthm_residual(g, p, lam))
    _report("A12a", float(worst), 1e-8)
    assert worst <= 1e-8

    worst = 0.0
    p = SuperoscParams(a=2.0, n=3)
    for m in range(3):
        win = sg.hermite_window(m)
        for (u, eta) in [(0.3, 0.5), (-0.4, 1.1)]:
            worst = max(worst, abs(ap.stft_approx_via_ambiguity(win, p, u, eta)
                                   - ap.stft_approx_hermite_closed(m, m, p,
                                                                   u, eta)))
    _report("A12b", float(worst), 1e-8)
    assert worst <= 1e-8

    a = 1.5
    shifted = sg.custom_window(lambda t: g(np.asarray(t, dtype=float) + a),
                               decay_radius=g.decay_radius + a)
    worst = 0.0
    for (u, eta) in [(0.2, 0.1), (0.0, 0.0), (-0.7, 1.3)]:
        worst = max(worst, abs(tr.stft(shifted, g, u, eta)
                               - ap.app2_closed(u, eta, a)))
    _report("A12c", float(worst), 1e-8)
    assert worst <= 1e-8


def test_A13_generating_functions():
    """Generating identities at truncation K = 20 hold to 1e-8 for
    |u|, |v| <= 0.5, including the transform-side product identity and
    its frozen reference value."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(5):
        z, w = rng.uniform(-1.0, 1.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
        u, v = rng.uniform(-0.5, 0.5, 2)
        worst = max(worst, float(abs(
            sp.complex_hermite_generating_sum(z, w, u, v, 20)
            - np.exp(u * w + v * z - u * v))))
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0)
        lam = rng.uniform(-1.5, 1.5)
        u, v = rng.uniform(-0.5, 0.5, 2)
        lhs, rhs = kn.generating_sum_check(x, u, v, lam, 20)
        worst = max(worst, float(abs(lhs - rhs)))
        lhs, rhs = kn.generating_product_check(x, u, v, lam, 20)
        worst = max(worst, float(abs(lhs - rhs)))
    # frozen reference point for the product identity
    u = v = 0.2
    x, lam = 0.1, 0.5
    lhs, _ = kn.generating_product_check(x, u, v, lam, 20)
    frozen = TWO_PI * np.exp(-u * v - (x - lam) ** 2 + (u + v) ** 2 / 2.0
                             + math.sqrt(2.0) * 1j * (x - lam) * (u + v))
    worst = max(worst, float(abs(lhs - frozen)))
    _report("A13", worst, 1e-8)
    assert worst <= 1e-8


def test_A14_quadrature_stability(monkeypatch):
    """Doubling the node density changes one representative value from
    every quadrature family by less than 1e-9."""
    def representatives():
        g = sg.gaussian_window()
        p = SuperoscParams(a=2.0, n=4)
        s = sg.build_signal(g, 0.3, p)
        return {
            "stft": tr.stft(s, g, 0.4, 0.8),
            "kernel": kn.gabor_kernel_numeric(
                sg.hermite_window(2),
                kn.TFQuadruple(x=0.3, omega=0.7, u=-0.2, eta=0.5)),
            "convolve": tr.convolve(
                lambda t: np.exp(0.3j * t) * sp.hermite_function(1, t),
                lambda t: sp.hermite_function(2, t),
                0.7, spec=make_spec(12.0, 0.7)),
            "fourier": tr.fourier(s, 1.1),
            "norm": sg.signal_norm_sq(s),
            "evolve": ev.evolve_numeric(
                g, ev.EvolutionPoint(x=0.2, t=0.4, x0=0.1, k0=1.0)),
            "moyal": tr.moyal_double_integral(sg.hermite_window(0), g),
        }

    monkeypatch.delenv("SUPERSTFT_QUAD_NODES", raising=False)
    base = representatives()
    monkeypatch.setenv("SUPERSTFT_QUAD_NODES", "128")
    fine = representatives()
    deltas = {name: float(abs(fine[name] - base[name])) for name in base}
    worst = max(deltas.values())
    _report("A14", worst, 1e-9)
    assert worst < 1e-9, deltas
