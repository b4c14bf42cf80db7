"""Verification suites: every closed-form identity in the package checked
against an independent oracle (quadrature, series, or a second closed
route), each case reporting its worst observed error against a fixed
tolerance.

The registry groups cases into suites (stft, kernels, hermite, zak,
evolution, approx); ``run_suite`` executes one or all of them and returns
JSON-ready records.  A case is a generator function of the seeded
``rng``: it yields each error it measures, a float or an array, and a dict
for any param known only at run time; its static params are given where
it is registered.  The registry reduces the errors with ``np.max``, which
propagates NaN, so an error that is not a number fails its case.  All
random draws come from a caller-seeded generator, so reports are
reproducible, all but each case's wall time.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import approx as ap
from . import evolution as ev
from . import kernels as kn
from . import signals as sg
from . import special as sp
from . import transforms as tr
from . import zak as zk
from .quadrature import band_spec, make_spec
from .special import SQRT2, TWO_PI
from .superosc import SuperoscParams

SUITES = ("all", "stft", "kernels", "hermite", "zak", "evolution", "approx")


@dataclass(frozen=True)
class CaseResult:
    id: str
    suite: str
    anchor: str
    params: dict
    max_error: float
    tolerance: float
    elapsed_s: float

    @property
    def passed(self):
        return self.max_error <= self.tolerance

    @property
    def margin(self):
        """Digits to spare, log10(tolerance / max_error); None when either
        is 0 (no error, or an exact check) or the error is not finite."""
        if 0 < self.max_error < math.inf and self.tolerance > 0:
            return math.log10(self.tolerance / self.max_error)
        return None

    def to_record(self):
        return {
            "id": self.id,
            "paper_anchor": self.anchor,
            "params": self.params,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "elapsed_s": self.elapsed_s,
            "margin": self.margin,
        }


_CASES = []


def _case(case_id, suite, anchor, tolerance, **params):
    """Register a generator of rng as a case.  Its run(rng) returns the
    max over every error the generator yields, NaN if any is NaN, and
    ``params`` updated by every dict it yields."""
    def wrap(gen):
        def run(rng):
            errors, found = [], dict(params)
            for item in gen(rng):
                if isinstance(item, dict):
                    found.update(item)
                else:
                    errors.append(np.ravel(item))
            return float(np.max(np.concatenate(errors))), found

        _CASES.append((case_id, suite, anchor, tolerance, run))
        return run

    return wrap


# ---------------------------------------------------------------------------
# stft suite
# ---------------------------------------------------------------------------

@_case("superosc-stft-closed", "stft",
       "closed kernel sum for the STFT of a superoscillation-modulated window",
       1e-8, windows=["gaussian", "hermite-1"], a=[1.5, 2.0], n=[2, 4, 8],
       x=[0.0, 0.5], grid="5x5 on [-2,2]^2", error_scale="(1+a)^n")
def _run_superosc_stft(rng):
    grid = np.linspace(-2.0, 2.0, 5)
    for kind in ("gaussian", "hermite"):
        g = sg.gaussian_window() if kind == "gaussian" else sg.hermite_window(1)
        for a in (1.5, 2.0):
            for n in (2, 4, 8):
                p = SuperoscParams(a=a, n=n)
                scale = (1.0 + a) ** n
                for x in (0.0, 0.5):
                    s = sg.build_signal(g, x, p)
                    closed = kn.stft_superosc_termwise_grid(g, x, p, grid, grid)
                    # band: both decay radii, |eta| <= 2 and F_n's |omega_j| <= 1
                    numeric = tr.stft_grid(
                        s, g, grid, grid,
                        spec=band_spec(s.decay_radius + g.decay_radius + 3.0,
                                       s.decay_radius, 2.0),
                    )
                    yield np.max(np.abs(closed - numeric)) / scale


@_case("superosc-stft-stable", "stft",
       "Gauss-Hermite product-form STFT of a superoscillation-modulated "
       "window at large n", 1e-10,
       x=0.5, grid="5x5 on [-2,2]^2", error_scale="max(1, max|V|)")
def _run_superosc_stft_stable(rng):
    # one seeded draw per run: all 48 combinations would add about 0.4 s to
    # a verify run
    k, m = (int(v) for v in rng.choice([0, 1], size=2))
    n = int(rng.choice([16, 32, 64, 96]))
    a = float(rng.choice([1.5, 2.0, 3.0]))
    yield {"k": k, "m": m, "a": a, "n": n}
    grid = np.linspace(-2.0, 2.0, 5)
    p = SuperoscParams(a=a, n=n)
    s = sg.build_signal(sg.hermite_window(m), 0.5, p)
    stable = kn.stft_superosc_cross(k, m, 0.5, p, grid, grid)
    numeric = tr.stft_grid(s, sg.hermite_window(k), grid, grid,
                           spec=make_spec(s.decay_radius, 2.0))
    yield (np.max(np.abs(stable - numeric))
           / max(1.0, float(np.max(np.abs(numeric)))))


@_case("energy-orthogonality", "stft",
       "phase-space energy identity for the windowed transform", 1e-4,
       signal="hermite-0", window="gaussian", target=TWO_PI * math.pi,
       relative=True)
def _run_energy(rng):
    num = tr.moyal_double_integral(sg.hermite_window(0), sg.gaussian_window())
    target = TWO_PI * math.pi  # 2 pi ||h_0||^2 ||phi||^2 = 2 pi sqrt(pi)^2
    yield abs(num - target) / abs(target)


@_case("moyal-full", "stft",
       "mixed-window phase-space inner-product identity", 1e-5,
       functions=["hermite-0", "hermite-1"],
       windows=["gaussian", "hermite-1"], absolute=True)
def _run_moyal_full(rng):
    h0, h1, phi = sg.hermite_window(0), sg.hermite_window(1), sg.gaussian_window()
    num = tr.moyal_double_integral(h0, phi, h1, h1)
    closed = tr.moyal_inner_product(h0, h1, phi, h1)
    yield abs(num - closed)


_RECONSTRUCTION_POINTS = [-1.2, -0.4, 0.0, 0.3, 1.1]


@_case("reconstruction", "stft",
       "pointwise inversion of the windowed transform", 1e-3,
       points=_RECONSTRUCTION_POINTS, grid="[-11,11] step 0.25")
def _run_reconstruction(rng):
    g = sg.gaussian_window()
    h0 = sg.hermite_window(0)
    axis = np.arange(-11.0, 11.0 + 0.25 / 2, 0.25)
    # band: both decay radii and |eta| <= 11
    spec = band_spec(h0.decay_radius + g.decay_radius + 11.0, h0.decay_radius, 11.0)
    grid = tr.ComplexGrid(axis, axis, tr.stft_grid(h0, g, axis, axis, spec))
    points = np.array(_RECONSTRUCTION_POINTS)
    yield np.abs(tr.reconstruct(grid, g, points) - h0(points))


@_case("fourier-eigenfunction", "stft",
       "Hermite functions as eigenfunctions of the Fourier transform", 1e-9,
       orders=list(range(5)), lam=0.7, eigenvalue="sqrt(2 pi) (-i)^k")
def _run_fourier_eigen(rng):
    lam = 0.7
    for k in range(5):
        hk = sg.hermite_window(k)
        val = tr.fourier(hk, lam)
        yield abs(val - math.sqrt(TWO_PI) * (-1j) ** k * hk(lam))


@_case("bargmann-transform", "stft",
       "entire-function transform of Hermite modes and its reproducing kernel",
       1e-9, orders=list(range(4)), z=[0.5, 0.3],
       kernel_points=[[0.5, 0.0], [0.3, 0.1]])
def _run_bargmann(rng):
    z = 0.5 + 0.3j
    for n in range(4):
        val = tr.bargmann(sg.hermite_window(n), z)
        yield abs(val - math.pi ** (-0.25) * 2.0 ** (0.5 * n) * z**n)
    # reproducing property of the kernel functions
    zq, wq = 0.5, 0.3 + 0.1j

    def kernel_fn(zz):
        def f(t):
            t = np.asarray(t, dtype=float)
            return (math.pi ** -0.75
                    * np.exp(-(zz**2 + t**2) / 2.0 + SQRT2 * zz * t))
        return f

    spec = make_spec(9.0, SQRT2 * max(abs(zq), abs(wq)))
    ip = tr.inner_product(kernel_fn(zq), kernel_fn(wq), spec=spec)
    yield abs(ip - np.exp(zq * np.conj(wq)) / math.pi)


# ---------------------------------------------------------------------------
# kernels suite
# ---------------------------------------------------------------------------

@_case("gabor-kernel-gaussian", "kernels",
       "closed Gaussian time-frequency kernel", 1e-10,
       quadruples=20, range="[-2,2]^4")
def _run_kernel_gaussian(rng):
    g = sg.gaussian_window()
    for _ in range(20):
        x, omega, u, eta = rng.uniform(-2.0, 2.0, 4)
        yield abs(kn.stft_superosc_limit_grid(g, x, omega, u, eta)
                  - kn.gabor_kernel_numeric(g, x, omega, u, eta))


@_case("gabor-kernel-hermite", "kernels",
       "closed Hermite kernel with the quadrature-calibrated constant", 1e-8,
       orders=[1, 2, 3, 4], points_per_order=5,
       calibration="2^n n! times the base product")
def _run_kernel_hermite(rng):
    for n in range(1, 5):
        g = sg.hermite_window(n)
        for _ in range(5):
            x, omega, u, eta = rng.uniform(-1.5, 1.5, 4)
            yield abs(kn.stft_superosc_limit_grid(g, x, omega, u, eta)
                      - kn.gabor_kernel_numeric(g, x, omega, u, eta))


@_case("supershift-limit", "kernels",
       "kernel sums converge to the limit-frequency kernel as n grows", 0.6,
       a=1.5, n=[10, 40], settings=["gaussian-kernel", "cross-window (1,2)",
                                     "cross-window (0,1)"],
       criterion="error(40)/error(10)")
def _run_supershift_limit(rng):
    a, x, u, eta = 1.5, 0.3, 0.4, 0.8
    g = sg.gaussian_window()
    errs = {}
    for n in (10, 40):
        p = SuperoscParams(a=a, n=n)
        errs[n] = abs(kn.stft_superosc_termwise_grid(g, x, p, u, eta)
                      - kn.stft_superosc_limit_grid(g, x, a, u, eta))
    yield errs[40] / errs[10]
    for (k, m) in [(1, 2), (0, 1)]:
        for n in (10, 40):
            p = SuperoscParams(a=a, n=n)
            # the limit: the one pair integral at frequency a
            errs[n] = abs(kn.stft_superosc_cross(k, m, x, p, u, eta)
                          - kn.hermite_pair_integral(k, m, u, x, a - eta))
        yield errs[40] / errs[10]


@_case("fock-form", "kernels",
       "coherent-state form of the superoscillation transform", 1e-10,
       points=10, n_max=5)
def _run_fock_form(rng):
    g = sg.gaussian_window()
    for _ in range(10):
        x, u, eta = rng.uniform(-1.5, 1.5, 3)
        a = rng.uniform(1.1, 2.5)
        n = int(rng.integers(1, 6))
        p = SuperoscParams(a=a, n=n)
        closed = kn.stft_superosc_termwise_grid(g, x, p, u, eta)
        yield abs(kn.stft_superosc_fock_form(x, p, u, eta) - closed)


# ---------------------------------------------------------------------------
# hermite suite
# ---------------------------------------------------------------------------

@_case("i_km_compact", "hermite",
       "compact coefficient form of the pair-integral polynomial", 1e-10,
       points=20, k_max=6, m_max=6, complex=True)
def _run_ikm(rng):
    for _ in range(20):
        k = int(rng.integers(0, 7))
        m = int(rng.integers(0, 7))
        x, u, lam = (rng.uniform(-1.0, 1.0, 3)
                     + 1j * rng.uniform(-1.0, 1.0, 3))
        yield abs(kn.i_km_series(k, m, x, u, lam) - kn.i_km_closed(k, m, x, u, lam))


@_case("pair-integral", "hermite",
       "master integral of a shifted Hermite pair against quadrature", 1e-8,
       points=10, k_max=4, m_max=4)
def _run_pair_integral(rng):
    for _ in range(10):
        k = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        u, x, lam = rng.uniform(-1.5, 1.5, 3)
        spec = make_spec(12.0, u, x)
        quad = tr.fourier(
            lambda t: sp.hermite_function(k, t - u) * sp.hermite_function(m, t - x),
            -lam, spec=spec)
        yield abs(quad - kn.hermite_pair_integral(k, m, u, x, lam))


@_case("pair-integral-high-order", "hermite",
       "master integral at orders up to 32 against quadrature, in units of "
       "||h_k|| ||h_m||", 1e-12, points=8, k_max=32, m_max=32,
       u_x_range=[-2.0, 2.0], lam_range=[-8.0, 8.0],
       relative_to="||h_k|| ||h_m||")
def _run_pair_integral_high_order(rng):
    for _ in range(8):
        k, m = (int(order) for order in rng.integers(0, 33, 2))
        u, x = rng.uniform(-2.0, 2.0, 2)
        lam = rng.uniform(-8.0, 8.0)
        radii = [sg.hermite_window(order).decay_radius for order in (k, m)]
        # band: both decay radii and |lam| <= 8
        quad = tr.fourier(
            lambda t: sp.hermite_function(k, t - u) * sp.hermite_function(m, t - x),
            -lam, spec=band_spec(sum(radii) + 8.0, max(radii), u, x))
        scale = math.sqrt(sp.hermite_norm_sq(k) * sp.hermite_norm_sq(m))
        yield abs(quad - kn.hermite_pair_integral(k, m, u, x, lam)) / scale


@_case("hermite-convolution", "hermite",
       "closed convolution of modulated Hermite functions", 1e-8,
       points=10, k_max=4, m_max=4, lam_range=[-3.0, 3.0])
def _run_convolution(rng):
    for _ in range(10):
        k = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        x, u = rng.uniform(-1.5, 1.5, 2)
        lam = rng.uniform(-3.0, 3.0)
        quad = tr.convolve(
            lambda t: np.exp(1j * x * t) * sp.hermite_function(k, t),
            lambda t: np.exp(1j * u * t) * sp.hermite_function(m, t),
            lam, spec=make_spec(12.0, lam))
        yield abs(quad - kn.hermite_convolution_closed(k, m, x, u, lam))
        # autoconvolution specialization at zero modulation
        quad0 = tr.convolve(lambda t: sp.hermite_function(k, t),
                            lambda t: sp.hermite_function(m, t),
                            lam, spec=make_spec(12.0, lam))
        yield abs(quad0 - kn.hermite_autoconvolution(k, m, lam))


def _columns(draws):
    """Equal-length draws as one array per drawn quantity, so a check
    evaluates all its points in one call on the draws made in order."""
    return [np.array(col) for col in zip(*draws)]


@_case("generating-pairing", "hermite",
       "two-variable generating function of the 2D-complex Hermite family",
       1e-8, points=5, K=20, uv_range=0.5, pairing="u rides w, v rides z")
def _run_generating(rng):
    draws = []
    for _ in range(5):
        z, w = rng.uniform(-1.0, 1.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
        u, v = rng.uniform(-0.5, 0.5, 2)
        draws.append((z, w, u, v))
    z, w, u, v = _columns(draws)
    lhs = sp.complex_hermite_generating_sum(z, w, u, v, 20)
    yield np.abs(lhs - np.exp(u * w + v * z - u * v))


@_case("generating-sum", "hermite",
       "generating identity for the modulated-pair convolution family", 1e-8,
       points=5, K=20)
def _run_gen_sum(rng):
    draws = []
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0)
        lam = rng.uniform(-1.5, 1.5)
        u, v = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.25, 0.25, 2)
        draws.append((x, u, v, lam))
    lhs, rhs = kn.generating_sum_check(*_columns(draws), 20)
    yield np.abs(lhs - rhs)


@_case("generating-product", "hermite",
       "generating identity for the transform-side Hermite products", 1e-8,
       points=5, K=20)
def _run_gen_product(rng):
    draws = []
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0)
        lam = rng.uniform(-1.5, 1.5)
        u, v = rng.uniform(-0.5, 0.5, 2)
        draws.append((x, u, v, lam))
    lhs, rhs = kn.generating_product_check(*_columns(draws), 20)
    yield np.abs(lhs - rhs)


@_case("norm-gaussian", "hermite",
       "closed energy of the Gaussian-window superoscillating signal", 1e-5,
       n_max=8, a=[1.5, 2.0], x=0.4, relative=True)
def _run_norm_gaussian(rng):
    g = sg.gaussian_window()
    for n in range(1, 9):
        for a in (1.5, 2.0):
            p = SuperoscParams(a=a, n=n)
            closed = kn.norm_sq_closed_gaussian(0.4, p)
            quad = sg.window_norm_sq(g) * sg.signal_norm_sq(
                sg.build_signal(g, 0.4, p))
            yield abs(closed - quad) / abs(quad)


@_case("norm-hermite", "hermite",
       "closed energy of Hermite-window signals against quadrature", 1e-5,
       n_max=4, k_max=2, m_max=2, relative=True)
def _run_norm_hermite(rng):
    for n in range(1, 5):
        p = SuperoscParams(a=1.5, n=n)
        for k in range(3):
            for m in range(3):
                closed = kn.norm_sq_closed_hermite(k, m, 0.3, p)
                signal = sg.build_signal(sg.hermite_window(m), 0.3, p)
                quad = (sg.window_norm_sq(sg.hermite_window(k))
                        * sg.signal_norm_sq(signal))
                yield abs(closed - quad) / abs(quad)


@_case("hermite-diagonal-value", "hermite",
       "diagonal value of the 2D-complex Hermite polynomials at the origin",
       1e-8, m_max=8, value="(-1)^m m!")
def _run_diagonal(rng):
    for m in range(9):
        val = sp.complex_hermite_2d(m, m, 0.0, 0.0)
        yield abs(val - (-1.0) ** m * math.factorial(m))


# ---------------------------------------------------------------------------
# zak suite
# ---------------------------------------------------------------------------

@_case("zak-superosc-identity", "zak",
       "termwise frequency-shift expansion of the lattice transform", 1e-10,
       windows=["gaussian", "hermite-1"], n=[2, 4], grid="4x4")
def _run_zak_superosc(rng):
    upts = np.linspace(0.05, 0.95, 4)
    epts = np.linspace(0.1, 6.0, 4)
    for g in (sg.gaussian_window(), sg.hermite_window(1)):
        for n in (2, 4):
            p = SuperoscParams(a=2.0, n=n)
            direct = zk.zak_grid(sg.build_signal(g, 0.0, p), upts, epts)
            yield np.abs(direct - zk.zak_superosc_termwise(g, 0.0, p, upts, epts))


@_case("zak-shift-covariance", "zak",
       "time-frequency shift covariance and quasi-periodicity of the "
       "lattice transform", 1e-10,
       checks=["identity-shift", "(1, pi)", "(0.5, 2)", "quasi-periodicity"])
def _run_zak_shift(rng):
    g = sg.gaussian_window()
    yield zk.zak_shift_identity_check(g, 0.0, 0.0, 0.3, 0.5)
    yield zk.zak_shift_identity_check(g, 1.0, math.pi, 0.3, 0.5)
    yield zk.zak_shift_identity_check(sg.hermite_window(1), 0.5, 2.0, 0.1, 0.9)
    yield abs(zk.zak(g, 1.3, 0.7) - np.exp(1j * 0.7) * zk.zak(g, 0.3, 0.7))


@_case("theta-bound", "zak",
       "theta-function upper bound on the lattice transform of the "
       "superoscillating Gaussian signal", 0.0,
       params=[[2.0, 3], [1.5, 5], [2.0, 4]], grid="4x4",
       criterion="max(value - bound, 0)")
def _run_theta_bound(rng):
    for (a, n) in [(2.0, 3), (1.5, 5), (2.0, 4)]:
        value, bound = zk.theta_bound_check(SuperoscParams(a=a, n=n),
                                            [0.0, 0.25, 0.5, 0.9],
                                            [0.0, 1.0, 3.0, 6.0])
        yield np.maximum(value - bound, 0.0)


@_case("theta-value", "zak",
       "third theta value at the Gaussian lattice nome", 1e-6,
       reference=2.506628)
def _run_theta_value(rng):
    yield abs(float(np.real(sp.theta(0.0, 1j / TWO_PI))) - 2.506628)


@_case("frame-verdict", "zak",
       "Gabor-frame verdict for the superoscillating Gaussian signal", 0.0,
       a=2.0, n=4, resolutions=[128, 256])
def _run_frame(rng):
    s = sg.build_signal(sg.gaussian_window(), 0.0, SuperoscParams(a=2.0, n=4))
    v128 = zk.frame_check(s, 128)
    v256 = zk.frame_check(s, 256)
    yield {"verdicts": [v128.verdict, v256.verdict],
           "lower_bounds": [v128.lower_bound, v256.lower_bound]}
    yield 0.0 if v128.verdict == "Frame" and v256.verdict == "Frame" else 1.0


# ---------------------------------------------------------------------------
# evolution suite
# ---------------------------------------------------------------------------

@_case("evolution-numeric-vs-closed", "evolution",
       "momentum-space quadrature against the closed Gaussian evolution",
       1e-7, points=6, routes=["numeric", "gaussian-closed", "hermite-closed"])
def _run_evolution_routes(rng):
    g = sg.gaussian_window()
    for _ in range(6):
        x, t, x0, k0 = rng.uniform(-1.0, 1.0, 4)
        pt = ev.EvolutionPoint(x=x, t=t, x0=x0, k0=k0)
        yield abs(ev.evolve_numeric(g, pt) - ev.evolve_gaussian_closed(pt))
    pt = ev.EvolutionPoint(x=0.0, t=0.3, x0=0.1, k0=1.0)
    yield abs(ev.evolve_numeric(sg.hermite_window(2), pt) - ev.evolve_hermite(2, pt))


@_case("evolution-initial-datum", "evolution",
       "every evolution path returns 2 pi times the datum at t = 0", 1e-7,
       points=4, hermite_orders=[1, 2], convention="2 pi times the datum")
def _run_evolution_datum(rng):
    g = sg.gaussian_window()
    x, x0, k0 = _columns([rng.uniform(-1.0, 1.0, 3) for _ in range(4)])
    pt = ev.EvolutionPoint(x=x, t=0.0, x0=x0, k0=k0)
    datum = TWO_PI * (np.exp(1j * k0 * x) * g(x - x0))
    yield np.abs(ev.evolve_numeric(g, pt) - datum)
    yield np.abs(ev.evolve_gaussian_closed(pt) - datum)
    x, x0, k0 = 0.4, 0.0, 0.5
    pt = ev.EvolutionPoint(x=x, t=0.0, x0=x0, k0=k0)
    for m in (1, 2):
        datum = np.exp(1j * k0 * x) * sg.hermite_window(m)(x - x0)
        yield abs(ev.evolve_hermite(m, pt) - TWO_PI * datum)


@_case("evolution-pde-residual", "evolution",
       "finite-difference residual of the free-evolution equation", 1e-4,
       points=10, h=1e-3, relative=True, t_range=[-1.0, 1.0])
def _run_pde(rng):
    draws = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
              *rng.uniform(-0.5, 0.5, 2)) for _ in range(10)]
    x, t, x0, k0 = _columns(draws)

    def f(xx, tt):
        return ev.evolve_gaussian_closed(ev.EvolutionPoint(xx, tt, x0, k0))

    yield ev.pde_residual(f, x, t) / np.abs(f(x, t))


_TRIPLE_PATH_POINTS = [(0.7, 0.4), (-0.3, 0.1), (0.0, 0.8)]


@_case("evolution-triple-path", "evolution",
       "phase-space integral representation of the evolved signal", 1e-8,
       x=0.5, a=2.0, n=4, points=_TRIPLE_PATH_POINTS)
def _run_triple_path(rng):
    g = sg.gaussian_window()
    p = SuperoscParams(a=2.0, n=4)
    y, t = np.array(_TRIPLE_PATH_POINTS).T
    yield np.abs(ev.evolve_superosc_signal(g, 0.5, p, y, t)
                 - ev.evolve_superosc_integral_representation(g, 0.5, p, y, t))


# ---------------------------------------------------------------------------
# approx suite
# ---------------------------------------------------------------------------

_FACTORIZATION_LAM = [-2.0, -0.5, 0.0, 0.9, 2.3]


@_case("fourier-factorization", "approx",
       "Fourier transform of the approximating average factorizes exactly",
       1e-8, n_max=4, lam_points=_FACTORIZATION_LAM)
def _run_apsthm(rng):
    g = sg.gaussian_window()
    for n in range(1, 5):
        yield ap.apsthm_residual(g, SuperoscParams(a=2.0, n=n), _FACTORIZATION_LAM)


@_case("approx-route-agreement", "approx",
       "ambiguity route equals the 2D-Hermite closed route", 1e-8,
       orders=[0, 1, 2], a=2.0, n=3)
def _run_route_agreement(rng):
    p = SuperoscParams(a=2.0, n=3)
    for m in range(3):
        g = sg.hermite_window(m)
        for (u, eta) in [(0.3, 0.5), (-0.4, 1.1)]:
            via = ap.stft_approx_via_ambiguity(g, p, u, eta)
            yield abs(via - ap.stft_approx_hermite_closed(m, m, p, u, eta))


_APP2_POINTS = [[0.2, 0.1], [0.0, 0.0], [-0.7, 1.3]]


@_case("approx-limit-closed-form", "approx",
       "closed limit of the Gaussian approximating transform against "
       "quadrature", 1e-8, a=1.5, points=_APP2_POINTS)
def _run_app2(rng):
    g = sg.gaussian_window()
    a = 1.5
    shifted = sg.custom_window(lambda t: g(np.asarray(t, dtype=float) + a),
                               decay_radius=g.decay_radius + a)
    for (u, eta) in _APP2_POINTS:
        yield abs(tr.stft(shifted, g, u, eta) - ap.app2_closed(u, eta, a))


@_case("supershift-convergence", "approx",
       "approximating transforms approach the shifted-target closed form",
       0.6, a=1.5, n=[10, 40], criterion="error(40)/error(10)")
def _run_supershift_convergence(rng):
    a, u, eta = 1.5, 0.2, 0.1
    tgt = ap.app2_closed(u, eta, a)
    errs = {}
    for n in (10, 40):
        p = SuperoscParams(a=a, n=n)
        errs[n] = abs(ap.stft_approx_hermite_closed(0, 0, p, u, eta) - tgt)
    yield errs[40] / errs[10]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_suite(suite="all", seed=42):
    """Run one suite (or all) and return a list of CaseResult."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    results = []
    for case_id, case_suite, anchor, tolerance, run in _CASES:
        if suite != "all" and case_suite != suite:
            continue
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        max_error, params = run(rng)
        elapsed = time.perf_counter() - start
        results.append(CaseResult(id=case_id, suite=case_suite, anchor=anchor,
                                  params=params, max_error=max_error,
                                  tolerance=float(tolerance), elapsed_s=elapsed))
    return results


def report(results, seed):
    """JSON-ready report dict for a list of CaseResult.  Schema 2: each
    case record carries its wall time elapsed_s and its margin in digits,
    log10(tolerance / max_error) (null when either is 0 or the error is
    not finite)."""
    return {
        "schema": 2,
        "seed": seed,
        "suites": [r.to_record() for r in results],
    }
