"""Acceptance battery: one test per criterion A1-A14, so ``pytest -v``
emits one pass/fail line per criterion.

A1-A13 are checked by the cases of ``superstft.verify``: each criterion
runs its cases as ``run_suite`` does at its default seed, a fresh
``np.random.default_rng(42)`` per case, and asserts every case's
``max_error <= tolerance``.  CRITERIA assigns every verify case to exactly
one criterion, so the battery runs the whole table once.  A14 perturbs the
quadrature itself and has no verify case."""

import numpy as np
import pytest

from oracles import VERIFY_PER_POINT
from superstft import evolution as ev
from superstft import kernels as kn
from superstft import quadrature as qd
from superstft import signals as sg
from superstft import special as sp
from superstft import transforms as tr
from superstft import verify
from superstft.quadrature import QuadratureSpec, make_spec
from superstft.superosc import SuperoscParams

CASES = {case_id: (tolerance, run)
         for case_id, _, _, tolerance, run in verify._CASES}

CRITERIA = {
    "A1": ("superosc-stft-closed", "superosc-stft-stable", "fock-form"),
    "A2": ("energy-orthogonality", "moyal-full", "bargmann-transform"),
    "A3": ("gabor-kernel-gaussian",),
    "A4": ("gabor-kernel-hermite",),
    "A5": ("hermite-convolution",),
    "A6": ("i_km_compact", "pair-integral", "pair-integral-high-order"),
    "A7": ("norm-gaussian", "norm-hermite", "hermite-diagonal-value"),
    "A8": ("supershift-limit", "supershift-convergence"),
    "A9": ("reconstruction", "fourier-eigenfunction"),
    "A10": ("zak-superosc-identity", "zak-shift-covariance", "theta-bound",
            "theta-value", "frame-verdict"),
    "A11": ("evolution-numeric-vs-closed", "evolution-initial-datum",
            "evolution-pde-residual", "evolution-triple-path"),
    "A12": ("fourier-factorization", "approx-route-agreement",
            "approx-limit-closed-form"),
    "A13": ("generating-pairing", "generating-sum", "generating-product"),
}


def _report(tag, err, tol):
    print(f"{tag}: max_error={err:.3e} tolerance={tol:.3e} "
          f"{'PASS' if err <= tol else 'FAIL'}")


def _check(criterion):
    failed = []
    for case_id in CRITERIA[criterion]:
        tolerance, run = CASES[case_id]
        max_error, params = run(np.random.default_rng(42))
        _report(f"{criterion} {case_id}", max_error, tolerance)
        if not max_error <= tolerance:
            failed.append((case_id, max_error, tolerance, params))
    assert not failed, failed


def test_criteria_cover_every_verify_case_once():
    assigned = [case_id for ids in CRITERIA.values() for case_id in ids]
    assert sorted(assigned) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(VERIFY_PER_POINT))
def test_grid_cases_keep_their_draws(case_id):
    """The cases that evaluate their fixed point sets in one grid call make
    the draws of their per-point references, in the same order: at seeds
    1-10 the max_error bits are the same.  The Fourier factorization's
    residual is quadrature rounding, which moves with the contraction's
    shape (8.0e-16 per point, 3.6e-15 on the lam grid), so it agrees to
    1e-14."""
    tol = 1e-14 if case_id == "fourier-factorization" else 0.0
    for seed in range(1, 11):
        grid, _ = CASES[case_id][1](np.random.default_rng(seed))
        per_point = VERIFY_PER_POINT[case_id](np.random.default_rng(seed))
        assert abs(grid - per_point) <= tol, (seed, grid, per_point)


def test_A1_superosc_stft_kernel_sum():
    """The superoscillation STFT, termwise, by Gauss-Hermite quadrature and
    in coherent-state form, against quadrature."""
    _check("A1")


def test_A2_phase_space_energy():
    """Phase-space energy and the four-function identity; the Bargmann
    transform and its reproducing kernel."""
    _check("A2")


def test_A3_gaussian_kernel_closed_form():
    """Closed Gaussian time-frequency kernel against quadrature."""
    _check("A3")


def test_A4_hermite_kernel_calibrated():
    """Calibrated Hermite kernels against quadrature."""
    _check("A4")


def test_A5_hermite_convolution():
    """Closed modulated-Hermite convolution and its unmodulated
    specialization against quadrature."""
    _check("A5")


def test_A6_pair_integral_polynomial():
    """Series and compact forms of the pair-integral polynomial; the master
    integral against quadrature, at low orders and up to order 32."""
    _check("A6")


def test_A7_closed_norms():
    """Closed signal energies against quadrature; the diagonal 2D-Hermite
    value at the origin."""
    _check("A7")


def test_A8_supershift_convergence():
    """Transforms approach their limit objects from n = 10 to n = 40."""
    _check("A8")


def test_A9_reconstruction():
    """Pointwise inversion of the windowed transform; Hermite functions as
    Fourier eigenfunctions."""
    _check("A9")


def test_A10_zak_suite():
    """Lattice-transform suite: termwise expansion, shift covariance, the
    theta bound and value, the frame verdict."""
    _check("A10")


def test_A11_evolution():
    """Free evolution: routes agree, the datum at t = 0, the equation
    residual, the phase-space integral representation."""
    _check("A11")


def test_A12_approximating_sequence():
    """Averaged-shift suite: Fourier factorization, route agreement, the
    closed limit target."""
    _check("A12")


def test_A13_generating_functions():
    """Generating identities at truncation K = 20."""
    _check("A13")


def test_A14_quadrature_stability(monkeypatch):
    """Doubling the node density of every rule changes one representative
    value from every quadrature family by less than 1e-9 (worst measured:
    1.1e-14, the evolution).  Every rule becomes nodes by one nodes_weights
    call, so the doubled side patches it where it is bound."""
    def representatives():
        g = sg.gaussian_window()
        p = SuperoscParams(a=2.0, n=4)
        s = sg.build_signal(g, 0.3, p)
        return {
            "stft": tr.stft(s, g, 0.4, 0.8),
            "kernel": kn.gabor_kernel_numeric(sg.hermite_window(2), 0.3, 0.7,
                                              -0.2, 0.5),
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

    base = representatives()
    rule = qd.nodes_weights

    def doubled(spec):
        return rule(QuadratureSpec(spec.truncation_radius, 2 * spec.nodes_per_unit))

    for module in (qd, tr, ev):
        monkeypatch.setattr(module, "nodes_weights", doubled)
    fine = representatives()
    deltas = {name: float(abs(fine[name] - base[name])) for name in base}
    worst = max(deltas.values())
    _report("A14", worst, 1e-9)
    assert worst < 1e-9, deltas
