import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from superstft.signals import (build_signal, custom_window, gaussian_window,
                               hermite_window)
from superstft.special import theta
from superstft.superosc import SuperoscParams
from superstft.zak import (FRAME_TOLERANCE, FrameVerdict, WienerEstimate,
                           _lattice, _truncation_order, frame_check,
                           wiener_norm_estimate, zak, zak_grid,
                           zak_shift_identity_check, zak_superosc_termwise)

from oracles import frame_check_full, zak_gaussian

TWO_PI = 2.0 * math.pi

# (1+a)^n theta(0, i/2pi) for a = 2, n = 3 — the u = 0 lattice bound
FROZEN_BOUND_A2_N3 = 67.67896377715846


def test_zak_gaussian_closed_form():
    """Z(e^{-t^2/2})(u, eta) = e^{-u^2/2} theta((eta - iu)/2pi, i/2pi)."""
    g = gaussian_window()
    for (u, eta) in [(0.0, 0.0), (0.3, 1.0), (0.9, 5.5), (-0.4, 2.2)]:
        direct = zak(g, u, eta)
        closed = zak_gaussian(u, eta)
        assert abs(direct - closed) < 1e-12


def test_zak_gaussian_far_from_the_origin():
    """The theta truncation follows the peak of its terms at k = u, so the
    closed form tracks the lattice sum far from u = 0 (at u = 12 a window
    centred at k = 0 was off by 0.72 relative, at u = 20 by 1.0)."""
    g = gaussian_window()
    for u in (0.3, 5.0, 8.0, 12.0, 20.0):
        direct = zak(g, u, 0.3)
        assert abs(zak_gaussian(u, 0.3) - direct) <= 1e-12 * abs(direct)


def test_zak_quasi_periodicity():
    g = gaussian_window()
    for (u, eta) in [(0.25, 0.7), (0.8, 3.0)]:
        assert abs(zak(g, u + 1.0, eta)
                   - np.exp(1j * eta) * zak(g, u, eta)) < 1e-12
        # 2 pi periodic in eta
        assert abs(zak(g, u, eta + TWO_PI) - zak(g, u, eta)) < 1e-12


def test_zak_needs_decay_radius():
    w = custom_window(lambda t: np.exp(-t * t))
    with pytest.raises(ValueError):
        zak(w, 0.3, 1.0)


def test_zak_grid_matches_pointwise():
    g = gaussian_window()
    u = np.linspace(0.0, 1.0, 5)
    eta = np.linspace(0.0, TWO_PI, 6)
    grid = zak_grid(g, u, eta)
    for i in (0, 2, 4):
        for j in (1, 5):
            assert abs(grid[i, j] - zak(g, u[i], eta[j])) < 1e-13


def test_zak_shift_covariance():
    """Z intertwines time-frequency shifts with phase twists."""
    g = gaussian_window()
    h1 = hermite_window(1)
    assert zak_shift_identity_check(g, 0.0, 0.0, 0.3, 0.5) < 1e-12
    assert zak_shift_identity_check(g, 1.0, math.pi, 0.3, 0.5) < 1e-12
    assert zak_shift_identity_check(g, 0.4, 2.0, 0.7, 1.1) < 1e-12
    assert zak_shift_identity_check(h1, 0.5, 2.0, 0.1, 0.9) < 1e-12


def test_zak_superosc_termwise_expansion():
    """Z(F_n g(.-x)) = sum_j C_j e^{i omega_j u} Zg(u - x, eta - omega_j)."""
    for kind in ("gaussian", "hermite"):
        g = gaussian_window() if kind == "gaussian" else hermite_window(1)
        for n in (2, 4):
            p = SuperoscParams(a=2.0, n=n)
            s = build_signal(g, 0.0, p)
            for (u, eta) in [(0.2, 0.5), (0.7, 4.0)]:
                direct = zak(s, u, eta)
                closed = zak_superosc_termwise(g, 0.0, p, u, eta)
                assert abs(direct - closed) < 1e-11


def _zak_superosc_mpmath(m, x, p, u, eta):
    """sum_{|k| <= 40} F_n(u - k) h_m(u - k - x) e^{i k eta} in mpmath, F_n
    as a product; no term exceeds about 1, so 30 digits are plenty."""
    with mpmath.workdps(30):
        a, x, u = mpmath.mpf(p.a), mpmath.mpf(x), mpmath.mpf(u)
        total = mpmath.mpc(0)
        for k in range(-40, 41):
            t = u - k
            fn = (mpmath.cos(t / p.n) + 1j * a * mpmath.sin(t / p.n)) ** p.n
            total += (fn * mpmath.exp(-(t - x) ** 2 / 2)
                      * mpmath.hermite(m, t - x) * mpmath.expj(k * eta))
        return complex(total)


def test_zak_superosc_large_n_matches_mpmath():
    """At n = 64, a = 2 the termwise expansion is off by about 1e3; the
    lattice sum of the signal itself is within 1e-10 of mpmath."""
    p = SuperoscParams(a=2.0, n=64)
    for m in (0, 1):
        g = hermite_window(m)
        for (u, eta) in [(0.3, 1.1), (0.8, 4.0), (0.05, 6.0)]:
            ref = _zak_superosc_mpmath(m, 0.5, p, u, eta)
            assert abs(zak(build_signal(g, 0.5, p), u, eta) - ref) <= 1e-10


def test_theta_bound_holds():
    """At 0-d (u, eta) the pair is two floats; on the tensor grid u x eta
    each entry is its point call's to 1e-13 relative."""
    from superstft.zak import theta_bound_check
    p = SuperoscParams(a=2.0, n=3)
    us, etas = (0.0, 0.25, 0.6), (0.0, 1.5, 5.0)
    values, bounds = theta_bound_check(p, np.array(us), np.array(etas))
    assert values.shape == bounds.shape == (3, 3)
    for i, u in enumerate(us):
        for j, eta in enumerate(etas):
            value, bound = theta_bound_check(p, u, eta)
            assert type(value) is float and type(bound) is float
            assert value <= bound + 1e-12
            assert abs(values[i, j] - value) <= 1e-13 * value
            assert abs(bounds[i, j] - bound) <= 1e-13 * bound
    value, bound = theta_bound_check(p, 0.0, 1.0)
    assert abs(bound - FROZEN_BOUND_A2_N3) < 1e-9


@pytest.mark.parametrize("a, n", [(-0.5, 4), (-3.0, 3)])
def test_theta_bound_refuses_negative_a(a, n):
    """(1 + a)^n bounds |F_n| only for a >= 0: at (u, eta) = (0, 1) it
    gave 0.157 against a value of 0.885 at a = -0.5, n = 4, and a negative
    'bound' at a = -3, n = 3.  Such an a is a ValueError naming the domain."""
    from superstft.zak import theta_bound_check
    with pytest.raises(ValueError, match="a >= 0"):
        theta_bound_check(SuperoscParams(a=a, n=n), 0.0, 1.0)


def test_frame_check_gaussian_is_frame():
    v = frame_check(gaussian_window(), 128)
    assert v.verdict == "Frame"
    assert v.lower_bound > FRAME_TOLERANCE
    assert np.isfinite(v.upper_bound)
    # the near-vanishing point of the Gaussian Zak transform sits at the
    # half-integer corner (1/2, pi)
    assert abs(v.min_location[0] - 0.5) < 0.02
    assert abs(v.min_location[1] - math.pi) < 0.1


def test_frame_check_hermite1_is_not_frame():
    """Z(h_1) vanishes at the origin by oddness, killing the lower bound."""
    v = frame_check(hermite_window(1), 64)
    assert v.verdict == "NotFrame"
    assert v.lower_bound < 1e-12
    assert abs(v.min_location[0]) < 1e-12 and abs(v.min_location[1]) < 1e-12


def test_frame_check_superosc_signal():
    p = SuperoscParams(a=2.0, n=4)
    s = build_signal(gaussian_window(), 0.0, p)
    v = frame_check(s, 128)
    assert v.verdict == "Frame"
    # stable under grid refinement
    assert frame_check(s, 256).verdict == "Frame"


_SCAN_WINDOWS = {
    "gaussian": gaussian_window(),
    "h1": hermite_window(1),
    "h3": hermite_window(3),
    "superosc-n8": build_signal(gaussian_window(), 0.0, SuperoscParams(2.0, 8)),
}


@pytest.mark.parametrize("resolution", [2, 3, 64, 129, 1000])
@pytest.mark.parametrize("name", sorted(_SCAN_WINDOWS))
def test_blocked_scan_matches_full_grid(name, resolution):
    """The blocked, early-stopping scan gives the bounds, the argmin and
    the verdict of the full-grid scan, to the bit; 1000 is no multiple of
    the block, and 129 would leave a one-row block in blocks of 64."""
    f = _SCAN_WINDOWS[name]
    assert frame_check(f, resolution) == frame_check_full(f, resolution,
                                                          FRAME_TOLERANCE)


def _lattice_reference(f, u, eta):
    """The lattice factors by their defining formulas: a = f(u - k) in
    f's dtype and e = np.exp(1j * outer(k, eta))."""
    kmax = _truncation_order(f, np.max(np.abs(u)))
    k = np.arange(-kmax, kmax + 1)
    a = np.asarray(f(u[:, None] - k[None, :]))
    return a, np.exp(1j * np.multiply.outer(k, eta))


@pytest.mark.parametrize("f", [gaussian_window(), hermite_window(1),
                               hermite_window(3), hermite_window(8)],
                         ids=["gaussian", "h1", "h3", "h8"])
def test_real_lattice_is_one_real_product(f):
    """A real window keeps its dtype: zak_grid contracts it as one real
    product with the interleaved parts of e^{i k eta}.  The rows k < 0 of
    that table are conjugates, equal to np.exp's values (a zero's sign
    aside).  The real and complex products are different BLAS routines, so
    they agree to rounding: within 32 eps sum_k |a(u, k)| per cell."""
    u, eta = np.linspace(0.0, 1.0, 129), np.linspace(0.0, TWO_PI, 200)
    a, e = _lattice_reference(f, u, eta)
    got_a, got_e = _lattice(f, u, eta)
    assert got_a.dtype == np.float64
    assert np.array_equal(got_e.view(float), e.view(float))
    bound = 32 * np.finfo(float).eps * np.abs(a).sum(axis=1, keepdims=True)
    assert np.all(np.abs(zak_grid(f, u, eta) - a.astype(complex) @ e) <= bound)


def test_superosc_lattice_keeps_the_complex_product():
    """F_n g is complex: its lattice is the complex product a @ e."""
    f = build_signal(gaussian_window(), 0.0, SuperoscParams(2.0, 8))
    u, eta = np.linspace(0.0, 1.0, 129), np.linspace(0.0, TWO_PI, 200)
    a, e = _lattice_reference(f, u, eta)
    assert np.iscomplexobj(_lattice(f, u, eta)[0])
    assert zak_grid(f, u, eta).tobytes() == (a @ e).tobytes()


def test_frame_check_gaussian_aliased_zero_is_inconclusive():
    """At resolution 129 the grid hits the zero of Z(g) at (1/2, pi); the
    258 refinement has no point there, so nothing confirms it."""
    v = frame_check(gaussian_window(), 129)
    assert v.verdict == "Inconclusive"
    assert v.lower_bound < FRAME_TOLERANCE
    assert v.min_location == (0.5, math.pi)


@pytest.mark.parametrize("resolution", [129, 300])
def test_frame_check_nan_window_is_inconclusive(resolution):
    """A window that is NaN near t = 0.3 propagates NaN into both bounds;
    the minimum is placed at the first NaN, as np.argmin places it (in the
    second block of rows at resolution 300)."""
    w = custom_window(
        lambda t: np.where(np.abs(t - 0.3) < 0.02, np.nan, np.exp(-t * t / 2)),
        decay_radius=9.0)
    v = frame_check(w, resolution)
    ref = frame_check_full(w, resolution, FRAME_TOLERANCE)
    assert v.verdict == ref.verdict == "Inconclusive"
    assert math.isnan(v.lower_bound) and math.isnan(v.upper_bound)
    assert v.min_location == ref.min_location
    assert abs(v.min_location[0] - 0.3) < 0.02 and v.min_location[1] == 0.0


@pytest.mark.parametrize("centre, verdict", [(1 / 127, "Inconclusive"),
                                             (101 / 127, "NotFrame")])
def test_refinement_stops_at_first_confirmed_zero(centre, verdict):
    """h_1 made NaN on a band that only the 128 refinement samples, in its
    first block of rows (with the zero at u = 0) or in its second.  A NaN
    met before the block that confirms the zero leaves 'Inconclusive';
    one met only after it is never computed, and the zero gives 'NotFrame'
    (where the full refinement, which sees the NaN, says 'Inconclusive')."""
    h1 = hermite_window(1)
    w = custom_window(
        lambda t: np.where(np.abs(t - centre) < 5e-4, np.nan, h1(t)),
        decay_radius=h1.decay_radius)
    v = frame_check(w, 64)
    assert np.isfinite(v.upper_bound) and v.lower_bound < FRAME_TOLERANCE
    assert v.verdict == verdict
    assert frame_check_full(w, 64, FRAME_TOLERANCE).verdict == "Inconclusive"


def test_frame_scan_memory_is_linear_in_resolution():
    """The full 1024^2 scan and its 2048^2 refinement held about 100 MB;
    the blocked scan holds the two lattice factors and one block."""
    f = hermite_window(1)
    tracemalloc.start()
    try:
        v = frame_check(f, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.verdict == "NotFrame"
    assert peak <= 16e6, peak


def test_frame_check_validation():
    with pytest.raises(ValueError):
        frame_check(gaussian_window(), 1)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_frame_check_rejects_bad_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        frame_check(gaussian_window(), 16, tolerance=tolerance)


def test_frame_verdict_serialization():
    v = FrameVerdict(lower_bound=0.1, upper_bound=2.0, grid_resolution=16,
                     verdict="Frame", min_location=(0.5, 3.1), tolerance=1e-8)
    d = v.to_dict()
    assert set(d) == {"lowerBound", "upperBound", "gridResolution", "verdict",
                      "minLocation", "tolerance"}
    assert d["gridResolution"] == 16
    with pytest.raises(ValueError):
        FrameVerdict(lower_bound=3.0, upper_bound=2.0, grid_resolution=16,
                     verdict="Frame", min_location=(0.0, 0.0), tolerance=1e-8)


def test_wiener_norm_estimate():
    est = wiener_norm_estimate(gaussian_window())
    assert isinstance(est, WienerEstimate)
    assert est.heuristic
    assert est.value > 0.0
    assert est.samples_per_cell == 64
    # dominated by the central cells; adding the theta value as a gauge
    assert est.value > float(np.real(theta(0.0, 1j / TWO_PI))) - 1.0


@pytest.mark.parametrize("f", [
    gaussian_window(), hermite_window(3), hermite_window(20),
    build_signal(gaussian_window(), 0.0, SuperoscParams(2.0, 32))])
def test_wiener_norm_estimate_is_one_call_and_the_cell_sum(f):
    """One evaluator call on all cells; the value is the cell-by-cell sum
    of sampled sups, to the bit."""
    calls = []
    counted = custom_window(lambda t: calls.append(1) or f(t),
                            decay_radius=f.decay_radius)
    est = wiener_norm_estimate(counted)
    assert len(calls) == 1
    kmax = est.cells // 2
    s = np.linspace(0.0, 1.0, est.samples_per_cell, endpoint=False)
    total = 0.0
    for k in range(-kmax, kmax):
        total += float(np.max(np.abs(f(k + s))))
    assert est.value == total


@pytest.mark.parametrize("u, eta, name", [
    (0.0, math.inf, "eta_axis"), (0.0, math.nan, "eta_axis"),
    (math.nan, 0.0, "u_axis"), (-math.inf, 0.0, "u_axis")])
def test_non_finite_points_rejected_by_name(u, eta, name):
    """A NaN or infinite point is a ValueError naming its axis, not a NaN
    value or a failed integer conversion of the truncation order."""
    g = gaussian_window()
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        zak(g, u, eta)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        zak_grid(g, [0.5, u], [eta, 1.0])
