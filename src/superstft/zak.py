"""Truncated Zak transform, theta-function bounds, and Gabor-frame verdicts.

The Zak transform here is the alpha = 1 normalization

    Z(f)(u, eta) = sum_k f(u - k) e^{i k eta},

periodic in eta with period 2 pi (hence the fundamental domain
[0, 1] x [0, 2 pi]) and quasi-periodic in u: Z(u+1, eta) = e^{i eta} Z(u, eta).
Other lattice parameters would require pre-scaling the signal and are
not implemented.

The sum is truncated where the evaluator's decay radius puts the tail
below 1e-16, so every evaluator passed in must carry a ``decay_radius``
attribute (Window and Signal both do).

Frame verdicts are sampling-based: a grid scan of |Z| on the fundamental
domain can certify a positive minimum (Frame) or confirm a near-zero
under refinement (NotFrame), but a grid can also alias a true zero, so
anything else stays Inconclusive.  The scan builds the evaluator matrix
f(u - k) and the phase matrix e^{i k eta} once and reduces |Z| over
blocks of grid rows, so its memory is linear in the resolution; the
refinement stops at the first block that confirms a near-zero.  A real
evaluator (the Gaussian and Hermite windows) keeps a real matrix, and
every lattice product (_product) contracts it with the interleaved real
and imaginary parts of the phases as one real matrix product.
"""

import math
from dataclasses import dataclass

import numpy as np

from .signals import build_signal, gaussian_window, shifted_window
from .special import TWO_PI, _as_result, _finite, _phase_outer, theta
from .superosc import supershift_probe

# default |Z| threshold separating "bounded below" from "numerically zero"
FRAME_TOLERANCE = 1e-8

# u-rows of |Z| per block of a frame scan: a 64 x 2048 complex block is
# 2 MB, so a block stays cache-sized at the resolutions zak-frame runs at
_SCAN_ROWS = 64

# samples of |f| per unit cell in wiener_norm_estimate
_SAMPLES_PER_CELL = 64


def _truncation_order(f, u_max):
    r = getattr(f, "decay_radius", None)
    if r is None:
        raise ValueError(
            "zak transform needs an evaluator with a decay_radius attribute "
            "to truncate the lattice sum"
        )
    return int(math.ceil(float(r) + abs(float(u_max)))) + 2


def zak(f, u, eta):
    """Z(f)(u, eta) = sum_{|k| <= K} f(u - k) e^{i k eta}, K chosen from
    the evaluator's decay radius so dropped terms are below 1e-16; the
    0-d case of zak_grid."""
    return zak_grid(f, u, eta)


def _lattice(f, u_axis, eta_axis):
    """The two factors of the truncated lattice sum Z = a @ e on a tensor
    grid: a = f(u - k), shape (len(u_axis), 2K + 1), in f's dtype, and
    e = e^{i k eta}, shape (2K + 1, len(eta_axis)), whose rows k < 0 are
    the conjugates of the rows k > 0 (_phase_outer of the mirror -k)."""
    kmax = _truncation_order(f, np.max(np.abs(u_axis)) if u_axis.size else 0.0)
    k = np.arange(-kmax, kmax + 1)
    return np.asarray(f(u_axis[:, None] - k[None, :])), _phase_outer(-k, eta_axis)


def _product(a, e):
    """a @ e for the lattice factors: for a real a, one real product with
    the interleaved real and imaginary parts of e, (a @ e.view(float))
    .view(complex), half the flops of the complex product and equal to it
    up to rounding (another BLAS routine)."""
    if np.iscomplexobj(a):
        return a @ e
    return (a @ e.view(float)).view(complex)


def zak_grid(f, u_axis, eta_axis):
    """Z(f) sampled on the tensor grid u x eta, an array of shape
    u.shape + eta.shape (a complex for 0-d axes), from the lattice sum
    over the raveled axes.  A non-finite point is a ValueError that names
    its axis."""
    u_axis, eta_axis = _finite("u_axis", u_axis), _finite("eta_axis", eta_axis)
    a, e = _lattice(f, u_axis.ravel(), eta_axis.ravel())
    return _as_result(_product(a, e).reshape(u_axis.shape + eta_axis.shape))


def zak_shift_identity_check(f, x, omega, u, eta):
    """Residual |Z(T_x M_omega f)(u, eta) - e^{i omega (u - x)} Z(f)(u - x, eta - omega)|.

    T_x M_omega f = e^{-i omega x} M_omega T_x f, whose Zak transform is
    that of shifted_window(f, x, omega) times the phase.  The identity is
    exact; the residual measures truncation/rounding only.
    """
    # rhs first: zak(f, ...) reports an evaluator without a decay radius
    rhs = np.exp(1j * omega * (u - x)) * zak(f, u - x, eta - omega)
    lhs = np.exp(-1j * omega * x) * zak(shifted_window(f, x, omega), u, eta)
    return float(abs(lhs - rhs))


def zak_superosc_termwise(g, x, p, u, eta):
    """The closed twin of zak(build_signal(g, x, p), u, eta), the Zak
    transform of S(t) = F_n(t) g(t - x): the frequency-shift rule applied
    termwise,

        Z(S)(u, eta) = sum_j C_j e^{i omega_j u} Z(g)(u - x, eta - omega_j),

    on the tensor grid u x eta, shape u.shape + eta.shape (a complex for
    0-d axes), as zak_grid: one zak_grid call on the raveled u axis and
    the 2-D eta axis eta - omega_j, contracted by supershift_probe, so a
    0-d call does the array arithmetic of a grid's point.  Exact in exact
    arithmetic, but sum_j |C_j| = max(1, |a|)^n, so it cancels at large n
    (off by 9.0e2 at n = 64, a = 2, x = 0.5, (u, eta) = (0.3, 1.1)); the
    verify case and the tests that pin the expansion call it."""
    uf, ef = _finite("u", u).ravel(), _finite("eta", eta).ravel()
    total = supershift_probe(
        lambda w: np.exp(1j * np.multiply.outer(w, uf))[:, :, None]
        * np.moveaxis(zak_grid(g, uf - x, ef - w[:, None]), 1, 0), p)
    return _as_result(total.reshape(np.shape(u) + np.shape(eta)))


def theta_bound_check(p, u, eta):
    """For the Gaussian-window signal F_n(t) e^{-t^2/2}, returns the pair

        (|Z(S)(u, eta)|,  (1+a)^n e^{-u^2/2} theta(-i u / 2 pi, i / 2 pi)),

    where the theta value resums sum_k e^{-k^2/2 + k u}, on the tensor grid
    u x eta as zak_grid takes it: two arrays of shape u.shape + eta.shape,
    the bound constant along eta (two floats for 0-d u and eta).  The
    first component never exceeds the second.  That needs a >= 0, where
    |F_n| <= max(1, a)^n <= (1 + a)^n; a negative a is a ValueError."""
    if p.a < 0:
        raise ValueError(f"theta_bound_check bounds a >= 0 only, got a = {p.a}")
    value = np.abs(zak_grid(build_signal(gaussian_window(), 0.0, p), u, eta))
    u = np.reshape(u, np.shape(u) + (1,) * np.ndim(eta))
    th = np.real(theta(-1j * u / TWO_PI, 1j / TWO_PI))
    bound = np.broadcast_to((1.0 + p.a) ** p.n * np.exp(-0.5 * u * u) * th,
                            value.shape)
    return tuple(float(v) if v.ndim == 0 else v for v in (value, bound))


@dataclass(frozen=True)
class FrameVerdict:
    """Result of a fundamental-domain scan of |Z(f)|.

    lower_bound / upper_bound are the sampled min/max of |Z|;
    min_location is the (u, eta) grid point achieving the minimum.
    verdict is 'Frame' when the sampled minimum clears the tolerance,
    'NotFrame' when a near-zero persists under a doubled-resolution
    refinement, and 'Inconclusive' otherwise.
    """

    lower_bound: float
    upper_bound: float
    grid_resolution: int
    verdict: str
    min_location: tuple
    tolerance: float

    def __post_init__(self):
        if self.lower_bound > self.upper_bound:
            raise ValueError(
                f"lower bound {self.lower_bound} exceeds upper bound "
                f"{self.upper_bound}"
            )

    def to_dict(self):
        return {
            "lowerBound": self.lower_bound,
            "upperBound": self.upper_bound,
            "gridResolution": self.grid_resolution,
            "verdict": self.verdict,
            "minLocation": list(self.min_location),
            "tolerance": self.tolerance,
        }


def _scan_axes(resolution):
    """The u and eta axes of the scan grid on [0, 1] x [0, 2 pi], inclusive
    endpoints."""
    return np.linspace(0.0, 1.0, resolution), np.linspace(0.0, TWO_PI, resolution)


def _scan_blocks(f, u_axis, eta_axis):
    """|Z(f)| on the tensor grid, yielded as (first row, block) in blocks
    of at most _SCAN_ROWS u-rows; the lattice factors are built once per
    scan and no full grid is ever held.

    The blocks are near-equal, so none has a single row: numpy multiplies
    one row by a matrix-vector routine, whose sums can differ in the last
    bit from the rows of the full product a @ e that zak_grid returns."""
    a, e = _lattice(f, u_axis, eta_axis)
    row = 0
    for block in np.array_split(a, -(-len(u_axis) // _SCAN_ROWS)):
        yield row, np.abs(_product(block, e))
        row += len(block)


def _scan(f, resolution):
    """(min, max, argmin (u, eta)) of |Z(f)| on the scan grid, reduced
    block by block with the semantics of np.min, np.max and np.argmin over
    the whole grid: a NaN propagates and the first minimum wins a tie."""
    u_axis, eta_axis = _scan_axes(resolution)
    lower, upper, at = math.nan, -math.inf, None
    for row, mags in _scan_blocks(f, u_axis, eta_axis):
        i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
        low = float(mags[i, j])
        if at is None or low < lower or (math.isnan(low) and not math.isnan(lower)):
            lower, at = low, (row + i, j)
        upper = float(np.maximum(upper, mags.max()))
    return lower, upper, (float(u_axis[at[0]]), float(eta_axis[at[1]]))


def frame_check(f, resolution, tolerance=FRAME_TOLERANCE):
    """Scan |Z(f)| on [0,1] x [0, 2pi] at resolution^2 points (inclusive
    endpoints) and classify the Gabor system of f on the unit lattice.

    A sampled minimum above the tolerance yields 'Frame' (the sampled
    minimum doubles as the empirical lower frame constant).  A sampled
    near-zero triggers one refinement at doubled resolution; only a
    confirmed near-zero yields 'NotFrame', since coarse grids can alias
    true zeros.  Sampling can never prove the absence of an off-grid
    zero, so verdicts are numerical evidence, not proofs.

    Both scans are blocked reductions over _SCAN_ROWS rows of the grid at
    a time, so memory grows linearly in the resolution, not with its
    square.  The refinement stops at the first block whose minimum is
    below the tolerance, which already settles 'NotFrame'; a NaN met
    before that block leaves the verdict 'Inconclusive'.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    lower, upper, loc = _scan(f, resolution)
    if not math.isfinite(upper):
        verdict = "Inconclusive"
    elif lower > tolerance:
        verdict = "Frame"
    else:
        verdict = "Inconclusive"
        for _, mags in _scan_blocks(f, *_scan_axes(2 * resolution)):
            low = mags.min()
            if not low >= tolerance:  # below it, or NaN
                verdict = "NotFrame" if low < tolerance else "Inconclusive"
                break
    return FrameVerdict(
        lower_bound=lower,
        upper_bound=upper,
        grid_resolution=resolution,
        verdict=verdict,
        min_location=loc,
        tolerance=float(tolerance),
    )


@dataclass(frozen=True)
class WienerEstimate:
    """Numeric stand-in for a Wiener-amalgam norm: the sum over unit
    cells of the sampled sup of |f|.  Always heuristic — a finite sample
    neither certifies membership nor the true essential sup."""

    value: float
    cells: int
    samples_per_cell: int
    heuristic: bool = True


def wiener_norm_estimate(f):
    """Estimate sum_k sup_{[k, k+1)} |f| by sampling each unit cell at
    _SAMPLES_PER_CELL points, out to the decay radius."""
    r = getattr(f, "decay_radius", None)
    if r is None:
        raise ValueError("wiener estimate needs an evaluator with a decay_radius")
    kmax = int(math.ceil(float(r))) + 1
    k = np.arange(-kmax, kmax)
    s = np.linspace(0.0, 1.0, _SAMPLES_PER_CELL, endpoint=False)
    sups = np.max(np.abs(np.asarray(f(k[:, None] + s[None, :]))), axis=1)
    total = 0.0
    for sup in sups.tolist():  # cell by cell, left to right
        total += sup
    return WienerEstimate(value=total, cells=2 * kmax,
                          samples_per_cell=_SAMPLES_PER_CELL)
