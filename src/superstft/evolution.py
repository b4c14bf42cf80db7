"""Free Schrödinger evolution (i d/dt phi = -d^2/dx^2 phi) of
time-frequency atoms and superoscillating data.

The initial datum is the atom M_{k0} T_{x0} g.  Going to momentum space,
multiplying by e^{-i p^2 t} and coming back gives

    phi(x, t; x0, k0) = int (T_{k0} M_{-x0} F(g))(p) e^{-i p^2 t} e^{i p x} dp,

WITHOUT the 1/(2 pi) of the inverse transform, so every evolution path
returns 2 pi times the datum at t = 0.  Pass normalized=True to divide
the 2 pi out.

The e^{-i p^2 t} factor oscillates with instantaneous frequency 2|p t|,
so node density is scaled by (1 + |t| T) up to a cap; past the cap
(|t| T^2 > 10^4) results are unreliable and a warning is raised —
oscillation_hazard() exposes the same predicate for callers that need
a flag instead of a warning.

The evolution routes are grid-first: the fields of an EvolutionPoint (and
the y, t of evolve_superosc) may be arrays that broadcast together, and a
scalar call is the 0-d case of the same code.  evolve_hermite takes one t
per call, since its quadrature rule depends on t; evolve_numeric, the
momentum-space oracle, takes single points.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quadrature import (
    DEFAULT_PAD,
    QuadratureSpec,
    default_nodes_per_unit,
    nodes_weights,
)
from .signals import hermite_window, window_norm_sq
from .special import hermite_function
from .superosc import coefficients, frequencies

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)

# |t| * T^2 beyond which the oscillatory integrand outruns the node cap
OSCILLATION_HAZARD = 1e4

# hard ceiling on nodes per unit after oscillation scaling
_MAX_NODES_PER_UNIT = 4096

# cells of the phase matrix built at once by _chirp_sum, so its
# memory stays flat however many points a grid call asks for
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class EvolutionPoint:
    """Where to evaluate the evolved atom: position x, time t, initial
    translation x0 and initial modulation k0 of the datum M_{k0} T_{x0} g.
    Each field is a float or an array; together they broadcast to the grid
    of points that evolve_gaussian_closed or evolve_hermite evaluates."""

    x: float
    t: float
    x0: float
    k0: float

    def __post_init__(self):
        for name in ("x", "t", "x0", "k0"):
            v = getattr(self, name)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite, got {v}")


def oscillation_hazard(t, truncation_radius):
    """True when |t| T^2 exceeds the reliability threshold."""
    return abs(t) * float(truncation_radius) ** 2 > OSCILLATION_HAZARD


def _warn_if_hazard(t, truncation_radius):
    if oscillation_hazard(t, truncation_radius):
        warnings.warn(
            f"highly oscillatory evolution integrand: |t| T^2 = "
            f"{abs(t) * truncation_radius**2:.3g} exceeds {OSCILLATION_HAZARD:.0g}; "
            "result accuracy is not guaranteed",
            RuntimeWarning,
            stacklevel=3,
        )


def _as_result(out):
    return complex(out) if np.ndim(out) == 0 else out


def _chirp_sum(s, u, t, v):
    """sum_j e^{i (s u_j - u_j^2 t)} v_j for every entry of s, building one
    block of rows of the phase matrix at a time."""
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    chirp = u * u * t
    out = np.empty(flat.size, dtype=complex)
    step = max(1, _BLOCK_CELLS // u.size)
    for lo in range(0, flat.size, step):
        rows = flat[lo:lo + step]
        cells = np.zeros((rows.size, u.size), dtype=complex)
        np.multiply.outer(rows, u, out=cells.imag)
        cells.imag -= chirp
        out[lo:lo + step] = np.exp(cells, out=cells) @ v
    return out.reshape(s.shape)


def _oscillation_spec(radius, t, scheme="CompositeSimpson"):
    """Quadrature spec on [-radius, radius] with node density scaled by
    (1 + |t| radius), capped at _MAX_NODES_PER_UNIT."""
    base = default_nodes_per_unit()
    npu = int(math.ceil(base * (1.0 + abs(t) * radius)))
    npu = min(npu, _MAX_NODES_PER_UNIT)
    return QuadratureSpec(truncation_radius=float(radius), nodes_per_unit=npu,
                          scheme=scheme)


def evolve_numeric(g, pt, spec=None, normalized=False):
    """Evolved atom by momentum-space quadrature:

        int e^{-i x0 (p - k0)} F(g)(p - k0) e^{-i p^2 t + i p x} dp.

    F(g) is closed-form for gaussian/hermite windows (sqrt(2 pi) (-i)^m h_m);
    custom windows need an explicit spec covering the decay of F(g).
    This route is the scalar oracle: pt must be a single point.
    """
    if spec is None:
        if g.kind not in ("gaussian", "hermite"):
            raise ValueError(
                "custom windows need an explicit momentum-space quadrature spec"
            )
        radius = float(g.decay_radius) + abs(pt.k0) + DEFAULT_PAD
        spec = _oscillation_spec(radius, pt.t)
    _warn_if_hazard(pt.t, spec.truncation_radius)
    p, w = nodes_weights(spec)
    if g.kind in ("gaussian", "hermite"):
        m = g.order
        fg = SQRT_TWO_PI * (-1j) ** m * hermite_function(m, p - pt.k0)
    else:
        from .transforms import fourier

        fg = np.asarray(fourier(g, p - pt.k0), dtype=complex)
    vals = (np.exp(-1j * pt.x0 * (p - pt.k0)) * fg
            * np.exp(-1j * p * p * pt.t + 1j * p * pt.x))
    out = complex(w @ vals)
    return out / TWO_PI if normalized else out


def _gaussian_closed_arr(x, t, x0, k0):
    root = 1.0 / np.sqrt(1.0 + 2j * t)  # principal branch, = 1 at t = 0
    expo = (1j * x0 * k0 - 0.5 * k0**2
            + (k0 + 1j * (x - x0)) ** 2 / (2.0 * (1.0 + 2j * t)))
    return TWO_PI * root * np.exp(expo)


def evolve_gaussian_closed(pt, normalized=False):
    """Closed form for the Gaussian window:

        2 pi (1 + 2 i t)^{-1/2} e^{i x0 k0 - k0^2/2}
             e^{[k0 + i(x - x0)]^2 / (2 (1 + 2 i t))},

    principal square root (continuous through t = 0).  Solves
    i d/dt phi = -d^2/dx^2 phi exactly and equals 2 pi M_{k0} T_{x0} phi
    at t = 0.  Evaluated on the whole grid that pt spans."""
    out = _as_result(_gaussian_closed_arr(pt.x, pt.t, pt.x0, pt.k0))
    return out / TWO_PI if normalized else out


def evolve_hermite(m, pt, spec=None, normalized=False):
    """Evolved Hermite atom (window h_m) after shifting the momentum
    variable by k0:

        sqrt(2 pi) (-i)^m e^{i k0 x - i k0^2 t}
            int e^{-i u^2 t + i u (x - x0 - 2 k0 t)} h_m(u) du.

    The constant and the two t-dependent exponents are fixed by the
    requirements that the t = 0 value be 2 pi M_{k0} T_{x0} h_m and that
    the result match evolve_numeric at all t.

    pt.t must be a scalar; pt.x, pt.x0 and pt.k0 may be arrays.  One rule
    and one weighted vector w h_m(u) serve the whole grid, which is then
    one product with the matrix e^{i (x - x0 - 2 k0 t) u - i u^2 t}."""
    if m < 0:
        raise ValueError(f"hermite order must be >= 0, got {m}")
    if np.ndim(pt.t) != 0:
        raise ValueError("the quadrature rule depends on t: pass one t per "
                         "call (x, x0 and k0 may be arrays)")
    t = float(pt.t)
    if spec is None:
        radius = float(hermite_window(m).decay_radius) + DEFAULT_PAD
        spec = _oscillation_spec(radius, t)
    _warn_if_hazard(t, spec.truncation_radius)
    u, w = nodes_weights(spec)
    integral = _chirp_sum(pt.x - pt.x0 - 2.0 * pt.k0 * t, u, t,
                          w * hermite_function(m, u))
    out = _as_result(SQRT_TWO_PI * (-1j) ** m
                     * np.exp(1j * pt.k0 * pt.x - 1j * pt.k0**2 * t)
                     * integral)
    return out / TWO_PI if normalized else out


def evolve_superosc(p, y, t):
    """Mode-wise free evolution of F_n: each plane wave e^{i omega y}
    picks up e^{-i omega^2 t}, so

        F_n(y, t) = sum_j C_j e^{i omega_j y - i omega_j^2 t}.

    At t = 0 this is F_n(y); as n grows it approaches e^{i a y - i a^2 t}
    (the supershift acts on the evolved closed form, which is entire in
    the frequency).  y and t broadcast together; the sum over j is one
    contraction over the whole grid."""
    c = coefficients(p)
    w = frequencies(p)
    y, t = np.broadcast_arrays(np.asarray(y, dtype=float),
                               np.asarray(t, dtype=float))
    phase = np.multiply.outer(w, y) - np.multiply.outer(w * w, t)
    return _as_result(np.tensordot(c, np.exp(1j * phase), axes=1))


def evolve_superosc_signal(g, x, p, y, t, spec=None):
    """U_t S(y) for the signal S = F_n(.) g(. - x), by evolving each atom
    M_{omega_j} T_x g and summing (datum scale: equals S(y) at t = 0).
    All n + 1 atoms are one grid call over k0 = omega_j."""
    pt = EvolutionPoint(y, t, x, frequencies(p))
    if g.kind == "gaussian":
        atoms = evolve_gaussian_closed(pt)
    elif g.kind == "hermite":
        atoms = evolve_hermite(g.order, pt, spec=spec)
    else:
        raise ValueError(
            "mode-wise evolution needs a gaussian or hermite window"
        )
    return complex(coefficients(p) @ atoms / TWO_PI)


def evolve_superosc_integral_representation(g, x, p, y, t,
                                            outer_radius=None,
                                            outer_nodes_per_unit=16):
    """U_t S(y) through the phase-space double integral

        (1 / (2 pi ||g||^2)) int int V_g S(u, eta)
                                     [phi(y, t; u, eta) / (2 pi)] du deta,

    i.e. STFT inversion with every atom replaced by its evolved closed
    form.  Implemented for the Gaussian window, whose STFT of S has the
    closed kernel form; the (u, eta) box is truncated where that kernel
    falls below 1e-12."""
    if g.kind != "gaussian":
        raise ValueError(
            "the integral-representation cross-check is implemented for "
            "the gaussian window"
        )
    from .kernels import _gaussian_kernel_grid

    if outer_radius is None:
        outer_radius = 12.0 + abs(x) + 1.0
    outer = QuadratureSpec(truncation_radius=float(outer_radius),
                           nodes_per_unit=int(outer_nodes_per_unit))
    xu, wu = nodes_weights(outer)
    xe, we = nodes_weights(outer)
    ug = xu[:, None]
    eg = xe[None, :]
    c = coefficients(p)
    w = frequencies(p)
    v = sum(cj * _gaussian_kernel_grid(x, float(wj), ug, eg)
            for cj, wj in zip(c, w))
    atoms = _gaussian_closed_arr(y, t, ug, eg)
    total = complex(wu @ (v * atoms) @ we)
    return total / (TWO_PI**2 * window_norm_sq(g))


def pde_residual(func, x, t, h=1e-3):
    """|i d/dt f + d^2/dx^2 f| at (x, t) by central finite differences —
    zero (to O(h^2)) for solutions of the free equation."""
    ft = (func(x, t + h) - func(x, t - h)) / (2.0 * h)
    fxx = (func(x + h, t) - 2.0 * func(x, t) + func(x - h, t)) / (h * h)
    return float(abs(1j * ft + fxx))
