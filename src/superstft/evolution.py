"""Free Schrödinger evolution (i d/dt phi = -d^2/dx^2 phi) of
time-frequency atoms and superoscillating data.

The initial datum is the atom M_{k0} T_{x0} g.  Going to momentum space,
multiplying by e^{-i p^2 t} and coming back gives

    phi(x, t; x0, k0) = int (T_{k0} M_{-x0} F(g))(p) e^{-i p^2 t} e^{i p x} dp,

WITHOUT the 1/(2 pi) of the inverse transform, so every evolution path
returns 2 pi times the datum at t = 0.  Pass normalized=True to divide
the 2 pi out.

For the Hermite window h_m the position-space integral has a closed form
(alpha = 1/2 + i t, gamma^2 = 1 - 1/alpha):

    int e^{-alpha u^2 + i y u} H_m(u) du
        = sqrt(pi / alpha) e^{-y^2 / (4 alpha)} gamma^m H_m(i y / (2 alpha gamma)).

It holds at every t.  evolve_hermite evaluates it by a three-term
recurrence; order 0 is the Gaussian window, and evolve_gaussian_closed is
that call.

evolve_numeric is the momentum-space quadrature oracle, and the route for
custom windows.  Its e^{-i p^2 t} factor oscillates with instantaneous
frequency 2|p t|, so node density is scaled by (1 + |t| T) up to a cap;
past the cap (|t| T^2 > 10^4, the predicate oscillation_hazard) its
results are unreliable and it raises a warning.

The evolution routes are grid-first: the fields of an EvolutionPoint (and
the x, y, t of evolve_superosc_signal, the y, t of evolve_superosc and
evolve_superosc_integral_representation) may be arrays that broadcast
together, and a scalar call is the 0-d case of the same code.
evolve_hermite runs its four fields, t included, as one flat array, so
every grid entry equals its point call to the bit; evolve_superosc_signal
is one such call with k0 = omega_j on a leading axis.  evolve_numeric
takes one t per call, since its quadrature rule depends on t.
evolve_superosc exponentiates each phase factor once per axis.  The CLI's
evolve makes one grid call per block of whole t slices.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import stft_superosc_termwise_grid
from .quadrature import (
    DEFAULT_PAD,
    QuadratureSpec,
    default_nodes_per_unit,
    nodes_weights,
)
from .signals import window_norm_sq
from .special import (TWO_PI, _as_result, _check_orders, _finite,
                      _flat_points, hermite_function)
from .superosc import supershift_probe
from .transforms import fourier

SQRT_TWO_PI = math.sqrt(TWO_PI)

# |t| * T^2 beyond which the oscillatory integrand outruns the node cap
OSCILLATION_HAZARD = 1e4

# hard ceiling on nodes per unit after oscillation scaling
_MAX_NODES_PER_UNIT = 4096


@dataclass(frozen=True)
class EvolutionPoint:
    """Where to evaluate the evolved atom: position x, time t, initial
    translation x0 and initial modulation k0 of the datum M_{k0} T_{x0} g.
    Each field is a float or an array; together they broadcast to the grid
    of points that an evolution route evaluates (one t per call for
    evolve_numeric)."""

    x: float
    t: float
    x0: float
    k0: float

    def __post_init__(self):
        for name in ("x", "t", "x0", "k0"):
            _finite(name, getattr(self, name))


def oscillation_hazard(t, truncation_radius):
    """True when |t| T^2 exceeds the reliability threshold."""
    return abs(t) * float(truncation_radius) ** 2 > OSCILLATION_HAZARD


def _chirp_sum(s, u, t, v):
    """sum_j e^{i (s u_j - u_j^2 t)} v_j for every entry of s, one (1, N)
    row of the phase matrix at a time: numpy sums a block of rows in a
    different order than one row, so this keeps a grid entry equal to the
    one-point call's value to the bit, and memory flat."""
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    chirp = u * u * t
    out = np.empty(flat.size, dtype=complex)
    for i in range(flat.size):
        cells = np.zeros((1, u.size), dtype=complex)
        np.multiply.outer(flat[i:i + 1], u, out=cells.imag)
        cells.imag -= chirp
        out[i:i + 1] = np.exp(cells, out=cells) @ v
    return out.reshape(s.shape)


def _phase(k0, x, t):
    """k0 x - k0^2 t; a non-finite one is a ValueError naming k0."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = k0 * x - k0**2 * t
    if not np.isfinite(phase).all():
        raise ValueError("k0 overflows the phase k0^2 t")
    return phase


def evolve_numeric(g, pt, spec=None, normalized=False):
    """Evolved atom by momentum-space quadrature.  With u = p - k0,

        int e^{-i x0 (p - k0)} F(g)(p - k0) e^{-i p^2 t + i p x} dp
            = e^{i k0 x - i k0^2 t}
              int F(g)(u) e^{-i u^2 t + i u (x - x0 - 2 k0 t)} du.

    F(g) is closed-form for gaussian/hermite windows (sqrt(2 pi) (-i)^m h_m,
    the constant kept outside the integral), whose default rule is
    composite Simpson on the window's own box |u| <= decay radius +
    DEFAULT_PAD, its node density scaled with |t|; custom windows need an
    explicit spec covering the decay of F(g).  pt.t must be a scalar;
    pt.x, pt.x0 and pt.k0 may be arrays, and the whole grid is one rule and
    one weighted vector, contracted against e^{i s u - i u^2 t} for every
    s = x - x0 - 2 k0 t.  A hazardous spec warns once per call; a phase
    k0 x - k0^2 t that is not finite is a ValueError naming k0."""
    if np.ndim(pt.t) != 0:
        raise ValueError("t must be a scalar: this evolution route takes "
                         "one t per call")
    t = float(pt.t)
    phase = _phase(np.asarray(pt.k0, dtype=float), pt.x, t)
    closed = g.kind in ("gaussian", "hermite")
    if spec is None:
        if not closed:
            raise ValueError(
                "custom windows need an explicit momentum-space quadrature spec")
        # the window's own box: its decay radius plus DEFAULT_PAD (F(g)
        # decays like g for the gaussian and hermite windows), its node
        # density scaled by 1 + |t| radius up to _MAX_NODES_PER_UNIT
        radius = float(g.decay_radius) + DEFAULT_PAD
        npu = math.ceil(default_nodes_per_unit() * (1.0 + abs(t) * radius))
        spec = QuadratureSpec(radius, min(npu, _MAX_NODES_PER_UNIT))
    if oscillation_hazard(t, spec.truncation_radius):
        warnings.warn(f"highly oscillatory evolution integrand: |t| T^2 = "
                      f"{abs(t) * spec.truncation_radius**2:.3g} exceeds "
                      f"{OSCILLATION_HAZARD:.0g}; result accuracy is not "
                      "guaranteed", RuntimeWarning, stacklevel=2)
    u, w = nodes_weights(spec)
    if closed:
        scale, fg = SQRT_TWO_PI * (-1j) ** g.order, hermite_function(g.order, u)
    else:
        scale, fg = 1.0, fourier(g, u)
    integral = _chirp_sum(pt.x - pt.x0 - 2.0 * pt.k0 * t, u, t, w * fg)
    out = _as_result(scale * np.exp(1j * phase) * integral)
    return out / TWO_PI if normalized else out


def evolve_gaussian_closed(pt, normalized=False):
    """Closed form for the Gaussian window, evolve_hermite's order 0:

        2 pi (1 + 2 i t)^{-1/2} e^{i x0 k0 - k0^2/2}
             e^{[k0 + i(x - x0)]^2 / (2 (1 + 2 i t))},

    principal square root (continuous through t = 0)."""
    return evolve_hermite(0, pt, normalized=normalized)


def evolve_hermite(m, pt, normalized=False):
    """Evolved Hermite atom (window h_m) after shifting the momentum
    variable by k0:

        sqrt(2 pi) (-i)^m e^{i k0 x - i k0^2 t}
            int e^{-i u^2 t + i u (x - x0 - 2 k0 t)} h_m(u) du.

    The constant and the two t-dependent exponents are fixed by the
    requirements that the t = 0 value be 2 pi M_{k0} T_{x0} h_m and that
    the result match evolve_numeric at all t.  The integral is the closed
    Gaussian-moment form of the module docstring: with alpha = 1/2 + i t,
    s = x - x0 - 2 k0 t and z = i s / (2 alpha), the value is

        sqrt(2 pi) (-i)^m e^{i k0 x - i k0^2 t} sqrt(pi / alpha)
            e^{-s^2 / (4 alpha)} P_m,

    where P_m = gamma^m H_m(z / gamma) comes from the recurrence
    P_{k+1} = 2 z P_k - 2 k gamma^2 P_{k-1}.  Only gamma^2 = 1 - 1/alpha
    enters, so no square root of it (and no branch) is needed; no rule is
    built and no warning is raised.  The four fields of pt broadcast
    together, t included, and run as one flat array (a 0-d call as a
    1-element one), so every grid entry is its point call's value to the
    bit.  A phase k0 x - k0^2 t that is not finite is a ValueError."""
    _check_orders(m)
    shape, (x, t, x0, k0) = _flat_points(
        *(np.asarray(v, dtype=float) for v in (pt.x, pt.t, pt.x0, pt.k0)))
    alpha = 0.5 + 1j * t
    # past |s| = 80 |alpha| the Gaussian factor, of modulus
    # e^{-|s|^2 / (8 |alpha|^2)} < e^{-800}, underflows to zero; clipping x
    # there keeps that zero and stops P_m (about |2 z|^m), s^2 and k0 x
    # from overflowing
    with np.errstate(over="ignore", invalid="ignore"):
        centre, reach = x0 + 2.0 * k0 * t, 80.0 * np.abs(alpha)
        x = np.clip(x, centre - reach, centre + reach)
    phase = _phase(k0, x, t)
    s = x - x0 - 2.0 * k0 * t
    z = 0.5j * s / alpha
    gamma_sq = 1.0 - 1.0 / alpha
    p_prev, p = np.zeros_like(z), np.ones_like(z)
    for k in range(m):
        p, p_prev = 2.0 * z * p - 2.0 * k * gamma_sq * p_prev, p
    out = (SQRT_TWO_PI * (-1j) ** m * np.sqrt(math.pi / alpha)
           * np.exp(1j * phase - s * s / (4.0 * alpha)) * p)
    out = _as_result(out.reshape(shape))
    return out / TWO_PI if normalized else out


def evolve_superosc(p, y, t):
    """Mode-wise free evolution of F_n: each plane wave e^{i omega y}
    picks up e^{-i omega^2 t}, so

        F_n(y, t) = sum_j C_j e^{i omega_j y - i omega_j^2 t}.

    At t = 0 this is F_n(y); as n grows it approaches e^{i a y - i a^2 t}
    (the supershift acts on the evolved closed form, which is entire in
    the frequency).  y and t broadcast together, and a non-finite one is a
    ValueError naming it.  Each phase factor is exponentiated on its own
    argument's points (J (T + Y) complex exps for y of shape (1, Y) and t
    of (T, 1), not J T Y); supershift_probe contracts their product."""
    y, t = _finite("y", y), _finite("t", t)
    # one ndim for both keeps j their leading axis, also at length n + 1
    y, t = (np.array(v, ndmin=max(y.ndim, t.ndim)) for v in (y, t))
    return supershift_probe(lambda w: np.exp(1j * np.multiply.outer(w, y))
                            * np.exp(-1j * np.multiply.outer(w * w, t)), p)


def evolve_superosc_signal(g, x, p, y, t):
    """U_t S(y) for the signal S = F_n(.) g(. - x), by evolving each atom
    M_{omega_j} T_x g and summing (datum scale: equals S(y) at t = 0).
    x, y and t broadcast together, and a non-finite one is a ValueError
    naming it.  All n + 1 atoms are one evolve_hermite call (order 0 for
    the Gaussian window) with k0 = omega_j on a leading axis, contracted by
    supershift_probe."""
    if g.kind not in ("gaussian", "hermite"):
        raise ValueError(
            "mode-wise evolution needs a gaussian or hermite window"
        )
    x, y, t = (_finite(name, v) for name, v in zip("xyt", (x, y, t)))
    lead = (1,) * max(x.ndim, y.ndim, t.ndim)
    return supershift_probe(lambda w: evolve_hermite(g.order, EvolutionPoint(
        y, t, x, w.reshape(w.shape + lead))), p) / TWO_PI


def evolve_superosc_integral_representation(g, x, p, y, t):
    """U_t S(y) through the phase-space double integral

        (1 / (2 pi ||g||^2)) int int V_g S(u, eta)
                                     [phi(y, t; u, eta) / (2 pi)] du deta,

    i.e. STFT inversion with every atom replaced by its evolved closed
    form.  Implemented for the Gaussian window, whose STFT of S has the
    closed kernel form; the (u, eta) box is the square of half-width
    13 + |x| with 16 Simpson nodes per unit, which truncates where that
    kernel falls below 1e-12.  y and t broadcast together: the V_g S grid
    is built once per call, and each point contracts it against its own
    grid of evolved atoms, so a point's value is the one-point call's to
    the bit.  A non-finite x, y or t is a ValueError that names it.  phi is
    2 pi c^{-1/2} e^{-(y-u-2t eta)^2/(2c)} e^{i eta (y-t eta)}, c = 1 + 2it:
    the eta phase rides on the weights; the 2-D factor has modulus <= 1.
    Its error is absolute, about 1e-14 of the integrand's absolute mass,
    so a value far below that mass is rounding residue: 7.5e-98 at
    x = 0.5, y = -30, t = 0, where the evolved signal is 1.3e-201."""
    if g.kind != "gaussian":
        raise ValueError(
            "the integral-representation cross-check is implemented for "
            "the gaussian window"
        )
    _finite("x", x)
    y, t = np.broadcast_arrays(_finite("y", y), _finite("t", t))
    outer = QuadratureSpec(truncation_radius=13.0 + abs(x), nodes_per_unit=16)
    xu, w = nodes_weights(outer)
    v = stft_superosc_termwise_grid(g, x, p, xu, xu)
    scale = TWO_PI**2 * window_norm_sq(g)
    out = np.empty(y.shape, dtype=complex)
    z, e = np.empty(v.shape), np.empty(v.shape, dtype=complex)
    for i in np.ndindex(y.shape):
        c = 1.0 + 2j * t[i]
        np.subtract.outer(y[i] - xu, 2.0 * t[i] * xu, out=z)
        np.multiply(np.multiply(z, z, out=z), -0.5 / c, out=e)
        np.multiply(np.exp(e, out=e), v, out=e)
        wb = w * np.exp(1j * xu * (y[i] - t[i] * xu))
        out[i] = complex(w @ e @ wb) * TWO_PI / np.sqrt(c) / scale
    return _as_result(out)


def pde_residual(func, x, t, h=1e-3):
    """|i d/dt f + d^2/dx^2 f| at (x, t) by central finite differences —
    zero (to O(h^2)) for solutions of the free equation.  x and t broadcast,
    and func gets the broadcast arrays (1-element ones for 0-d x and t,
    which return a float), so an entry is its point call's to the bit."""
    scalar = np.ndim(x) == np.ndim(t) == 0
    x, t = np.broadcast_arrays(*np.atleast_1d(x, t))
    ft = (func(x, t + h) - func(x, t - h)) / (2.0 * h)
    fxx = (func(x + h, t) - 2.0 * func(x, t) + func(x - h, t)) / (h * h)
    res = np.abs(1j * ft + fxx)
    return float(res[0]) if scalar else res
