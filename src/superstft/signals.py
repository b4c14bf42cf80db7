"""Windows, time-frequency shifts, and superoscillation-modulated signals.

A Window bundles an evaluator with the metadata the quadrature layer
needs (an effective decay radius).  A Signal is a window translated to
x and modulated by the superoscillating sequence F_n (product form):

    S(t) = F_n(t) g(t - x).

The limit tone e^{i a t} g(t - x) that F_n(t) g(t - x) converges to is the
time-frequency shift shifted_window(g, x, a); the unmodulated translate
g(t - x) is shifted_window(g, x, 0).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import QuadratureSpec, default_nodes_per_unit, integrate
from .special import _as_result, _finite, hermite_function, hermite_norm_sq
from .superosc import f_n

WINDOW_KINDS = ("gaussian", "hermite", "custom")

# magnitude below which a window is treated as numerically zero when
# scanning for its decay radius
DECAY_TOL = 1e-16


@lru_cache(maxsize=None)
def _hermite_decay_radius(m):
    grid = np.linspace(0.0, 40.0, 8001)
    vals = np.abs(hermite_function(m, grid))
    alive = np.nonzero(vals >= DECAY_TOL)[0]
    last = grid[alive[-1]] if alive.size else 0.0
    return float(math.ceil(last + 0.5))


@dataclass(frozen=True)
class Window:
    """An analysis window: evaluator plus decay metadata.

    kind is one of WINDOW_KINDS; order is the Hermite order (0 for
    gaussian, ignored for custom); decay_radius R satisfies
    |g(t)| < 1e-16 for |t| > R, or None when unknown.
    """

    kind: str
    order: int
    func: object
    decay_radius: float

    def __post_init__(self):
        if self.kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}")

    def __call__(self, t):
        return self.func(t)


def gaussian_window():
    """The Gaussian window e^{-t^2/2} (the order-0 Hermite function)."""
    return Window(
        kind="gaussian",
        order=0,
        func=lambda t: np.exp(-0.5 * np.asarray(t, dtype=float) ** 2),
        decay_radius=9.0,
    )


def hermite_window(m):
    """The (un-normalized) Hermite function window h_m(t) = e^{-t^2/2} H_m(t)."""
    if m == 0:
        return gaussian_window()
    return Window(
        kind="hermite",
        order=m,
        func=lambda t: hermite_function(m, t),
        decay_radius=_hermite_decay_radius(m),
    )


def custom_window(func, decay_radius=None):
    """Wrap an arbitrary evaluator as a Window.  Without a decay_radius
    the window cannot be used where a truncation box must be inferred."""
    return Window(kind="custom", order=0, func=func, decay_radius=decay_radius)


def window_norm_sq(g):
    """||g||^2 = integral of |g|^2.  Closed form for gaussian/hermite
    (hermite_norm_sq, 2^m m! sqrt(pi)); quadrature on [-R, R] for custom
    windows, which therefore need a decay radius R."""
    if g.kind in ("gaussian", "hermite"):
        return float(hermite_norm_sq(g.order))
    if g.decay_radius is None:
        raise ValueError("custom window needs a decay_radius to compute its norm")
    return _norm_sq(g, g.decay_radius)


def _norm_sq(f, radius):
    """integral of |f|^2 over [-radius, radius] at the default node density
    (so SUPERSTFT_QUAD_NODES applies)."""
    spec = QuadratureSpec(float(radius), default_nodes_per_unit())
    return float(np.real(integrate(lambda t: np.abs(f(t)) ** 2, spec)))


def shifted_window(g, x, omega):
    """The time-frequency shift M_omega T_x g, t -> e^{i omega t} g(t - x),
    as a Window (custom kind, decay radius inflated by |x|) whose value at
    a scalar t is a complex.  A non-finite x or omega is a ValueError that
    names it."""
    _finite("x", x)
    _finite("omega", omega)
    radius = None if g.decay_radius is None else float(g.decay_radius) + abs(x)

    def shifted(t):
        t = np.asarray(t, dtype=float)
        return _as_result(np.exp(1j * omega * t) * g(t - x))

    return custom_window(shifted, decay_radius=radius)


@dataclass(frozen=True)
class Signal:
    """A translated window, modulated by the superoscillating sequence
    F_n of the (a, n) parameter set superosc.  A non-finite x is a
    ValueError that names it."""

    window: Window
    x: float
    superosc: object

    def __post_init__(self):
        _finite("x", self.x)

    @property
    def decay_radius(self):
        """|x| plus the window's decay radius, grown by the amplitude of
        F_n (see _supershift_radius); None when the window has none."""
        r = self.window.decay_radius
        if r is None:
            return None
        return abs(self.x) + _supershift_radius(r, self.superosc)

    def __call__(self, t):
        return evaluate(self, t)


def _supershift_radius(radius, p):
    """ceil(sqrt(R^2 + 2 n log max(1, |a|)) + 1) for the decay radius R of a
    Gaussian-type function.  |F_n(t)| and sum_j |C_j| reach max(1, |a|)^n,
    so the radius where an (a, n)-weighted function drops below tolerance
    inflates accordingly: e^{-r^2/2} max(1,|a|)^n < e^{-R^2/2} at
    r^2 = R^2 + 2 n log max(1,|a|)."""
    grow = 2.0 * p.n * math.log(max(1.0, abs(p.a)))
    return float(math.ceil(math.sqrt(float(radius) ** 2 + grow) + 1.0))


def evaluate(sig, t):
    """Evaluate the signal at t (scalar or array)."""
    t = np.asarray(t, dtype=float)
    return _as_result(f_n(sig.superosc, t) * sig.window(t - sig.x))


def build_signal(g, x, p):
    """The superoscillation-modulated signal F_n(t) g(t - x)."""
    return Signal(window=g, x=float(x), superosc=p)


def signal_norm_sq(sig):
    """||S||^2 of a Signal S(t) = F_n(t) g(t - x), as a float: one
    quadrature of |S|^2 on [-R, R], R the signal's decay radius, whatever
    the window.  F_n is evaluated as a product, so nothing cancels at any n
    (the closed double sum over C_j C_k, which does cancel, is kept as the
    twins norm_sq_closed_gaussian and norm_sq_closed_hermite).  Its window
    therefore needs a decay radius."""
    if sig.decay_radius is None:
        raise ValueError(
            "custom window needs a decay_radius to integrate the signal norm"
        )
    return _norm_sq(lambda t: evaluate(sig, t), sig.decay_radius)
