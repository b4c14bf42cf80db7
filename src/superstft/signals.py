"""Windows, time-frequency shifts, and superoscillation-modulated signals.

A Window bundles an evaluator with the metadata the quadrature layer
needs (an effective decay radius).  A Signal is a window translated to
x and modulated either by the superoscillating sequence F_n (product
form), by the limit tone e^{i a t}, or by nothing at all:

    S(t) = F_n(t) g(t - x)    |    e^{i a t} g(t - x)    |    g(t - x).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import QuadratureSpec, integrate
from .special import SQRT2, SQRT_PI, complex_hermite_2d, hermite_function
from .superosc import coefficients, f_n

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


def window_norm_sq(g, spec=None):
    """||g||^2 = integral of |g|^2.  Closed form for gaussian/hermite
    (2^m m! sqrt(pi)); quadrature for custom windows, which therefore
    need a decay radius (or an explicit spec)."""
    if g.kind in ("gaussian", "hermite"):
        m = g.order
        return float(2.0**m * math.factorial(m) * SQRT_PI)
    if spec is None:
        if g.decay_radius is None:
            raise ValueError(
                "custom window needs a decay_radius (or an explicit "
                "quadrature spec) to compute its norm"
            )
        spec = QuadratureSpec(truncation_radius=float(g.decay_radius))
    return float(np.real(integrate(lambda t: np.abs(g(t)) ** 2, spec)))


def time_frequency_shift(x, omega, g, t):
    """(M_omega T_x g)(t) = e^{i omega t} g(t - x)."""
    t = np.asarray(t, dtype=float)
    out = np.exp(1j * omega * t) * g(t - x)
    return complex(out) if out.ndim == 0 else out


def shifted_window(g, x, omega):
    """The time-frequency shift M_omega T_x g as a Window (custom kind,
    decay radius inflated by |x|)."""
    radius = None if g.decay_radius is None else float(g.decay_radius) + abs(x)
    return custom_window(
        lambda t: time_frequency_shift(x, omega, g, t), decay_radius=radius
    )


@dataclass(frozen=True)
class Signal:
    """A modulated, translated window.  Exactly one modulation mode:
    superosc (an (a, n) parameter set), limit_frequency (the pure tone
    e^{i a t}), or neither (the bare translated window)."""

    window: Window
    x: float
    superosc: object = None
    limit_frequency: float = None
    decay_radius: float = None

    def __post_init__(self):
        if self.superosc is not None and self.limit_frequency is not None:
            raise ValueError(
                "a signal is modulated by a superoscillating sequence or "
                "by a limit tone, not both"
            )
        if self.decay_radius is None:
            object.__setattr__(self, "decay_radius", _signal_radius(self))

    def __call__(self, t):
        return evaluate(self, t)


def _signal_radius(sig):
    g_r = sig.window.decay_radius
    if g_r is None:
        return None
    if sig.superosc is None:
        return abs(sig.x) + float(g_r)
    p = sig.superosc
    # |F_n(t)| can reach max(1,|a|)^n before the window kills it, so the
    # radius where |F_n g| drops below tolerance inflates accordingly:
    # e^{-r^2/2} max(1,|a|)^n < e^{-g_r^2/2} at r^2 = g_r^2 + 2 n log max(1,|a|).
    grow = 2.0 * p.n * math.log(max(1.0, abs(p.a)))
    return abs(sig.x) + float(math.ceil(math.sqrt(g_r**2 + grow) + 1.0))


def evaluate(sig, t):
    """Evaluate the signal at t (scalar or array)."""
    t = np.asarray(t, dtype=float)
    base = sig.window(t - sig.x)
    if sig.superosc is not None:
        out = f_n(sig.superosc, t) * base
    elif sig.limit_frequency is not None:
        out = np.exp(1j * sig.limit_frequency * t) * base
    else:
        out = base * np.exp(0j)
    out = np.asarray(out)
    return complex(out) if out.ndim == 0 else out


def build_signal(g, x, p):
    """The superoscillation-modulated signal F_n(t) g(t - x)."""
    return Signal(window=g, x=float(x), superosc=p)


def build_limit_signal(g, x, a):
    """The limit signal e^{i a t} g(t - x) the modulated one converges to."""
    return Signal(window=g, x=float(x), limit_frequency=float(a))


class NormValue(float):
    """A float tagged with how it was obtained ('closed-form' or
    'quadrature')."""

    def __new__(cls, value, provenance):
        obj = super().__new__(cls, value)
        obj.provenance = provenance
        return obj


def _norm_double_sum(m, x, p):
    """||F_n(.) h_m(. - x)||^2 as the closed double sum, with
    d = (k - j)/n,

        sqrt(pi) (-2)^m  sum_{j,k} C_j C_k e^{-d^2 + 2 i d x}
                                   H_{m,m}(sqrt2 d, sqrt2 d),

    whose imaginary part cancels pairwise; a sum that comes out non-real
    (cancellation at large n) raises FloatingPointError."""
    c = coefficients(p)
    idx = np.arange(p.n + 1)
    d = (idx[None, :] - idx[:, None]) / p.n  # d[j, k] = (k - j)/n
    h = complex_hermite_2d(m, m, SQRT2 * d, SQRT2 * d)
    total = SQRT_PI * (-2.0) ** m * np.einsum(
        "j,k,jk->", c, c, np.exp(-(d**2) + 2j * d * x) * h
    )
    if abs(total.imag) > 1e-12 * max(1.0, abs(total.real)):
        raise FloatingPointError(f"norm sum came out non-real: {total}")
    return float(total.real)


def signal_norm_sq_closed(g, x, p):
    """||F_n(. ) g(. - x)||^2.

    Closed double sum (_norm_double_sum) for gaussian/hermite windows.
    Custom windows fall back to quadrature on |S|^2; the result carries a
    .provenance tag either way.
    """
    if g.kind in ("gaussian", "hermite"):
        return NormValue(_norm_double_sum(g.order, x, p), "closed-form")
    sig = build_signal(g, x, p)
    if sig.decay_radius is None:
        raise ValueError(
            "custom window needs a decay_radius to integrate the signal norm"
        )
    spec = QuadratureSpec(truncation_radius=float(sig.decay_radius))
    val = np.real(integrate(lambda t: np.abs(evaluate(sig, t)) ** 2, spec))
    return NormValue(float(val), "quadrature")


def signal_norm_sq(sig):
    """||S||^2 for any Signal (dispatches on its modulation mode)."""
    if sig.superosc is not None:
        return signal_norm_sq_closed(sig.window, sig.x, sig.superosc)
    # |e^{iat}| = 1, so both remaining modes reduce to the window norm
    return NormValue(window_norm_sq(sig.window), "closed-form")
