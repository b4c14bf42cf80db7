"""Superoscillating sequences and the supershift limit probe.

The basic object is the sequence

    F_n(t) = sum_j C_j(n, a) e^{i omega_j t},
    omega_j = 1 - 2j/n,
    C_j(n, a) = C(n, j) ((1+a)/2)^{n-j} ((1-a)/2)^j,

whose frequencies all lie in [-1, 1] while the pointwise limit is
e^{i a t} for any real a — superoscillatory for |a| > 1.  The same
coefficient/frequency pattern applied to an arbitrary function psi,

    sum_j C_j psi(x + omega_j),

converges to psi(x + a) under mild regularity (a "supershift").
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .special import _as_result


@dataclass(frozen=True)
class SuperoscParams:
    """Parameters (a, n) of the basic superoscillating sequence: target
    frequency a (any real; |a| > 1 is the superoscillatory regime) and
    integer order n >= 1 (a float n, 2.0 too, is a ValueError)."""

    a: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not math.isfinite(self.a):
            raise ValueError(f"a must be finite, got {self.a}")

    @property
    def is_superoscillatory(self):
        return abs(self.a) > 1.0


def coefficients(p):
    """Coefficient vector C_j(n, a), j = 0..n.  Sums to 1; the absolute
    sum is max(1, |a|)^n, which is what makes |a| > 1 interesting.  A term
    that overflows double precision (for every a from about n = 1030,
    where the binomials do) is a ValueError naming n and a."""
    n, a = p.n, p.a
    try:
        terms = [
            math.comb(n, j) * ((1.0 + a) / 2.0) ** (n - j) * ((1.0 - a) / 2.0) ** j
            for j in range(n + 1)
        ]
        # the terms sum to 1, so a non-finite sum means one overflowed
        if math.isfinite(sum(terms)):
            return np.array(terms)
    except OverflowError:
        pass
    raise ValueError(f"coefficients C_j(n, a) overflow double precision at "
                     f"n = {n}, a = {a}")


def frequencies(p):
    """Frequency vector omega_j = 1 - 2j/n, j = 0..n (descending 1 to -1)."""
    n = p.n
    return 1.0 - 2.0 * np.arange(n + 1) / n


def f_n(p, t):
    """F_n(t) via the numerically stable product form
    (cos(t/n) + i a sin(t/n))^n; the coefficient sum cancels badly for
    large n·log(max(1,|a|))."""
    t = np.asarray(t, dtype=float)
    out = (np.cos(t / p.n) + 1j * p.a * np.sin(t / p.n)) ** p.n
    return complex(out) if out.ndim == 0 else out


def supershift_probe(terms_at, p):
    """sum_j C_j terms_at(omega)[j], terms_at called once on the whole
    frequency vector omega = frequencies(p) and returning an array whose
    leading axis is j; the result has the remaining shape (a complex for a
    0-d one).  Every whole-term coefficient sum but kernels._termwise_grid
    calls it; the supershift of psi at x takes terms_at = psi(x + omega)."""
    terms = terms_at(frequencies(p))
    return _as_result(np.tensordot(coefficients(p), terms, axes=1))
