"""Truncated quadrature over the real line.

Every integral in this package has a smooth integrand with Gaussian-type
decay, so integrals over R are truncated to [-T, T] and evaluated with a
fixed composite Simpson rule on nodes that mirror exactly about 0, so that a
real integrand folds over +-t.  For integrands that vanish (with all
derivatives) at the truncation boundary the rule converges far faster than
its textbook order, so the default density of 64 nodes per unit length is
effectively exact for the Gaussian-enveloped integrands that appear here.
It is sized for any such integrand and used wherever nothing more is known.

An integrand whose spectrum is known to vanish (below 1e-16) beyond a band
|omega| <= B needs fewer nodes: ``band_spec`` keeps make_spec's box and
sets the density to max(16, ceil(B / pi)).  The phase-space oracles of
``transforms.moyal_double_integral`` and of ``verify`` use it.
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PAD = 8.0

# smallest normal double: components below it are subnormal (or zero)
_TINY = np.finfo(float).tiny

# samples _guard checks and cleans per pass, so its masks stay small
_GUARD_CELLS = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation radius and node density of a composite-Simpson line
    integral."""

    truncation_radius: float
    nodes_per_unit: int = 64

    def __post_init__(self):
        if not 0 < self.truncation_radius < math.inf:
            raise ValueError(f"truncation_radius must be finite and positive, "
                             f"got {self.truncation_radius}")
        if self.nodes_per_unit < 16:
            raise ValueError(f"nodes_per_unit must be >= 16, got {self.nodes_per_unit}")


def make_spec(decay_radius, *shifts):
    """Composite-Simpson spec with T = decay_radius + max|shift| + DEFAULT_PAD
    at QuadratureSpec's default density of 64 nodes per unit.

    ``shifts`` are the translations/centers the integrand gets dragged to;
    the truncation box must still cover the decayed tails after shifting.
    """
    biggest = max((abs(s) for s in shifts), default=0.0)
    return QuadratureSpec(float(decay_radius) + biggest + DEFAULT_PAD)


def band_spec(band, decay_radius, *shifts):
    """make_spec(decay_radius, *shifts)'s box at max(16, ceil(band / pi))
    nodes per unit, for an integrand whose spectrum is negligible (below
    1e-16) beyond |omega| = band.

    Composite Simpson is (4 T_h - T_2h) / 3, and the coarse trapezoid T_2h
    at step 2/N aliases only spectral content at |omega| >= pi N, so at
    this density both trapezoids are exact to that level.
    """
    return QuadratureSpec(make_spec(decay_radius, *shifts).truncation_radius,
                          max(16, math.ceil(float(band) / math.pi)))


def _simpson_weights(count, h):
    """Composite-Simpson weights h/3 (1, 4, 2, 4, ..., 2, 4, 1) of an odd
    count of nodes at spacing h, for nodes_weights and reconstruct's axes."""
    w = np.full(count, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def nodes_weights(spec):
    """Composite-Simpson nodes h k, k = -M..M, on [-T, T] and their weights,
    as a pair of float arrays: M = ceil(T nodes_per_unit) and h = T / M, so
    every rule is an exact mirror of odd length."""
    T = spec.truncation_radius
    half = math.ceil(T * spec.nodes_per_unit)
    h = T / half
    return h * np.arange(-half, half + 1.0), _simpson_weights(2 * half + 1, h)


def _guard(vals):
    """Check an integrand array and clean it in place before it is contracted.

    Raises FloatingPointError on any non-finite sample.  Then sets to zero
    every real or imaginary component whose magnitude is below the smallest
    normal double (about 2.2e-308).  Gaussian tails underflow to subnormal
    numbers far out in the truncation box, and arithmetic on subnormals is
    many times slower on common CPUs; a dropped component changes a sum only
    when every partial sum is itself below about 1e-292, so contracted
    values stay the same to the bit.  Works a block of rows at a time, so its
    temporaries stay small however large ``vals`` is; ``vals`` must be a
    writable array the caller owns.  Returns ``vals``.
    """
    rows = np.atleast_1d(vals)
    step = max(1, _GUARD_CELLS // max(1, math.prod(rows.shape[1:])))
    for lo in range(0, rows.shape[0], step):
        block = rows[lo:lo + step]
        if not np.isfinite(block).all():
            raise FloatingPointError("non-finite integrand samples in quadrature")
        for part in (block.real, block.imag) if np.iscomplexobj(block) else (block,):
            part[np.abs(part) < _TINY] = 0
    return vals


def integrate(f, spec):
    """Integral of f over [-T, T].  f must accept an ndarray of points."""
    x, w = nodes_weights(spec)
    # a private copy: _guard writes in place, and f may return an array it keeps
    vals = _guard(np.array(f(x)))
    return complex(np.dot(w, vals))

