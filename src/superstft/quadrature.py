"""Truncated quadrature over the real line and the plane.

Every integral in this package has a smooth integrand with Gaussian-type
decay, so integrals over R are truncated to [-T, T] and evaluated with a
fixed composite Simpson rule.  For integrands that vanish (with all
derivatives) at the truncation boundary the rule converges far faster than
its textbook order, so the default density of 64 nodes per unit length is
effectively exact for the Gaussian-enveloped integrands that appear here.

The environment variable ``SUPERSTFT_QUAD_NODES`` overrides the default node
density (integer >= 16).
"""

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_PAD = 8.0

# smallest normal double: components below it are subnormal (or zero)
_TINY = np.finfo(float).tiny

# samples _guard checks and cleans per pass, so its masks stay small
_GUARD_CELLS = 1 << 16


def default_nodes_per_unit():
    """Default node density, honoring the SUPERSTFT_QUAD_NODES override."""
    raw = os.environ.get("SUPERSTFT_QUAD_NODES")
    if raw is None:
        return 64
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"SUPERSTFT_QUAD_NODES must be an integer, got {raw!r}")
    if n < 16:
        raise ValueError(f"SUPERSTFT_QUAD_NODES must be >= 16, got {n}")
    return n


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation radius and node density of a composite-Simpson line
    integral."""

    truncation_radius: float
    nodes_per_unit: int = 64

    def __post_init__(self):
        if not self.truncation_radius > 0:
            raise ValueError(
                f"truncation_radius must be positive, got {self.truncation_radius}"
            )
        if self.nodes_per_unit < 16:
            raise ValueError(f"nodes_per_unit must be >= 16, got {self.nodes_per_unit}")


def make_spec(decay_radius, *shifts):
    """Composite-Simpson spec with T = decay_radius + max|shift| + DEFAULT_PAD
    at default_nodes_per_unit() nodes per unit.

    ``shifts`` are the translations/centers the integrand gets dragged to;
    the truncation box must still cover the decayed tails after shifting.
    """
    biggest = max((abs(s) for s in shifts), default=0.0)
    return QuadratureSpec(float(decay_radius) + biggest + DEFAULT_PAD,
                          default_nodes_per_unit())


def nodes_weights(spec):
    """Composite-Simpson nodes and weights on [-T, T] as a pair of float
    arrays."""
    T = spec.truncation_radius
    n_int = int(np.ceil(2.0 * T * spec.nodes_per_unit))
    if n_int % 2:
        n_int += 1
    x = np.linspace(-T, T, n_int + 1)
    h = 2.0 * T / n_int
    w = np.full(n_int + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)


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

