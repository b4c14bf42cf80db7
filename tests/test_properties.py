"""Property tests on fixed domains: Hermite orders k, m in [0, 24] and
|u|, |eta| <= R, R the larger decay radius of the pair, for the band rule;
orders in [0, 64], |u|, |x| <= 20 and |lam| <= 8 for the pair integral;
orders in [0, 64] and |z|, |w| <= 10, w free or conj(z), for the
2D-complex Hermite polynomials; every double, NaN, the infinities and
subnormals included, for the CSV field encoder.  The domains are part of the claim; a failure is a defect to
fix, not a draw to exclude."""

import cmath
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complex_hermite_2d_mp, hermite_pair_integral_mp
from superstft.cli import _encode
from superstft.kernels import hermite_pair_integral
from superstft.quadrature import band_spec
from superstft.signals import hermite_window, window_norm_sq
from superstft.special import (MAX_HERMITE_ORDER, complex_hermite_2d,
                               hermite_norm_sq)
from superstft.transforms import stft_grid

ORDERS = st.integers(0, 24)
# points of [-1, 1], scaled to [-R, R] once the orders fix R
UNIT_AXIS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)


@settings(max_examples=80)
@given(k=ORDERS, m=ORDERS, u=UNIT_AXIS, eta=UNIT_AXIS)
def test_stft_grid_band_rule_matches_default_rule(k, m, u, eta):
    """V_{h_m} h_k on the band rule (same box, max(16, ceil(band / pi))
    nodes per unit) equals the default 64-per-unit rule to
    1e-13 ||h_k|| ||h_m||."""
    f, g = hermite_window(k), hermite_window(m)
    radius = max(f.decay_radius, g.decay_radius)
    u, eta = radius * np.array(u), radius * np.array(eta)
    shift = float(np.max(np.abs(u)))
    spec = band_spec(f.decay_radius + g.decay_radius + np.max(np.abs(eta)),
                     radius, shift)
    default = stft_grid(f, g, u, eta)
    band = stft_grid(f, g, u, eta, spec)
    scale = np.sqrt(window_norm_sq(f) * window_norm_sq(g))
    assert np.max(np.abs(band - default)) <= 1e-13 * scale


@settings(max_examples=100)
@given(k=st.integers(0, MAX_HERMITE_ORDER), m=st.integers(0, MAX_HERMITE_ORDER),
       u=st.floats(-20.0, 20.0), x=st.floats(-20.0, 20.0),
       lam=st.floats(-8.0, 8.0))
def test_pair_integral_matches_mpmath(k, m, u, x, lam):
    """The Laguerre-form kernel equals the explicit H_{k,m} sum in 300-digit
    mpmath to 1e-14 ||h_k|| ||h_m||, at every order up to the maximum."""
    scale = math.sqrt(hermite_norm_sq(k) * hermite_norm_sq(m))
    err = abs(hermite_pair_integral(k, m, u, x, lam)
              - hermite_pair_integral_mp(k, m, u, x, lam))
    assert err <= 1e-14 * scale


# points of the closed disk |z| <= 10
DISK = st.builds(cmath.rect, st.floats(0.0, 10.0), st.floats(-math.pi, math.pi))


@settings(max_examples=200)
@given(k=st.integers(0, MAX_HERMITE_ORDER), l=st.integers(0, MAX_HERMITE_ORDER),
       z=DISK, w=DISK, conjugate=st.booleans())
def test_complex_hermite_matches_mpmath(k, l, z, w, conjugate):
    """The Laguerre form of H_{k,l}(z, w), for independent z and w and for
    w = conj(z), equals the alternating sum in 130-digit mpmath to 1e-13
    times j! |zeta|^d L_j^{(d)}(-|zw|), the sum of the moduli of its terms.
    The bound is not relative to |H|: on the conjugate diagonal the value
    can sit next to a zero of the real Laguerre polynomial."""
    if conjugate:
        w = z.conjugate()
    value, scale = complex_hermite_2d_mp(k, l, z, w)
    assert abs(complex_hermite_2d(k, l, z, w) - value) <= 1e-13 * scale


def _encoded(values):
    return [row.tobytes().translate(None, b"\0").decode()
            for row in _encode(np.array(values, dtype=np.float64))]


@settings(max_examples=300)
@given(values=st.lists(st.floats(), min_size=1, max_size=64))
def test_encoder_matches_percent_format_on_floats(values):
    """Each field the CSV encoder lays out is Python's '%.17g' % v."""
    assert _encoded(values) == ["%.17g" % v for v in values]


@settings(max_examples=300)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_encoder_matches_percent_format_on_bit_patterns(bits):
    """The same on raw 64-bit patterns, every exponent equally likely."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _encoded(values) == ["%.17g" % v for v in values.tolist()]
