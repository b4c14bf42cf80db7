"""Property tests on fixed domains: Hermite orders k, m in [0, 24] and
|u|, |eta| <= R, R the larger decay radius of the pair.  The domains are
part of the claim; a failure is a defect to fix, not a draw to exclude."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from superstft.quadrature import band_spec
from superstft.signals import hermite_window, window_norm_sq
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
