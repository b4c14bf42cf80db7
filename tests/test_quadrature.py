import dataclasses
import math

import numpy as np
import pytest

from superstft.cli import main
from superstft.quadrature import (DEFAULT_PAD, QuadratureSpec, _guard,
                                  band_spec, integrate, make_spec,
                                  nodes_weights)
from superstft.signals import custom_window, gaussian_window
from superstft.transforms import stft

SQRT_PI = math.sqrt(math.pi)


def test_gaussian_line_integral():
    """int e^{-t^2} dt = sqrt(pi), effectively exact for a truncated
    Gaussian."""
    spec = QuadratureSpec(truncation_radius=9.0)
    val = integrate(lambda t: np.exp(-t * t), spec)
    assert abs(val - SQRT_PI) < 1e-14


def test_oscillatory_gaussian_integral():
    """int e^{-t^2 + i w t} dt = sqrt(pi) e^{-w^2/4} for a handful of w."""
    spec = QuadratureSpec(truncation_radius=10.0)
    for w in (-3.0, -0.5, 0.0, 1.0, 2.5):
        val = integrate(lambda t: np.exp(-t * t + 1j * w * t), spec)
        assert abs(val - SQRT_PI * math.exp(-w * w / 4.0)) < 1e-13


def test_make_spec_accumulates_shifts():
    spec = make_spec(5.0, 1.0, -3.0, 0.5)
    assert spec.truncation_radius == 5.0 + 3.0 + DEFAULT_PAD
    assert make_spec(5.0).truncation_radius == 5.0 + DEFAULT_PAD


def test_band_spec_keeps_the_box_and_sizes_the_density():
    """make_spec's box at max(16, ceil(band / pi)) nodes per unit."""
    for band, nodes in ((27.0, 16), (16 * math.pi, 16), (59.0, 19), (300.0, 96)):
        spec = band_spec(band, 9.0, 2.0, -3.0)
        assert spec == QuadratureSpec(make_spec(9.0, 2.0, -3.0).truncation_radius,
                                      nodes)


def test_rules_ignore_the_environment(monkeypatch, capsys):
    """The node density is a constant: SUPERSTFT_QUAD_NODES, which once
    overrode it, changes no rule and no output byte."""
    argv = ["spectrogram", "--mode", "numeric", "--n", "4", "--a", "2",
            "--x", "0.5", "--u", "-2:2:5", "--eta", "-2:2:5"]

    def outputs():
        assert main(argv) == 0
        return (make_spec(9.0, 2.0), band_spec(300.0, 9.0, 2.0),
                capsys.readouterr().out)

    monkeypatch.delenv("SUPERSTFT_QUAD_NODES", raising=False)
    unset = outputs()
    assert unset[0].nodes_per_unit == 64 and unset[1].nodes_per_unit == 96
    monkeypatch.setenv("SUPERSTFT_QUAD_NODES", "16")
    assert outputs() == unset


def test_band_spec_resolves_the_band():
    """int e^{-t^2/2 + i w t} dt = sqrt(2 pi) e^{-w^2/2}, 0 in double
    precision at w = 50.  The spectrum ends near |w| + 9, so the band rule
    takes 19 nodes per unit and is exact up to the roundoff of the phase
    w t, |w t| <= 850 (6e-14); at 16 the coarse trapezoid of Simpson's
    rule aliases the peak at w to w - 16 pi = -0.27."""
    f = lambda t: np.exp(-t * t / 2.0 + 50j * t)
    spec = band_spec(9.0 + 50.0, 9.0)
    assert spec.nodes_per_unit == 19
    assert abs(integrate(f, spec)) < 1e-12
    assert abs(integrate(f, QuadratureSpec(spec.truncation_radius, 16))) > 0.1


def test_spec_validation():
    for radius in (0.0, math.inf):
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_radius=radius)
    with pytest.raises(ValueError):
        QuadratureSpec(truncation_radius=1.0, nodes_per_unit=8)


def test_spec_is_a_frozen_hashable_value():
    """Equal specs hash alike (so distinct rules can be counted) and a spec
    cannot be changed after construction."""
    a, b = QuadratureSpec(3.0, 24), QuadratureSpec(3.0, 24)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, QuadratureSpec(3.0)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.nodes_per_unit = 32


def test_infinite_decay_radius_is_a_value_error():
    """A window whose decay radius is infinite sizes no rule: stft refuses
    the box by name instead of overflowing when it counts the nodes."""
    wide = custom_window(lambda t: np.exp(-np.abs(t)), decay_radius=math.inf)
    with pytest.raises(ValueError, match="truncation_radius"):
        stft(wide, gaussian_window(), 0.5, 1.0)


def test_nonfinite_integrand_raises():
    spec = QuadratureSpec(truncation_radius=2.0)
    with np.errstate(divide="ignore"):
        with pytest.raises(FloatingPointError):
            integrate(lambda t: 1.0 / t, spec)  # hits t = 0 -> inf


def test_weights_integrate_constants():
    """Weights sum to the interval length."""
    spec = QuadratureSpec(truncation_radius=3.0, nodes_per_unit=24)
    x, w = nodes_weights(spec)
    assert x.shape == w.shape
    assert abs(w.sum() - 6.0) < 1e-12


TINY = np.finfo(float).tiny
SUB = TINY / 4.0  # a subnormal double


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_guard_zeroes_subnormal_components_in_place():
    """Subnormals of both signs go to zero in the real and the imaginary
    part; every normal component keeps its exact bits."""
    vals = np.array([complex(SUB, 1.5), complex(-SUB, -SUB),
                     complex(2.0, -SUB), complex(-3.25, SUB),
                     complex(TINY, -TINY), complex(0.0, 5e-324),
                     complex(1e-300, -7.0)])
    before = vals.copy()
    out = _guard(vals)
    assert out is vals
    expect = np.array([complex(0.0, 1.5), 0.0, complex(2.0, 0.0),
                       complex(-3.25, 0.0), complex(TINY, -TINY), 0.0,
                       complex(1e-300, -7.0)])
    assert np.array_equal(_bits(vals), _bits(expect))
    # a complex value with one subnormal part keeps its normal part exactly
    assert _bits(vals.real[2]) == _bits(before.real[2])
    assert _bits(vals.imag[0]) == _bits(before.imag[0])
    assert _bits(vals.real[6]) == _bits(before.real[6])


def test_guard_real_and_blocked_arrays():
    """Real arrays are cleaned too, and arrays larger than one guard block
    are cleaned in every block."""
    real = np.array([SUB, -SUB, 1.0, -TINY, 0.0])
    _guard(real)
    assert np.array_equal(_bits(real), _bits(np.array([0.0, 0.0, 1.0, -TINY, 0.0])))
    big = np.ones((5, 50_000), dtype=complex)
    big[:, ::7] = complex(-SUB, SUB)
    _guard(big)
    assert np.array_equal(big[:, ::7], np.zeros((5, big[:, ::7].shape[1])))
    assert np.all(np.delete(big, np.s_[::7], axis=1) == 1.0)
    scalar = np.array(complex(SUB, 2.0))
    _guard(scalar)
    assert scalar == 2.0j


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 complex(1.0, np.nan), complex(np.inf, 0.0)])
def test_guard_rejects_non_finite(bad):
    vals = np.ones((4, 40_000), dtype=complex)
    vals[3, -1] = bad  # in the last block, after earlier blocks were cleaned
    with pytest.raises(FloatingPointError, match="non-finite integrand"):
        _guard(vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_guard_rejects_non_finite_real(bad):
    with pytest.raises(FloatingPointError, match="non-finite integrand"):
        _guard(np.array([1.0, SUB, bad]))


def test_integrate_leaves_callers_array_untouched():
    """The guard cleans a private copy: an array the integrand returns (and
    still owns) keeps its subnormal entries, and read-only arrays work."""
    spec = QuadratureSpec(truncation_radius=1.0, nodes_per_unit=16)
    x, _ = nodes_weights(spec)
    data = np.full(x.shape, SUB)
    data[0] = 1.0
    integrate(lambda t: data, spec)
    assert np.count_nonzero(data == SUB) == data.size - 1
    frozen = np.broadcast_to(np.float64(2.0), x.shape)
    assert abs(integrate(lambda t: frozen, spec) - 4.0) < 1e-13
