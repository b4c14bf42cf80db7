import math
import re

import numpy as np
import pytest

from oracles import f_n_direct
from superstft.superosc import (SuperoscParams, coefficients, f_n,
                                frequencies, supershift_probe)

rng = np.random.default_rng(7)


def test_params_validation():
    with pytest.raises(ValueError):
        SuperoscParams(a=2.0, n=0)
    with pytest.raises(ValueError):
        SuperoscParams(a=math.inf, n=3)
    assert SuperoscParams(a=2.0, n=3).is_superoscillatory
    assert not SuperoscParams(a=0.5, n=3).is_superoscillatory


def test_params_refuse_a_non_integer_order():
    """A float n, even an integral one, is refused by name: F_n would be a
    principal-branch power, and the coefficients could not be formed."""
    for n in (2.5, 2.0, "3"):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            SuperoscParams(a=2.0, n=n)
    p = SuperoscParams(a=2.0, n=np.int64(3))
    np.testing.assert_array_equal(coefficients(p),
                                  coefficients(SuperoscParams(a=2.0, n=3)))


def test_supershift_probe_calls_its_terms_once_on_the_frequency_vector():
    p = SuperoscParams(a=2.0, n=5)
    seen = []

    def terms_at(w):
        seen.append(w)
        return np.multiply.outer(w, np.ones((2, 3)))

    probe = supershift_probe(terms_at, p)
    assert len(seen) == 1 and seen[0].shape == (6,)
    np.testing.assert_array_equal(seen[0], frequencies(p))
    assert probe.shape == (2, 3)
    assert type(supershift_probe(lambda w: w, p)) is complex


def test_every_whole_term_sum_forms_its_coefficients_in_superosc(monkeypatch):
    """One route: each whole-term coefficient sum forms C_j through
    superosc.coefficients, which supershift_probe calls."""
    from superstft import superosc
    from superstft.approx import (approximating_function,
                                  stft_approx_via_ambiguity)
    from superstft.evolution import evolve_superosc, evolve_superosc_signal
    from superstft.kernels import (norm_sq_closed_gaussian,
                                   norm_sq_closed_hermite,
                                   stft_superosc_fock_form)
    from superstft.signals import gaussian_window, hermite_window
    from superstft.zak import zak_superosc_termwise

    calls = []
    original = superosc.coefficients

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(superosc, "coefficients", counting)
    p, g = SuperoscParams(a=1.5, n=3), gaussian_window()
    sums = {
        "evolve_superosc": lambda: evolve_superosc(p, 0.3, 0.2),
        "evolve_superosc_signal": lambda: evolve_superosc_signal(
            hermite_window(1), 0.5, p, 0.3, 0.2),
        "norm_sq_closed_gaussian": lambda: norm_sq_closed_gaussian(0.4, p),
        "norm_sq_closed_hermite": lambda: norm_sq_closed_hermite(1, 2, 0.3, p),
        "stft_superosc_fock_form": lambda: stft_superosc_fock_form(
            0.5, p, 0.3, 0.7),
        "zak_superosc_termwise": lambda: zak_superosc_termwise(
            g, 0.5, p, 0.3, 1.1),
        "approximating_function": lambda: approximating_function(g, p)(0.2),
        "stft_approx_via_ambiguity": lambda: stft_approx_via_ambiguity(
            g, p, 0.3, 0.5),
    }
    formed = {}
    for name, run in sums.items():
        del calls[:]
        run()
        formed[name] = len(calls)
    # the closed norms are two nested contractions, the others one
    assert formed == {name: 2 if name.startswith("norm") else 1
                      for name in sums}, formed


def test_coefficient_sums():
    """sum C_j = 1 always; sum |C_j| = max(1,|a|)^n."""
    for a in (0.5, 1.5, 2.0, -3.0):
        for n in (1, 2, 5, 12):
            c = coefficients(SuperoscParams(a=a, n=n))
            assert abs(c.sum() - 1.0) < 1e-12
            assert abs(np.abs(c).sum() - max(1.0, abs(a)) ** n) < 1e-9 * max(1.0, abs(a)) ** n
    # the largest n whose binomials stay in double range
    c = coefficients(SuperoscParams(a=0.5, n=1029))
    assert abs(c.sum() - 1.0) < 1e-12 and abs(np.abs(c).sum() - 1.0) < 1e-12


@pytest.mark.parametrize("a, n", [(0.5, 1100), (2.0, 1000), (1e200, 2)])
def test_coefficient_overflow_names_n_and_a(a, n):
    """Binomials past the double range, a product that overflows to inf,
    and a power that overflows: each is a ValueError naming n and a."""
    with pytest.raises(ValueError, match=re.escape(f"n = {n}, a = {a}")):
        coefficients(SuperoscParams(a=a, n=n))


def test_frequencies_band():
    w = frequencies(SuperoscParams(a=2.0, n=6))
    assert w[0] == 1.0 and w[-1] == -1.0
    assert len(w) == 7
    assert np.all(np.diff(w) < 0)
    assert np.max(np.abs(w)) <= 1.0


def test_product_form_matches_sum():
    """The stable product form equals the explicit exponential sum."""
    t = np.linspace(-4.0, 4.0, 41)
    for a in (1.5, 2.0):
        for n in (1, 3, 8):
            p = SuperoscParams(a=a, n=n)
            np.testing.assert_allclose(f_n(p, t), f_n_direct(p, t),
                                       rtol=0, atol=1e-10 * (1 + a) ** n)


def test_f_n_at_zero_and_scalar_return():
    p = SuperoscParams(a=2.0, n=4)
    assert f_n(p, 0.0) == 1.0
    assert isinstance(f_n(p, 0.3), complex)
    assert f_n(p, np.array([0.1, 0.2])).shape == (2,)


def test_f_n_superoscillates_locally():
    """Near t = 0 the sequence tracks e^{i a t} ever better as n grows."""
    a = 2.0
    t = np.linspace(-0.5, 0.5, 11)
    errs = []
    for n in (5, 20, 80):
        p = SuperoscParams(a=a, n=n)
        errs.append(np.max(np.abs(f_n(p, t) - np.exp(1j * a * t))))
    assert errs[2] < errs[1] < errs[0]
    # first-order rate in 1/n: 16x more terms -> ~16x smaller error
    assert errs[2] < 0.1 * errs[0]


def test_supershift_probe_exponential():
    """Probing w -> e^{i w y} reproduces F_n(y) by definition."""
    p = SuperoscParams(a=2.0, n=6)
    for y in (-1.3, 0.0, 0.8):
        probe = supershift_probe(lambda w: np.exp(1j * w * y), p)
        assert abs(probe - f_n(p, y)) < 1e-12


def test_supershift_probe_linear_exact():
    """sum C_j omega_j = a exactly (first-moment identity)."""
    for a in (1.5, -2.5):
        for n in (2, 7):
            p = SuperoscParams(a=a, n=n)
            assert abs(supershift_probe(lambda w: w, p) - a) < 1e-10


def test_supershift_probe_array_values():
    p = SuperoscParams(a=1.5, n=4)
    y = np.linspace(-1, 1, 5)
    probe = supershift_probe(lambda w: np.exp(1j * np.multiply.outer(w, y)), p)
    np.testing.assert_allclose(probe, f_n(p, y), atol=1e-12)


def test_approximating_sequence_supershift():
    """sum C_j psi(x + omega_j) approaches psi(x + a) as n grows."""
    psi = lambda t: np.exp(-t * t / 2.0)
    a, x = 1.5, 0.3
    target = psi(x + a)
    errs = [abs(supershift_probe(lambda w: psi(x + w), SuperoscParams(a=a, n=n))
                - target)
            for n in (10, 40)]
    assert errs[1] < 0.6 * errs[0]


def test_public_names_resolve():
    import superstft

    for name in superstft.__all__:
        assert hasattr(superstft, name), name
