"""High-precision reference values, independent of the package under test.

Everything here is evaluated with mpmath at ``DPS`` significant digits from
the defining formulas, so the coefficient sums keep their full dynamic range
(sum |C_j| = max(1, |a|)^n) and the reference does not share the package's
cancellation.  Nothing in this module imports ``superstft``.

Conventions (the package's):

* F_n(t) = sum_j C_j e^{i w_j t},  C_j = C(n,j) ((1+a)/2)^{n-j} ((1-a)/2)^j,
  w_j = 1 - 2j/n;
* h_m(t) = e^{-t^2/2} H_m(t) (physicists' Hermite, un-normalized);
* the spectrogram signal is S(t) = F_n(t) h_m(t - x) and
  V(u, eta) = int e^{-i t eta} S(t) h_m(t - u) dt;
* free evolution i d/dt phi = -d^2/dx^2 phi, without the 1/(2 pi) of the
  inverse Fourier transform (so t = 0 gives 2 pi times the datum).
"""

from functools import lru_cache

import mpmath

DPS = 80

_MP = mpmath.MPContext()
_MP.dps = DPS


def _mpf(v):
    return _MP.mpf(v)


@lru_cache(maxsize=None)
def superosc_terms(n, a):
    """(C_j, w_j) for j = 0..n at DPS digits; a is taken exactly as given."""
    a = _mpf(a)
    plus, minus = (1 + a) / 2, (1 - a) / 2
    return tuple((_MP.binomial(n, j) * plus ** (n - j) * minus ** j,
                  1 - _mpf(2 * j) / n) for j in range(n + 1))


@lru_cache(maxsize=None)
def hermite_coeffs(m):
    """Integer coefficients of the physicists' H_m, lowest degree first."""
    prev, cur = [1], [0, 2]
    if m == 0:
        return tuple(prev)
    for k in range(1, m):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt
    return tuple(cur)


def hermite_value(m, z):
    """H_m(z) for real or complex mp z, by the three-term recurrence."""
    prev, cur = _MP.mpf(1), 2 * z
    if m == 0:
        return prev
    for k in range(1, m):
        prev, cur = cur, 2 * z * cur - 2 * k * prev
    return cur


def _shifted_poly(m, d):
    """Coefficients in s of H_m(s + d), lowest degree first."""
    out = [_MP.mpf(0)] * (m + 1)
    for k, h in enumerate(hermite_coeffs(m)):
        # (s + d)^k = sum_i C(k, i) s^i d^{k-i}
        for i in range(k + 1):
            out[i] += h * _MP.binomial(k, i) * d ** (k - i)
    return out


def _pair_poly(m, d):
    """Coefficients in s of H_m(s - d) H_m(s + d)."""
    lo, hi = _shifted_poly(m, -d), _shifted_poly(m, d)
    out = [_MP.mpf(0)] * (2 * m + 1)
    for i, ci in enumerate(lo):
        for j, cj in enumerate(hi):
            out[i + j] += ci * cj
    return out


def _moment_terms(terms, eta, degree):
    """Per term j and power p: C_j e^{-nu^2/4} (i/2)^p H_p(nu/2), nu = w_j - eta.
    With them, int e^{-s^2 + i s nu} s^p ds = sqrt(pi) (i/2)^p H_p(nu/2)
    e^{-nu^2/4} turns each polynomial moment into a finite sum."""
    out = []
    for c, w in terms:
        nu = w - eta
        scale = c * _MP.exp(-nu * nu / 4)
        row, h_prev, h_cur, ipow = [], _MP.mpf(1), nu, _MP.mpc(1)
        for p in range(degree + 1):
            row.append(scale * ipow * (h_prev if p == 0 else h_cur))
            ipow *= _MP.mpc(0, 0.5)
            if p >= 1:
                h_prev, h_cur = h_cur, nu * h_cur - 2 * p * h_prev
        out.append(row)
    return out


def stft_superosc_cells(order, x, n, a, cells):
    """Reference V(u, eta) of S(t) = F_n(t) h_m(t - x) against h_m at each
    (u, eta) in ``cells``: (values, term_sums), two lists of Python complex
    and float numbers.  ``term_sums`` holds sum_j |term j| per cell, the
    scale of the roundoff a floating-point sum over j cannot avoid.

    Substituting t = s + (x + u)/2, d = (x - u)/2, nu = w_j - eta turns term j
    into e^{i (x+u) nu / 2 - d^2} int e^{-s^2 + i s nu} H_m(s - d) H_m(s + d) ds,
    a finite sum of Gaussian moments (exact for any m).  Factors that depend
    only on u or only on eta are computed once per distinct value."""
    terms = superosc_terms(n, a)
    x = _mpf(x)
    by_u, by_eta = {}, {}
    values, term_sums = [], []
    for u, eta in cells:
        if u not in by_u:
            um = _mpf(u)
            d, mid = (x - um) / 2, (x + um) / 2
            by_u[u] = (mid, _pair_poly(order, d),
                       [_MP.expj(mid * w) for _, w in terms],
                       _MP.sqrt(_MP.pi) * _MP.exp(-d * d))
        if eta not in by_eta:
            by_eta[eta] = _moment_terms(terms, _mpf(eta), 2 * order)
        mid, poly, phases, scale = by_u[u]
        inner = [_MP.fsum(c * m for c, m in zip(poly, row)) for row in by_eta[eta]]
        total = _MP.fsum(phase * v for phase, v in zip(phases, inner))
        values.append(complex(scale * _MP.expj(-mid * _mpf(eta)) * total))
        term_sums.append(float(scale * _MP.fsum(abs(v) for v in inner)))
    return values, term_sums


def coefficient_abs_sum(n, a):
    """sum_j |C_j| = max(1, |a|)^n: the term sum of the evolve mode sum,
    whose terms C_j e^{i theta} have modulus |C_j|."""
    return float(_MP.fsum(abs(c) for c, _ in superosc_terms(n, a)))


def evolve_superosc_points(n, a, points):
    """sum_j C_j e^{i w_j y - i w_j^2 t} at each (y, t)."""
    terms = superosc_terms(n, a)
    out = []
    for y, t in points:
        y, t = _mpf(y), _mpf(t)
        out.append(complex(_MP.fsum(c * _MP.expj(w * y - w * w * t)
                                    for c, w in terms)))
    return out


def evolve_gaussian_points(x0, k0, points):
    """Evolved Gaussian atom 2 pi (1 + 2it)^{-1/2} e^{i x0 k0 - k0^2/2}
    e^{[k0 + i (x - x0)]^2 / (2 (1 + 2 i t))} at each (x, t)."""
    x0, k0 = _mpf(x0), _mpf(k0)
    out = []
    for x, t in points:
        x, t = _mpf(x), _mpf(t)
        den = 1 + 2j * t
        val = (2 * _MP.pi / _MP.sqrt(den)
               * _MP.exp(1j * x0 * k0 - k0 * k0 / 2
                         + (k0 + 1j * (x - x0)) ** 2 / (2 * den)))
        out.append(complex(val))
    return out


def hermite_gauss_fourier(m, alpha, y):
    """int e^{-alpha u^2 + i y u} H_m(u) du for Re alpha > 0:
    sqrt(pi/alpha) e^{-y^2/(4 alpha)} gamma^m H_m(i y / (2 alpha gamma)),
    gamma^2 = 1 - 1/alpha, written as a polynomial in gamma^2 so no branch
    of gamma is needed."""
    w = 1j * y / (2 * alpha)
    g2 = 1 - 1 / alpha
    total = _MP.mpc(0)
    for k in range(m // 2 + 1):
        c = ((-1) ** k * _MP.factorial(m)
             / (_MP.factorial(k) * _MP.factorial(m - 2 * k)))
        total += c * (2 * w) ** (m - 2 * k) * g2 ** k
    return _MP.sqrt(_MP.pi / alpha) * _MP.exp(-y * y / (4 * alpha)) * total


def evolve_hermite_points(m, x0, k0, points):
    """Evolved Hermite atom sqrt(2 pi) (-i)^m e^{i k0 x - i k0^2 t}
    int e^{-i u^2 t + i u (x - x0 - 2 k0 t)} h_m(u) du at each (x, t)."""
    x0, k0 = _mpf(x0), _mpf(k0)
    out = []
    for x, t in points:
        x, t = _mpf(x), _mpf(t)
        alpha = _MP.mpc(0.5, t)
        y = x - x0 - 2 * k0 * t
        val = (_MP.sqrt(2 * _MP.pi) * _MP.mpc(0, -1) ** m
               * _MP.expj(k0 * x - k0 * k0 * t)
               * hermite_gauss_fourier(m, alpha, y))
        out.append(complex(val))
    return out


def _zak_terms(value_at, u, eta, kmax):
    u, eta = _mpf(u), _mpf(eta)
    return _MP.fsum(value_at(u - k) * _MP.expj(k * eta)
                    for k in range(-kmax, kmax + 1))


def zak_abs(kind, order, n, a, points, kmax=40):
    """|Z f(u, eta)| = |sum_k f(u - k) e^{i k eta}| for f = h_m
    (kind 'hermite') or f(t) = F_n(t) e^{-t^2/2} (kind 'superosc-gaussian').
    kmax = 40 leaves tails below e^{-700} times max |F_n| for the orders
    used here."""
    if kind == "hermite":
        def value_at(t):
            return _MP.exp(-t * t / 2) * hermite_value(order, t)
    else:
        terms = superosc_terms(n, a)

        def value_at(t):
            return (_MP.exp(-t * t / 2)
                    * _MP.fsum(c * _MP.expj(w * t) for c, w in terms))
    return [float(abs(_zak_terms(value_at, u, eta, kmax))) for u, eta in points]


# ---------------------------------------------------------------------------
# defining integrals, for cross-checking the formulas above
# ---------------------------------------------------------------------------

def stft_superosc_quad(order, x, n, a, u, eta):
    """V(u, eta) by mpmath.quad of the defining integral over R."""
    terms = superosc_terms(n, a)
    x, u, eta = _mpf(x), _mpf(u), _mpf(eta)

    def integrand(t):
        f = _MP.fsum(c * _MP.expj(w * t) for c, w in terms)
        return (_MP.expj(-t * eta) * f
                * _MP.exp(-(t - x) ** 2 / 2) * hermite_value(order, t - x)
                * _MP.exp(-(t - u) ** 2 / 2) * hermite_value(order, t - u))
    return complex(_MP.quad(integrand, [-_MP.inf, (x + u) / 2, _MP.inf]))


def evolve_momentum_quad(order, x0, k0, x, t):
    """Evolved atom of h_m by mpmath.quad of the defining momentum-space
    integral int e^{-i x0 (p - k0)} F(h_m)(p - k0) e^{-i p^2 t + i p x} dp,
    F(h_m)(p) = sqrt(2 pi) (-i)^m h_m(p)."""
    x0, k0, x, t = _mpf(x0), _mpf(k0), _mpf(x), _mpf(t)

    def integrand(p):
        q = p - k0
        fg = (_MP.sqrt(2 * _MP.pi) * _MP.mpc(0, -1) ** order
              * _MP.exp(-q * q / 2) * hermite_value(order, q))
        return _MP.expj(-x0 * q) * fg * _MP.expj(-p * p * t + p * x)
    return complex(_MP.quad(integrand, [-_MP.inf, k0, _MP.inf]))


def f_n_product(n, a, y):
    """F_n(y) from the product form (cos(y/n) + i a sin(y/n))^n, the
    definition the mode sum must reproduce at t = 0."""
    y, a = _mpf(y), _mpf(a)
    return complex((_MP.cos(y / n) + 1j * a * _MP.sin(y / n)) ** n)
