"""Scalar special functions used everywhere else.

Hermite polynomials/functions, generalized Laguerre polynomials, the
2D-complex Hermite polynomials H_{k,l}(z, w), a truncated Jacobi theta
series, and the Gaussian integral.  Evaluation uses recurrences where the
explicit sums would lose precision.  H_{k,l} keeps its sum (orders up to
32) for complex arguments; at conjugate arguments, where the sum cancels,
kernels.hermite_pair_integral evaluates it as (-1)^j j! z^d L_j^{(d)}(|z|^2).
"""

import math
from functools import lru_cache

import numpy as np

MAX_HERMITE_ORDER = 64
MAX_COMPLEX_HERMITE_ORDER = 32

SQRT_PI = math.sqrt(math.pi)
SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi

_QUARTER_TURNS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def ipow(n):
    """i**n by exact quarter-turn lookup (n any integer); keeps identity
    tests bit-exact where complex exponentiation would drift."""
    return _QUARTER_TURNS[n % 4]


def _as_result(out):
    """A 0-d result as a Python complex, any other array unchanged."""
    return complex(out) if np.ndim(out) == 0 else out


def _finite(name, values):
    """values as a float array (complex for complex input); a NaN or
    infinite entry is a ValueError that names the argument."""
    arr = np.asarray(values)
    if arr.dtype.kind != "c":
        arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _descalarize(t, dtype=float):
    arr = np.asarray(t, dtype=dtype)
    return arr, arr.ndim == 0


def hermite_polynomial(n, t):
    """Physicists' Hermite polynomial H_n(t) by the three-term recurrence
    H_{n+1} = 2 t H_n - 2 n H_{n-1}.

    Accepts scalars or arrays.  Orders above 64 are refused: the values
    overflow for moderate |t| and nothing here needs them.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if n > MAX_HERMITE_ORDER:
        raise ValueError(f"order {n} exceeds supported maximum {MAX_HERMITE_ORDER}")
    t, scalar = _descalarize(t)
    h_prev = np.ones_like(t)
    if n == 0:
        return float(h_prev) if scalar else h_prev
    h = 2.0 * t
    for k in range(1, n):
        h, h_prev = 2.0 * t * h - 2.0 * k * h_prev, h
    return float(h) if scalar else h


def hermite_function(n, t):
    """Hermite function h_n(t) = e^{-t^2/2} H_n(t).

    NOT unit-normalized: the squared L2 norm is 2^n n! sqrt(pi).
    """
    t, scalar = _descalarize(t)
    out = np.exp(-t * t / 2.0) * hermite_polynomial(n, t)
    return float(out) if scalar else out


def hermite_norm_sq(n):
    """Squared L2 norm of h_n: 2^n n! sqrt(pi)."""
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    return (2.0 ** n) * math.factorial(n) * SQRT_PI


def laguerre(n, x, alpha=0):
    """Generalized Laguerre polynomial L_n^{(alpha)}(x) by the recurrence
    (k + 1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    x, scalar = _descalarize(x)
    l_prev = np.ones_like(x)
    if n == 0:
        return float(l_prev) if scalar else l_prev
    l_cur = 1.0 + alpha - x
    for k in range(1, n):
        l_cur, l_prev = (((2 * k + 1 + alpha - x) * l_cur
                          - (k + alpha) * l_prev) / (k + 1.0), l_cur)
    return float(l_cur) if scalar else l_cur


@lru_cache(maxsize=None)
def _complex_hermite_coeffs(k, l):
    # (-1)^j j! C(k,j) C(l,j) computed in exact integer arithmetic
    return tuple(
        (j, float((-1) ** j * math.factorial(j) * math.comb(k, j) * math.comb(l, j)))
        for j in range(min(k, l) + 1)
    )


def complex_hermite_2d(k, l, z, w):
    """2D-complex Hermite polynomial
    H_{k,l}(z, w) = sum_j (-1)^j j! C(k,j) C(l,j) z^{l-j} w^{k-j}.

    Note the index/argument pairing: the first index k rides on w, the
    second index l rides on z.  H_{k,0}(z, w) = w^k; H_{m,m}(0, 0) =
    (-1)^m m! (numpy's 0**0 = 1 gives the j = m term cleanly).
    Accepts scalars or broadcasting arrays; orders up to 32.
    """
    if k < 0 or l < 0:
        raise ValueError(f"orders must be nonnegative, got ({k}, {l})")
    if k > MAX_COMPLEX_HERMITE_ORDER or l > MAX_COMPLEX_HERMITE_ORDER:
        raise ValueError(
            f"orders ({k}, {l}) exceed supported maximum {MAX_COMPLEX_HERMITE_ORDER}"
        )
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    out = np.zeros(np.broadcast(z, w).shape, dtype=complex)
    for j, c in _complex_hermite_coeffs(k, l):
        out = out + c * z ** (l - j) * w ** (k - j)
    return complex(out) if out.ndim == 0 else out


def complex_hermite_generating_sum(z, w, u, v, K):
    """Truncated double sum  sum_{k,l <= K} H_{k,l}(z,w) u^k v^l / (k! l!).

    Converges to exp(u*w + v*z - u*v); the index k pairs with w and l
    pairs with z, matching the pairing inside H_{k,l} itself.  z, w, u and
    v broadcast together; a scalar call returns a complex.
    """
    return _as_result(sum(complex_hermite_2d(k, l, z, w) * u ** k * v ** l
                          / (math.factorial(k) * math.factorial(l))
                          for k in range(K + 1) for l in range(K + 1)))


def theta(z, tau):
    """Jacobi theta series  sum_k exp(i pi k^2 tau + 2 pi i k z).

    Requires Im(tau) > 0.  The terms of one z peak at k = -Im z / Im tau
    and fall below 1e-14 of the peak beyond r = sqrt(14 ln10 / (pi Im tau))
    of it, so the sum is truncated at |k| <= K with
    K = max(ceil(r) + 2, ceil(r + max|Im z| / Im tau)), which covers every
    peak of the z given.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError(f"theta requires Im(tau) > 0, got {tau}")
    z, scalar = _descalarize(z, dtype=complex)
    r = math.sqrt(14.0 * math.log(10.0) / (math.pi * tau.imag))
    peak = float(np.max(np.abs(z.imag), initial=0.0)) / tau.imag
    K = max(math.ceil(r) + 2, math.ceil(r + peak))
    k = np.arange(-K, K + 1)
    terms = np.exp(1j * math.pi * k ** 2 * tau
                   + 2j * math.pi * np.multiply.outer(z, k))
    out = terms.sum(axis=-1)
    return complex(out) if scalar else out


def gaussian_integral(alpha, w):
    """Closed form of the Gaussian integral:
    int e^{-alpha t^2 + w t} dt = sqrt(pi/alpha) e^{w^2/(4 alpha)},
    for real alpha > 0 and complex w."""
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError(f"gaussian_integral requires alpha > 0, got {alpha}")
    w = np.asarray(w, dtype=complex)
    out = math.sqrt(math.pi / alpha) * np.exp(w * w / (4.0 * alpha))
    return complex(out) if out.ndim == 0 else out
