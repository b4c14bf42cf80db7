"""Scalar special functions used everywhere else.

Hermite polynomials/functions, generalized Laguerre polynomials, the
2D-complex Hermite polynomials H_{k,l}(z, w), a truncated Jacobi theta
series, and the Gaussian integral.  Evaluation uses recurrences where the
explicit sums would lose precision.  H_{k,l} keeps its sum (orders up to
32) for complex arguments; at conjugate arguments, where the sum cancels,
kernels.hermite_pair_integral evaluates it as (-1)^j j! z^d L_j^{(d)}(|z|^2).
"""

import itertools
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


def _flat_points(*values):
    """The broadcast shape of values, and each value broadcast to it and
    raveled to 1-D, so that a scalar call does the array arithmetic of each
    point of an array call."""
    arrays = np.broadcast_arrays(*(np.asarray(v) for v in values))
    return arrays[0].shape, [a.ravel() for a in arrays]


def _order_sum(terms):
    """terms of shape (K + 1, K + 1, P) summed over the two order axes, as
    one contiguous sum per point, whose additions do not depend on P."""
    flat = terms.reshape(terms.shape[0] * terms.shape[1], -1)
    return np.ascontiguousarray(flat.T).sum(axis=-1)


def _descalarize(t, dtype=float):
    arr = np.asarray(t, dtype=dtype)
    return arr, arr.ndim == 0


def _mirror_start(a):
    """len(a) // 2 when the 1-D axis a is its own exact mirror, a == -a[::-1]."""
    a = np.asarray(a)
    return len(a) // 2 if a.ndim == 1 and np.array_equal(a, -a[::-1]) else 0


def _phase_outer(a, b):
    """e^{-i a b} on the outer product of the real arrays a and b, the
    values of np.exp(-1j * np.multiply.outer(a, b)) to the bit: the product
    goes straight into the imaginary part of one complex array, which is
    exponentiated in place, with no complex product and no second array.
    When a is an exact mirror (_mirror_start) only the rows from the middle
    on are exponentiated: the row of -a_i is the conjugate of the row of
    a_i, as it is in exp (cos even, sin odd)."""
    out = np.zeros(np.shape(a) + np.shape(b), dtype=complex)
    m = _mirror_start(a)
    rows = out[m:] if m else out
    np.multiply.outer(a[m:] if m else a, b, out=rows.imag)
    np.negative(rows.imag, out=rows.imag)
    np.exp(rows, out=rows)
    if m:
        np.conjugate(out[len(a) - m:], out=out[m - 1::-1])
    return out


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


def _laguerre_steps(x, alpha):
    """L_0^{(alpha)}(x), L_1^{(alpha)}(x), ... for a float array x, one
    degree per step of the recurrence
    (k + 1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}."""
    l_prev = np.ones_like(x)
    yield l_prev
    l_cur = 1.0 + alpha - x
    for k in itertools.count(1):
        yield l_cur
        l_cur, l_prev = (((2 * k + 1 + alpha - x) * l_cur
                          - (k + alpha) * l_prev) / (k + 1.0), l_cur)


def laguerre(n, x, alpha=0):
    """Generalized Laguerre polynomial L_n^{(alpha)}(x), the degree-n step
    of _laguerre_steps."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    x, scalar = _descalarize(x)
    out = next(itertools.islice(_laguerre_steps(x, alpha), n, None))
    return float(out) if scalar else out


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


@lru_cache(maxsize=None)
def _complex_hermite_coeff_table(K):
    """Read-only c[j, k, l] = (-1)^j j! C(k,j) C(l,j) for j, k, l <= K, the
    coefficients of _complex_hermite_coeffs (0 where j > min(k, l))."""
    c = np.zeros((K + 1,) * 3)
    for k in range(K + 1):
        for l in range(K + 1):
            for j, cj in _complex_hermite_coeffs(k, l):
                c[j, k, l] = cj
    c.flags.writeable = False
    return c


def _powers(x, K):
    """x ** 0, ..., x ** K stacked on a new first axis, each power taken as
    complex_hermite_2d takes it."""
    return np.stack([x ** e for e in range(K + 1)])


def _complex_hermite_table(K, z, w):
    """H_{k,l}(z, w) for every k, l <= K, one array of shape
    (K + 1, K + 1) + the broadcast shape of z and w.  The j-sum of
    complex_hermite_2d runs over the whole table at once, in the same order
    and on the same powers, so for array arguments each entry is
    complex_hermite_2d(k, l, z, w) to the bit (a 0-d call of that function
    runs on numpy scalars, whose arithmetic can differ in the last bit)."""
    if not 0 <= K <= MAX_COMPLEX_HERMITE_ORDER:
        raise ValueError(f"order {K} outside 0..{MAX_COMPLEX_HERMITE_ORDER}")
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex),
                               np.asarray(w, dtype=complex))
    zp, wp = _powers(z, K), _powers(w, K)
    coeff = _complex_hermite_coeff_table(K).reshape(
        (K + 1,) * 3 + (1,) * z.ndim)
    table = np.zeros((K + 1, K + 1) + z.shape, dtype=complex)
    for j in range(K + 1):
        # H_{k,l} += c_j(k, l) z^{l-j} w^{k-j} for k, l >= j
        top = K + 1 - j
        table[j:, j:] += coeff[j, j:, j:] * zp[None, :top] * wp[:top, None]
    return table


def complex_hermite_generating_sum(z, w, u, v, K):
    """Truncated double sum  sum_{k,l <= K} H_{k,l}(z,w) u^k v^l / (k! l!).

    Converges to exp(u*w + v*z - u*v); the index k pairs with w and l
    pairs with z, matching the pairing inside H_{k,l} itself.  z, w, u and
    v broadcast together; a scalar call returns a complex.  The orders form
    one table (_complex_hermite_table), K at most 32.
    """
    shape, (z, w, u, v) = _flat_points(z, w, u, v)
    fact = np.array([float(math.factorial(k)) for k in range(K + 1)])
    weights = (_powers(u, K)[:, None] * _powers(v, K)[None, :]
               / np.multiply.outer(fact, fact)[:, :, None])
    return _as_result(_order_sum(_complex_hermite_table(K, z, w) * weights)
                      .reshape(shape))


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
