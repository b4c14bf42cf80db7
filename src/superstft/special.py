"""Scalar special functions used everywhere else.

Hermite polynomials/functions, generalized Laguerre polynomials, the
2D-complex Hermite polynomials H_{k,l}(z, w) and a truncated Jacobi theta
series.  Evaluation uses recurrences where the explicit sums would lose
precision.  H_{k,l} is evaluated in its Laguerre form
(-1)^j j! z^{l-k} L_j^{(l-k)}(zw), j = min(k, l), for real and complex
arguments alike; its order tables, and those of
kernels.hermite_pair_integral, come from one builder, _laguerre_table.
"""

import itertools
import math

import numpy as np

MAX_HERMITE_ORDER = 64

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


def _real_phase_product(a, t, eta):
    """a @ e^{-i t eta} for a real matrix a whose columns sample the 1-D
    axis t, as two real matrix products in place of one complex one.  a
    folds into its even and odd parts over +-t, which meet cos and sin on
    t >= 0 only, so t must be an exact mirror (_mirror_start), as every
    nodes_weights rule is; any other t is a ValueError.  When eta is an
    exact mirror, its upper half is contracted and the other columns filled
    by V(-eta) = conj V(eta).  The phase table is _phase_outer's, so
    np.exp's bits; the values agree with the complex product to rounding."""
    m = _mirror_start(t)
    if not m:
        raise ValueError("the t axis must be an exact mirror, t == -t[::-1]")
    even, odd, tail = a[:, m:].copy(), a[:, m:].copy(), a[:, m - 1::-1]
    even[:, len(t) - 2 * m:] += tail
    odd[:, len(t) - 2 * m:] -= tail
    k = _mirror_start(eta)
    e = _phase_outer(t[m:], eta[k:])
    out = np.empty(a.shape[:1] + eta.shape, dtype=complex)
    out.real[:, k:] = even @ np.ascontiguousarray(e.real)
    out.imag[:, k:] = odd @ np.ascontiguousarray(e.imag)
    if k:
        np.conjugate(out[:, len(eta) - k:], out=out[:, k - 1::-1])
    return out


def _check_orders(*orders):
    """A ValueError naming the orders unless each is in 0..MAX_HERMITE_ORDER."""
    if not all(0 <= n <= MAX_HERMITE_ORDER for n in orders):
        named = f"orders {orders}" if len(orders) > 1 else f"order {orders[0]}"
        raise ValueError(f"{named} outside 0..{MAX_HERMITE_ORDER}")


def hermite_polynomial(n, t):
    """Physicists' Hermite polynomial H_n(t) by the three-term recurrence
    H_{n+1} = 2 t H_n - 2 n H_{n-1}.

    Accepts scalars or arrays.  Orders outside 0..64 are refused: the values
    overflow for moderate |t| and nothing here needs them.
    """
    _check_orders(n)
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


def _laguerre_table(K, arg, base, scale, up, down):
    """base * scale(j, d) * L_j^{(d)}(arg) for every pair of orders k, l <= K,
    j = min(k, l) and d = |k - l|, times up^d at [j, j + d] and down^d at
    [j + d, j]: one array of shape (K + 1, K + 1) + base.shape.  One
    _laguerre_steps recurrence per d collects every degree j, and the
    products run in the per-order evaluations' order (complex_hermite_2d,
    kernels.hermite_pair_integral), so for array arguments each entry is
    theirs to the bit."""
    table = np.empty((K + 1, K + 1) + base.shape, dtype=complex)
    tail = (1,) * base.ndim
    for d in range(K + 1):
        j = np.arange(K + 1 - d)
        degrees = _laguerre_steps(arg, d)
        diag = base * np.reshape([scale(i, d) for i in j], j.shape + tail)
        diag *= np.stack([next(degrees) for _ in j])
        if not d:
            table[j, j] = diag
            continue
        table[j, j + d] = diag * up ** d
        table[j + d, j] = diag * down ** d
    return table


def _hermite_2d_scale(j, d):
    """(-1)^j j!, the constant of H_{k,l}'s Laguerre form."""
    return (-1.0) ** j * math.factorial(j)


def complex_hermite_2d(k, l, z, w):
    """2D-complex Hermite polynomial
    H_{k,l}(z, w) = sum_j (-1)^j j! C(k,j) C(l,j) z^{l-j} w^{k-j},
    evaluated in its Laguerre form (-1)^j j! z^{l-k} L_j^{(l-k)}(zw) for
    l >= k, with w^{k-l} in place of z^{l-k} otherwise, j = min(k, l).

    Note the index/argument pairing: the first index k rides on w, the
    second index l rides on z.  H_{k,0}(z, w) = w^k; H_{m,m}(0, 0) =
    (-1)^m m!.  Accepts scalars or broadcasting arrays; orders
    0..MAX_HERMITE_ORDER (a ValueError otherwise).
    """
    _check_orders(k, l)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    shape = np.broadcast_shapes(z.shape, w.shape)
    # 0-d operands run as 1-element arrays: numpy multiplies complex scalars
    # otherwise than complex arrays (about half of all products differ in
    # the last bit), and a scalar call gives its array entry's bits
    z, w = np.atleast_1d(z, w)
    j, d = min(k, l), abs(k - l)
    zw = z * w
    out = np.ones(zw.shape, dtype=complex) * _hermite_2d_scale(j, d)
    out *= next(itertools.islice(_laguerre_steps(zw, d), j, None))
    if d:
        out *= (z if l > k else w) ** d
    return _as_result(out.reshape(shape))


def _generating_weights(u, v, K, base):
    """u^k v^l / (base^{(k+l)/2} k! l!) for k, l <= K and points u, v of one
    shape, of shape (K + 1, K + 1) + that shape: the weights of every
    generating sum (base 1 for complex_hermite_generating_sum, 2 for the
    kernels' generating identities).  K outside 0..MAX_HERMITE_ORDER is a
    ValueError."""
    _check_orders(K)
    orders = range(K + 1)
    norm = np.array([[base ** ((k + l) / 2.0) * math.factorial(k)
                      * math.factorial(l) for l in orders] for k in orders])
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    return (np.stack([u ** e for e in orders])[:, None]
            * np.stack([v ** e for e in orders])[None, :]
            / norm.reshape(norm.shape + (1,) * u.ndim))


def complex_hermite_generating_sum(z, w, u, v, K):
    """Truncated double sum  sum_{k,l <= K} H_{k,l}(z,w) u^k v^l / (k! l!).

    Converges to exp(u*w + v*z - u*v); the index k pairs with w and l
    pairs with z, matching the pairing inside H_{k,l} itself.  z, w, u and
    v broadcast together; a scalar call returns a complex.  The orders form
    one table (_laguerre_table), K at most MAX_HERMITE_ORDER.
    """
    shape, (z, w, u, v) = _flat_points(z, w, u, v)
    weights = _generating_weights(u, v, K, 1.0)
    z, w = z.astype(complex), w.astype(complex)
    table = _laguerre_table(K, z * w, np.ones(z.shape, dtype=complex),
                            _hermite_2d_scale, z, w)
    return _as_result(_order_sum(table * weights).reshape(shape))


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
