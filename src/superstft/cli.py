"""Command-line interface.

Four subcommands:

* ``spectrogram`` — sample the windowed transform of a superoscillating
  signal on a time-frequency grid (closed form, quadrature, or both) and
  write it as CSV.
* ``verify`` — run the identity-verification suites and emit a JSON
  report; exits nonzero when any case fails.
* ``zak-frame`` — lattice-transform frame check with a Wiener-norm
  heuristic, reported as JSON.
* ``evolve`` — free Schroedinger evolution of a window atom (or of the
  bare superoscillating sequence) sampled on an (x, t) grid, as CSV.

Grids are given as ``lo:hi:count`` (inclusive endpoints) or as a single
scalar; every number given must be finite.  CSV fields are printed with
%.17g so values round-trip exactly.
"""

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .evolution import EvolutionPoint, evolve_hermite, evolve_superosc
from .kernels import stft_superosc_closed_grid, stft_superosc_limit_grid
from .signals import build_signal, gaussian_window, hermite_window, \
    shifted_window
from .special import MAX_HERMITE_ORDER
from .superosc import SuperoscParams
from .transforms import stft_grid
from .zak import frame_check, wiener_norm_estimate

# flags whose values are grid strings like "-3:3:61"; argparse mistakes a
# leading "-" for an option, so these get rewritten to --flag=value form
_AXIS_FLAGS = ("--u", "--eta", "--x", "--t")


def _merge_axis_values(argv):
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _AXIS_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _axis(text):
    """Parse 'lo:hi:count' into an inclusive grid, or a scalar into [v]."""
    parts = text.split(":")
    grid = None
    try:
        if len(parts) == 1:
            grid = np.array([float(parts[0])])
        elif len(parts) == 3 and int(parts[2]) >= 1:
            with np.errstate(over="ignore", invalid="ignore"):
                grid = np.linspace(float(parts[0]), float(parts[1]),
                                   int(parts[2]))
    except ValueError:
        pass
    if grid is None or not np.all(np.isfinite(grid)):
        raise argparse.ArgumentTypeError(
            f"expected 'lo:hi:count' or a single number, all finite, "
            f"got {text!r}")
    return grid


def _finite_float(text):
    try:
        val = float(text)
        if math.isfinite(val):
            return val
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _positive_float(text):
    val = _finite_float(text)
    if val <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return val


def _order(text):
    val = int(text)
    if not 0 <= val <= MAX_HERMITE_ORDER:
        raise argparse.ArgumentTypeError(
            f"must be in 0..{MAX_HERMITE_ORDER}, got {val}")
    return val


def _int_at_least(lo):
    """An argparse type: an integer >= lo."""
    def parse(text):
        val = int(text)
        if val < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {val}")
        return val

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


# at most this many rows are formatted and written at a time
_ROW_BLOCK = 2048

# The NUL-padded slot of one %.17g field: sign, the "0." and up to three
# zeros of 0.000ddd, 17 digits with a place for the point, and "e+308".  The
# widest field, "-2.2250738585072014e-308", is 24 bytes.
_SLOT = 29
_DEKKER = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves


@functools.lru_cache(maxsize=None)
def _pow10(q):
    """10**q as hi + lo: hi the nearest double, lo the nearest double to
    the rest (int / int rounds correctly)."""
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


@functools.lru_cache(maxsize=None)
def _text_tables():
    """Byte tables of the encoder, as little-endian words: the four digits
    of each chunk 0..9999, the same with trailing zeros as NUL, the prefixes
    (sign, then "", "0.", "0.0", "0.00" or "0.000") and the exponent
    suffixes "e-300" .. "e+300", which cover every X _decimal decides, with
    no suffix last."""
    chunk = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    digits = (chunk + 48).astype(np.uint8)
    stripped = digits * (np.cumsum(chunk[:, ::-1], axis=1)[:, ::-1] > 0)
    prefix = np.zeros((10, 8), np.uint8)
    prefix[5:, 0] = ord("-")
    for zeros, text in enumerate([b"0.", b"0.0", b"0.00", b"0.000"], 1):
        prefix[[zeros, 5 + zeros], 1:1 + len(text)] = list(text)
    suffix = np.zeros((602, 8), np.uint8)
    for e in range(-300, 301):
        text = b"e%+03d" % e
        suffix[e + 300, :len(text)] = list(text)
    return (digits.view("<u4").ravel(), stripped.view("<u4").ravel(),
            prefix.view("<u8").ravel(), suffix.view("<u8").ravel())


def _decimal(v):
    """|v| rounded to 17 significant digits, as the integer D in
    [10**16, 10**17) and the exponent X of its leading digit, with a mask of
    the values whose rounding is decided here; D = X = 0 for zeros.

    |v| 10**(16 - X) is formed as a double-double product, good to about
    1e-14; the rounding is decided where its integer part has 17 digits and
    its fraction is more than 1e-6 from 1/2.  It is not for NaN, the
    infinities and |v| outside [1e-280, 1e280], where the Dekker split could
    overflow."""
    mag = np.abs(v)
    decided = (mag >= 1e-280) & (mag <= 1e280)  # False on NaN and inf
    mag = np.where(decided, mag, 1.0)
    x = np.floor(np.log10(mag)).astype(np.int64)
    # 10**(16 - X) as hi + lo, for the exponents this block uses
    q = 16 - x
    q0 = int(q.min())
    q -= q0
    hi, lo = np.zeros((2, q.max() + 1))
    for k in np.flatnonzero(np.bincount(q)).tolist():
        hi[k], lo[k] = _pow10(q0 + k)
    hi, lo = hi[q], lo[q]
    # Dekker's exact product mag * hi = p + e, plus mag * lo
    p = mag * hi
    c = _DEKKER * mag
    mag_hi = c - (c - mag)
    mag_lo = mag - mag_hi
    c = _DEKKER * hi
    hi_hi = c - (c - hi)
    hi_lo = hi - hi_hi
    e = (((mag_hi * hi_hi - p) + mag_hi * hi_lo + mag_lo * hi_hi)
         + mag_lo * hi_lo + mag * lo)
    floor_e = np.floor(e)
    frac = e - floor_e
    digits = p.astype(np.int64) + floor_e.astype(np.int64)  # p >= 2**53
    decided &= ((digits >= 10 ** 16) & (digits < 10 ** 17)
                & (np.abs(frac - 0.5) > 1e-6))
    digits += frac > 0.5
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    x += carry
    zero = v == 0
    digits[zero] = 0
    x[zero] = 0
    return digits, x, decided | zero


def _chunks(x):
    """floor(x / 10**4) and the last four digits of x, for integers x
    below 2**53 held as doubles."""
    high = np.floor(x / 1e4)
    return high, (x - high * 1e4).astype(np.intp)


def _ascii_digits(digits):
    """The 17 digits of each integer in [0, 10**17) as ASCII, of shape
    digits.shape + (17,), with the trailing zeros NUL, the leading digit
    excepted: the leading digit, then four chunks of four digits, each
    stripped unless a later one is not zero."""
    full4, strip4 = _text_tables()[:2]
    top = digits // 10 ** 8
    top4, c2 = _chunks(top.astype(np.float64))
    d0, c1 = _chunks(top4)
    c3, c4 = _chunks((digits - top * 10 ** 8).astype(np.float64))
    words = np.empty((digits.size, 5), "<u4")
    words[:, 0] = (d0.astype(np.uint32) + 48) << 24
    words[:, 4] = strip4[c4]
    later = c4 != 0
    for col, chunk in ((3, c3.astype(np.intp)), (2, c2), (1, c1)):
        words[:, col] = np.where(later, full4[chunk], strip4[chunk])
        later |= chunk != 0
    return words.view(np.uint8)[:, 3:]


def _encode(values):
    """The %.17g text of each value, as NUL-padded byte slots of shape
    values.shape + (_SLOT,): Python's '%.17g' % v once the NULs are dropped.

    The digits of _decimal are laid out in numpy: one layout for scientific
    notation and fixed X <= 0, then the integer part of fixed X >= 1 laid
    over it one width X at a time, by static slices (BENCH_23.json).  A value
    whose rounding is not decided there takes '%.17g' % v, one at a time."""
    prefix8, suffix8 = _text_tables()[2:]
    shape = np.shape(values)
    v = np.ravel(values).astype(np.float64, copy=False)
    n = v.size
    digits, x, decided = _decimal(v)
    text = _ascii_digits(digits)
    # %g: fixed notation for -4 <= X < 17, else scientific
    fixed = (x >= -4) & (x < 17)
    out = np.zeros((n, _SLOT), np.uint8)
    prefix = np.where(fixed & (x < 0), -x, 0) + 5 * np.signbit(v)
    out[:, :6] = prefix8[prefix].view(np.uint8).reshape(n, 8)[:, :6]
    # digit 0, a place for the point, digits 1..16: the layout of scientific
    # notation, of fixed X = 0, and of 0.000ddd, whose point is its prefix's
    out[:, 6] = text[:, 0]
    out[:, 7] = ((~fixed | (x == 0)) & (text[:, 1] != 0)) * ord(".")
    out[:, 8:24] = text[:, 1:]
    # fixed X >= 1, one integer width at = X at a time: digits 0..at, a
    # stripped one (NUL) shown as '0', then the point if a digit follows;
    # the digits after it are where the layout above put them
    whole = np.flatnonzero(fixed & (x > 0))
    for at in np.flatnonzero(np.bincount(x[whole])).tolist():
        rows = whole[x[whole] == at]
        out[rows, 6:7 + at] = text[rows, :at + 1] | 48
        out[rows, 7 + at] = text[rows, at + 1:].any(axis=1) * ord(".")
    suffix = np.where(fixed, -1, x + 300)
    out[:, 24:] = suffix8[suffix].view(np.uint8).reshape(n, 8)[:, :5]
    slow = np.flatnonzero(~decided)
    if slow.size:
        fields = b"".join([("%.17g" % f).encode().ljust(_SLOT, b"\0")
                           for f in v[slow].tolist()])
        out[slow] = np.frombuffer(fields, np.uint8).reshape(-1, _SLOT)
    return out.reshape(shape + (_SLOT,))


def _modulus(values):
    """|v| for a complex array, equal to Python's abs(v) to the bit.  Not
    np.abs: on complex arrays it can differ from abs by one ulp, which
    %.17g would print."""
    return np.hypot(values.real, values.imag)


def _complex_columns(values):
    """The re, im and abs columns of a complex array."""
    values = np.ravel(values)
    return [values.real, values.imag, _modulus(values)]


def _write_grid(out, axes, columns, keys=(0, 1), tail=""):
    """Write a grid as CSV rows, slice-major over axes = (outer, inner):
    row i * len(inner) + j holds axes[k][(i, j)[k]] for each k in keys, then
    c[i * len(inner) + j] for each of the columns, then tail, every number
    as %.17g.

    The axis text is encoded once, in the same _encode call as the first
    block.  A block of at most _ROW_BLOCK rows is one byte matrix, a
    NUL-padded slot per field between the separators, and goes out in one
    write once the NULs are dropped."""
    values = np.stack(columns, axis=1)
    head = np.concatenate(axes)
    first_block = values[:_ROW_BLOCK]
    encoded = _encode(np.concatenate([head, first_block.ravel()]))
    labels = [text[:, text.any(axis=0)]  # no column of NULs only
              for text in np.split(encoded[:head.size], [len(axes[0])])]
    encoded = encoded[head.size:].reshape(first_block.shape + (_SLOT,))
    inner = len(axes[1])
    widths = [labels[k].shape[1] for k in keys] + [_SLOT] * len(columns)
    starts = np.cumsum([0] + [w + 1 for w in widths]).tolist()
    end = (tail + "\n").encode()
    row = np.zeros(starts[-1] - 1 + len(end), np.uint8)
    row[np.array(starts[1:-1]) - 1] = ord(",")
    row[starts[-1] - 1:] = list(end)
    for first in range(0, len(values), _ROW_BLOCK):
        block = values[first:first + _ROW_BLOCK]
        index = divmod(np.arange(first, first + len(block)), inner)
        text = np.empty((len(block), row.size), np.uint8)
        text[:] = row
        if first:
            encoded = _encode(block)
        fields = [labels[k][index[k]] for k in keys]
        fields += list(np.moveaxis(encoded, 1, 0))
        for start, width, field in zip(starts, widths, fields):
            text[:, start:start + width] = field
        out.write(text.tobytes().translate(None, b"\0").decode())


@contextlib.contextmanager
def _output(path):
    """The stream to write to: stdout for '-', else the file at path,
    closed on exit."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _window_from_args(args):
    if args.window == "gaussian":
        return gaussian_window()
    return hermite_window(args.order)


# ---------------------------------------------------------------------------
# spectrogram
# ---------------------------------------------------------------------------

def cmd_spectrogram(args):
    g = _window_from_args(args)
    # one route pair per --signal, both called as f(g, x, param, ...): the
    # closed grid, and the signal whose stft_grid is its quadrature twin
    if args.signal == "superosc":
        if args.n is None:
            args._parser.error("--signal superosc requires --n")
        param = SuperoscParams(a=args.a, n=args.n)
        closed_grid, make_signal = stft_superosc_closed_grid, build_signal
    else:  # limit signal at frequency a
        param = args.a
        closed_grid, make_signal = stft_superosc_limit_grid, shifted_window
    # a route that cannot resolve the axes (or overflows) reports why in
    # one line, as a usage error, instead of a traceback
    try:
        closed = numeric = None
        if args.mode in ("closed", "both"):
            closed = closed_grid(g, args.x, param, args.u, args.eta)
        if args.mode in ("numeric", "both"):
            numeric = stft_grid(make_signal(g, args.x, param), g, args.u,
                                args.eta)
    except (ValueError, FloatingPointError) as exc:
        args._parser.error(str(exc))

    values = closed if closed is not None else numeric
    columns = _complex_columns(values)
    header = "u,eta,re,im,abs"
    if args.mode == "both":
        header += ",abs_err"
        columns.append(_modulus(np.ravel(closed - numeric)))
    with _output(args.out) as out:
        out.write(header + "\n")
        _write_grid(out, (args.u, args.eta), columns)  # one slice per u
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    results = verify_mod.run_suite(args.suite, seed=args.seed)
    payload = verify_mod.report(results, args.seed)
    with _output(args.json) as out:
        json.dump(payload, out, indent=2, allow_nan=False)
        out.write("\n")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# zak-frame
# ---------------------------------------------------------------------------

def cmd_zak_frame(args):
    if args.signal == "superosc-gaussian":
        if args.n is None:
            args._parser.error("--signal superosc-gaussian requires --n")
        p = SuperoscParams(a=args.a, n=args.n)
        f = build_signal(gaussian_window(), 0.0, p)
    elif args.window is not None:
        f = _window_from_args(args)
    else:
        args._parser.error("give either --signal superosc-gaussian or --window")
    # JSON has no NaN or infinity: a scan that met one (F_n overflows at
    # large n and a, for instance) is a one-line usage error, not bad JSON
    with np.errstate(over="ignore", invalid="ignore"):
        verdict = frame_check(f, args.resolution, tolerance=args.tolerance)
        wiener = wiener_norm_estimate(f)
    numbers = {"lowerBound": verdict.lower_bound,
               "upperBound": verdict.upper_bound,
               "wienerEstimate": wiener.value}
    if not all(map(math.isfinite, numbers.values())):
        args._parser.error("frame bounds or Wiener estimate not finite: " + ", ".join(
            f"{name} {value}" for name, value in numbers.items()))
    payload = {
        "schema": 1,
        **verdict.to_dict(),
        "wienerEstimate": {
            "value": wiener.value,
            "cells": wiener.cells,
            "samplesPerCell": wiener.samples_per_cell,
            "heuristic": wiener.heuristic,
        },
    }
    with _output(args.json) as out:
        json.dump(payload, out, indent=2, allow_nan=False)
        out.write("\n")
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def cmd_evolve(args):
    if args.superosc:
        if args.n is None:
            args._parser.error("--superosc requires --n")
        terms = args.n + 1
        sample = functools.partial(evolve_superosc,
                                   SuperoscParams(a=args.a, n=args.n), args.x)
    else:
        terms, order = 1, 0 if args.window == "gaussian" else args.order

        def sample(t):
            pt = EvolutionPoint(x=args.x, t=t, x0=args.x0, k0=args.k0)
            return evolve_hermite(order, pt, normalized=args.normalized)

    # one grid call per block of whole t slices, each block at most 2^20
    # terms (terms per cell x cells); every block is computed before a row
    # is written, so a value no route can give is a one-line usage error
    # with no partial CSV
    step = max(1, 2**20 // (terms * len(args.x)))
    try:
        slices = [sample(args.t[i:i + step, None])
                  for i in range(0, len(args.t), step)]
    except (ValueError, FloatingPointError) as exc:
        args._parser.error(str(exc))

    with _output(args.out) as out:
        out.write("x,t,re,im,abs,accuracy_flag\n")
        # one slice per t, its x rows in order; accuracy_flag is 0 until a
        # route has an error bound that sets it
        _write_grid(out, (args.t, args.x), _complex_columns(np.vstack(slices)),
                    keys=(1, 0), tail=",0")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="superstft",
        description="Superoscillating signals under the short-time Fourier "
                    "transform: spectrogram sampling, identity verification, "
                    "frame checks, and free evolution.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrogram",
                        help="sample the windowed transform on a grid (CSV)")
    sp.set_defaults(_parser=sp)
    sp.add_argument("--window", choices=("gaussian", "hermite"),
                    default="gaussian")
    sp.add_argument("--order", type=_order, default=0,
                    help="Hermite window order (ignored for gaussian)")
    sp.add_argument("--signal", choices=("superosc", "limit"),
                    default="superosc")
    sp.add_argument("--a", type=_finite_float, default=2.0,
                    help="superoscillation target frequency")
    sp.add_argument("--n", type=_int_at_least(1), default=None,
                    help="superoscillation order")
    sp.add_argument("--x", type=_finite_float, default=0.0,
                    help="signal center")
    sp.add_argument("--u", type=_axis, default="-3:3:61",
                    help="time axis lo:hi:count")
    sp.add_argument("--eta", type=_axis, default=None,
                    help="frequency axis lo:hi:count")
    sp.add_argument("--mode", choices=("closed", "numeric", "both"),
                    default="closed")
    sp.add_argument("--out", default="-", help="output CSV path (- = stdout)")

    vf = sub.add_parser("verify",
                        help="run identity-verification suites (JSON report)")
    vf.set_defaults(_parser=vf)
    vf.add_argument("--suite", choices=verify_mod.SUITES, default="all")
    vf.add_argument("--seed", type=_int_at_least(0), default=42)
    vf.add_argument("--json", default="-", help="report path (- = stdout)")

    zf = sub.add_parser("zak-frame",
                        help="Gabor frame check via the lattice transform "
                             "(JSON verdict)")
    zf.set_defaults(_parser=zf)
    zf.add_argument("--signal", choices=("superosc-gaussian",), default=None)
    zf.add_argument("--window", choices=("gaussian", "hermite"), default=None)
    zf.add_argument("--order", type=_order, default=0)
    zf.add_argument("--a", type=_finite_float, default=2.0)
    zf.add_argument("--n", type=_int_at_least(1), default=None)
    zf.add_argument("--resolution", type=_int_at_least(2), default=128,
                    help="scan points per axis (>= 2)")
    zf.add_argument("--tolerance", type=_positive_float, default=1e-8,
                    help="|Z| threshold of the frame verdict (finite, > 0)")
    zf.add_argument("--json", default="-", help="report path (- = stdout)")

    evp = sub.add_parser("evolve",
                         help="free Schroedinger evolution on an (x, t) grid "
                              "(CSV)")
    evp.set_defaults(_parser=evp)
    evp.add_argument("--window", choices=("gaussian", "hermite"),
                     default="gaussian")
    evp.add_argument("--order", type=_order, default=0)
    evp.add_argument("--superosc", action="store_true",
                     help="evolve the bare superoscillating sequence "
                          "F_n(x, t) instead of a window atom")
    evp.add_argument("--a", type=_finite_float, default=2.0)
    evp.add_argument("--n", type=_int_at_least(1), default=None)
    evp.add_argument("--x0", type=_finite_float, default=0.0,
                     help="datum center")
    evp.add_argument("--k0", type=_finite_float, default=0.0,
                     help="datum frequency")
    evp.add_argument("--x", type=_axis, default=None,
                     help="space axis lo:hi:count")
    evp.add_argument("--t", type=_axis, default=None,
                     help="time axis lo:hi:count")
    evp.add_argument("--normalized", action="store_true",
                     help="divide by 2 pi so t = 0 returns the datum itself")
    evp.add_argument("--out", default="-", help="output CSV path (- = stdout)")

    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser of this process, built on first use: parse_args leaves
    it unchanged, so every call can share it."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    # args._parser is the subcommand's own parser, so a handler's usage
    # error (exit code 2) prints that subcommand's usage line
    args = parser.parse_args(_merge_axis_values(list(argv)))
    if args.command == "spectrogram" and args.eta is None:
        args.eta = args.u
    if args.command == "evolve":
        if args.x is None or args.t is None:
            args._parser.error("evolve requires --x and --t grids")
    # looked up by name on each call, so a rebound cmd_* is the one run
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
