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
import json
import math
import sys

import numpy as np

from . import verify as verify_mod
from .evolution import (EvolutionPoint, evolve_gaussian_closed,
                        evolve_hermite, evolve_superosc, oscillation_hazard)
from .kernels import stft_superosc_closed_grid, stft_superosc_limit_grid
from .quadrature import DEFAULT_PAD
from .signals import build_limit_signal, build_signal, gaussian_window, \
    hermite_window
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


def _nonneg_int(text):
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {val}")
    return val


def _positive_int(text):
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {val}")
    return val


# rows are formatted and written this many at a time
_ROW_BLOCK = 4096


def _row_format(columns, last="%.17g"):
    return ",".join(["%.17g"] * (columns - 1) + [last]) + "\n"


def _modulus(values):
    """|v| for a complex array, equal to Python's abs(v) to the bit.  Not
    np.abs: on complex arrays it can differ from abs by one ulp, which
    %.17g would print."""
    return np.hypot(values.real, values.imag)


def _complex_columns(values):
    """The re, im and abs columns of a complex array."""
    values = np.ravel(values)
    return [values.real, values.imag, _modulus(values)]


def _write_rows(out, row_format, columns):
    """Write equal-length columns as CSV rows, row_format holding one
    conversion per column."""
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        block = [np.asarray(c)[lo:lo + _ROW_BLOCK].tolist() for c in columns]
        out.write("".join(row_format % row for row in zip(*block)))


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _open_out(path):
    """Return (stream, needs_close) for '-' = stdout or a file path."""
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _window_from_args(args):
    if args.window == "gaussian":
        return gaussian_window()
    return hermite_window(args.order)


# ---------------------------------------------------------------------------
# spectrogram
# ---------------------------------------------------------------------------

def cmd_spectrogram(args):
    g = _window_from_args(args)
    if args.signal == "superosc":
        if args.n is None:
            args._parser.error("--signal superosc requires --n")
        p = SuperoscParams(a=args.a, n=args.n)
        closed = None
        if args.mode in ("closed", "both"):
            closed = stft_superosc_closed_grid(g, args.x, p, args.u, args.eta)
        numeric = None
        if args.mode in ("numeric", "both"):
            s = build_signal(g, args.x, p)
            numeric = stft_grid(s, g, args.u, args.eta).values
    else:  # limit signal at frequency a
        closed = None
        if args.mode in ("closed", "both"):
            closed = stft_superosc_limit_grid(g, args.x, args.a, args.u, args.eta)
        numeric = None
        if args.mode in ("numeric", "both"):
            s = build_limit_signal(g, args.x, args.a)
            numeric = stft_grid(s, g, args.u, args.eta).values

    values = closed if closed is not None else numeric
    columns = [np.repeat(args.u, args.eta.size), np.tile(args.eta, args.u.size),
               *_complex_columns(values)]
    header = "u,eta,re,im,abs"
    if args.mode == "both":
        header += ",abs_err"
        columns.append(_modulus(np.ravel(closed - numeric)))
    out, close = _open_out(args.out)
    try:
        out.write(header + "\n")
        _write_rows(out, _row_format(len(columns)), columns)
    finally:
        if close:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    results = verify_mod.run_suite(args.suite, seed=args.seed)
    payload = verify_mod.report(results, args.seed)
    out, close = _open_out(args.json)
    try:
        json.dump(payload, out, indent=2, default=_json_default)
        out.write("\n")
    finally:
        if close:
            out.close()
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
        f = gaussian_window() if args.window == "gaussian" \
            else hermite_window(args.order)
    else:
        args._parser.error("give either --signal superosc-gaussian or --window")
    verdict = frame_check(f, args.resolution, tolerance=args.tolerance)
    wiener = wiener_norm_estimate(f)
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
    out, close = _open_out(args.json)
    try:
        json.dump(payload, out, indent=2, default=_json_default)
        out.write("\n")
    finally:
        if close:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def cmd_evolve(args):
    if args.superosc:
        if args.n is None:
            args._parser.error("--superosc requires --n")
        p = SuperoscParams(a=args.a, n=args.n)

        def sample(t):
            return evolve_superosc(p, args.x, t), 0
    elif args.window == "gaussian":
        def sample(t):
            pt = EvolutionPoint(x=args.x, t=t, x0=args.x0, k0=args.k0)
            return evolve_gaussian_closed(pt, normalized=args.normalized), 0
    else:
        order = args.order
        radius = float(hermite_window(order).decay_radius) + DEFAULT_PAD

        def sample(t):
            pt = EvolutionPoint(x=args.x, t=t, x0=args.x0, k0=args.k0)
            val = evolve_hermite(order, pt, normalized=args.normalized)
            return val, int(oscillation_hazard(t, radius))

    row_format = _row_format(6, last="%d")
    size = args.x.size
    out, close = _open_out(args.out)
    try:
        out.write("x,t,re,im,abs,accuracy_flag\n")
        for t in args.t:  # t-major row order, one grid call per time slice
            v, flag = sample(float(t))
            _write_rows(out, row_format,
                        [args.x, np.full(size, t), *_complex_columns(v),
                         [flag] * size])
    finally:
        if close:
            out.close()
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
    sp.add_argument("--window", choices=("gaussian", "hermite"),
                    default="gaussian")
    sp.add_argument("--order", type=_nonneg_int, default=0,
                    help="Hermite window order (ignored for gaussian)")
    sp.add_argument("--signal", choices=("superosc", "limit"),
                    default="superosc")
    sp.add_argument("--a", type=_finite_float, default=2.0,
                    help="superoscillation target frequency")
    sp.add_argument("--n", type=_positive_int, default=None,
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
    sp.set_defaults(func=cmd_spectrogram)

    vf = sub.add_parser("verify",
                        help="run identity-verification suites (JSON report)")
    vf.add_argument("--suite", choices=verify_mod.SUITES, default="all")
    vf.add_argument("--seed", type=int, default=42)
    vf.add_argument("--json", default="-", help="report path (- = stdout)")
    vf.set_defaults(func=cmd_verify)

    zf = sub.add_parser("zak-frame",
                        help="Gabor frame check via the lattice transform "
                             "(JSON verdict)")
    zf.add_argument("--signal", choices=("superosc-gaussian",), default=None)
    zf.add_argument("--window", choices=("gaussian", "hermite"), default=None)
    zf.add_argument("--order", type=_nonneg_int, default=0)
    zf.add_argument("--a", type=_finite_float, default=2.0)
    zf.add_argument("--n", type=_positive_int, default=None)
    zf.add_argument("--resolution", type=_positive_int, default=128)
    zf.add_argument("--tolerance", type=float, default=1e-8)
    zf.add_argument("--json", default="-", help="report path (- = stdout)")
    zf.set_defaults(func=cmd_zak_frame)

    evp = sub.add_parser("evolve",
                         help="free Schroedinger evolution on an (x, t) grid "
                              "(CSV)")
    evp.add_argument("--window", choices=("gaussian", "hermite"),
                     default="gaussian")
    evp.add_argument("--order", type=_nonneg_int, default=0)
    evp.add_argument("--superosc", action="store_true",
                     help="evolve the bare superoscillating sequence "
                          "F_n(x, t) instead of a window atom")
    evp.add_argument("--a", type=_finite_float, default=2.0)
    evp.add_argument("--n", type=_positive_int, default=None)
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
    evp.set_defaults(func=cmd_evolve)

    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_axis_values(list(argv)))
    # give handlers access to the parser for usage errors (exit code 2)
    args._parser = parser
    if args.command == "spectrogram" and args.eta is None:
        args.eta = args.u
    if args.command == "evolve":
        if args.x is None or args.t is None:
            parser.error("evolve requires --x and --t grids")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
