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
_ROW_BLOCK = 4096


def _modulus(values):
    """|v| for a complex array, equal to Python's abs(v) to the bit.  Not
    np.abs: on complex arrays it can differ from abs by one ulp, which
    %.17g would print."""
    return np.hypot(values.real, values.imag)


def _complex_columns(values):
    """The re, im and abs columns of a complex array."""
    values = np.ravel(values)
    return [values.real, values.imag, _modulus(values)]


def _labels(axis):
    """The %.17g text of each value of a grid axis."""
    return ["%.17g" % v for v in axis.tolist()]


def _write_grid(out, templates, labels, columns):
    """Write a grid as CSV rows, slice-major: row j of slice i is
    ``templates[i] % (labels[j], c[i * len(labels) + j] for c in columns)``.

    Each template holds its slice's fixed fields (the outer axis value, a
    flag) as literal text and labels are the inner axis already formatted,
    so only the value columns are converted here.  One % formats a block of
    at most _ROW_BLOCK rows: whole slices while they fit, else part of one."""
    size, width = len(labels), len(columns) + 1
    step = max(1, _ROW_BLOCK // size)
    for i in range(0, len(templates), step):
        group = templates[i:i + step]
        for lo in range(0, size, _ROW_BLOCK):
            rows = labels[lo:lo + _ROW_BLOCK]
            count = len(rows) * len(group)
            fields = [None] * (width * count)
            fields[0::width] = rows * len(group)
            start = i * size + lo
            for k, col in enumerate(columns, 1):
                fields[k::width] = col[start:start + count].tolist()
            out.write("".join([t * len(rows) for t in group]) % tuple(fields))


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


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
    # a route that cannot resolve the axes (or overflows) reports why in
    # one line, as a usage error, instead of a traceback
    try:
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
                numeric = stft_grid(s, g, args.u, args.eta)
        else:  # limit signal at frequency a
            closed = None
            if args.mode in ("closed", "both"):
                closed = stft_superosc_limit_grid(g, args.x, args.a, args.u,
                                                  args.eta)
            numeric = None
            if args.mode in ("numeric", "both"):
                s = shifted_window(g, args.x, args.a)
                numeric = stft_grid(s, g, args.u, args.eta)
    except (ValueError, FloatingPointError) as exc:
        args._parser.error(str(exc))

    values = closed if closed is not None else numeric
    columns = _complex_columns(values)
    header = "u,eta,re,im,abs"
    if args.mode == "both":
        header += ",abs_err"
        columns.append(_modulus(np.ravel(closed - numeric)))
    # one slice per u, its eta rows in order
    tail = ",%s," + ",".join(["%.17g"] * len(columns)) + "\n"
    with _output(args.out) as out:
        out.write(header + "\n")
        _write_grid(out, [u + tail for u in _labels(args.u)],
                    _labels(args.eta), columns)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    results = verify_mod.run_suite(args.suite, seed=args.seed)
    payload = verify_mod.report(results, args.seed)
    with _output(args.json) as out:
        json.dump(payload, out, indent=2, default=_json_default)
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
        f = gaussian_window() if args.window == "gaussian" \
            else hermite_window(args.order)
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
        json.dump(payload, out, indent=2, default=_json_default)
        out.write("\n")
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
            return evolve_superosc(p, args.x, t)
    else:
        order = 0 if args.window == "gaussian" else args.order

        def sample(t):
            pt = EvolutionPoint(x=args.x, t=t, x0=args.x0, k0=args.k0)
            return evolve_hermite(order, pt, normalized=args.normalized)

    # every slice is computed before a row is written, so a value no route
    # can give is a one-line usage error with no partial CSV
    times = args.t.tolist()
    try:
        slices = [sample(t) for t in times]  # one grid call per slice
    except (ValueError, FloatingPointError) as exc:
        args._parser.error(str(exc))
    except OverflowError:  # k0**2 of a Python float
        args._parser.error(f"--k0 {args.k0:g} overflows the phase k0^2 t")

    labels = _labels(args.x)
    with _output(args.out) as out:
        out.write("x,t,re,im,abs,accuracy_flag\n")
        for t, v in zip(times, slices):  # t-major row order
            # accuracy_flag is 0 until a route has an error bound that sets it
            template = "%%s,%.17g,%%.17g,%%.17g,%%.17g,0\n" % t
            _write_grid(out, [template], labels, _complex_columns(v))
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
