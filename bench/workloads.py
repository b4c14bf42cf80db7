"""Workload request lists and the per-request output checks.

A workload is a fixed cycle of CLI requests.  The workload seed picks which
output cells or points are checked against the high-precision reference
(``oracle``) and which seeds the verify requests use, so the same seed gives
the same request list.  Each request carries its own check.

Every checked value has a tolerance and a hard tolerance.  Beyond its
tolerance a value fails its request; beyond its hard tolerance it is also an
unexpected failure, which makes the run incorrect.  The two are the same
except where a known defect loses digits: a request kind whose closed form
is known to cancel names the defect in ``known_defect``, and its hard
tolerance is the roundoff that the cancelling floating-point sum cannot
avoid, so digits lost to the defect count in the failure rate and the
accuracy metrics, while any larger error still makes the run incorrect.  A
crash, a non-zero exit the check does not explain, or malformed output is
always unexpected.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracle

# ROADMAP item 1: the closed sums cancel as sum |C_j| = max(1, |a|)^n grows
CANCELLATION = "closed coefficient sum cancels at n >= 32 (sum |C_j| = a^n)"

# Hard tolerance of a cancelling sum: ROUNDOFF eps sum_j |term j|.  Over
# 441 cells of each grids spectrogram and 561 points of the n = 32 evolve
# request the error was at most 4.5 eps sum_j |term j|.
EPS = 2.0 ** -52
ROUNDOFF = 32.0

# verify cases whose failures are known defects of the verify suite itself:
# id -> (defect, hard tolerance on the case's max_error)
KNOWN_VERIFY_DEFECTS = {
    # the worst error of the case over 1000 draws of its 20 points was
    # 6.6e-8, on values up to 4e6
    "i_km_compact": ("absolute tolerance 1e-10 on degree-12 complex "
                     "polynomial values; roundoff exceeds it for some draws",
                     1e-6),
}

SPECTROGRAM_AXIS = "-6:6:121"
# checked cells per axis and their spacing, by window order.  The Gaussian
# n = 32 grid is the one whose cells straddle the tolerance, so its sample
# sets how much checked_ok_frac moves with the seed: 20 x 20 cells 6 apart
# keep that under 0.01 of the median (step 5 aliases with the pattern).
# Hermite references cost about four times as much per cell.
SPECTROGRAM_SAMPLE = {0: (20, 6), 3: (12, 10)}
ZAK_RESOLUTION = 1024
# a run stops on a whole cycle, so a short cycle keeps the request count of
# a 30-s run steady; i_km_compact fails on about half of all seeds, which
# spreads checked_ok_frac by up to about 0.018 of its median over 10 seeds
VERIFY_SEEDS_PER_CYCLE = 4


def _axis(text):
    lo, hi, count = text.split(":")
    return np.linspace(float(lo), float(hi), int(count))


def _fmt(v):
    return "%.17g" % v


def _systematic(rng, count, step, size):
    """count indices step apart from a seeded offset in [0, step)."""
    start = int(rng.integers(step))
    idx = start + step * np.arange(count)
    assert idx[-1] < size
    return [int(i) for i in idx]


@dataclass
class Verdict:
    """What one request's output check found.  ``problems`` are format or
    exit-code violations; ``checks`` counts checked values, ``checks_ok``
    those within tolerance, ``beyond_hard`` those beyond their hard
    tolerance; ``worst_ratio`` is the worst error / tolerance."""

    problems: list = field(default_factory=list)
    checks: int = 0
    checks_ok: int = 0
    beyond_hard: int = 0
    worst_ratio: float = 0.0

    def value(self, err, tol, hard_tol=None):
        ratio = err / tol if tol > 0 else (0.0 if err == 0 else math.inf)
        self.checks += 1
        self.checks_ok += ratio <= 1.0
        self.beyond_hard += not err <= max(tol, hard_tol or 0.0)
        self.worst_ratio = max(self.worst_ratio, ratio)

    @property
    def tol_failed(self):
        return self.checks_ok < self.checks

    @property
    def unexpected(self):
        return bool(self.problems) or self.beyond_hard > 0


@dataclass
class Request:
    kind: str
    argv: tuple
    check: object
    known_defect: str = None


# ---------------------------------------------------------------------------
# output-format checks
# ---------------------------------------------------------------------------

def _parse_csv(text, header, axis_fields, verdict):
    """Rows of a CSV output as lists of strings, after checking the header,
    the row count, the %.17g round trip of every float field and the first
    two (axis) fields, which must equal ``axis_fields[row]``."""
    lines = text.split("\n")
    if lines[-1] != "":
        verdict.problems.append("output does not end with a newline")
    lines = lines[:-1]
    if not lines or lines[0] != header:
        verdict.problems.append(f"header {lines[:1]!r} != {header!r}")
        return None
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(axis_fields):
        verdict.problems.append(f"{len(rows)} rows, expected {len(axis_fields)}")
        return None
    width = header.count(",") + 1
    for r, row in enumerate(rows):
        if len(row) != width:
            verdict.problems.append(f"row {r} has {len(row)} fields")
            return None
        for s in row[:5]:
            try:
                ok = _fmt(float(s)) == s
            except ValueError:
                ok = False
            if not ok:
                verdict.problems.append(f"row {r}: {s!r} fails the %.17g round trip")
                return None
        if (row[0], row[1]) != axis_fields[r]:
            verdict.problems.append(f"row {r}: axis fields {row[:2]} out of place")
            return None
    return rows


def _parse_json(text, verdict):
    try:
        payload = json.loads(text)
    except ValueError as exc:
        verdict.problems.append(f"malformed JSON: {exc}")
        return None
    if not isinstance(payload, dict) or "schema" not in payload:
        verdict.problems.append("JSON output carries no schema")
        return None
    return payload


def _expect_rc(rc, expected, verdict):
    if rc != expected:
        verdict.problems.append(f"exit code {rc}, expected {expected}")


def _value(row):
    return complex(float(row[2]), float(row[3]))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class SpectrogramCheck:
    """CSV grid; cells on a seeded systematic sample against the reference,
    1e-10 absolute.  With ``cancels`` the hard tolerance of a cell is
    ROUNDOFF eps sum_j |term j|."""

    TOL = 1e-10

    def __init__(self, order, x, n, a, axis, cells, cancels=False):
        self.args = (order, x, n, a)
        self.axis = axis
        self.cells = cells
        self.cancels = cancels
        self._ref = None

    def prepare(self):
        if self._ref is None:
            pts = [(self.axis[i], self.axis[j]) for i, j in self.cells]
            values, sums = oracle.stft_superosc_cells(*self.args, pts)
            hard = [ROUNDOFF * EPS * s if self.cancels else self.TOL for s in sums]
            self._ref = list(zip(values, hard))

    def __call__(self, rc, text):
        v = Verdict()
        _expect_rc(rc, 0, v)
        fields = [(_fmt(u), _fmt(e)) for u in self.axis for e in self.axis]
        rows = _parse_csv(text, "u,eta,re,im,abs", fields, v)
        if rows is None:
            return v
        self.prepare()
        width = len(self.axis)
        for (i, j), (ref, hard) in zip(self.cells, self._ref):
            v.value(abs(_value(rows[i * width + j]) - ref), self.TOL, hard)
        return v


class EvolveCheck:
    """CSV (x, t) grid in t-major order; seeded points against the
    reference, 1e-10 max(1, |ref|).  A cancelling mode sum passes its
    ``term_sum`` (sum_j |C_j|); its hard tolerance is then
    ROUNDOFF eps term_sum."""

    TOL = 1e-10

    def __init__(self, reference, xs, ts, points, term_sum=None):
        self.reference = reference
        self.xs, self.ts = xs, ts
        self.points = points
        self.hard = None if term_sum is None else ROUNDOFF * EPS * term_sum
        self._ref = None

    def prepare(self):
        if self._ref is None:
            self._ref = self.reference([(self.xs[i], self.ts[k])
                                        for i, k in self.points])

    def __call__(self, rc, text):
        v = Verdict()
        _expect_rc(rc, 0, v)
        fields = [(_fmt(x), _fmt(t)) for t in self.ts for x in self.xs]
        rows = _parse_csv(text, "x,t,re,im,abs,accuracy_flag", fields, v)
        if rows is None:
            return v
        if any(row[5] not in ("0", "1") for row in rows):
            v.problems.append("accuracy_flag outside {0, 1}")
            return v
        self.prepare()
        for (i, k), ref in zip(self.points, self._ref):
            got = _value(rows[k * len(self.xs) + i])
            v.value(abs(got - ref), self.TOL * max(1.0, abs(ref)), self.hard)
        return v


class ZakCheck:
    """JSON verdict; |Z f| from the reference at the reported minimum must
    match lowerBound, and at seeded scan points must lie within
    [lowerBound, upperBound], all to 1e-10 max(1, upperBound)."""

    TOL = 1e-10

    def __init__(self, kind, order, n, a, resolution, points):
        self.args = (kind, order, n, a)
        self.resolution = resolution
        self.points = points
        self._ref = None

    def prepare(self):
        if self._ref is None:
            r = self.resolution
            us = np.linspace(0.0, 1.0, r)
            es = np.linspace(0.0, 2.0 * math.pi, r)
            pts = [(float(us[i]), float(es[j])) for i, j in self.points]
            self._ref = oracle.zak_abs(*self.args, pts)

    def __call__(self, rc, text):
        v = Verdict()
        _expect_rc(rc, 0, v)
        out = _parse_json(text, v)
        if out is None:
            return v
        try:
            lower, upper = float(out["lowerBound"]), float(out["upperBound"])
            loc = [float(c) for c in out["minLocation"]]
            verdict, tol = out["verdict"], float(out["tolerance"])
        except (KeyError, TypeError, ValueError) as exc:
            v.problems.append(f"zak-frame JSON lacks a field: {exc!r}")
            return v
        if (verdict == "Frame") != (lower > tol):
            v.problems.append(f"verdict {verdict} inconsistent with lowerBound {lower}")
        self.prepare()
        scale = self.TOL * max(1.0, upper)
        at_min = oracle.zak_abs(*self.args, [tuple(loc)])[0]
        v.value(abs(at_min - lower), scale)
        for ref in self._ref:
            v.value(max(0.0, lower - ref, ref - upper), scale)
        return v


class VerifyCheck:
    """JSON report; exit code 0 exactly when every case passes; each case's
    max_error / tolerance is a checked value, with the hard tolerance of
    KNOWN_VERIFY_DEFECTS for the cases named there."""

    def __call__(self, rc, text):
        v = Verdict()
        out = _parse_json(text, v)
        if out is None:
            return v
        try:
            for case in out["suites"]:
                err, tol = float(case["max_error"]), float(case["tolerance"])
                if bool(case["pass"]) != (err <= tol):
                    v.problems.append(f"case {case['id']}: pass flag disagrees")
                known = KNOWN_VERIFY_DEFECTS.get(case["id"])
                v.value(err, tol, known and known[1])
        except (KeyError, TypeError, ValueError) as exc:
            v.problems.append(f"verify JSON lacks a field: {exc!r}")
            return v
        _expect_rc(rc, 1 if v.tol_failed else 0, v)
        return v

    def prepare(self):
        pass


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _grids(rng):
    axis = _axis(SPECTROGRAM_AXIS)
    spectro = []
    for order in (0, 3):
        for n in (8, 32, 64):
            window = ["--window", "gaussian"] if order == 0 else \
                ["--window", "hermite", "--order", str(order)]
            argv = ["spectrogram", *window, "--signal", "superosc", "--a", "2",
                    "--x", "0.5", "--n", str(n), "--u", SPECTROGRAM_AXIS,
                    "--eta", SPECTROGRAM_AXIS]
            count, step = SPECTROGRAM_SAMPLE[order]
            cells = [(i, j) for i in _systematic(rng, count, step, len(axis))
                     for j in _systematic(rng, count, step, len(axis))]
            name = "gaussian" if order == 0 else f"hermite{order}"
            cancels = n >= 32
            spectro.append(Request(
                f"spectrogram/{name}/n{n}", tuple(argv),
                SpectrogramCheck(order, 0.5, n, 2.0, axis, cells, cancels),
                CANCELLATION if cancels else None))
    zak = []
    for kind, order, n in (("superosc-gaussian", 0, 8),
                           ("superosc-gaussian", 0, 32), ("hermite", 3, 0)):
        if kind == "hermite":
            argv = ["zak-frame", "--window", "hermite", "--order", str(order)]
            name = f"zak/hermite{order}"
        else:
            argv = ["zak-frame", "--signal", kind, "--a", "2", "--n", str(n)]
            name = f"zak/superosc-gaussian/n{n}"
        argv += ["--resolution", str(ZAK_RESOLUTION)]
        points = [tuple(int(c) for c in rng.integers(ZAK_RESOLUTION, size=2))
                  for _ in range(8)]
        zak.append(Request(name, tuple(argv),
                           ZakCheck(kind, order, n, 2.0, ZAK_RESOLUTION, points)))
    # interleave so each cycle mixes CSV-heavy and JSON requests
    cycle = [spectro[0], zak[0], spectro[1], zak[1], spectro[2], zak[2],
             spectro[3], spectro[4], spectro[5]]
    return cycle, len(cycle)


def _evolve(rng):
    out = []
    xs, ts = _axis("-4:4:41"), _axis("0:1:5")
    points = [(i, k) for i in _systematic(rng, 10, 4, len(xs))
              for k in range(len(ts))]
    out.append(Request(
        "evolve/hermite3",
        ("evolve", "--window", "hermite", "--order", "3", "--x", "-4:4:41",
         "--t", "0:1:5"),
        EvolveCheck(lambda pts: oracle.evolve_hermite_points(3, 0.0, 0.0, pts),
                    xs, ts, points)))
    xs, ts = _axis("-4:4:201"), _axis("0:1:21")

    def dense_points():
        return [(i, k) for i in _systematic(rng, 20, 10, len(xs))
                for k in _systematic(rng, 7, 3, len(ts))]
    out.append(Request(
        "evolve/superosc/n32",
        ("evolve", "--superosc", "--a", "2", "--n", "32", "--x", "-4:4:201",
         "--t", "0:1:21"),
        EvolveCheck(lambda pts: oracle.evolve_superosc_points(32, 2.0, pts),
                    xs, ts, dense_points(), oracle.coefficient_abs_sum(32, 2.0)),
        CANCELLATION))
    out.append(Request(
        "evolve/gaussian/k0=2",
        ("evolve", "--window", "gaussian", "--k0", "2", "--x", "-4:4:201",
         "--t", "0:1:21"),
        EvolveCheck(lambda pts: oracle.evolve_gaussian_points(0.0, 2.0, pts),
                    xs, ts, dense_points())))
    return out, len(out)


def _verify(rng):
    check = VerifyCheck()
    seeds = rng.integers(0, 2**31 - 1, size=VERIFY_SEEDS_PER_CYCLE)
    known = "; ".join(f"{case}: {why}" for case, (why, _) in KNOWN_VERIFY_DEFECTS.items())
    cycle = [Request("verify/all", ("verify", "--suite", "all", "--seed", str(int(s))),
                     check, known) for s in seeds]
    return cycle, len(cycle)


WORKLOADS = {"grids": _grids, "evolve": _evolve, "verify": _verify}


def build(workload, seed):
    """(requests, unit): the request list for this workload and seed, and
    the number of requests a run completes between time checks (a run ends
    only on a multiple of ``unit`` requests, so the request mix is exact)."""
    return WORKLOADS[workload](np.random.default_rng(seed))
