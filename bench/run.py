"""superstft benchmark: one closed-loop client driving ``superstft.cli.main``
in-process on a fixed workload, with every output checked against an
independent high-precision reference.

    python3 bench/run.py --workload grids --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it print every metric by name and unit, with sample counts, and
the run record.  A copy of the result (and, when traced, every span) is
written under ``.bench_out/``.  See bench/README.md.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

import record

if __name__ == "__main__":
    record.pin_blas_threads()  # before numpy is first imported

import calibrate  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60.0
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, {src!r})
import superstft.cli as cli
cli.build_parser()
start = time.perf_counter()
sys.path.insert(0, {bench!r})
import calibrate
print(calibrate.measure(), time.perf_counter() - start)
"""

END_TO_END = {
    "setup_s": "s", "req_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "checked_ok_frac": "ratio", "peak_rss_mb": "MB",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _refuse(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "superstft", "cli.py")):
        _refuse(f"no package sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import superstft.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        _refuse(f"superstft imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup():
    """Median over SETUP_RUNS fresh interpreters of the time to import
    superstft.cli and build its parser, after one untimed start that fills
    the bytecode cache.  Each child then times the calibration kernel on its
    own core; the set-up time (child wall time minus that calibration) is
    scaled by it.  Returns (median, raw wall-time samples)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-c", SETUP_SNIPPET.format(src=SRC, bench=HERE)]

    def once():
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                 stdout=subprocess.PIPE)
        # communicate() without a timeout blocks in read and waitpid; with
        # one it polls in steps of up to 50 ms, quantizing the measurement
        guard = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        guard.start()
        try:
            out, _ = child.communicate()
        finally:
            guard.cancel()
        elapsed = time.perf_counter() - start
        if child.returncode != 0:
            _refuse(f"set-up interpreter exited with code {child.returncode}")
        kernel_s, calibration_s = (float(v) for v in out.split())
        return elapsed - calibration_s, kernel_s

    once()
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        wall, kernel_s = once()
        raw.append(wall)
        scaled.append(calibrate.scaled(wall, kernel_s))
    return statistics.median(scaled), raw


class Phase:
    """Requests of one measured phase and what their checks found."""

    def __init__(self):
        self.latencies = []      # reference-machine seconds
        self.walls = []          # raw wall seconds
        self.kernel_s = []       # calibration kernel time around each request
        self.failed = 0          # failed by the tolerance or format rules
        self.unexpected = 0      # format failures or values beyond hard tolerance
        self.checks = 0
        self.checks_ok = 0
        self.worst_ratio = 0.0
        self.rows_out = 0
        self.bytes_out = 0
        self.problems = []
        self.by_kind = {}

    def add(self, req, wall, kernel_s, verdict, text):
        hard, tol_failed = bool(verdict.problems), verdict.tol_failed
        self.latencies.append(calibrate.scaled(wall, kernel_s))
        self.walls.append(wall)
        self.kernel_s.append(kernel_s)
        if hard:
            self.problems.append((req.kind, verdict.problems[:3]))
        self.failed += hard or tol_failed
        self.unexpected += verdict.unexpected
        self.checks += verdict.checks
        self.checks_ok += verdict.checks_ok
        self.worst_ratio = max(self.worst_ratio, verdict.worst_ratio)
        if req.argv[0] in ("spectrogram", "evolve"):
            self.rows_out += max(0, text.count("\n") - 1)
        self.bytes_out += len(text)
        row = self.by_kind.setdefault(req.kind, [0, 0, 0.0, [], req.known_defect])
        row[0] += 1
        row[1] += hard or tol_failed
        row[2] = max(row[2], verdict.worst_ratio)
        row[3].append(self.latencies[-1])

    @property
    def busy(self):
        """Summed request time in reference-machine seconds."""
        return sum(self.latencies)

    @property
    def wall(self):
        return sum(self.walls)


class Runner:
    def __init__(self, cli, requests, unit):
        self.cli = cli
        self.requests = requests
        self.unit = unit
        self._verdicts = {}
        self._kernel_s = None  # latest calibration kernel time

    def call(self, req, tracer=None, request_id=None):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        if tracer is not None:
            tracer.begin_request(request_id)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(req.argv))
            except SystemExit as stop:
                rc = stop.code
            except Exception:  # a crash is a failed request; keep going
                rc = None
                exc = traceback.format_exc(limit=-1).strip().replace("\n", " | ")
            wall = time.perf_counter() - start
        return out.getvalue(), rc, exc, wall

    def judge(self, index, req, text, rc, exc):
        """The request's verdict.  Identical outputs of the same request
        share one full check."""
        if exc is not None:
            verdict = workloads.Verdict(problems=[f"raised: {exc}"])
        else:
            key = (index, rc, hashlib.blake2b(text.encode()).digest())
            verdict = self._verdicts.get(key)
            if verdict is None:
                verdict = self._verdicts[key] = req.check(rc, text)
        return verdict

    def run(self, seconds, traced=False, least=stats.TAIL_BEYOND + 1):
        """Requests in list order until ``seconds`` have passed and at least
        ``least`` are done, ending on a multiple of the workload's unit so
        the request mix is exact.  With ``traced`` the run alternates
        untraced and traced blocks of one unit each and returns
        (untraced, traced, tracer); otherwise it returns one phase."""
        modes = [(Phase(), None)]
        if traced:
            modes.append((Phase(), tracing.Tracer()))
        deadline = time.perf_counter() + seconds
        self._kernel_s = calibrate.measure()
        i = 0
        for block in itertools.count():
            phase, tracer = modes[block % len(modes)]
            if (block % len(modes) == 0 and time.perf_counter() >= deadline
                    and all(len(p.walls) >= least for p, _ in modes)):
                break
            patches = tracing.install(tracer) if tracer else []
            try:
                for _ in range(self.unit):
                    self._one(i, phase, tracer)
                    i += 1
            finally:
                tracing.uninstall(patches)
        if traced:
            return modes[0][0], modes[1][0], modes[1][1]
        return modes[0][0]

    def warm_up(self):
        """One untimed request of each kind: lazy imports and set-up."""
        phase, kinds = Phase(), set()
        self._kernel_s = calibrate.measure()
        for i, req in enumerate(self.requests):
            if req.kind not in kinds:
                kinds.add(req.kind)
                self._one(i, phase, None)
        return phase

    def _one(self, i, phase, tracer):
        index = i % len(self.requests)
        req = self.requests[index]
        before = self._kernel_s
        text, rc, exc, wall = self.call(req, tracer, i)
        self._kernel_s = calibrate.measure()
        verdict = self.judge(index, req, text, rc, exc)
        phase.add(req, wall, 0.5 * (before + self._kernel_s), verdict, text)


def end_to_end(phase, setup):
    latencies = phase.latencies
    tail, pct, count = stats.tail_latency(latencies)
    return {
        "setup_s": setup,
        "req_per_s": len(latencies) / phase.busy,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "checked_ok_frac": phase.checks_ok / phase.checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, pct, count


def per_layer(traced, plain, tracer):
    n = len(traced.walls)
    selfs = tracing.self_times(tracer.spans)
    wall = traced.wall  # spans are raw wall time
    unattributed = wall - tracing.top_level_time(tracer.spans)
    c = tracer.counts
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (selfs[layer] / n, "s/req")
    per_req = {
        "cli.rows_out": traced.rows_out, "cli.bytes_out": traced.bytes_out,
        "kernels.calls": c["kernels.calls"],
        "kernels.term_cells": c["kernels.term_cells"],
        "superosc.calls": c["superosc.calls"],
        "special.calls": c["special.calls"], "special.points": c["special.points"],
        "signals.calls": c["signals.calls"],
        "quadrature.rules_built": c["quadrature.rules_built"],
        "quadrature.nodes": c["quadrature.nodes"],
        "transforms.calls": c["transforms.calls"],
        "transforms.stft_flops": c["transforms.stft_flops"],
        "evolution.points": c["evolution.points"],
        "evolution.hazard_points": c["evolution.hazard_points"],
        "zak.grid_points": c["zak.grid_points"],
        "zak.refinements": c["zak.refinements"],
        "verify.cases": c["verify.cases"],
        "verify.cases_failed": c["verify.cases_failed"],
        "trace.spans": len(tracer.spans),
    }
    for name, total in per_req.items():
        out[name] = (total / n, "count/req")
    built = c["quadrature.rules_built"]
    out["quadrature.rule_reuse"] = (
        1.0 - c["quadrature.distinct_specs"] / built if built else 0.0, "ratio")
    out["unattributed.self_s"] = (unattributed / n, "s/req")
    out["trace.request_wall_s"] = (wall / n, "s/req")
    out["trace.overhead_frac"] = (1.0 - plain.busy / len(plain.walls)
                                  / (traced.busy / n), "ratio")
    out["calib.kernel_s"] = (statistics.median(plain.kernel_s + traced.kernel_s), "s")
    both = (plain.failed + traced.failed, len(plain.walls) + n)
    out["check.fail_rate"] = (both[0] / both[1], "ratio")
    out["check.tol_ratio_max"] = (max(plain.worst_ratio, traced.worst_ratio), "ratio")
    return out


def summary(phase):
    """What a phase did, for the printed report and the saved run file."""
    n = len(phase.walls)
    out = {
        "requests": n, "wall_s": phase.wall, "reference_s": phase.busy,
        "kernel_median_s": statistics.median(phase.kernel_s),
        "fail_rate": phase.failed / n, "failed": phase.failed,
        "unexpected": phase.unexpected, "tol_ratio_max": phase.worst_ratio,
        "checks": phase.checks, "checks_ok": phase.checks_ok,
        "by_kind": {kind: {"requests": count, "failed": failed,
                           "tol_ratio_max": ratio,
                           "p50_s": statistics.median(lats),
                           "known_defect": known}
                    for kind, (count, failed, ratio, lats, known)
                    in phase.by_kind.items()},
        "problems": phase.problems[:5],
    }
    if n > stats.TAIL_BEYOND:
        out["raw"] = {"req_per_s": n / phase.wall,
                      "latency_p50_s": statistics.median(phase.walls),
                      "latency_tail_s": stats.tail_latency(phase.walls)[0]}
    return out


def _print_phase(title, s):
    n = s["requests"]
    print(f"{title}: {n} requests, {s['wall_s']:.3f} s wall = "
          f"{s['reference_s']:.3f} reference-machine s (calibration kernel "
          f"median {s['kernel_median_s'] * 1e3:.4f} ms, reference "
          f"{calibrate.REFERENCE_S * 1e3:g} ms); fail_rate "
          f"{s['fail_rate']:.4f} ({s['failed']} of {n}; {s['unexpected']} "
          f"unexpected); tol_ratio_max {s['tol_ratio_max']:.4g}; "
          f"checked values {s['checks_ok']} of {s['checks']} within tolerance")
    if "raw" in s:
        print("  raw wall time: " + ", ".join(
            f"{k} {v:.6g}" for k, v in s["raw"].items()))
    print(f"  {'request kind':28s} {'n':>5s} {'failed':>6s} {'tol_ratio_max':>13s} "
          f"{'p50_s':>9s}  known defect")
    for kind, k in s["by_kind"].items():
        print(f"  {kind:28s} {k['requests']:5d} {k['failed']:6d} "
              f"{k['tol_ratio_max']:13.4g} {k['p50_s']:9.5f}  "
              f"{k['known_defect'] or '-'}")
    for kind, problems in s["problems"]:
        print(f"  FAILED {kind}: {'; '.join(problems)}")


def main(argv=None):
    args = _parse_args(argv)
    if "SUPERSTFT_QUAD_NODES" in os.environ:
        _refuse("SUPERSTFT_QUAD_NODES is set; it changes how much work "
                "quadrature does, so runs would not be comparable")
    cli = _import_package()
    requests, unit = workloads.build(args.workload, args.seed)
    setup, setup_samples = (None, [])
    if not args.trace:
        setup, setup_samples = measure_setup()
    for req in requests:  # references are computed before any timing
        req.check.prepare()
    runner = Runner(cli, requests, unit)
    warm = runner.warm_up()
    # keep the harness's own objects out of the collector's way while timing
    gc.collect()
    gc.freeze()
    if args.trace:
        plain, traced, tracer = runner.run(args.seconds, traced=True)
        metrics = per_layer(traced, plain, tracer)
        phases = (("warm-up", warm), ("untraced", plain), ("traced", traced))
    else:
        plain = runner.run(args.seconds)
        values, pct, count = end_to_end(plain, setup)
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
        phases = (("warm-up", warm), ("measured", plain))

    run_info = record.run_record(ROOT)
    print(f"run record: {json.dumps(run_info, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; {len(requests)} requests per list, one "
          f"closed-loop client")
    report = {title: summary(phase) for title, phase in phases}
    for title, phase_summary in report.items():
        _print_phase(title, phase_summary)
    if setup is not None:
        report["setup_raw_s"] = setup_samples
        report["latency_tail_percentile"] = pct
        print(f"setup_s raw wall times ({SETUP_RUNS} fresh interpreters): "
              + " ".join(f"{s:.4f}" for s in setup_samples))
        print(f"latency_tail_s is p{pct:.2f} of {count} samples "
              f"({stats.TAIL_BEYOND} beyond it)")
    for name, (value, unit_name) in metrics.items():
        print(f"  {name:26s} {value:16.8g} {unit_name}")

    measured = [p for title, p in phases if title != "warm-up"]
    attempted = sum(len(p.walls) for p in measured)
    failed = sum(p.unexpected for p in measured)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"record": run_info, "args": vars(args), "report": report,
                   "result": result}, f, indent=1)
    if args.trace:
        tracing.dump(tracer.spans, stem + "-spans.csv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
