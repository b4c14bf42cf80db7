"""Tests of the benchmark's own logic: self time, the tail-percentile rule,
seeded request lists, output checks, metric names and the tracer."""

import io
import json
import os
import random
import re
import sys
from contextlib import redirect_stdout

import pytest

import stats
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, layer, start, end, parent):
    return [name, layer, float(start), float(end), parent, 0]


def test_self_time_of_nested_spans():
    spans = [
        span("main", "cli", 0, 10, None),               # 0
        span("grid", "kernels", 1, 4, 0),               # 1
        span("laguerre", "special", 2, 3, 1),           # 2
        span("integrate", "quadrature", 5, 9, 0),       # 3
        span("nodes_weights", "quadrature", 6, 7, 3),   # 4
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"cli": 3.0, "kernels": 2.0, "special": 1.0,
                     "quadrature": 4.0}
    assert sum(selfs.values()) == tracing.top_level_time(spans) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("outer", "zak", 0, 10, None),
        span("a", "signals", 2, 6, 0),
        span("b", "signals", 4, 8, 0),       # overlaps a on [4, 6]
        span("c", "special", 9, 12, 0),      # sticks out past the parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs["zak"] == 10 - 6 - 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(3).shuffle(samples)
    value, pct, n = stats.tail_latency(samples)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    value, pct, n = stats.tail_latency(list(range(11)))
    assert (value, pct, n) == (0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        stats.tail_latency(list(range(10)))


def _fingerprint(requests):
    out = []
    for r in requests:
        chk = r.check
        picks = getattr(chk, "cells", None) or getattr(chk, "points", None)
        out.append((r.kind, r.argv, r.known_defect, picks))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_request_list(name):
    a, unit_a = workloads.build(name, 11)
    b, unit_b = workloads.build(name, 11)
    c, _ = workloads.build(name, 12)
    assert _fingerprint(a) == _fingerprint(b) and unit_a == unit_b
    assert _fingerprint(a) != _fingerprint(c)
    assert len(a) % unit_a == 0


def test_grids_and_evolve_keep_the_known_defects_in():
    grids, _ = workloads.build("grids", 1)
    kinds = {r.kind: r.known_defect for r in grids}
    assert kinds["spectrogram/gaussian/n64"] and kinds["spectrogram/hermite3/n64"]
    assert kinds["spectrogram/gaussian/n8"] is None
    evolve, _ = workloads.build("evolve", 1)
    assert {r.kind for r in evolve if r.known_defect} == {"evolve/superosc/n32"}


def _verify_report(**errors):
    cases = [{"id": case, "max_error": err, "tolerance": 1e-10,
              "pass": err <= 1e-10} for case, err in errors.items()]
    return json.dumps({"schema": 1, "suites": cases})


def test_known_verify_defect_is_excused_only_within_roundoff():
    check = workloads.VerifyCheck()
    v = check(1, _verify_report(i_km_compact=5e-8, moyal=1e-12))
    assert v.tol_failed and not v.unexpected
    v = check(1, _verify_report(i_km_compact=1e-3, moyal=1e-12))
    assert v.unexpected
    v = check(1, _verify_report(i_km_compact=5e-8, moyal=2e-10))
    assert v.unexpected


def test_cancelling_sum_is_excused_only_within_its_roundoff_envelope():
    axis = ["-1", "0", "1"]
    rows = [[u, e, "0", "0", "0"] for u in axis for e in axis]
    chk = _spectrogram_check()
    term_sum = 1e6                     # hard tolerance 32 eps 1e6 = 7.1e-9
    chk._ref = [(1e-9 + 0j, workloads.ROUNDOFF * workloads.EPS * term_sum),
                (0j, chk.TOL)]
    v = chk(0, _csv(rows))
    assert v.tol_failed and not v.unexpected
    chk._ref[0] = (1e-8 + 0j, chk._ref[0][1])
    assert chk(0, _csv(rows)).unexpected
    chk._ref[0] = (1e-9 + 0j, chk.TOL)  # no known defect: no envelope
    assert chk(0, _csv(rows)).unexpected
    hard = workloads.EvolveCheck(None, [], [], [], term_sum=2.0 ** 32).hard
    assert hard == pytest.approx(32 * 2.0 ** -20)


def _spectrogram_check():
    axis = workloads._axis("-1:1:3")
    return workloads.SpectrogramCheck(0, 0.5, 8, 2.0, axis, [(0, 0), (2, 1)])


def _csv(rows, header="u,eta,re,im,abs"):
    return header + "\n" + "".join(",".join(r) + "\n" for r in rows)


def test_csv_format_check():
    chk = _spectrogram_check()
    chk._ref = [(0j, chk.TOL), (0j, chk.TOL)]
    axis = ["-1", "0", "1"]
    good = [[u, e, "0", "0", "0"] for u in axis for e in axis]
    v = chk(0, _csv(good))
    assert not v.problems and v.checks == v.checks_ok == 2
    bad_float = [row[:] for row in good]
    bad_float[4][2] = "0.1"   # %.17g prints 0.10000000000000001
    assert "round trip" in chk(0, _csv(bad_float)).problems[0]
    assert "rows" in chk(0, _csv(good[:-1])).problems[0]
    assert "header" in chk(0, _csv(good, "u,eta,re,im")).problems[0]
    assert "exit code" in chk(1, _csv(good)).problems[0]
    swapped = [good[1]] + [good[0]] + good[2:]
    assert "out of place" in chk(0, _csv(swapped)).problems[0]
    v = chk(0, _csv([[u, e, "1", "0", "1"] for u in axis for e in axis]))
    assert v.checks_ok == 0 and v.worst_ratio == pytest.approx(1e10)


def test_json_outputs_need_a_schema():
    v = workloads.VerifyCheck()(0, json.dumps({"suites": []}))
    assert "schema" in v.problems[0]
    v = workloads.VerifyCheck()(0, "{not json")
    assert "malformed" in v.problems[0]
    report = {"schema": 1, "suites": [
        {"id": "a", "max_error": 1e-12, "tolerance": 1e-10, "pass": True},
        {"id": "b", "max_error": 0.0, "tolerance": 0.0, "pass": True},
        {"id": "c", "max_error": 2e-10, "tolerance": 1e-10, "pass": False}]}
    v = workloads.VerifyCheck()(1, json.dumps(report))
    assert not v.problems and v.tol_failed and v.unexpected
    assert (v.checks, v.checks_ok, v.worst_ratio) == (3, 2, pytest.approx(2.0))
    assert "exit code" in workloads.VerifyCheck()(0, json.dumps(report)).problems[0]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    import run
    spec = _benchmark_json()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layers + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert e2e == list(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    tracer = tracing.Tracer()
    phase = run.Phase()
    phase.latencies = phase.walls = [0.5, 0.5]
    phase.kernel_s = [1e-3, 1e-3]
    assert set(run.per_layer(phase, phase, tracer)) == set(layers)


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import superstft.cli as cli
    import superstft.kernels as kernels
    original = kernels.stft_superosc_closed_grid
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert cli.stft_superosc_closed_grid is kernels.stft_superosc_closed_grid
        assert kernels.stft_superosc_closed_grid is not original
        tracer.begin_request(0)
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["spectrogram", "--window", "hermite", "--order", "2",
                           "--n", "4", "--u", "-1:1:3", "--eta", "-1:1:5"])
    finally:
        tracing.uninstall(patches)
    assert rc == 0
    assert cli.stft_superosc_closed_grid is original is kernels.stft_superosc_closed_grid
    layers = {s[tracing.LAYER] for s in tracer.spans}
    assert {"cli", "kernels", "superosc", "special", "signals"} <= layers
    assert tracer.spans[0][tracing.NAME] == "main"
    assert tracer.spans[0][tracing.PARENT] is None
    assert all(s[tracing.PARENT] is not None for s in tracer.spans[1:])
    assert tracer.counts["kernels.term_cells"] == 5 * 3 * 5
    selfs = tracing.self_times(tracer.spans)
    assert sum(selfs.values()) == pytest.approx(tracing.top_level_time(tracer.spans))


def test_tracer_wraps_cached_functions_and_needs_the_hooked_ones(monkeypatch):
    import functools
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import superstft.cli  # noqa: F401  (imports every layer)
    import superstft.quadrature as quadrature
    cached = functools.lru_cache(maxsize=None)(quadrature.nodes_weights)
    monkeypatch.setattr(quadrature, "nodes_weights", cached)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert quadrature.nodes_weights is not cached
        assert quadrature.nodes_weights.cache_info == cached.cache_info
    finally:
        tracing.uninstall(patches)
    assert quadrature.nodes_weights is cached
    monkeypatch.setattr(quadrature, "nodes_weights", lambda *a: None)
    with pytest.raises(RuntimeError, match="nodes_weights"):
        tracing.install(tracing.Tracer())
