"""The verify runner: every case's worst error is one NaN-propagating max,
and a run is reproducible and case-isolated."""

import json
import math

import numpy as np

from superstft import kernels, verify
from superstft.cli import main
from superstft.verify import SUITES, report, run_suite


def _records(results):
    """Records without their wall times, with params as parsed JSON."""
    out = []
    for r in results:
        rec = r.to_record()
        del rec["elapsed_s"]
        rec["params"] = json.loads(json.dumps(rec["params"]))
        out.append(rec)
    return out


def test_nan_error_fails_its_case(monkeypatch, tmp_path):
    """A NaN from the oracle is a NaN max_error and a failed case, and the
    command exits 1; a running max(worst, err) would keep the earlier 0.0."""
    monkeypatch.setattr(kernels, "gabor_kernel_numeric",
                        lambda *args: complex(math.nan, math.nan))
    cases = {r.id: r for r in run_suite("kernels", 42)}
    for case_id in ("gabor-kernel-gaussian", "gabor-kernel-hermite"):
        assert math.isnan(cases[case_id].max_error), cases[case_id]
        assert not cases[case_id].passed
        assert cases[case_id].margin is None
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "kernels", "--json", str(out)]) == 1


def test_nan_among_finite_errors_is_the_max(monkeypatch):
    """The NaN need not come first: a case whose later errors are finite
    still reports NaN, and its params are the static ones and the drawn."""
    monkeypatch.setattr(verify, "_CASES", [])

    @verify._case("probe", "stft", "probe", 1.0, fixed=0)
    def run(rng):
        yield 0.0
        yield np.array([1e-3, math.nan])
        yield 2.0
        yield {"drawn": 1}

    assert verify._CASES == [("probe", "stft", "probe", 1.0, run)]
    err, params = run(np.random.default_rng(1))
    assert math.isnan(err)
    assert params == {"fixed": 0, "drawn": 1}


def test_runs_are_reproducible_and_cases_isolated():
    """Two runs at one seed give the same records, and each suite run alone
    gives its slice of the all-suite run: every case draws from its own
    fresh generator."""
    for seed in (1, 2, 3, 7):
        whole = _records(run_suite("all", seed))
        assert whole == _records(run_suite("all", seed)), seed
        for suite in SUITES[1:]:
            alone = _records(run_suite(suite, seed))
            ids = {r["id"] for r in alone}
            assert alone and alone == [r for r in whole if r["id"] in ids], (
                seed, suite)
    assert [r["id"] for r in whole] == [c[0] for c in verify._CASES]


def test_default_report_is_strict_json():
    """At the default seed every error and margin is finite or null."""
    json.dumps(report(run_suite("all", 42), 42), allow_nan=False)
