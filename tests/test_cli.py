import csv
import json
import math
import warnings

import numpy as np
import pytest

import superstft.cli as cli
from superstft.cli import (_ROW_BLOCK, _axis, _complex_columns, _labels,
                           _merge_axis_values, _write_grid, main)
from superstft.verify import CaseResult


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_axis_parsing():
    np.testing.assert_allclose(_axis("-1:1:5"), np.linspace(-1, 1, 5))
    np.testing.assert_allclose(_axis("0.5"), [0.5])
    with pytest.raises(Exception):
        _axis("1:2")
    with pytest.raises(Exception):
        _axis("1:2:0")


def test_merge_axis_values():
    argv = ["spectrogram", "--u", "-3:3:61", "--mode", "closed"]
    merged = _merge_axis_values(argv)
    assert "--u=-3:3:61" in merged
    assert "--mode" in merged  # non-axis flags untouched


def test_spectrogram_csv_contract(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrogram", "--window", "gaussian", "--signal", "superosc",
               "--a", "2", "--n", "4", "--u", "-3:3:61", "--eta", "-3:3:61",
               "--mode", "both", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(str(out))
    assert rows[0] == ["u", "eta", "re", "im", "abs", "abs_err"]
    assert len(rows) - 1 == 61 * 61
    # row-major with u as the outer loop
    us = [float(r[0]) for r in rows[1:]]
    assert len(set(us[:61])) == 1
    assert us[61] != us[0]
    # closed and quadrature agree far better than the contract asks
    assert max(float(r[5]) for r in rows[1:]) < 1e-7
    # %.17g fields round-trip exactly
    for r in rows[1:4]:
        for field in r[:5]:
            assert "%.17g" % float(field) == field
    # LF line endings
    raw = out.read_bytes()
    assert b"\r" not in raw


def test_spectrogram_hermite_and_limit(tmp_path):
    out = tmp_path / "h.csv"
    rc = main(["spectrogram", "--window", "hermite", "--order", "1",
               "--signal", "limit", "--a", "1.5", "--u", "-1:1:3",
               "--eta", "0:1:2", "--mode", "both", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(str(out))
    assert len(rows) - 1 == 6
    assert max(float(r[5]) for r in rows[1:]) < 1e-8


def test_spectrogram_scalar_axis(tmp_path):
    out = tmp_path / "one.csv"
    rc = main(["spectrogram", "--n", "2", "--u", "0.5", "--eta", "0.25",
               "--out", str(out)])
    assert rc == 0
    rows = _read_csv(str(out))
    assert len(rows) - 1 == 1
    assert float(rows[1][0]) == 0.5 and float(rows[1][1]) == 0.25


def test_spectrogram_unresolved_axis_is_a_usage_error(capsys):
    """An eta band no route resolves at n = 64 ends in a one-line message
    and exit 2, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["spectrogram", "--n", "64", "--a", "2", "--x", "0.5",
              "--u", "0.3", "--eta", "-50:50:3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not resolved" in captured.err and "[-50, 50]" in captured.err
    assert "Traceback" not in captured.err


def test_spectrogram_rejects_negative_order():
    with pytest.raises(SystemExit) as exc:
        main(["spectrogram", "--order", "-1", "--n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["spectrogram", "--window", "hermite", "--n", "2"],
    ["evolve", "--window", "hermite", "--x", "0", "--t", "0"],
    ["zak-frame", "--window", "hermite", "--resolution", "16"],
])
def test_order_above_maximum_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--order", "65"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--order: must be in 0..64" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["zak-frame", "--window", "gaussian", "--resolution", "1"],
     "--resolution: must be >= 2, got 1"),
])
def test_out_of_domain_integer_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["spectrogram", "--n", "1100", "--a", "0.5", "--u", "0", "--eta", "50"],
    ["evolve", "--superosc", "--n", "1100", "--a", "0.5", "--x", "0",
     "--t", "0"],
])
def test_coefficient_overflow_is_a_usage_error(argv, tmp_path, capsys):
    """The termwise fallback and the superoscillating evolution form the
    coefficients, which overflow at n = 1100: exit 2, one line, no rows."""
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "overflow double precision at n = 1100, a = 0.5" in err
    assert not out.exists()


def test_verify_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "zak", "--json", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 2
    assert rep["seed"] == 42
    assert all(case["pass"] for case in rep["suites"])
    keys = set(rep["suites"][0])
    assert keys == {"id", "paper_anchor", "params", "max_error", "tolerance",
                    "pass", "elapsed_s", "margin"}
    for case in rep["suites"]:
        assert case["elapsed_s"] > 0
        err, tol = case["max_error"], case["tolerance"]
        if err > 0 and tol > 0:
            assert case["margin"] == math.log10(tol / err)
        else:
            assert case["margin"] is None


@pytest.mark.parametrize("max_error, tolerance, margin", [
    (1e-8, 1e-5, 3.0), (1e-5, 1e-8, -3.0), (0.0, 1e-5, None),
    (1e-3, 0.0, None), (0.0, 0.0, None), (math.nan, 1e-5, None),
])
def test_verify_margin(max_error, tolerance, margin):
    """margin = log10(tolerance / max_error) in digits, None when either
    is 0 or the error is not a number."""
    case = CaseResult(id="c", suite="s", anchor="a", params={},
                      max_error=max_error, tolerance=tolerance, elapsed_s=0.1)
    if margin is None:
        assert case.margin is None
    else:
        assert case.margin == pytest.approx(margin, abs=1e-15)


def test_verify_hermite_suite_has_compact_case(tmp_path):
    out = tmp_path / "h.json"
    rc = main(["verify", "--suite", "hermite", "--json", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert "i_km_compact" in [case["id"] for case in rep["suites"]]


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_zak_frame_superosc(tmp_path, capsys):
    rc = main(["zak-frame", "--signal", "superosc-gaussian", "--a", "2",
               "--n", "4", "--resolution", "128"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "Frame"
    assert {"schema", "lowerBound", "upperBound", "gridResolution",
            "verdict", "minLocation", "tolerance",
            "wienerEstimate"} <= set(rep)
    assert rep["wienerEstimate"]["heuristic"] is True


def test_zak_frame_hermite_window(capsys):
    rc = main(["zak-frame", "--window", "hermite", "--order", "1",
               "--resolution", "64"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] in ("NotFrame", "Inconclusive")
    assert abs(rep["minLocation"][0]) < 1e-9
    assert abs(rep["minLocation"][1]) < 1e-9


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "0"])
def test_zak_frame_rejects_bad_tolerance(tolerance, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zak-frame", "--window", "gaussian", "--resolution", "16",
              "--tolerance", tolerance])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_zak_frame_non_finite_bounds_are_a_usage_error(capsys):
    """F_n overflows at n = 64, a = 1e6, so the scan and the Wiener sum meet
    NaN; JSON cannot carry it, so the CLI exits 2 with one line."""
    with pytest.raises(SystemExit) as exc:
        main(["zak-frame", "--signal", "superosc-gaussian", "--a", "1e6",
              "--n", "64", "--resolution", "16"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err
    assert "Traceback" not in captured.err


def test_handler_usage_error_names_its_subcommand(capsys):
    """A usage error raised by a handler prints its subcommand's usage
    line, as argparse's own errors do."""
    with pytest.raises(SystemExit):
        main(["zak-frame", "--signal", "superosc-gaussian", "--a", "1e6",
              "--n", "64", "--resolution", "16"])
    assert capsys.readouterr().err.startswith("usage: superstft zak-frame")
    with pytest.raises(SystemExit):
        main(["evolve", "--x", "0:1:3"])
    assert capsys.readouterr().err.startswith("usage: superstft evolve")


@pytest.mark.parametrize("signal", ["superosc", "limit"])
@pytest.mark.parametrize("u", ["1:-1:3", "0.5:0.5:2"])
def test_numeric_modes_accept_any_finite_axis(signal, u, tmp_path):
    """--mode numeric and both take decreasing or repeated axes, as closed
    mode does, and agree with it."""
    base = ["spectrogram", "--signal", signal, "--n", "4", "--u", u,
            "--eta", "0"]
    rows = {}
    for mode in ("closed", "numeric", "both"):
        out = tmp_path / f"{mode}.csv"
        assert main([*base, "--mode", mode, "--out", str(out)]) == 0
        rows[mode] = list(csv.DictReader(open(out)))
    assert [r["u"] for r in rows["numeric"]] == [r["u"] for r in rows["closed"]]
    assert len(rows["closed"]) == int(u.split(":")[2])
    for closed, numeric in zip(rows["closed"], rows["numeric"]):
        assert abs(float(closed["abs"]) - float(numeric["abs"])) <= 1e-10
    assert max(float(r["abs_err"]) for r in rows["both"]) <= 1e-10


def test_zak_frame_requires_subject():
    with pytest.raises(SystemExit) as exc:
        main(["zak-frame", "--resolution", "32"])
    assert exc.value.code == 2


def test_evolve_datum_row(tmp_path):
    out = tmp_path / "ev.csv"
    rc = main(["evolve", "--window", "gaussian", "--x0", "0", "--k0", "1",
               "--t", "0:1:11", "--x", "-4:4:81", "--normalized",
               "--out", str(out)])
    assert rc == 0
    rows = _read_csv(str(out))
    assert rows[0] == ["x", "t", "re", "im", "abs", "accuracy_flag"]
    assert len(rows) - 1 == 11 * 81
    # t-major ordering: the first 81 rows are the t = 0 slice
    assert all(float(r[1]) == 0.0 for r in rows[1:82])
    worst = 0.0
    for r in rows[1:82]:
        x = float(r[0])
        datum = np.exp(1j * x) * math.exp(-x * x / 2.0)
        got = complex(float(r[2]), float(r[3]))
        worst = max(worst, abs(got - datum))
    assert worst < 1e-9


def test_evolve_hermite_hazard_flag(tmp_path):
    out = tmp_path / "haz.csv"
    with pytest.warns(RuntimeWarning):
        rc = main(["evolve", "--window", "hermite", "--order", "1",
                   "--t", "2000", "--x", "0:1:3", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(str(out))
    assert all(r[5] == "1" for r in rows[1:])


def test_evolve_superosc_mode(tmp_path):
    out = tmp_path / "so.csv"
    rc = main(["evolve", "--superosc", "--a", "2", "--n", "8",
               "--t", "0:0.5:2", "--x", "-1:1:5", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(str(out))
    assert len(rows) - 1 == 10
    # t = 0 slice is F_n itself
    from superstft.superosc import SuperoscParams, f_n
    p = SuperoscParams(a=2.0, n=8)
    for r in rows[1:6]:
        got = complex(float(r[2]), float(r[3]))
        assert abs(got - f_n(p, float(r[0]))) < 1e-12
    assert all(r[5] == "0" for r in rows[1:])


def test_evolve_requires_grids():
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--window", "gaussian", "--t", "0:1:3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["spectrogram", "--n", "2", "--u", "nan"],
    ["spectrogram", "--n", "2", "--u", "0:inf:3"],
    ["spectrogram", "--n", "2", "--u", "-1e308:1e308:3"],
    ["spectrogram", "--n", "2", "--eta", "-inf"],
    ["spectrogram", "--n", "2", "--x", "nan"],
    ["spectrogram", "--n", "2", "--a", "inf"],
    ["zak-frame", "--signal", "superosc-gaussian", "--n", "2", "--a", "nan"],
    ["evolve", "--superosc", "--n", "4", "--x", "0:1:3", "--t", "nan"],
    ["evolve", "--x", "nan", "--t", "0:1:3"],
    ["evolve", "--x", "0:1:3", "--t", "0:1:3", "--x0", "inf"],
    ["evolve", "--x", "0:1:3", "--t", "0:1:3", "--k0", "-inf"],
])
def test_non_finite_numbers_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# The per-cell writer the CLI used before its row-block writer; kept here as
# the reference for the CSV bytes.
def _fmt(value):
    return "%.17g" % value


def _reference_rows(pairs, values, extra=None):
    lines = []
    for k, (a, b) in enumerate(pairs):
        v = complex(values[k])
        row = [_fmt(a), _fmt(b), _fmt(v.real), _fmt(v.imag), _fmt(abs(v))]
        if extra is not None:
            row.append(extra[k] if isinstance(extra[k], str) else _fmt(extra[k]))
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def _lines(text):
    """Rows with their line ends: a mismatch is reported by row index
    instead of by a diff of the whole text."""
    return text.splitlines(keepends=True)


def test_csv_writer_matches_per_cell_format():
    rng = np.random.default_rng(7)
    z = (rng.normal(size=6000) + 1j * rng.normal(size=6000)) \
        * 10.0 ** rng.integers(-5, 5, size=6000)
    # cells where np.abs and Python abs disagree in the last bit, if this
    # numpy has any, come first
    disagree = np.abs(z) != np.array([abs(v) for v in z.tolist()])
    z = np.concatenate([z[disagree], z[~disagree]])
    assert z.size > _ROW_BLOCK
    tail = ",%s,%.17g,%.17g,%.17g,%.17g\n"
    # (slices, rows per slice): many slices per write block, a slice
    # spanning write blocks, and one-row slices
    for shape in ((3, 2000), (1, 6000), (6000, 1)):
        outer, inner = rng.normal(size=shape[0]), np.arange(shape[1]) * 0.1
        writes = []
        out = type("Out", (), {"write": staticmethod(writes.append)})
        _write_grid(out, [u + tail for u in _labels(outer)], _labels(inner),
                    [*_complex_columns(z), -z.real])
        pairs = [(a, b) for a in outer for b in inner]
        assert _lines("".join(writes)) == _lines(
            _reference_rows(pairs, z, -z.real)), shape
        # memory stays flat: no write holds more than one block of rows
        assert max(w.count("\n") for w in writes) <= _ROW_BLOCK, shape


def _spectrogram_reference(u, eta):
    from superstft.kernels import stft_superosc_closed_grid
    from superstft.signals import gaussian_window
    from superstft.superosc import SuperoscParams
    values = stft_superosc_closed_grid(gaussian_window(), 0.5,
                                       SuperoscParams(a=2.0, n=8), u, eta)
    pairs = [(ui, ei) for ui in u for ei in eta]
    return "u,eta,re,im,abs\n" + _reference_rows(pairs, values.ravel())


@pytest.mark.parametrize("u, eta", [
    ("0.5", "-3:3:9001"),    # scalar u: one slice longer than a write block
    ("-3:3:9001", "0.25"),   # scalar eta: one-row slices
    ("-0", "-1:1:3"),        # -0.0 prints as -0
])
def test_spectrogram_axis_shapes_match_per_cell_writer(tmp_path, u, eta):
    out = tmp_path / "s.csv"
    assert main(["spectrogram", "--n", "8", "--x", "0.5", "--u", u,
                 "--eta", eta, "--out", str(out)]) == 0
    text = out.read_text()
    expected = _spectrogram_reference(_axis(u), _axis(eta))
    assert _lines(text) == _lines(expected)
    if u == "-0":
        assert text.splitlines()[1].startswith("-0,-1,")


def test_evolve_hazard_slice_bytes_match_per_cell_writer(tmp_path):
    from superstft.evolution import EvolutionPoint, evolve_hermite
    out = tmp_path / "haz.csv"
    with pytest.warns(RuntimeWarning):
        assert main(["evolve", "--window", "hermite", "--order", "1",
                     "--t", "0:2000:2", "--x", "0:1:4", "--out", str(out)]) == 0
    xs = np.linspace(0, 1, 4)
    expected = "x,t,re,im,abs,accuracy_flag\n"
    with pytest.warns(RuntimeWarning):
        for t, flag in ((0.0, "0"), (2000.0, "1")):
            v = evolve_hermite(1, EvolutionPoint(xs, t, 0.0, 0.0))
            expected += _reference_rows([(x, t) for x in xs], v,
                                        [flag] * xs.size)
    assert _lines(out.read_text()) == _lines(expected)


def test_parser_is_built_once_and_handlers_resolved_per_call(monkeypatch,
                                                            capsys):
    """main builds its parser on the first call only, and runs the cmd_*
    bound in the module at call time."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "cmd_zak_frame", lambda args: 7)
    assert main(["zak-frame", "--window", "gaussian"]) == 7
    assert main(["zak-frame", "--window", "gaussian"]) == 7
    assert built == [1]
    monkeypatch.undo()
    assert main(["zak-frame", "--window", "gaussian", "--resolution",
                 "16"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]


@pytest.mark.parametrize("window", [["--window", "gaussian"],
                                    ["--window", "hermite", "--order", "3"]])
def test_spectrogram_csv_bytes_match_per_cell_writer(tmp_path, window):
    from superstft.kernels import stft_superosc_closed_grid
    from superstft.signals import build_signal, gaussian_window, hermite_window
    from superstft.superosc import SuperoscParams
    from superstft.transforms import stft_grid
    out = tmp_path / "s.csv"
    rc = main(["spectrogram", *window, "--n", "8", "--x", "0.5",
               "--u", "-4:4:33", "--eta", "-3:3:25", "--mode", "both",
               "--out", str(out)])
    assert rc == 0
    g = gaussian_window() if window[1] == "gaussian" else hermite_window(3)
    p = SuperoscParams(a=2.0, n=8)
    u, eta = np.linspace(-4, 4, 33), np.linspace(-3, 3, 25)
    closed = stft_superosc_closed_grid(g, 0.5, p, u, eta)
    numeric = stft_grid(build_signal(g, 0.5, p), g, u, eta)
    pairs = [(ui, ei) for ui in u for ei in eta]
    err = [abs(c - q) for c, q in zip(closed.ravel(), numeric.ravel())]
    expected = "u,eta,re,im,abs,abs_err\n" + _reference_rows(
        pairs, closed.ravel(), err)
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("route", [
    ["--superosc", "--a", "2", "--n", "8"],
    ["--window", "gaussian", "--x0", "0.5", "--k0", "1.5"],
    ["--window", "hermite", "--order", "3", "--k0", "0.5", "--normalized"],
])
def test_evolve_csv_bytes_match_per_cell_writer(tmp_path, route):
    from superstft.evolution import (EvolutionPoint, evolve_gaussian_closed,
                                     evolve_hermite, evolve_superosc)
    from superstft.superosc import SuperoscParams
    out = tmp_path / "e.csv"
    rc = main(["evolve", *route, "--x", "-3:3:31", "--t", "0:0.6:4",
               "--out", str(out)])
    assert rc == 0
    xs, ts = np.linspace(-3, 3, 31), np.linspace(0, 0.6, 4)
    expected = "x,t,re,im,abs,accuracy_flag\n"
    for t in ts:
        if route[0] == "--superosc":
            v = evolve_superosc(SuperoscParams(a=2.0, n=8), xs, t)
        elif route[1] == "gaussian":
            v = evolve_gaussian_closed(EvolutionPoint(xs, t, 0.5, 1.5))
        else:
            v = evolve_hermite(3, EvolutionPoint(xs, t, 0.0, 0.5),
                               normalized=True)
        expected += _reference_rows([(x, t) for x in xs], v, ["0"] * xs.size)
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("argv", [
    ["evolve", "--window", "hermite", "--order", "3", "--x", "-4:4:9",
     "--t", "0:1:3"],
    ["evolve", "--superosc", "--n", "32", "--x", "-4:4:9", "--t", "0:1:3"],
    ["evolve", "--window", "gaussian", "--k0", "2", "--x", "-4:4:9",
     "--t", "-1:1:3"],
])
def test_evolve_without_hazard_emits_no_warning(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 27 and all(r.endswith(",0") for r in rows)


def test_evolve_hazard_slice_warns_once_and_flags_its_rows(tmp_path):
    out = tmp_path / "haz.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["evolve", "--window", "hermite", "--order", "1",
                   "--t", "0:2000:2", "--x", "0:1:4", "--out", str(out)])
    assert rc == 0
    assert [w.category for w in caught] == [RuntimeWarning]
    flags = [r[5] for r in _read_csv(str(out))[1:]]
    assert flags == ["0"] * 4 + ["1"] * 4
