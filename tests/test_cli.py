import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import logistic_kle.cli as cli
from logistic_kle import (KleProcess, Problem, e_pdf_exact, truncated_beta,
                          truncated_exponential)


def run(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_maybe_float(c) for c in r] for r in rows[1:]]


def _maybe_float(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


class TestSpectrum:
    def test_wiener_eigenvalue_ratios(self, tmp_path):
        assert run(["spectrum", "--preset", "example1", "--out", tmp_path]) == 0
        header, rows = read_csv(tmp_path / "spectrum.csv")
        assert header == ["index", "parity", "eigenvalue", "frequency",
                          "cumulative_variance_fraction"]
        nus = [r[2] for r in rows]
        assert_allclose(nus[1] / nus[0], 1.0 / 9.0, rtol=1e-7)
        assert_allclose(nus[2] / nus[0], 1.0 / 25.0, rtol=1e-7)
        cum = [r[4] for r in rows]
        assert np.all(np.diff(cum) > 0) and cum[-1] < 1.0

    def test_expcov_spectrum(self, tmp_path):
        assert run(["spectrum", "--preset", "example3", "--out", tmp_path]) == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert_allclose(rows[0][2], 0.7388108094164549, rtol=1e-7)
        assert [r[1] for r in rows[:4]] == ["odd", "even", "odd", "even"]


class TestPdf:
    def test_initial_time_row_and_exact_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "N": [1],
            "p_grid": {"start": 0.05, "stop": 0.95, "num": 51},
            "t_grid": {"values": [0.0, 0.75]},
        }))
        out = tmp_path / "out"
        assert run(["pdf", "--preset", "example1", "--config", cfgfile,
                    "--out", out]) == 0
        header, rows = read_csv(out / "pdf_N1.csv")
        assert header == ["t", "p", "f1n"]
        law = truncated_beta(7.0, 10.0)
        t0_rows = [r for r in rows if r[0] == 0.0]
        assert len(t0_rows) == 51
        for _, p, v in t0_rows:
            assert_allclose(v, law.pdf(p), rtol=1e-7, atol=1e-9)
        assert (out / "pdf_exact.csv").exists()

    def test_no_exact_file_for_other_models(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "N": [1],
            "p_grid": {"start": 0.2, "stop": 0.8, "num": 7},
            "t_grid": {"values": [0.25]},
        }))
        assert run(["pdf", "--preset", "example3", "--config", cfgfile,
                    "--out", tmp_path / "o"]) == 0
        assert (tmp_path / "o" / "pdf_N1.csv").exists()
        assert not (tmp_path / "o" / "pdf_exact.csv").exists()


class TestMoments:
    def test_bridge_moments(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "N": [1, 2], "t_grid": {"values": [0.0, 0.5]},
        }))
        assert run(["moments", "--preset", "example2", "--config", cfgfile,
                    "--out", tmp_path / "o"]) == 0
        header, rows = read_csv(tmp_path / "o" / "moments.csv")
        assert header == ["t", "N", "mean", "variance"]
        law = truncated_exponential(10.0)
        law_mean, law_var = law.moments()
        for t, N, mean, var in rows:
            assert var >= 0.0
            if t == 0.0:
                assert_allclose(mean, law_mean, atol=1e-4)
                assert_allclose(var, law_var, atol=1e-4)

    def test_wiener_moments_have_exact_columns(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "N": [1], "t_grid": {"values": [0.75]},
        }))
        assert run(["moments", "--preset", "example1", "--config", cfgfile,
                    "--out", tmp_path / "o"]) == 0
        header, rows = read_csv(tmp_path / "o" / "moments.csv")
        assert header[-2:] == ["exact_mean", "exact_variance"]
        t, N, mean, var, em, ev = rows[0]
        # N=1 truncation is already decent at t=0.75
        assert abs(mean - em) < 5e-3 and abs(var - ev) < 5e-3


class TestErrors:
    def test_wiener_exact_errors_match_library(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "errors": {"times": [0.5], "N": [1, 2]},
        }))
        assert run(["errors", "--preset", "example1", "--config", cfgfile,
                    "--out", tmp_path / "o"]) == 0
        header, rows = read_csv(tmp_path / "o" / "errors.csv")
        assert header == ["t", "N1", "N2"]
        prob1 = Problem(KleProcess.wiener(1.5), truncated_beta(7.0, 10.0), 1)
        assert_allclose(rows[0][1], e_pdf_exact(prob1, 0.5), rtol=1e-7)
        assert rows[0][2] < rows[0][1]

    def test_exact_kind_refused_without_reference(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["errors", "--preset", "example2", "--config",
                 _cfg(tmp_path, {"errors": {"kind": "pdf_vs_exact"}}),
                 "--out", tmp_path / "o"])

    def test_consecutive_kind_needs_n_two(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["errors", "--preset", "example2", "--config",
                 _cfg(tmp_path, {"errors": {"kind": "pdf_consecutive",
                                            "N": [1, 2]}}),
                 "--out", tmp_path / "o"])

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["errors", "--preset", "example1", "--config",
                 _cfg(tmp_path, {"errors": {"kind": "entropy"}}),
                 "--out", tmp_path / "o"])


def _cfg(tmp_path, extra):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(extra))
    return path


class TestMcCheck:
    BASE = {"N": [2], "mc": {"t": 0.75, "samples": 10000, "bins": 40}}

    def test_passing_run_and_determinism(self, tmp_path):
        cfgfile = _cfg(tmp_path, self.BASE)
        assert run(["mc-check", "--preset", "example1", "--config", cfgfile,
                    "--out", tmp_path / "a", "--seed", "7"]) == 0
        assert run(["mc-check", "--preset", "example1", "--config", cfgfile,
                    "--out", tmp_path / "b", "--seed", "7"]) == 0
        for name in ("mc_report.csv", "mc_report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        txt = (tmp_path / "a" / "mc_report.txt").read_text()
        assert "verdict=pass" in txt

    def test_failing_run_exits_nonzero(self, tmp_path, monkeypatch):
        real = cli.mc_density_check

        def inflated(problem, t, cfg):
            import dataclasses
            rep = real(problem, t, cfg)
            return dataclasses.replace(rep, max_abs_z=7.3)

        monkeypatch.setattr(cli, "mc_density_check", inflated)
        code = run(["mc-check", "--preset", "example1",
                    "--config", _cfg(tmp_path, self.BASE),
                    "--out", tmp_path / "o", "--seed", "7"])
        assert code == 3
        assert "verdict=FAIL" in (tmp_path / "o" / "mc_report.txt").read_text()


class TestManifest:
    def test_round_trip_reproduces_artifacts(self, tmp_path):
        cfgfile = _cfg(tmp_path, {
            "N": [1],
            "p_grid": {"start": 0.1, "stop": 0.9, "num": 17},
            "t_grid": {"values": [0.0, 1.0]},
        })
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["pdf", "--preset", "example1", "--config", cfgfile,
                    "--out", a]) == 0
        manifest = json.loads((a / "run_manifest.json").read_text())
        assert manifest["command"] == "pdf"
        assert set(a.name for a in a.iterdir()) >= \
            {"pdf_N1.csv", "pdf_exact.csv", "run_manifest.json"}
        assert set(manifest["artifacts"]) == {"pdf_N1.csv", "pdf_exact.csv"}
        for digest in manifest["artifacts"].values():
            assert len(digest) == 64

        assert run(["pdf", "--config", a / "run_manifest.json",
                    "--out", b]) == 0
        for name in ("pdf_N1.csv", "pdf_exact.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

        # manifests of earlier versions carry the retired tensor-order and
        # thread-count keys; they still reproduce the run
        old = dict(manifest, config=dict(manifest["config"],
                                         quad_order=None, threads=1))
        (tmp_path / "old.json").write_text(json.dumps(old))
        assert run(["pdf", "--config", tmp_path / "old.json",
                    "--out", tmp_path / "c"]) == 0
        for name in ("pdf_N1.csv", "pdf_exact.csv"):
            assert (a / name).read_bytes() == (tmp_path / "c" / name).read_bytes()

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["pdf", "--preset", "example9", "--out", tmp_path])


class TestBadInput:
    def test_time_outside_domain_refused_in_one_line(self, tmp_path):
        for extra in ({"t_grid": {"values": [2.0]}},
                      {"errors": {"times": [0.5, 1.6]}},
                      {"mc": {"t": -0.1}}):
            with pytest.raises(SystemExit) as exc:
                run(["pdf", "--preset", "example1", "--config",
                     _cfg(tmp_path, extra), "--out", tmp_path / "o"])
            msg = str(exc.value.code)
            assert "outside the model's time domain [0.0, 1.5]" in msg
            assert "\n" not in msg
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, spec", [
        ("p_grid", None), ("t_grid", None), ("t_grid", {"values": []}),
        ("t_grid", {"values": None}), ("p_grid", {"values": []}),
        ("p_grid", {"start": None})],
        ids=["p_grid", "t_grid", "t_grid-empty", "t_grid-values-null",
             "p_grid-empty", "p_grid-start-null"])
    def test_null_grid_refused_in_one_line(self, tmp_path, capsys, key, spec):
        # example1's t_grid has values only: a null list leaves no range
        args = ["mc-check", "--preset", "example1", "--config",
                _cfg(tmp_path, {key: spec}), "--out", tmp_path / "o"]
        if spec is None:
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == f"{key} must be a grid object, not null"
        else:
            assert run(args) == 2
            assert capsys.readouterr().err == (
                f"logistic-kle mc-check: {key} needs a nonempty values list, "
                f"or start, stop and a positive num\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, initial, message", [
        ("mc-check", {"alpha": float("nan")}, "alpha and beta"),
        ("mc-check", {"alpha": float("inf")}, "alpha and beta"),
        ("pdf", {"kind": "exponential", "rate": float("nan")}, "rate lam")],
        ids=["beta-alpha-nan", "beta-alpha-inf", "exponential-rate-nan"])
    def test_non_finite_law_refused_in_one_line(self, tmp_path, capsys,
                                                command, initial, message):
        # JSON's NaN and Infinity would otherwise give NaN densities, and a
        # NaN mc-check whose empty histogram read as a pass
        extra = {"initial": initial, "N": [1],
                 "mc": {"t": 0.75, "samples": 10000, "bins": 20}}
        code = run([command, "--preset", "example1", "--config",
                    _cfg(tmp_path, extra), "--out", tmp_path / "o"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"logistic-kle {command}: {message} must be positive and finite\n")
        assert not (tmp_path / "o" / "run_manifest.json").exists()

    def test_unrepresentable_normalization_refused_in_one_line(
            self, tmp_path, capsys):
        # e^{-1e4 p} underflows over the whole support, which wrote rows of
        # NaN densities and exited 0
        extra = {"initial": {"kind": "exponential", "rate": 1e4}, "N": [1]}
        code = run(["pdf", "--preset", "example1", "--config",
                    _cfg(tmp_path, extra), "--out", tmp_path / "o"])
        assert code == 2
        assert capsys.readouterr().err == (
            "logistic-kle pdf: exponential law on [0.1, 0.9] has normalization "
            "constant 0, not a positive normal double\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra, key", [
        ({"N": [1.7]}, "N"), ({"N": [True]}, "N"), ({"N": [0]}, "N"),
        ({"N": []}, "N"), ({"errors": {"N": [2.9]}}, "errors.N"),
        ({"errors": {"N": [2, -1]}}, "errors.N")],
        ids=["N-float", "N-bool", "N-zero", "N-empty", "errors.N-float",
             "errors.N-negative"])
    def test_non_integer_orders_refused_in_one_line(self, tmp_path, extra,
                                                    key):
        # N = 1.7 ran N = 1 and wrote pdf_N1.csv under a manifest saying 1.7
        with pytest.raises(SystemExit) as exc:
            run(["errors", "--preset", "example1", "--config",
                 _cfg(tmp_path, extra), "--out", tmp_path / "o"])
        orders = extra["N"] if key == "N" else extra["errors"]["N"]
        assert exc.value.code == (f"{key} list must contain positive "
                                  f"integers, not {json.dumps(orders)}")
        assert not (tmp_path / "o").exists()

    def test_refused_run_creates_no_directory(self, tmp_path):
        # the law is refused after the config resolved, before any artifact
        # is written: no output directory is made for nothing, and one that
        # already existed is left as it was
        args = ["mc-check", "--preset", "example1", "--config",
                _cfg(tmp_path, {"initial": {"alpha": float("nan")}})]
        assert run(args + ["--out", tmp_path / "new" / "o"]) == 2
        assert not (tmp_path / "new").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert run(args + ["--out", kept]) == 2
        assert kept.is_dir() and not any(kept.iterdir())

    def test_library_value_error_exits_two(self, tmp_path, capsys):
        code = run(["pdf", "--preset", "example1", "--config",
                    _cfg(tmp_path, {"p_grid": {"values": [0.5, 1.5]}}),
                    "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "logistic-kle pdf: p must lie in (0, 1)\n"
        assert not (tmp_path / "o" / "run_manifest.json").exists()

        # a box-spline law of more widths than the guard allows
        code = run(["pdf", "--preset", "example3", "--N", "11",
                    "--out", tmp_path / "o"])
        assert code == 2
        assert capsys.readouterr().err == (
            "logistic-kle pdf: box-spline law of 11 widths refused: "
            "at most 10 are supported\n")
