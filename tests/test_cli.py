"""Command-line interface: CSV ingestion, subcommands, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from angular_gof import cli
from angular_gof import datagen as dg
from angular_gof._lru import ByteLRU
from angular_gof.experiments import (ScenarioConfig, benjamini_hochberg, bonferroni,
                                     run_power_study)
from angular_gof.geometry import WeightKind
from angular_gof.limitlaw import DESK_GRID, critical_value_table
from angular_gof.models import QuadratureError


@pytest.fixture()
def pair_csv(tmp_path):
    data = dg.sample(dg.gumbel(2.0), 600, np.random.default_rng(0))
    path = tmp_path / "pair.csv"
    np.savetxt(path, data, delimiter=",", header="u,v", comments="")
    return str(path)


class TestIngest:
    def test_header_detected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("alpha,beta\n1.0,2.0\n3.0,4.0\n")
        arr, names = cli.ingest_csv(path)
        assert names == ["alpha", "beta"]
        np.testing.assert_array_equal(arr, [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1.5,2.5\n3.5,4.5\n")
        arr, names = cli.ingest_csv(path)
        assert names == ["col0", "col1"]
        assert arr.shape == (2, 2)

    def test_byte_order_mark_headerless(self, tmp_path):
        # the mark must not make the first data row a header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,2.5\n3.5,4.5\n")
        arr, names = cli.ingest_csv(path)
        assert names == ["col0", "col1"]
        np.testing.assert_array_equal(arr, [[1.5, 2.5], [3.5, 4.5]])

    def test_byte_order_mark_header(self, tmp_path):
        path = tmp_path / "bom_header.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1.0,2.0\n3.0,4.0\n")
        arr, names = cli.ingest_csv(path)
        assert names == ["a", "b"]
        np.testing.assert_array_equal(arr, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_values(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,y\n1.0,\n,2.0\n3.0,NA\n4.0,5.0\n")
        arr, _ = cli.ingest_csv(path)
        assert np.isnan(arr[0, 1]) and np.isnan(arr[1, 0]) and np.isnan(arr[2, 1])

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n")
        with pytest.raises(ValueError):
            cli.ingest_csv(path)


class TestCommands:
    def test_test_command(self, pair_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main([
            "test", pair_csv, "--family", "logistic", "--k", "24",
            "--B", "100", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "ok"
        assert payload["k"] == 24
        assert 0.0 <= payload["p_value"] <= 1.0
        assert set(payload["critical_values"]) == {"0.9", "0.95", "0.99"}

    def test_test_command_default_k(self, pair_csv, capsys):
        rc = cli.main(["test", pair_csv, "--B", "60", "--seed", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 24  # round(sqrt(600)) = 24.49 -> 24

    def test_quantiles_cache_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "cv.txt"
        rc = cli.main([
            "quantiles", "--r-grid", "0.4,0.6", "--alpha", "0.95",
            "--B", "50", "--seed", "2", "--cache", str(cache),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        from angular_gof.limitlaw import CriticalValueTable

        table = CriticalValueTable.load(cache)
        assert table.quantiles.tolist() == payload["quantiles"]

    def test_quantiles_cache_is_the_report(self, tmp_path):
        out, cache = tmp_path / "report.json", tmp_path / "cv.json"
        rc = cli.main([
            "quantiles", "--family", "hr", "--r-grid", "0.8,1.2", "--alpha", "0.9,0.95",
            "--B", "40", "--seed", "3", "--out", str(out), "--cache", str(cache),
        ])
        assert rc == 0
        assert cache.read_bytes() == out.read_bytes()
        from angular_gof.limitlaw import CriticalValueTable

        assert CriticalValueTable.load(cache).to_dict() == json.loads(out.read_text())

    def test_power_command(self, capsys):
        rc = cli.main([
            "power", "--scenario", "1", "--lambdas", "0.8", "--n", "400",
            "--k", "18", "--reps", "6", "--B", "60", "--seed", "3",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambdas"] == [0.8]
        assert 0.0 <= payload["rates"][0] <= 1.0

    def test_pairs_command(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        table = np.column_stack([
            dg.sample(dg.husler_reiss(1.0), 700, rng), rng.uniform(size=700),
        ])
        path = tmp_path / "table.csv"
        np.savetxt(path, table, delimiter=",", header="a,b,c", comments="")
        rc = cli.main(["pairs", str(path), "--family", "hr", "--B", "80", "--seed", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["pairs"]) == 3
        labels = [p["label"] for p in payload["pairs"]]
        assert labels == ["a:b", "a:c", "b:c"]
        for entry in payload["pairs"]:
            assert "bonferroni_reject" in entry and "bh_reject" in entry

    @pytest.mark.parametrize(
        "text,reason",
        [("a,b\n1,2\n3\n4,5\n", "line 3 has 1 fields, expected 2"),
         ("a,b\n1,2\n3,4\n4,x\n", "line 4: could not convert string to float: 'x'")],
        ids=["ragged", "non-numeric"],
    )
    def test_malformed_csv_is_an_error_report(self, tmp_path, capsys, text, reason):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        rc = cli.main(["test", str(path), "--B", "20"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert payload["message"].endswith(reason)

    @pytest.mark.parametrize(
        "spec,reason",
        [("0,7", "'0,7' names a column outside 0..2"),
         ("0-1", "'0-1' is not a pair of column indices 'i,j'"),
         ("1,1", "'1,1' pairs a column with itself")],
        ids=["out-of-range", "malformed", "self-pair"],
    )
    def test_bad_pairs_is_an_error_report(self, tmp_path, capsys, spec, reason):
        path = tmp_path / "table.csv"
        np.savetxt(path, np.random.default_rng(8).uniform(size=(200, 3)), delimiter=",")
        rc = cli.main(["pairs", str(path), "--pairs", spec, "--B", "20"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert payload["message"].endswith(reason)

    @pytest.mark.parametrize(
        "text,argv,reason",
        [("a,b\n1,2\n3,\n,4\n5,6\n", [], "fewer than 3 complete cases: n=2, k=1"),
         ("a,b\n" + "".join(f"{i},{i % 3}\n" for i in range(10)), ["--k", "20"],
          "k must be below the number of complete cases: k=20 >= n=10")],
        ids=["n-below-3", "k-ge-n"],
    )
    def test_pairs_names_the_failed_rule(self, tmp_path, capsys, text, argv, reason):
        path = tmp_path / "short.csv"
        path.write_text(text)
        rc = cli.main(["pairs", str(path), "--B", "20"] + argv)
        assert rc == 0
        (entry,) = json.loads(capsys.readouterr().out)["pairs"]
        assert entry["status"] == "error"
        assert entry["message"] == reason

    def test_pairs_needs_two_columns(self, tmp_path, capsys):
        path = tmp_path / "one_column.csv"
        np.savetxt(path, np.random.default_rng(9).uniform(size=(200, 1)), delimiter=",")
        rc = cli.main(["pairs", str(path), "--B", "20"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert payload["message"].endswith("pairs needs at least two columns, got 1")

    @pytest.mark.parametrize("width", [1, 3])
    def test_test_needs_two_columns(self, tmp_path, capsys, width):
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.random.default_rng(9).uniform(size=(200, width)), delimiter=",")
        rc = cli.main(["test", str(path), "--B", "20"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert payload["message"].endswith(f"test expects a two-column CSV, got {width} columns")

    @pytest.mark.parametrize(
        "argv,reason",
        [(["test", "{csv}", "--k", "0"], "--k must satisfy 1 <= k < n, got k=0, n=3"),
         (["test", "{csv}", "--k", "5"], "--k must satisfy 1 <= k < n, got k=5, n=3"),
         (["pairs", "{csv}", "--k", "0"], "--k must be at least 1, got 0"),
         (["power", "--k", "5000", "--n", "3000"], "--k must satisfy 1 <= k < n, got k=5000, n=3000")],
        ids=["test-k0", "test-k-ge-n", "pairs-k0", "power-k-ge-n"],
    )
    def test_k_out_of_range_is_an_error_report(self, tmp_path, capsys, argv, reason):
        path = tmp_path / "three.csv"
        path.write_text("1.0,2.0\n3.0,1.0\n2.0,3.0\n")
        rc = cli.main([arg.format(csv=path) for arg in argv] + ["--B", "20"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"status": "error", "message": reason}

    @pytest.mark.parametrize(
        "args,reason",
        [(["--r-grid", "1.5"], "logistic parameter must lie in (0, 1], got 1.5"),
         (["--B", "0"], "B must be >= 1, got 0"),
         (["--alpha", "1"], "alpha must lie in (0, 1), got 1"),
         (["--p", "inf"], "p = inf is not supported by the limit-law simulator"),
         (["--p", "0.5"], "p must be >= 1, got 0.5"),
         (["--seed", "-1"], "--seed must be at least 0, got -1"),
         (["--r-grid", "1,1"], "the r grid repeats 1"),
         (["--alpha", "0.9,0.9"], "the alphas repeat 0.9")],
        ids=["r-outside-family", "B0", "alpha1", "p-inf", "p-half", "seed-negative",
             "r-repeated", "alpha-repeated"],
    )
    def test_quantiles_inputs_checked_before_any_build(self, monkeypatch, capsys, args, reason):
        from angular_gof import limitlaw

        def no_build(*_args, **_kwargs):
            raise AssertionError("a simulator was built")

        monkeypatch.setattr(limitlaw, "LimitLawSimulator", no_build)
        argv = ["quantiles", "--family", "logistic", "--r-grid", "0.5", "--B", "20"]
        rc = cli.main(argv + args)
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"status": "error", "message": reason}

    @pytest.mark.parametrize(
        "argv,reason",
        [(["test", "{csv}", "--B", "0"], "B must be >= 1, got 0"),
         (["test", "{csv}", "--p", "inf"], "p = inf is not supported by the limit-law simulator"),
         (["test", "{csv}", "--alpha", "0.9,1.5"], "alpha must lie in (0, 1), got 1.5"),
         (["power", "--B", "0"], "B must be >= 1, got 0"),
         (["power", "--alpha", "1"], "alpha must lie in (0, 1), got 1"),
         (["power", "--p", "inf"], "p = inf is not supported by the limit-law simulator"),
         (["pairs", "{csv}", "--B", "0"], "B must be >= 1, got 0"),
         (["pairs", "{csv}", "--p", "inf"], "p = inf is not supported by the limit-law simulator"),
         (["pairs", "{csv}", "--alpha", "1.5"], "alpha must lie in (0, 1), got 1.5"),
         (["test", "{csv}", "--p", "0.5"], "p must be >= 1, got 0.5"),
         (["power", "--p", "0.5"], "p must be >= 1, got 0.5"),
         (["pairs", "{csv}", "--p", "0.5"], "p must be >= 1, got 0.5"),
         (["power", "--reps", "0"], "--reps must be at least 1, got 0"),
         (["power", "--lambdas", "0,1.5"], "--lambdas values must lie in [0, 1], got 1.5"),
         (["power", "--lambdas", "-0.1"], "--lambdas values must lie in [0, 1], got -0.1"),
         (["power", "--lambdas", ","], "--lambdas is empty"),
         (["test", "{csv}", "--seed", "-1"], "--seed must be at least 0, got -1"),
         (["power", "--seed", "-1"], "--seed must be at least 0, got -1"),
         (["pairs", "{csv}", "--seed", "-1"], "--seed must be at least 0, got -1")],
        ids=["test-B0", "test-p-inf", "test-alpha", "power-B0", "power-alpha1", "power-p-inf",
             "pairs-B0", "pairs-p-inf", "pairs-alpha", "test-p-half", "power-p-half",
             "pairs-p-half", "power-reps0", "power-lambda-above", "power-lambda-below",
             "power-lambdas-empty", "test-seed-negative", "power-seed-negative",
             "pairs-seed-negative"],
    )
    def test_draw_inputs_checked_before_any_work(self, monkeypatch, pair_csv, capsys,
                                                 argv, reason):
        def no_run(*_args, **_kwargs):
            raise AssertionError("a driver ran")

        for runner in ("run_single_test", "run_power_study", "run_pairwise_analysis"):
            monkeypatch.setattr(cli, runner, no_run)
        rc = cli.main([arg.format(csv=pair_csv) for arg in argv])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"status": "error", "message": reason}

    def test_degenerate_exit_code(self, tmp_path):
        u = np.random.default_rng(6).uniform(size=300)
        path = tmp_path / "dg.csv"
        np.savetxt(path, np.column_stack([u, u]), delimiter=",")
        rc = cli.main(["test", str(path), "--B", "20", "--seed", "0", "--out", str(tmp_path / "o.json")])
        assert rc == 1


    def test_constant_column_is_degenerate(self, tmp_path, capsys):
        data = dg.sample(dg.husler_reiss(1.0), 600, np.random.default_rng(6))
        data[:, 0] = 2.0
        path = tmp_path / "const.csv"
        np.savetxt(path, data, delimiter=",")
        rc = cli.main(["test", str(path), "--family", "hr", "--B", "20", "--seed", "0"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "degenerate"
        assert payload["message"] == "ties reach the top k = 24 ranks of margin 1 (24 tied values)"

    @pytest.mark.parametrize(
        "argv,library_call",
        [(["quantiles", "--family", "hr", "--r-grid", "30", "--B", "10"],
          lambda: critical_value_table("hr", 2.0, DESK_GRID, WeightKind.INV_SQRT_PI4,
                                       [30.0], (0.9, 0.95, 0.99), 10, seed=0)),
         (["quantiles", "--family", "logistic", "--r-grid", "0.0001", "--B", "10"],
          lambda: critical_value_table("logistic", 2.0, DESK_GRID, WeightKind.INV_SQRT_PI4,
                                       [0.0001], (0.9, 0.95, 0.99), 10, seed=0)),
         (["power", "--family", "logistic", "--scenario", "1", "--lambdas", "1", "--n", "100",
           "--k", "10", "--reps", "2", "--B", "10"],
          lambda: run_power_study(ScenarioConfig(family="logistic", scenario=1, lambdas=(1.0,),
                                                 n=100, k=10, B=10, reps=2)))],
        ids=["hr-mass", "logistic-quadrature", "all-replicates-failed"],
    )
    def test_failure_while_running_is_an_error_report(self, tmp_path, capsys, argv,
                                                      library_call):
        with pytest.raises((ValueError, QuadratureError)) as raised:
            library_call()
        expected = {"status": "error", "message": str(raised.value)}
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out) == expected
        out = tmp_path / "report.json"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text()) == expected

    def test_pairs_reports_a_failing_pair_in_its_entry(self, tmp_path, capsys, monkeypatch):
        from angular_gof import limitlaw

        rng = np.random.default_rng(4)
        table = np.column_stack([
            dg.sample(dg.husler_reiss(1.0), 700, rng), rng.uniform(size=700),
        ])
        path = tmp_path / "table.csv"
        np.savetxt(path, table, delimiter=",", header="a,b,c", comments="")
        argv = ["pairs", str(path), "--family", "hr", "--B", "80", "--seed", "5"]
        assert cli.main(argv) == 0
        reference = json.loads(capsys.readouterr().out)["pairs"]
        r_fail = reference[0]["r_hat"]
        assert [entry["r_hat"] for entry in reference].count(r_fail) == 1
        real = limitlaw._covariance

        def indefinite_for_one_pair(model, p, grid):
            sigma = real(model, p, grid)
            if model.r == r_fail:
                sigma[0, 0] = -1.0
            return sigma

        monkeypatch.setattr(limitlaw, "_covariance", indefinite_for_one_pair)
        monkeypatch.setattr(limitlaw, "_DRAWS", ByteLRU(limitlaw._DRAWS_CACHE_BYTES))
        assert cli.main(argv) == 0
        entries = json.loads(capsys.readouterr().out)["pairs"]
        assert entries[0]["status"] == "error"
        assert "not positive definite" in entries[0]["message"]
        rejects = ("bonferroni_reject", "bh_reject", "bh_dependent_reject")
        for entry, ref in zip(entries[1:], reference[1:]):
            assert entry["status"] == "ok"
            assert {k: v for k, v in entry.items() if k not in rejects} == \
                {k: v for k, v in ref.items() if k not in rejects}
        pvalues = [1.0] + [ref["p_value"] for ref in reference[1:]]
        for name, decisions in (("bonferroni_reject", bonferroni(pvalues, 0.05)),
                                ("bh_reject", benjamini_hochberg(pvalues, 0.05)),
                                ("bh_dependent_reject",
                                 benjamini_hochberg(pvalues, 0.05, dependent=True))):
            assert [entry[name] for entry in entries] == decisions.tolist()

    def test_non_finite_draws_are_a_failure(self, pair_csv, capsys, monkeypatch):
        from angular_gof import geometry, limitlaw

        monkeypatch.setattr(geometry, "weight_q_cell_integral",
                            lambda q, lo, hi: np.full(np.shape(lo), np.nan))
        monkeypatch.setattr(limitlaw, "_DRAWS", ByteLRU(limitlaw._DRAWS_CACHE_BYTES))
        assert cli.main(["test", pair_csv, "--k", "24", "--B", "20"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert payload["message"].startswith("null-law draws are not all finite for logistic r=")
        assert cli.main(["quantiles", "--r-grid", "0.5", "--B", "20"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "status": "error",
            "message": "null-law draws are not all finite for logistic r=0.5, p=2, "
                       "grid h=0.05 M=200 N=500",
        }
        assert limitlaw._DRAWS.nbytes == 0


class TestDeterminism:
    def test_byte_identical_reruns(self, pair_csv, tmp_path):
        """Same inputs and seed produce byte-identical output files, across
        separate processes and thread counts."""
        outs = []
        for name, threads in (("a.json", "1"), ("b.json", "4")):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "angular_gof.cli", "test", pair_csv,
                 "--k", "24", "--B", "80", "--seed", "42",
                 "--threads", threads, "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
