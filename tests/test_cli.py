import argparse
import csv
import json
import os
import platform
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest

import flatgp
import flatgp.cli as cli_module
import flatgp.flatlimit as flatlimit_module
import flatgp.gp as gp_module
import flatgp.pool as pool_module
import flatgp.spm as spm_module
from flatgp.cli import build_parser, main
from flatgp.dataio import (
    Dataset,
    format_float,
    parse_dataset,
    parse_points,
    write_json,
)
from flatgp.errors import DatasetError, EmptyDataset
from flatgp.polybasis import Design
from flatgp.smoothers import SmootherStack, difference
from flatgp.spm import SaddleFactorization
from references import write_dataset


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0, 1, 8))
    y = rng.normal(size=8)
    path = tmp_path / "data.csv"
    lines = ["x,y"] + [f"{format_float(a)},{format_float(b)}" for a, b in zip(x, y)]
    write_lines(path, lines)
    return path


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestParseDataset:
    def test_basic_shapes(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["a,b,y", "0,1,2", "3,4,5", "6,7,8"])
        ds = parse_dataset(path)
        assert ds.n == 3 and ds.d == 2
        np.testing.assert_array_equal(ds.y, [2, 5, 8])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            parse_dataset(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(EmptyDataset):
            parse_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        write_lines(path, ["x,y"])
        with pytest.raises(EmptyDataset):
            parse_dataset(path)

    def test_ragged_row_reports_location(self, tmp_path):
        path = tmp_path / "r.csv"
        write_lines(path, ["x,y", "0,1", "2"])
        with pytest.raises(DatasetError) as exc:
            parse_dataset(path)
        assert exc.value.row == 3

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "n.csv"
        write_lines(path, ["x,y", "0,1", "hello,2"])
        with pytest.raises(DatasetError) as exc:
            parse_dataset(path)
        assert exc.value.row == 3 and exc.value.column == "x"

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        write_lines(path, ["x,y", "0,inf"])
        with pytest.raises(DatasetError) as exc:
            parse_dataset(path)
        assert exc.value.column == "y"

    @pytest.mark.parametrize("header", ["x,x,y", "x,y,x"])
    def test_repeated_column_name_rejected(self, tmp_path, header):
        path = tmp_path / "dup.csv"
        write_lines(path, [header, "0,1,2"])
        with pytest.raises(DatasetError, match="'x' is repeated") as exc:
            parse_dataset(path)
        assert exc.value.column == "x"
        with pytest.raises(DatasetError, match="'x' is repeated"):
            parse_points(path, 3)

    def test_roundtrip_is_bit_exact(self, tmp_path, rng):
        ds = Dataset(
            X=Design(rng.normal(size=(7, 2)) * 1e-3),
            y=rng.normal(size=7) * 1e7,
            feature_names=("x1", "x2"),
            target_name="y",
        )
        path = tmp_path / "rt.csv"
        write_dataset(path, ds)
        back = parse_dataset(path)
        np.testing.assert_array_equal(back.X.points, ds.X.points)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_one_column_has_no_feature(self, tmp_path):
        path = tmp_path / "one.csv"
        write_lines(path, ["y", "1", "2"])
        with pytest.raises(DatasetError, match="at least one feature and one target"):
            parse_dataset(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        write_lines(path, ["x,y", "0,1", "", " , ", "2,3", ""])
        ds = parse_dataset(path)
        np.testing.assert_array_equal(ds.X.points[:, 0], [0, 2])
        np.testing.assert_array_equal(ds.y, [1, 3])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_names_its_row_and_column_after_blank_rows(self, cell, tmp_path):
        # "1e999" overflows to inf; the blank rows still count as file lines
        path = tmp_path / "nf.csv"
        write_lines(path, ["x,y", "0,1", "", " , ", "2,3", f"{cell},4"])
        with pytest.raises(DatasetError, match="non-finite value at row 6, column x") as exc:
            parse_dataset(path)
        assert exc.value.row == 6 and exc.value.column == "x"
        write_lines(path, ["x", "", "0", cell])
        with pytest.raises(DatasetError, match="row 4, column x") as exc:
            parse_points(path, 1)
        assert exc.value.row == 4

    def test_named_target_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["y,x", "1,2", "3,4"])
        ds = parse_dataset(path, target_col="y")
        assert ds.feature_names == ("x",)
        np.testing.assert_array_equal(ds.y, [1, 3])


class TestCommands:
    def test_predict_runs(self, data_csv, tmp_path):
        out = tmp_path / "pred"
        code = main([
            "predict", "--data", str(data_csv), "--kernel", "gaussian",
            "--eps", "2.0", "--gamma", "1.0", "--sigma2", "0.05",
            "--query", "0:1:9", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(f"{out}.csv")
        assert header == ["x1", "mean", "variance"]
        assert len(rows) == 9
        assert all(float(r[2]) >= 0 for r in rows)

    def test_fit_reports_metrics(self, data_csv, tmp_path):
        out = tmp_path / "fit"
        code = main([
            "fit", "--data", str(data_csv), "--eps", "2.0", "--gamma", "1.5",
            "--sigma2", "0.05", "--out", str(out),
        ])
        assert code == 0
        summary = read_json(f"{out}.json")
        assert 0 < summary["metrics"]["dof"] < 8
        assert summary["seed"] == 0

    def test_dof_grid_monotone_in_gamma(self, data_csv, tmp_path):
        out = tmp_path / "grid"
        code = main([
            "dof-grid", "--data", str(data_csv), "--eps-grid", "0.05:1:20",
            "--gamma-grid", "0.01:100:20", "--sigma2", "0.01", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(f"{out}.csv")
        assert header == ["eps", "gamma", "dof", "status"]
        assert len(rows) == 400
        by_eps = {}
        for eps, gamma, dof, status in rows:
            assert status == "ok"
            by_eps.setdefault(eps, []).append(float(dof))
        for eps, dofs in by_eps.items():
            assert all(b >= a - 1e-12 for a, b in zip(dofs, dofs[1:]))

    def test_criteria_grid_schema(self, data_csv, tmp_path):
        out = tmp_path / "crit"
        code = main([
            "criteria-grid", "--data", str(data_csv), "--eps-grid", "0.2:1:3",
            "--gamma-grid", "0.1:10:4", "--sigma2", "0.05", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(f"{out}.csv")
        assert header == ["eps", "gamma", "criterion", "value", "status"]
        assert len(rows) == 3 * 4 * 3

    def test_pred_curve_endpoints(self, data_csv, tmp_path):
        out = tmp_path / "curve"
        code = main([
            "pred-curve", "--data", str(data_csv), "--eps", "1.0",
            "--gamma-grid", "1e-8:1e12:40", "--sigma2", "0.01",
            "--xa", "0.2", "--xb", "0.8", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(f"{out}.csv")
        assert abs(float(rows[0][1])) < 1e-4 and abs(float(rows[0][2])) < 1e-4
        summary = read_json(f"{out}.json")
        assert summary["metrics"]["anchors"][0]["degree"] == 0

    def test_converge_exponential_passes(self, data_csv, tmp_path):
        out = tmp_path / "conv"
        code = main([
            "converge", "--data", str(data_csv), "--kernel", "exponential",
            "--p", "1", "--eps-grid", "0.025:0.2:4", "--sigma2", "0.01",
            "--tol", "0.05", "--out", str(out),
        ])
        assert code == 0
        summary = read_json(f"{out}.json")
        assert summary["metrics"]["slope"] >= 0.8
        assert summary["metrics"]["pass"] is True

    def test_converge_interpolation_summary_is_strict_json(self, tmp_path):
        # an interpolating limit has no variance deviations: slope_var is null
        out = tmp_path / "conv"
        code = main([
            "converge", "--n", "12", "--kernel", "exponential", "--p", "3",
            "--eps-grid", "0.2:0.05:3", "--out", str(out),
        ])
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        with open(f"{out}.json") as fh:
            summary = json.load(fh, parse_constant=reject)
        assert summary["metrics"]["case"] == "interpolation"
        assert summary["metrics"]["slope_var"] is None

    def test_write_json_rejects_non_finite(self, tmp_path):
        path = tmp_path / "summary.json"
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                write_json(path, {"metrics": {"slope": bad}})
        assert not path.exists()

    def test_rows_print_as_per_element_numpy_scalars_did(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = np.column_stack([
            np.arange(6), rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, 6),
            [-0.0, 1 / 3, 2.0**53 + 2, 5e-324, np.nan, -np.inf],
        ])
        out = tmp_path / "rows"
        args = argparse.Namespace(out=str(out), format="csv", seed=0)
        cli_module._emit(args, "rows", {}, ["i", "a", "b"], rows)
        from_array = (tmp_path / "rows.csv").read_bytes()
        # the per-element path: rows of numpy scalars
        cli_module._emit(args, "rows", {}, ["i", "a", "b"], [list(r) for r in rows])
        assert (tmp_path / "rows.csv").read_bytes() == from_array
        assert [line.rsplit(b",", 1)[1] for line in from_array.splitlines()[1:]] == [
            b"-0", b"0.33333333333333331", b"9007199254740994", b"4.9406564584124654e-324",
            b"nan", b"-inf",
        ]

    def test_isofreedom_outputs_near_integer_slope(self, data_csv, tmp_path):
        out = tmp_path / "iso"
        code = main([
            "isofreedom", "--data", str(data_csv), "--dof", "2.5",
            "--eps-grid", "0.3:0.03:8", "--sigma2", "0.01", "--out", str(out),
        ])
        assert code == 0
        summary = read_json(f"{out}.json")
        slope = summary["metrics"]["slope"]
        assert abs(slope - round(slope)) <= 0.15

    def test_isofreedom_eps_grid_in_either_order(self, data_csv, tmp_path):
        outputs = []
        for name, grid in (("down", "0.3:0.03:8"), ("up", "0.03:0.3:8")):
            out = tmp_path / name
            code = main([
                "isofreedom", "--data", str(data_csv), "--dof", "2.5",
                "--eps-grid", grid, "--sigma2", "0.01", "--out", str(out),
            ])
            assert code == 0
            outputs.append(
                ((tmp_path / f"{name}.csv").read_bytes(), read_json(f"{out}.json")["metrics"])
            )
        assert outputs[0] == outputs[1]

    def test_pred_curve_gamma_grid_in_either_order(self, tmp_path):
        outputs = []
        for name, grid in (("down", "1e12:1e-8:20"), ("up", "1e-8:1e12:20")):
            out = tmp_path / name
            code = main([
                "pred-curve", "--n", "20", "--eps", "0.5", "--gamma-grid", grid,
                "--xa", "0.2", "--xb", "0.8", "--out", str(out),
            ])
            assert code == 0
            outputs.append(
                ((tmp_path / f"{name}.csv").read_bytes(), read_json(f"{out}.json")["metrics"])
            )
        assert outputs[0] == outputs[1]

    def test_converge_eps_grid_in_either_order(self, tmp_path):
        outputs = []
        for name, grid in (("down", "0.2:0.025:4"), ("up", "0.025:0.2:4")):
            out = tmp_path / name
            code = main([
                "converge", "--n", "12", "--kernel", "exponential", "--p", "1",
                "--eps-grid", grid, "--out", str(out),
            ])
            assert code == 0
            outputs.append(
                ((tmp_path / f"{name}.csv").read_bytes(), read_json(f"{out}.json")["metrics"])
            )
        assert outputs[0] == outputs[1]

    def test_isofreedom_rejects_repeated_eps_cleanly(self, data_csv, tmp_path, capsys):
        code = main([
            "isofreedom", "--data", str(data_csv), "--dof", "2.5",
            "--eps-grid", "0.3:0.3:5", "--sigma2", "0.01", "--out", str(tmp_path / "iso"),
        ])
        assert code == 1
        assert "eps_grid" in capsys.readouterr().err

    def test_isofreedom_rejects_zero_sigma2_cleanly(self, data_csv, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "isofreedom", "--data", str(data_csv), "--dof", "2.5",
                "--eps-grid", "0.3:0.03:5", "--sigma2", "0", "--out", str(tmp_path / "iso"),
            ])
        assert code == 1
        assert "sigma2" in capsys.readouterr().err

    def test_dof_grid_rejects_negative_sigma2(self, tmp_path, capsys):
        out = tmp_path / "dof"
        code = main([
            "dof-grid", "--n", "20", "--kernel", "exponential", "--sigma2", "-0.01",
            "--eps-grid", "50:100:2", "--gamma-grid", "1:10:2", "--out", str(out),
        ])
        assert code == 1
        assert "sigma2" in capsys.readouterr().err
        rows = read_csv(f"{out}.csv")[1] if (tmp_path / "dof.csv").exists() else []
        assert not any(row[-1] == "ok" for row in rows)

    def test_fit_at_zero_noise_records_criterion_errors(self, tmp_path):
        out = tmp_path / "fit"
        code = main([
            "fit", "--n", "20", "--kernel", "exponential", "--eps", "100",
            "--sigma2", "0", "--out", str(out),
        ])
        assert code == 0
        metrics = read_json(f"{out}.json")["metrics"]
        assert metrics["dof"] == pytest.approx(20.0)
        assert isinstance(metrics["nlml"], float)
        for name in ("loo_mse", "loo_nll", "sure"):
            assert metrics[name].startswith("error: "), name
        assert "sigma2" in metrics["sure"]

    @pytest.mark.parametrize(
        "kernel, case",
        [
            (["--kernel", "matern", "--nu", "1.5"], "spline-regression"),
            (["--kernel", "gaussian", "--dim", "2"], "penalized-polynomial"),
        ],
    )
    def test_matched_factors_each_model_once(self, kernel, case, tmp_path, count_linalg):
        eigh = count_linalg("eigh")
        out = tmp_path / "matched"
        code = main(
            ["matched", "--n", "30", "--eps", "2.0", "--gamma", "5.0", "--out", str(out)] + kernel
        )
        assert code == 0
        assert read_json(f"{out}.json")["metrics"]["case"] == case
        # the source spectrum (its dof and the GP posterior) and the target
        # (trace solve and fits); neither is factored again
        assert len(eigh) == 2

    def test_fit_factors_once(self, tmp_path, count_linalg):
        eigh = count_linalg("eigh")
        out = tmp_path / "fit"
        assert main(["fit", "--n", "30", "--sigma2", "0.1", "--out", str(out)]) == 0
        metrics = read_json(f"{out}.json")["metrics"]
        assert all(isinstance(metrics[k], float) for k in ("dof", "loo_mse", "nlml"))
        # the smoother, the criteria and nlml all read one spectrum
        assert len(eigh) == 1

    def test_fit_forms_no_dense_smoother(self, tmp_path, dense_smoothers):
        out = tmp_path / "fit"
        assert main(["fit", "--n", "30", "--sigma2", "0.1", "--out", str(out)]) == 0
        assert len(read_csv(f"{out}.csv")[1]) == 30
        assert dense_smoothers == []

    def test_criteria_grid_factors_once_per_eps_and_forms_no_smoother(
        self, tmp_path, count_linalg, dense_smoothers
    ):
        eigh = count_linalg("eigh")
        out = tmp_path / "crit"
        code = main([
            "criteria-grid", "--n", "25", "--kernel", "matern", "--nu", "1.5",
            "--eps-grid", "0.2:2:4", "--gamma-grid", "0.1:10:5", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(f"{out}.csv")[1]
        assert len(rows) == 4 * 5 * 3 and all(row[-1] == "ok" for row in rows)
        # one spectrum per eps, filtered at every gamma at once: one stack of
        # smoothers gives all cells' diag M, M y and tr M
        assert eigh == [(25, 25)] * 4
        assert dense_smoothers == []

    def test_fit_reads_one_diagonal_and_one_fitted_vector(self, tmp_path, monkeypatch):
        reads = []
        diagonal, fitted = SmootherStack._diagonal.func, SmootherStack.fitted

        def counted_diagonal(self):
            reads.append("diagonal")
            return diagonal(self)

        def counted_fitted(self, y):
            last = self._last
            out = fitted(self, y)
            if self._last is not last:  # not the kept values of this y
                reads.append("fitted")
            return out

        monkeypatch.setattr(SmootherStack._diagonal, "func", counted_diagonal)
        monkeypatch.setattr(SmootherStack, "fitted", counted_fitted)
        out = tmp_path / "fit"
        assert main(["fit", "--n", "30", "--sigma2", "0.1", "--out", str(out)]) == 0
        metrics = read_json(f"{out}.json")["metrics"]
        assert all(isinstance(metrics[k], float) for k in ("loo_mse", "loo_nll", "sure"))
        # the fitted column and the three criteria share one of each
        assert sorted(reads) == ["diagonal", "fitted"]

    @pytest.mark.parametrize("sigma2", ["0.1", "0"])
    def test_fit_makes_one_leave_one_out_pass(self, sigma2, tmp_path, monkeypatch):
        calls, loo_rows = [], gp_module._loo_rows

        def counted(*args):
            calls.append(1)
            return loo_rows(*args)

        monkeypatch.setattr(gp_module, "_loo_rows", counted)
        out = tmp_path / "fit"
        argv = ["fit", "--n", "20", "--kernel", "exponential", "--eps", "100"]
        assert main(argv + ["--sigma2", sigma2, "--out", str(out)]) == 0
        metrics = read_json(f"{out}.json")["metrics"]
        # all three criteria, values or each one's own error, from one pass
        assert len(calls) == 1
        if sigma2 == "0":
            assert "leave-one-out" in metrics["loo_mse"]
            assert "leave-one-out" in metrics["loo_nll"]
            assert "sigma2" in metrics["sure"]
        else:
            assert all(isinstance(metrics[k], float) for k in ("loo_mse", "loo_nll", "sure"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["dof-grid", "--eps-grid", "0.5:2:3", "--gamma-grid", "0.1:10:4"],
            ["criteria-grid", "--eps-grid", "0.5:2:3", "--gamma-grid", "0.1:10:4"],
            ["nugget-compare", "--eps", "0.5", "--gamma-grid", "1e2:1e6:5"],
            ["pred-curve", "--eps", "0.5", "--gamma-grid", "1e-4:1e6:7", "--sigma2", "0.01",
             "--xa", "0.2", "--xb", "0.8"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_gain_grids_move_no_spectrum_per_cell(self, argv, tmp_path, monkeypatch):
        def refuse(self, factor):
            raise AssertionError("a gain grid cell moved a spectrum to its gain")

        monkeypatch.setattr(SaddleFactorization, "scaled", refuse)
        assert main(argv + ["--n", "20", "--out", str(tmp_path / "o")]) == 0

    def test_isofreedom_reads_eigenvalues_only(self, tmp_path, count_linalg):
        eigh, eigvalsh = count_linalg("eigh"), count_linalg("eigvalsh")
        for n, stacks in ((25, [(6, 25, 25)]), (300, [(2, 300, 300)] * 3)):
            eigvalsh.clear()
            out = tmp_path / f"iso{n}"
            code = main([
                "isofreedom", "--n", str(n), "--kernel", "matern", "--nu", "1.5",
                "--dof", "2.5", "--eps-grid", "0.3:0.03:6", "--out", str(out),
            ])
            assert code == 0
            assert len(read_csv(f"{out}.csv")[1]) == 6
            # eigenvalues only, as the trace equation reads nothing else, in
            # stacks of floor(500 / n) + 1 eps; at n = 25 one stack is the grid
            assert eigvalsh == stacks and eigh == []

    def test_converge_factors_each_eps_and_the_limit_once(self, tmp_path, count_linalg):
        eigh, eigvalsh = count_linalg("eigh"), count_linalg("eigvalsh")
        for n in (20, 300):
            eigh.clear()
            code = main([
                "converge", "--n", str(n), "--kernel", "exponential", "--p", "1",
                "--eps-grid", "0.025:0.2:4", "--query", "0:1:20", "--out", str(tmp_path / f"c{n}"),
            ])
            assert code == 0
            # the linear spline limit on the complement of its constant basis,
            # then one GP spectrum per eps, inline at n = 20 and pooled at 300
            assert sorted(eigh) == [(n - 1, n - 1)] + [(n, n)] * 4 and eigvalsh == []

    def test_nugget_compare_reads_eigenvalues_only(self, data_csv, tmp_path, count_linalg):
        eigh, eigvalsh = count_linalg("eigh"), count_linalg("eigvalsh")
        out = tmp_path / "nug"
        code = main([
            "nugget-compare", "--data", str(data_csv), "--eps", "0.05",
            "--gamma-grid", "1e2:1e6:5", "--out", str(out),
        ])
        assert code == 0
        # one spectrum: the nugget shifts its eigenvalues
        assert eigvalsh == [(8, 8)] and eigh == []

    def test_dof_grid_stacks_values_only_solves(self, tmp_path, count_linalg):
        eigh, eigvalsh = count_linalg("eigh"), count_linalg("eigvalsh")
        for n, eps_grid, stacks in (
            (20, "0.5:2:3", [(3, 20, 20)]), (300, "0.5:2:4", [(2, 300, 300)] * 2)
        ):
            eigvalsh.clear()
            code = main([
                "dof-grid", "--n", str(n), "--eps-grid", eps_grid,
                "--gamma-grid", "0.1:10:4", "--out", str(tmp_path / f"dof{n}"),
            ])
            assert code == 0
            # traces read eigenvalues only; each pool task solves floor(500 / n) + 1
            # eps at once, the smallest stack numpy solves without the GIL
            assert eigh == [] and eigvalsh == stacks

    def test_equiv_check_writes_strict_json_on_a_tiny_d2_design(self, tmp_path):
        # n=30 points in [0, 1]^2 and a smooth target plus noise: here the
        # bordered corner term is the largest deviation of basis_change
        rng = np.random.default_rng(7)
        X = rng.uniform(0.0, 1.0, size=(30, 2))
        y = np.sum(np.sin(3.0 * X + 0.5 * np.arange(2)), axis=1) + 0.1 * rng.normal(size=30)
        data = tmp_path / "data.csv"
        rows = np.column_stack([X, y])
        write_lines(data, ["x1,x2,y"] + [",".join(map(format_float, r)) for r in rows])
        out = tmp_path / "eq"
        code = main([
            "equiv-check", "--data", str(data), "--kernel", "gaussian", "--p", "2",
            "--sigma2", "0.01", "--seed", "7", "--out", str(out),
        ])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        with open(f"{out}.json") as fh:
            summary = json.loads(fh.read(), parse_constant=reject)
        checks = summary["metrics"]["checks"]
        assert sorted(checks) == ["basis_change", "kernel_absorption"]
        assert all(check["equivalent"] is True for check in checks.values())

    def test_equiv_check_passes_on_a_design_far_from_the_origin(self, tmp_path):
        # 30 points of [1990, 2020]: the absorbed kernel's monomials are taken
        # about the design's centre, so no x^2 ~ 4e6 round-off enters the check
        rng = np.random.default_rng(7)
        x = rng.uniform(1990.0, 2020.0, 30)
        y = np.sin(3.0 * (x - 1990.0) / 30.0) + 0.1 * rng.normal(size=30)
        data = tmp_path / "data.csv"
        write_lines(data, ["x1,y"] + [f"{format_float(a)},{format_float(b)}" for a, b in zip(x, y)])
        out = tmp_path / "eq"
        code = main([
            "equiv-check", "--data", str(data), "--kernel", "matern", "--nu", "1.5", "--p", "3",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        checks = read_json(f"{out}.json")["metrics"]["checks"]
        assert all(check["max_dev"] <= 1e-9 for check in checks.values())

    def test_equiv_check_runs_a_quadratic_basis_far_from_the_origin(self, tmp_path):
        # the quintic spline limit's basis has degree 2: recombined from raw
        # monomials of 30 points of [1990, 2020] it failed the rank rule
        rng = np.random.default_rng(7)
        x = rng.uniform(1990.0, 2020.0, 30)
        y = np.sin(3.0 * (x - 1990.0) / 30.0) + 0.1 * rng.normal(size=30)
        data = tmp_path / "data.csv"
        write_lines(data, ["x1,y"] + [f"{format_float(a)},{format_float(b)}" for a, b in zip(x, y)])
        out = tmp_path / "eq"
        # the kernel grows like |x - y|^5 ~ 2e7 over the design, and the
        # deviations with it, so the absolute tol is taken above 1e-8
        code = main([
            "equiv-check", "--data", str(data), "--kernel", "matern", "--nu", "2.5", "--p", "5",
            "--seed", "7", "--tol", "1e-6", "--out", str(out),
        ])
        assert code == 0
        metrics = read_json(f"{out}.json")["metrics"]
        assert metrics["basis_size"] == 3
        assert set(metrics["checks"]) == {"basis_change", "kernel_absorption"}

    def test_matched_summary(self, data_csv, tmp_path):
        out = tmp_path / "matched"
        code = main([
            "matched", "--data", str(data_csv), "--kernel", "matern", "--nu", "1.5",
            "--eps", "2.0", "--gamma", "5.0", "--sigma2", "0.01", "--out", str(out),
        ])
        assert code == 0
        summary = read_json(f"{out}.json")
        assert abs(summary["metrics"]["achieved_dof"] - summary["metrics"]["source_dof"]) <= 1e-6
        # the variance half of the equivalence, beside the mean's
        header, rows = read_csv(f"{out}.csv")
        gp_var, matched_var = (
            np.array([float(r[header.index(c)]) for r in rows])
            for c in ("gp_variance", "matched_variance")
        )
        assert summary["metrics"]["max_var_gap"] == np.max(np.abs(gp_var - matched_var))

    def test_equiv_check(self, data_csv, tmp_path):
        out = tmp_path / "eq"
        code = main([
            "equiv-check", "--data", str(data_csv), "--kernel", "exponential",
            "--p", "1", "--out", str(out),
        ])
        assert code == 0
        summary = read_json(f"{out}.json")
        assert summary["metrics"]["all_equivalent"] is True

    def test_equiv_check_marks_empty_basis_as_skipped(self, tmp_path):
        out = tmp_path / "eq"
        code = main([
            "equiv-check", "--n", "30", "--kernel", "gaussian", "--p", "0", "--out", str(out),
        ])
        assert code == 0
        metrics = read_json(f"{out}.json")["metrics"]
        assert metrics["basis_size"] == 0
        assert metrics["checks"] == {}
        assert metrics["all_equivalent"] is True
        assert metrics["skipped"].startswith("basis_size 0:")

    def test_equiv_check_refuses_a_saturated_limit_without_its_model(self, tmp_path, capsys):
        # P_8 = 45 < 50 < P_9 = 55 in d = 2: the limit interpolates, but the
        # degree-8 basis fits the 50 points by least squares
        out = tmp_path / "eq"
        code = main([
            "equiv-check", "--n", "50", "--dim", "2", "--seed", "7", "--kernel", "gaussian",
            "--p", "19", "--out", str(out),
        ])
        assert code == 1
        assert "saturated flat limit of p=19" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n,dim,p", [(8, 1, 15), (45, 2, 17)])
    def test_equiv_check_runs_a_saturated_limit_with_its_model(self, n, dim, p, tmp_path):
        # degree 7 interpolates 8 points in d = 1, degree 8 the n = P_8 = 45
        # points in d = 2: each basis is the limit's model
        out = tmp_path / "eq"
        code = main([
            "equiv-check", "--n", str(n), "--dim", str(dim), "--kernel", "gaussian",
            "--p", str(p), "--out", str(out),
        ])
        # not refused: both checks run.  The d = 2 basis recombination of
        # degree 8 deviates by about 1e-6, above the default tol (exit 2)
        assert code == 0 if dim == 1 else code != 1
        metrics = read_json(f"{out}.json")["metrics"]
        assert metrics["case"] == "interpolation" and metrics["basis_size"] == n
        assert sorted(metrics["checks"]) == ["basis_change", "kernel_absorption"]
        assert metrics["checks"]["kernel_absorption"]["equivalent"] is True

    def test_converge_refuses_a_gaussian_block_of_degree_171(self, tmp_path, capsys):
        # 2^171 / 171! is about 2.5e-258, while 171! alone overflows a float;
        # the degree-170 basis is then not unisolvent on 200 points
        out = tmp_path / "conv"
        code = main([
            "converge", "--n", "200", "--seed", "3", "--kernel", "gaussian", "--p", "342",
            "--eps-grid", "0.4:0.05:4", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: basis matrix has numerical rank")
        assert list(tmp_path.iterdir()) == []

    def test_equiv_check_failure_names_each_failing_check(self, tmp_path):
        # no round-off passes tol 1e-30, so both checks fail: a numerical failure
        out = tmp_path / "eq"
        code = main([
            "equiv-check", "--n", "30", "--kernel", "matern", "--nu", "1.5", "--p", "3",
            "--tol", "1e-30", "--out", str(out),
        ])
        assert code == 2
        summary = read_json(f"{out}.json")
        assert summary["metrics"]["all_equivalent"] is False
        errors = summary["errors"]
        assert len(errors) == 2
        for name, error in zip(("basis_change", "kernel_absorption"), errors):
            assert error.startswith(f"{name}: max_dev ") and error.endswith("> tol 1e-30")

    def test_equiv_check_reports_a_nan_deviation_as_null(self, tmp_path, monkeypatch):
        # one NaN in the second trial's smoother difference of the first check:
        # Python's max would drop it behind the first trial's finite deviation
        calls = []

        def poisoned(*args):
            D = difference(*args)
            calls.append(1)
            if len(calls) == 2:
                D[0, 0] = np.nan
            return D

        monkeypatch.setattr(flatlimit_module, "difference", poisoned)
        out = tmp_path / "eq"
        code = main([
            "equiv-check", "--n", "20", "--kernel", "matern", "--nu", "1.5", "--p", "3",
            "--out", str(out),
        ])
        assert code == 2

        def refuse(constant):
            raise AssertionError(f"the summary is not strict JSON: {constant}")

        summary = json.loads((tmp_path / "eq.json").read_text(), parse_constant=refuse)
        checks = summary["metrics"]["checks"]
        assert checks["basis_change"] == {"equivalent": False, "max_dev": None}
        assert checks["kernel_absorption"]["equivalent"] is True
        assert summary["metrics"]["all_equivalent"] is False
        assert summary["errors"] == ["basis_change: max_dev is nan"]

    @pytest.mark.parametrize("flag", ["--n", "--dim"])
    def test_synthesized_design_rejects_zero_size(self, flag, tmp_path, capsys):
        out = tmp_path / "fit"
        code = main(["fit", flag, "0", "--sigma2", "0.1", "--out", str(out)])
        assert code == 1
        assert "design" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_equiv_check_factors_on_the_design_only(
        self, tmp_path, count_linalg, dense_smoothers
    ):
        shapes = count_linalg("eigh")
        out = tmp_path / "eq"
        n = 20
        code = main([
            "equiv-check", "--n", str(n), "--kernel", "matern", "--nu", "1.5",
            "--p", "3", "--out", str(out),
        ])
        assert code == 0
        metrics = read_json(f"{out}.json")["metrics"]
        assert metrics["case"] == "spline-regression"
        m = metrics["basis_size"]
        assert m > 0 and sorted(metrics["checks"]) == ["basis_change", "kernel_absorption"]
        # the limit model once for both checks and each transform once, all on
        # the n design points; an augmented design (n + 1 points) would
        # restrict to n + 1 - m rows
        assert len(shapes) == 3
        assert all(shape == (n - m, n - m) for shape in shapes)
        # smoothers are compared through their differences, never formed
        assert dense_smoothers == []

    def test_nugget_compare_contrast(self, data_csv, tmp_path):
        out = tmp_path / "nug"
        code = main([
            "nugget-compare", "--data", str(data_csv), "--eps", "0.05",
            "--gamma-grid", "1e5:1e12:8", "--sigma2", "0.01",
            "--nugget", "1e-6", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(f"{out}.csv")
        nug = [float(r[2]) for r in rows if r[0] == "nugget" and r[3] == "ok"]
        assert max(abs(a - b) for a, b in zip(nug[-3:], nug[-2:])) < 1e-3

    def test_nugget_compare_defaults_to_1e_6_and_keeps_an_explicit_zero(self, data_csv, tmp_path):
        args = [
            "nugget-compare", "--data", str(data_csv), "--eps", "0.05",
            "--gamma-grid", "1e5:1e12:8", "--sigma2", "0.01",
        ]
        assert main(args + ["--out", str(tmp_path / "dflt")]) == 0
        assert read_json(tmp_path / "dflt.json")["config"]["nugget"] == 1e-6
        assert main(args + ["--nugget", "0", "--out", str(tmp_path / "zero")]) == 0
        assert read_json(tmp_path / "zero.json")["config"]["nugget"] == 0.0
        _, rows = read_csv(tmp_path / "zero.csv")
        nug = [r[1:] for r in rows if r[0] == "nugget"]
        plain = [r[1:] for r in rows if r[0] == "plain"]
        assert nug == plain

    def test_nugget_only_on_the_commands_that_use_it(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command").choices
        with_nugget = {
            name for name, sp in sub.items() if "--nugget" in sp._option_string_actions
        }
        assert with_nugget == {"fit", "predict", "dof-grid", "criteria-grid", "nugget-compare"}

    def test_matched_rejects_nugget(self, tmp_path):
        out = tmp_path / "matched"
        code = main([
            "matched", "--n", "20", "--eps", "2.0", "--gamma", "5.0",
            "--nugget", "0.3", "--out", str(out),
        ])
        assert code == 1
        assert not (tmp_path / "matched.json").exists()

    def test_matched_config_has_no_nugget(self, tmp_path):
        out = tmp_path / "matched"
        assert main(["matched", "--n", "20", "--eps", "2.0", "--gamma", "5.0", "--out", str(out)]) == 0
        assert "nugget" not in read_json(f"{out}.json")["config"]

    @pytest.mark.parametrize("model", [["--basis-degree", "1"], ["--kernel", "zero"]])
    def test_predict_with_a_basis_rejects_nugget(self, model, tmp_path, capsys):
        out = tmp_path / "pred"
        code = main(["predict", "--n", "20", "--nugget", "0.3", "--out", str(out)] + model)
        assert code == 1
        assert "--nugget" in capsys.readouterr().err
        assert not (tmp_path / "pred.json").exists()
        # a zero nugget is the default and stays accepted
        assert main(["predict", "--n", "20", "--nugget", "0", "--out", str(out)] + model) == 0

    @pytest.mark.parametrize("nugget", ["-0.5", "nan"])
    def test_fit_rejects_negative_nugget(self, nugget, tmp_path, capsys):
        out = tmp_path / "fit"
        code = main(["fit", "--n", "20", "--nugget", nugget, "--sigma2", "1", "--out", str(out)])
        assert code == 1
        assert "nugget" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists() and not (tmp_path / "fit.csv").exists()

    def test_nugget_compare_rejects_negative_nugget(self, data_csv, tmp_path, capsys):
        out = tmp_path / "nug"
        code = main([
            "nugget-compare", "--data", str(data_csv), "--eps", "0.05",
            "--gamma-grid", "1e2:1e6:5", "--nugget", "-1e-6", "--out", str(out),
        ])
        assert code == 1
        # "-1e-6" reaches the command as a value, and its own check refuses it
        assert "nugget must be nonnegative, got nugget=-1e-06" in capsys.readouterr().err
        assert not (tmp_path / "nug.json").exists()

    def test_nugget_compare_checks_its_nugget_before_any_output(self, data_csv, tmp_path, capsys):
        # the nugget rule refuses it before the command computes or writes anything
        out = tmp_path / "nug"
        code = main([
            "nugget-compare", "--data", str(data_csv), "--eps", "0.05",
            "--gamma-grid", "1e2:1e6:5", "--nugget", "-1", "--out", str(out),
        ])
        assert code == 1
        assert "nugget must be nonnegative, got nugget=-1.0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data_csv]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--n", "50"],
            ["predict", "--n", "50"],
            ["dof-grid", "--n", "50", "--eps-grid", "0.05:1:10", "--gamma-grid", "1:2:3"],
            ["criteria-grid", "--n", "50", "--eps-grid", "0.05:1:10", "--gamma-grid", "1:2:3"],
            ["nugget-compare", "--n", "50", "--eps", "0.5", "--gamma-grid", "1:2:3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_negative_nugget_is_refused_before_any_eigensolver(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        calls = []
        eigensystems = spm_module._eigensystems

        def counted(*args, **kwargs):
            calls.append(1)
            return eigensystems(*args, **kwargs)

        monkeypatch.setattr(spm_module, "_eigensystems", counted)
        out = ["--out", str(tmp_path / "run")]
        assert main(argv + ["--nugget", "-1"] + out) == 1
        assert "nugget must be nonnegative, got nugget=-1.0" in capsys.readouterr().err
        assert calls == [] and list(tmp_path.iterdir()) == []
        # the same command with a zero nugget reaches the wrapped eigensolver
        assert main(argv + ["--nugget", "0"] + out) == 0
        assert calls

    @pytest.mark.parametrize(
        "query, first", [("-1e-3,0.5", -1e-3), ("-1:1:5", -1.0), ("-.5e-1", -0.05)]
    )
    def test_predict_takes_a_negative_query_in_any_notation(self, query, first, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--n", "8", "--query", query, "--out", str(out)]) == 0
        _, rows = read_csv(f"{out}.csv")
        assert float(rows[0][0]) == first

    def test_pred_curve_takes_a_negative_point_with_an_exponent(self, data_csv, tmp_path):
        out = tmp_path / "curve"
        code = main([
            "pred-curve", "--data", str(data_csv), "--eps", "1.0",
            "--gamma-grid", "1e-2:1e2:5", "--xa", "-1e-3", "--xb", "0.5", "--out", str(out),
        ])
        assert code == 0
        assert read_json(f"{out}.json")["config"]["xa"] == "-1e-3"
        _, rows = read_csv(f"{out}.csv")
        assert len(rows) == 5 and all(r[3] == "ok" for r in rows)

    def test_predict_rejects_a_basis_degree_below_minus_one(self, tmp_path, capsys):
        out = tmp_path / "pred"
        code = main(["predict", "--n", "20", "--basis-degree", "-2", "--out", str(out)])
        assert code == 1
        assert "basis_degree" in capsys.readouterr().err
        assert not (tmp_path / "pred.json").exists()

    @pytest.mark.parametrize("xa, xb, option", [("0.2,0.3", "0.5", "--xa"), ("0.2", "x", "--xb")])
    def test_pred_curve_point_errors_name_the_option(
        self, xa, xb, option, data_csv, tmp_path, capsys
    ):
        out = tmp_path / "curve"
        code = main([
            "pred-curve", "--data", str(data_csv), "--eps", "1.0",
            "--gamma-grid", "1e-2:1e2:5", "--xa", xa, "--xb", xb, "--out", str(out),
        ])
        assert code == 1
        assert option in capsys.readouterr().err
        assert not (tmp_path / "curve.json").exists()

    # a command line with a malformed number, the option it is in, and the part
    NUMBER_ERRORS = [
        (["predict", "--query", "0.1,x"], "--query", "'x'"),
        (["matched", "--eps", "1", "--gamma", "1", "--query", "0.1,x"], "--query", "'x'"),
        (["predict", "--query", "nan,0.5"], "--query", "'nan'"),
        (["predict", "--dim", "2", "--query", "0.1,0.2,-inf,0.4"], "--query", "'-inf'"),
        (["predict", "--query", "0:1:x"], "--query", "'x'"),
        (["predict", "--query", "0:1:2.5"], "--query", "whole"),
        (["dof-grid", "--eps-grid", "1:2:x", "--gamma-grid", "1:2:3"], "--eps-grid", "'x'"),
        (["dof-grid", "--eps-grid", "1:2:3", "--gamma-grid", "1:y:3"], "--gamma-grid", "'y'"),
        (["isofreedom", "--dof", "2", "--eps-grid", "1::3"], "--eps-grid", "''"),
        (
            ["pred-curve", "--eps", "1", "--gamma-grid", "1:2:3", "--xa", "nan", "--xb", "0.5"],
            "--xa", "'nan'",
        ),
        (
            ["pred-curve", "--dim", "2", "--eps", "1", "--gamma-grid", "1:2:3",
             "--xa", "0.5", "--xb", "0.5,inf"],
            "--xb", "'inf'",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, option, part", NUMBER_ERRORS, ids=[" ".join(c[0]) for c in NUMBER_ERRORS]
    )
    def test_number_errors_name_the_option(self, argv, option, part, tmp_path, capsys):
        code = main(argv + ["--n", "10", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}") and part in err, err
        assert not list(tmp_path.glob("o.*"))

    def test_matched_reads_its_query_before_any_solve(self, tmp_path, count_linalg, capsys):
        eigh, eigvalsh = count_linalg("eigh"), count_linalg("eigvalsh")
        code = main([
            "matched", "--n", "10", "--eps", "1", "--gamma", "1", "--query", "0.1,x",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "--query" in capsys.readouterr().err
        assert eigh == [] and eigvalsh == []

    def test_noiseless_gp_on_a_repeated_point_exits_1(self, tmp_path, capsys):
        # the repeat, with another y, leaves K's smallest eigenvalue at
        # round-off (1e-18 here, above zero): a GP interpolant there is noise
        x = np.linspace(0, 1, 30)
        y = np.sin(3 * x)
        data = tmp_path / "repeated.csv"
        rows = [f"{a:.17g},{b:.17g}" for a, b in zip(np.append(x, x[3]), np.append(y, y[3] + 0.5))]
        data.write_text("x1,y\n" + "\n".join(rows) + "\n")
        out = tmp_path / "pred"
        code = main([
            "predict", "--data", str(data), "--kernel", "matern", "--nu", "1.5", "--eps", "1",
            "--sigma2", "0", "--query", "0.1,0.2", "--out", str(out),
        ])
        assert code == 1
        assert "singular" in capsys.readouterr().err
        assert not (tmp_path / "pred.json").exists()

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["predict", "--data", "missing.csv", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["dof-grid", "--eps-grid", "1:2", "--gamma-grid", "1:2:3"],
            ["dof-grid", "--eps-grid", "1:2:3", "--gamma-grid", "1:2:0"],
            ["predict", "--query", "0:1"],
            ["dof-grid", "--eps-grid", "1:2:3", "--gamma-grid", "1:nan:3"],
            ["criteria-grid", "--eps-grid", "1:2:3", "--gamma-grid", "1:inf:3"],
            ["converge", "--p", "1", "--kernel", "exponential", "--eps-grid", "0.1:inf:3"],
            ["nugget-compare", "--eps", "1", "--gamma-grid", "1:nan:3"],
            ["pred-curve", "--eps", "1", "--xa", "0.2", "--xb", "0.8", "--gamma-grid", "inf:1:3"],
            ["fit", "--kernel", "matern"],
            ["dof-grid", "--eps-grid", "0:1:3", "--gamma-grid", "1:10:2"],
            ["predict", "--dim", "2", "--query", "0.1,0.2,0.3"],
            ["fit", "--data", "DATA", "--y-col", "zz"],
            ["equiv-check", "--p", "1", "--kernel", "exponential", "--tol", "-1"],
            ["equiv-check", "--p", "0", "--tol", "0"],
            ["converge", "--p", "1", "--kernel", "exponential", "--eps-grid", "0.025:0.2:4",
             "--tol", "-1"],
        ],
        ids=" ".join,
    )
    def test_malformed_or_non_finite_grid_exits_1(self, argv, data_csv, tmp_path, capsys):
        argv = [str(data_csv) if a == "DATA" else a for a in argv]
        code = main(argv + ["--n", "10", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("o.*"))

    # at sigma2 = 0 the GP on 30 points is singular at every eps of these grids
    FAILED_CELLS = {
        "dof-grid": (["--eps-grid", "0.01:1:3"], ["dof"], "ill-conditioned:0.000e+00"),
        "criteria-grid": (["--eps-grid", "0.01:1:3"], ["value"], "error:IllConditioned"),
        "pred-curve": (
            ["--eps", "0.01", "--xa", "0.2", "--xb", "0.8"], ["pred_a", "pred_b"], "ill-conditioned"
        ),
        "nugget-compare": (
            ["--eps", "0.01", "--nugget", "0"], ["dof"], "ill-conditioned:0.000e+00"
        ),
    }

    @pytest.mark.parametrize("command", sorted(FAILED_CELLS))
    def test_failed_cells_exit_2_and_write_both_files(self, command, tmp_path):
        extra, values, status = self.FAILED_CELLS[command]
        out = tmp_path / command
        argv = [command, "--n", "30", "--sigma2", "0", "--gamma-grid", "1:10:2", "--out", str(out)]
        assert main(argv + extra) == 2
        header, rows = read_csv(f"{out}.csv")
        failed = [dict(zip(header, row)) for row in rows if row[-1] != "ok"]
        assert failed
        for row in failed:
            assert row["status"] == status
            assert [row[v] for v in values] == ["nan"] * len(values)
        assert len(read_json(f"{out}.json")["errors"]) == len(failed)

    def test_reproducible_outputs(self, data_csv, tmp_path):
        args = [
            "dof-grid", "--data", str(data_csv), "--eps-grid", "0.1:1:3",
            "--gamma-grid", "0.1:10:3", "--sigma2", "0.01",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="per-thread heaps are glibc's")
    @pytest.mark.parametrize("command", ["dof-grid", "criteria-grid"])
    def test_grid_workers_allocate_from_the_main_heap(self, command, tmp_path):
        # a fresh interpreter, so that no earlier thread has made a heap; by
        # default glibc makes one per worker, and malloc_info lists each heap;
        # 14 eps at n = 40 are more than one stack, so the grid is pooled
        script = textwrap.dedent("""
            import ctypes, sys
            import flatgp.pool
            from flatgp.cli import main
            flatgp.pool.threads = lambda: 2
            code = main([sys.argv[1], "--n", "40", "--eps-grid", "0.5:2:14",
                         "--gamma-grid", "0.1:10:3", "--out", sys.argv[2]])
            libc = ctypes.CDLL(None)
            libc.fopen.restype = ctypes.c_void_p
            libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
            libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
            libc.fclose.argtypes = [ctypes.c_void_p]
            fh = libc.fopen(sys.argv[3].encode(), b"w")
            libc.malloc_info(0, fh)
            libc.fclose(fh)
            print(code, open(sys.argv[3]).read().count("<heap nr="))
        """)
        src = os.path.dirname(os.path.dirname(flatgp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-c", script, command, str(tmp_path / "grid"), str(tmp_path / "heaps.xml")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["0", "1"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
    def test_a_warm_command_reuses_the_heap(self, tmp_path):
        # a fresh interpreter, whose heap has not grown yet; by default glibc
        # maps each 400 x 400 array anew, and the kernel zero-fills its pages
        # on first touch: about 1200 minor faults per warm fit
        script = textwrap.dedent("""
            import resource, sys
            from flatgp.cli import main
            argv = ["fit", "--n", "400", "--kernel", "matern", "--nu", "1.5",
                    "--sigma2", "0.01", "--out", sys.argv[1]]
            faults = []
            for _ in range(2):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                assert main(argv) == 0
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print(faults[1])
        """)
        src = os.path.dirname(os.path.dirname(flatgp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-c", script, str(tmp_path / "fit")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
        assert int(done.stdout) < 100


# one command line for each float option
NON_FINITE_OPTIONS = {
    "--sigma2": ["fit"],
    "--nugget": ["fit"],
    "--eps": ["predict"],
    "--gamma": ["matched", "--eps", "1"],
    "--gamma0": ["equiv-check", "--p", "2"],
    "--tol": ["converge", "--p", "2", "--eps-grid", "1:0.5:3"],
    "--dof": ["isofreedom", "--eps-grid", "1:0.5:3"],
    "--nu": ["fit", "--kernel", "matern"],
}


class TestFiniteOptions:
    def test_every_float_option_is_checked(self):
        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0].choices.values()
        floats = {
            action.option_strings[0]
            for sub in subparsers
            for action in sub._actions
            if action.type is cli_module._finite_float
        }
        assert floats == set(NON_FINITE_OPTIONS)
        assert not [
            action for sub in subparsers for action in sub._actions if action.type is float
        ]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", sorted(NON_FINITE_OPTIONS))
    def test_non_finite_value_exits_before_writing(self, flag, value, tmp_path, capsys):
        argv = NON_FINITE_OPTIONS[flag] + ["--n", "8", "--out", str(tmp_path / "out")]
        assert main(argv + [f"{flag}={value}"]) == 1
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


POOLED_COMMANDS = {
    "isofreedom": ["--kernel", "matern", "--nu", "1.5", "--dof", "2.5", "--eps-grid", "0.3:0.03:6"],
    # at sigma2 = 0 the GP at eps = 100 is singular and dropped
    "converge": ["--kernel", "gaussian", "--p", "2", "--sigma2", "0", "--eps-grid", "3e3:100:6",
                 "--query", "0:1:20"],
    "dof-grid": ["--eps-grid", "0.5:2:4", "--gamma-grid", "0.1:10:4"],
    "criteria-grid": ["--eps-grid", "0.5:2:3", "--gamma-grid", "0.1:10:3"],
}


class TestSharedParser:
    """``main`` reuses one parser per process: every call must behave as it
    would on a fresh ``build_parser()``."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli_module._parser.cache_clear()
        yield
        cli_module._parser.cache_clear()

    @staticmethod
    def run(argv, out, capsys, fresh):
        """Exit code, stdout, stderr and the bytes of every file written under
        ``out`` by one call, which then removes those files."""
        if fresh:
            cli_module._parser.cache_clear()
        code = main(argv)
        captured = capsys.readouterr()
        files = {}
        for path in sorted(out.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
        return code, captured.out, captured.err, files

    def test_interleaved_calls_match_fresh_parsers(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        prefix = str(out / "run")
        calls = [
            ["fit", "--n", "12", "--eps", "0.7", "--out", prefix],
            ["fit", "--n", "12", "--sigma2", "nan", "--out", prefix],
            ["predict", "--n", "12", "--kernel", "matern", "--nu", "1.5",
             "--query", "-1e-3,0.5", "--format", "json", "--out", prefix],
            ["--help"],
            ["--help"],
        ]
        fresh = [self.run(argv, out, capsys, fresh=True) for argv in calls]
        shared = [self.run(argv, out, capsys, fresh=False) for argv in calls]
        assert [r[0] for r in shared] == [0, 1, 0, 0, 0]
        assert shared[1][3] == {} and "finite" in shared[1][2]
        assert shared[3][1].startswith("usage: flatgp") and shared[3] == shared[4]
        assert shared == fresh

    def test_an_option_does_not_outlive_its_call(self, tmp_path):
        out = str(tmp_path / "o")
        argv = ["fit", "--n", "8", "--out", out]
        assert main([
            "predict", "--n", "8", "--dim", "2", "--kernel", "matern", "--nu", "2.5",
            "--basis-degree", "1", "--query", "0.5,0.5", "--out", out,
        ]) == 0
        assert main(argv + ["--nugget", "0.1", "--eps", "3"]) == 0
        assert main(argv) == 0
        shared = read_json(f"{out}.json")["config"]
        cli_module._parser.cache_clear()
        assert main(argv) == 0
        assert shared == read_json(f"{out}.json")["config"]
        assert shared["kernel"] == "gaussian" and shared["nugget"] == 0.0 and shared["eps"] == 1.0
        assert not {"nu", "dim", "basis_degree", "query"} & set(shared)

    def test_one_build_over_many_calls(self, tmp_path, monkeypatch):
        builds = []

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli_module, "build_parser", counted)
        out = str(tmp_path / "o")
        for argv in (
            ["fit", "--n", "8", "--out", out],
            ["predict", "--n", "8", "--out", out],
            ["fit", "--n", "8", "--eps", "inf", "--out", out],
            ["no-such-command"],
            ["nugget-compare", "--n", "8", "--eps", "0.5", "--gamma-grid", "1:10:3", "--out", out],
        ):
            main(argv)
        assert len(builds) == 1
        # the public builder still returns a new parser each time
        assert build_parser() is not build_parser()
        assert build_parser() is not cli_module._parser()

    def test_concurrent_calls_write_identical_files(self, tmp_path):
        workers = min(len(os.sched_getaffinity(0)), 8) + 1
        rounds = 5
        calls = [
            ["fit", "--n", "20", "--dim", "2", "--eps", "0.8", "--gamma", "2"],
            ["predict", "--n", "20", "--kernel", "exponential", "--query", "-1:1:9"],
            ["fit", "--n", "20", "--sigma2", "-inf"],
        ]

        def outputs(out):
            """The bytes of each file under ``out``, without the JSON's own paths."""
            files = {}
            for path in sorted(out.iterdir()):
                if path.suffix == ".json":
                    summary = read_json(path)
                    summary.pop("outputs")
                    summary["config"].pop("out")
                    files[path.name] = summary
                else:
                    files[path.name] = path.read_bytes()
            return files

        def session(out):
            out.mkdir()
            results = []
            for _ in range(rounds):
                for i, argv in enumerate(calls):
                    results.append(main(argv + ["--out", str(out / f"c{i}")]))
            return results, outputs(out)

        expected = session(tmp_path / "serial")
        barrier = threading.Barrier(workers, timeout=30)
        results = [None] * workers

        def worker(k):
            barrier.wait()
            results[k] = session(tmp_path / f"thread{k}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert expected[0] == [0, 0, 1] * rounds
        assert results == [expected] * workers


class TestThreads:
    def test_pool_follows_the_cpu_set(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        pools = []
        executor = pool_module.ThreadPoolExecutor

        def recorded(max_workers):
            pools.append(max_workers)
            return executor(max_workers=max_workers)

        monkeypatch.setattr(pool_module, "ThreadPoolExecutor", recorded)
        # 52 eps at n = 10 are two stacks, so the grid does not run inline for
        # its size; one CPU is a pool of one worker, which runs inline
        for cpus, started in (({0}, []), ({0, 1}, [2])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c, raising=False)
            code = main([
                "dof-grid", "--n", "10", "--eps-grid", "0.5:2:52", "--gamma-grid", "0.1:10:2",
                "--out", str(tmp_path / "dof"),
            ])
            assert code == 0
            assert pools == started

    @pytest.mark.parametrize("command", sorted(POOLED_COMMANDS))
    def test_pooled_and_serial_outputs_are_byte_identical(self, command, tmp_path, monkeypatch):
        # n = 300: every grid above is at least two tasks, so both runs are pooled
        for fmt in ("csv", "json"):
            (tmp_path / fmt).mkdir()
            outputs = []
            for workers in (1, 2):
                monkeypatch.setattr(pool_module, "threads", lambda w=workers: w)
                out = tmp_path / fmt / command
                code = main([command, "--n", "300", "--format", fmt, "--out", str(out)]
                            + POOLED_COMMANDS[command])
                assert code == (2 if command == "converge" else 0)
                outputs.append({p.name: p.read_bytes() for p in out.parent.iterdir()})
            assert len(outputs[0]) == (2 if fmt == "csv" else 1)
            assert outputs[0] == outputs[1]
        if command == "converge":
            assert read_json(f"{out}.json")["metrics"]["dropped_eps"] == [100.0]

    def test_cpu_set_wins_and_cpu_count_is_the_fallback(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # the pool reads no environment variable: a set FLATGP_THREADS changes nothing
        for ignored in ("5", "abc"):
            monkeypatch.setenv("FLATGP_THREADS", ignored)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            assert cli_module._threads() == 1
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)))
            assert cli_module._threads() == 8
            monkeypatch.delattr(os, "sched_getaffinity")
            assert cli_module._threads() == 3


class TestQueryCsv:
    def write_query(self, tmp_path, lines):
        path = tmp_path / "q.csv"
        write_lines(path, lines)
        return str(path)

    def test_one_column_query_for_d1(self, data_csv, tmp_path):
        query = self.write_query(tmp_path, ["x", "0.1", "0.5", "0.9"])
        out = tmp_path / "pred"
        assert main(["predict", "--data", str(data_csv), "--query", query, "--out", str(out)]) == 0
        header, rows = read_csv(f"{out}.csv")
        assert header == ["x1", "mean", "variance"]
        assert [float(r[0]) for r in rows] == [0.1, 0.5, 0.9]

    def test_two_column_query_for_d2(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(10, 2))
        y = rng.normal(size=10)
        data = tmp_path / "d2.csv"
        write_lines(data, ["a,b,y"] + [",".join(format_float(v) for v in (*x, t)) for x, t in zip(X, y)])
        query = self.write_query(tmp_path, ["a,b", "0.1,0.2", "0.7,0.4"])
        out = tmp_path / "pred"
        assert main(["predict", "--data", str(data), "--query", query, "--out", str(out)]) == 0
        header, rows = read_csv(f"{out}.csv")
        assert header == ["x1", "x2", "mean", "variance"]
        assert [[float(v) for v in r[:2]] for r in rows] == [[0.1, 0.2], [0.7, 0.4]]

    def test_comma_list_query_for_d2(self, tmp_path, capsys):
        out = str(tmp_path / "pred")
        common = ["predict", "--n", "10", "--dim", "2", "--out", out]
        assert main(common + ["--query", "0.1,0.2,0.7,0.4"]) == 0
        header, rows = read_csv(f"{out}.csv")
        assert header == ["x1", "x2", "mean", "variance"]
        assert [[float(v) for v in r[:2]] for r in rows] == [[0.1, 0.2], [0.7, 0.4]]
        assert main(common + ["--query", "0.1,0.2,0.7"]) == 1
        assert "multiple of d" in capsys.readouterr().err

    def test_column_count_must_match_d(self, data_csv, tmp_path, capsys):
        query = self.write_query(tmp_path, ["x,z", "0.1,0.2"])
        code = main(["predict", "--data", str(data_csv), "--query", query, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "need 1 feature column(s), found 2" in capsys.readouterr().err



PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


class TestBenchmarkImports:
    """What the benchmark under perfbench/ reads of the package must keep resolving."""

    def test_traced_modules_and_worker_names_resolve(self):
        # a fresh interpreter, as the benchmark's worker: import the CLI only,
        # then read the tracer's bindings from perfbench through sys.path
        script = textwrap.dedent("""
            import json, sys
            import flatgp, flatgp.accel, flatgp.cli as cli
            loaded = set(sys.modules)
            sys.path.insert(0, sys.argv[1])
            import tracing
            modules = sorted({binding[1] for binding in tracing.BINDINGS})

            def resolves(modname, path):
                obj = sys.modules.get(modname)
                for part in path.split("."):
                    obj = getattr(obj, part, None)
                return obj is not None

            print(json.dumps({
                "modules": modules,
                "missing": [m for m in modules if m not in loaded],
                "unbound": [f"{b[1]}.{b[2]}" for b in tracing.BINDINGS if not resolves(b[1], b[2])],
                "names": [
                    callable(flatgp.accel.using_numba), callable(cli._threads),
                    callable(cli.build_parser), isinstance(flatgp.__version__, str),
                ],
            }))
        """)
        src = os.path.dirname(os.path.dirname(flatgp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script, PERFBENCH],
            env=env, capture_output=True, text=True, check=True,
        )
        found = json.loads(done.stdout)
        assert {"flatgp.accel", "flatgp.kernels"} <= set(found["modules"])
        assert found["missing"] == []
        # the known-stale bindings, which the tracer reports as not found: one
        # function went with the spectral core, eight wrappers and distance
        # powers that restated the core with it, and the blocked Vandermonde
        # reference, which moved to the tests (no workload called it); no
        # other may join them
        assert sorted(found["unbound"]) == [
            "flatgp.accel.cross_dist_power",
            "flatgp.accel.pairwise_dist_power",
            "flatgp.gp.gp_posterior",
            "flatgp.gp.nlml",
            "flatgp.kernels.distance_power_matrix",
            "flatgp.polybasis.vandermonde",
            "flatgp.spm.SpmFit.predict_var",
            "flatgp.spm.fit_spm",
            "flatgp.spm.spm_filter_eigenvalues",
            "flatgp.spm.spm_smoother",
        ]
        assert found["names"] == [True, True, True, True]

    def test_worker_environment(self, monkeypatch):
        # the benchmark's worker records the pool size and the compiled-path
        # flag of the package it runs; both must keep resolving
        monkeypatch.syspath_prepend(PERFBENCH)
        import worker

        env = worker.environment()
        assert env["pool_size"] >= 1
        assert env["numba"] is False
