import csv
import json
import os
import platform
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import flatgp
import flatgp.cli as cli_module
import flatgp.pool as pool_module
from flatgp.cli import build_parser, main
from flatgp.dataio import (
    Dataset,
    format_float,
    parse_dataset,
    parse_points,
    write_dataset,
    write_json,
)
from flatgp.errors import DatasetError, EmptyDataset, FlatGpError
from flatgp.polybasis import Design


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
        # one spectrum per eps; every gamma cell reads diag M, M y and tr M from it
        assert eigh == [(25, 25)] * 4
        assert dense_smoothers == []

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
        # one spectrum per variant, with and without the nugget
        assert eigvalsh == [(8, 8)] * 2 and eigh == []

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

    def test_matched_summary(self, data_csv, tmp_path):
        out = tmp_path / "matched"
        code = main([
            "matched", "--data", str(data_csv), "--kernel", "matern", "--nu", "1.5",
            "--eps", "2.0", "--gamma", "5.0", "--sigma2", "0.01", "--out", str(out),
        ])
        assert code == 0
        summary = read_json(f"{out}.json")
        assert abs(summary["metrics"]["achieved_dof"] - summary["metrics"]["source_dof"]) <= 1e-6

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
        ],
        ids=" ".join,
    )
    def test_malformed_or_non_finite_grid_exits_1(self, argv, tmp_path, capsys):
        code = main(argv + ["--n", "10", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.json").exists()

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
            from flatgp.cli import main
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
        env = dict(os.environ, FLATGP_THREADS="2", PYTHONPATH=src)
        argv = [sys.executable, "-c", script, command, str(tmp_path / "grid"), str(tmp_path / "heaps.xml")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["0", "1"]


POOLED_COMMANDS = {
    "isofreedom": ["--kernel", "matern", "--nu", "1.5", "--dof", "2.5", "--eps-grid", "0.3:0.03:6"],
    # at sigma2 = 0 the GP at eps = 100 is singular and dropped
    "converge": ["--kernel", "gaussian", "--p", "2", "--sigma2", "0", "--eps-grid", "3e3:100:6",
                 "--query", "0:1:20"],
    "dof-grid": ["--eps-grid", "0.5:2:4", "--gamma-grid", "0.1:10:4"],
    "criteria-grid": ["--eps-grid", "0.5:2:3", "--gamma-grid", "0.1:10:3"],
}


class TestThreads:
    def test_pool_follows_the_cpu_set(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FLATGP_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pools = []
        executor = pool_module.ThreadPoolExecutor

        def recorded(max_workers):
            pools.append(max_workers)
            return executor(max_workers=max_workers)

        monkeypatch.setattr(pool_module, "ThreadPoolExecutor", recorded)
        # 52 eps at n = 10 are two stacks, so the grid does not run inline
        code = main([
            "dof-grid", "--n", "10", "--eps-grid", "0.5:2:52", "--gamma-grid", "0.1:10:2",
            "--out", str(tmp_path / "dof"),
        ])
        assert code == 0
        assert pools == [1]

    @pytest.mark.parametrize("command", sorted(POOLED_COMMANDS))
    def test_pooled_and_serial_outputs_are_byte_identical(self, command, tmp_path, monkeypatch):
        # n = 300: every grid above is at least two tasks, so both runs are pooled
        for fmt in ("csv", "json"):
            (tmp_path / fmt).mkdir()
            outputs = []
            for workers in ("1", "2"):
                monkeypatch.setenv("FLATGP_THREADS", workers)
                out = tmp_path / fmt / command
                code = main([command, "--n", "300", "--format", fmt, "--out", str(out)]
                            + POOLED_COMMANDS[command])
                assert code == (2 if command == "converge" else 0)
                outputs.append({p.name: p.read_bytes() for p in out.parent.iterdir()})
            assert len(outputs[0]) == (2 if fmt == "csv" else 1)
            assert outputs[0] == outputs[1]
        if command == "converge":
            assert read_json(f"{out}.json")["metrics"]["dropped_eps"] == [100.0]

    def test_non_integer_threads_exits_1_naming_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FLATGP_THREADS", "abc")
        with pytest.raises(FlatGpError, match="FLATGP_THREADS"):
            cli_module._threads()
        code = main([
            "isofreedom", "--n", "10", "--dof", "2.5", "--eps-grid", "0.3:0.03:4",
            "--out", str(tmp_path / "iso"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: FLATGP_THREADS must be an integer, got 'abc'\n"
        monkeypatch.setenv("FLATGP_THREADS", "-3")
        assert cli_module._threads() == 1

    def test_environment_wins_and_cpu_count_is_the_fallback(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("FLATGP_THREADS", "5")
        assert cli_module._threads() == 5
        monkeypatch.delenv("FLATGP_THREADS")
        assert cli_module._threads() == 1
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
        # the one known-stale binding: the function went with the spectral
        # core, and the tracer reports it as not found; no other may join it
        assert set(found["unbound"]) <= {"flatgp.spm.spm_filter_eigenvalues"}
        assert found["names"] == [True, True, True, True]
