import csv
import json

import numpy as np
import pytest

from flatgp.cli import main
from flatgp.dataio import Dataset, format_float, parse_dataset, write_dataset
from flatgp.errors import DatasetError, EmptyDataset
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

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["predict", "--data", "missing.csv", "--out", str(tmp_path / "o")]) == 1

    def test_reproducible_outputs(self, data_csv, tmp_path):
        args = [
            "dof-grid", "--data", str(data_csv), "--eps-grid", "0.1:1:3",
            "--gamma-grid", "0.1:10:3", "--sigma2", "0.01",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
