"""Tests for CSV ingestion, report emission, and the CLI subcommands."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spheredepth
from spheredepth import (
    DepthParams,
    DirectionGrid,
    ExperimentReport,
    HalfspaceConfig,
    KernelConfig,
    SampleSet,
    batch_depth,
    fit_kernelized_spatial,
    fit_mahalanobis,
    gen_truncated_gaussian,
    grid_oracle_sphere_depth,
    halfspace_depth,
    homogeneity_test,
    kernelized_spatial_depth,
    load_features_csv,
    load_labeled_csv,
    mahalanobis_depth,
)
from spheredepth.cli import main
from spheredepth.io import _read_table, write_text_atomic


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
    return path


class TestLoadLabeledCsv:
    def test_basic_parse(self, small_csv):
        ds = load_labeled_csv(small_csv, "y")
        assert ds.samples.n == 3 and ds.samples.d == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_array_equal(ds.samples.data, [[1, 2], [3, 4], [5, 6]])
        assert ds.name == "toy"

    def test_label_by_index(self, small_csv):
        ds = load_labeled_csv(small_csv, 2)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_semicolon_delimiter(self, tmp_path, small_csv):
        alt = tmp_path / "semi.csv"
        alt.write_text(small_csv.read_text().replace(",", ";"))
        a = load_labeled_csv(small_csv, "y")
        b = load_labeled_csv(alt, "y", delimiter=";")
        np.testing.assert_array_equal(a.samples.data, b.samples.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_headerless_with_index(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2,0\n3,4,1\n")
        ds = load_labeled_csv(path, 2)
        assert ds.samples.n == 2
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_nan_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,NaN,0\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_labeled_csv(path, "y")

    def test_unparsable_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,0\n3,oops,1\n")
        with pytest.raises(ValueError, match="row 3, column 2"):
            load_labeled_csv(path, "y")

    def test_missing_label_column(self, small_csv):
        with pytest.raises(ValueError, match="no column named"):
            load_labeled_csv(small_csv, "label")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_labeled_csv(path, 0)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1,2\n")
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            load_labeled_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,y\n1,2,0\n3,4\n")
        with pytest.raises(ValueError, match="row 3"):
            load_labeled_csv(path, "y")

    def test_roundtrip(self, tmp_path, small_csv):
        ds = load_labeled_csv(small_csv, "y")
        out = tmp_path / "rt.csv"
        lines = ["a,b,y"]
        for row, label in zip(ds.samples.data, ds.labels):
            lines.append(",".join(repr(float(v)) for v in row) + f",{label}")
        out.write_text("\n".join(lines) + "\n")
        again = load_labeled_csv(out, "y")
        np.testing.assert_array_equal(ds.samples.data, again.samples.data)
        np.testing.assert_array_equal(ds.labels, again.labels)


class TestLoadFeaturesCsv:
    def test_header_detected(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("x,y\n1,2\n3,4.5\n")
        np.testing.assert_array_equal(load_features_csv(path).data, [[1, 2], [3, 4.5]])

    def test_headerless(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text("1,2\n3,4.5\n")
        np.testing.assert_array_equal(load_features_csv(path).data, [[1, 2], [3, 4.5]])


@pytest.mark.parametrize(
    "text, load, message",
    [
        ("a,b,label\n1,2,0\n\n3,x,1\n", lambda p: load_labeled_csv(p, "label"),
         "row 4, column 2: cannot parse 'x'"),
        ("a,label\n1,0\n\n2,5\n", lambda p: load_labeled_csv(p, "label"),
         "row 4, column 2: label must be 0 or 1, got '5'"),
        ("a,b\n1,2\n\n3,x\n", load_features_csv, "row 4, column 2: cannot parse 'x'"),
        ("1,2\n\n\n3\n", load_features_csv, "row 4 has 1 cells, expected 2"),
    ],
    ids=["labeled-cell", "labeled-label", "features-cell", "features-ragged"],
)
def test_csv_errors_name_file_row_after_blank_lines(tmp_path, text, load, message):
    # Errors name the file and the row as counted in it, blank lines included.
    path = tmp_path / "gaps.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load(path)


@pytest.mark.parametrize(
    "text, load, message",
    [
        ("1.5,2,O\n3,4,1\n5,6,0\n", lambda p: load_labeled_csv(p, 2),
         "row 1, column 3: cannot parse 'O'"),
        ("1,x\n3,4\n5,6\n", load_features_csv, "row 1, column 2: cannot parse 'x'"),
    ],
    ids=["labeled", "features"],
)
def test_typo_in_first_data_row_raises(tmp_path, text, load, message):
    # A first row with any numeric cell is data, not a header to skip.
    path = tmp_path / "typo.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load(path)


class TestReadTable:
    """The table is converted in one call when it can be, and read row by
    row otherwise; the values and the errors are ``float()``'s."""

    # Cells ``float()`` accepts (some it rejects follow in the error cases):
    # digit groups, padding, a bare sign and point, Arabic-Indic digits, an
    # underflow to 0 and a repr that needs all 17 digits.
    SPELLINGS = [
        "1_000", " 1.5 ", "+.5e-3", "\u0661\u0662.\u0665", "1e-400",
        "0.1000000000000000055511151231257827",
    ]

    def test_values_are_float_of_each_cell(self, tmp_path):
        path = tmp_path / "spellings.csv"
        path.write_text(",".join(self.SPELLINGS) + "\n" + ",".join(["-0"] * 6) + "\n",
                        encoding="utf-8")
        header, values, rows = _read_table(path, ",")
        assert header is None and [line for line, _ in rows] == [1, 2]
        expected = np.array([[float(c) for c in self.SPELLINGS], [-0.0] * 6])
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('a,b\n1,2\n3,"1,5"\n0x10,4\n', "row 3, column 2: cannot parse '1,5' as a number"),
            ("1,2\n3,\n5,6\n", "row 2, column 2: cannot parse '' as a number"),
            ("1,2\n3,nan\n5,x\n", "row 2, column 2: non-finite value 'nan'"),
            ("1,2\n3,1e400\n", "row 2, column 2: non-finite value '1e400'"),
            ("1,2\n3,0x10\n5,6,7\n", "row 2, column 2: cannot parse '0x10' as a number"),
            ("1,2\n\n\n3,x\n\n5\n", "row 4, column 2: cannot parse 'x' as a number"),
            ("1,2\n\n3,4\n\n5\n6,x\n", "row 5 has 1 cells, expected 2"),
        ],
        ids=["comma-in-quotes", "empty", "nan-before-bad", "overflow", "ragged-after-bad",
             "blank-lines-bad", "blank-lines-ragged"],
    )
    def test_first_error_is_raised(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
            _read_table(path, ",")


@pytest.mark.parametrize(
    "text, label_column",
    [("1.5,2,0\n3,4,1\n5,6,0\n", 2), ("x0,x1,x2\n0,1.5,2\n1,3,4\n0,5,6\n", "x0")],
    ids=["headerless", "header"],
)
def test_a_utf8_byte_order_mark_is_dropped(tmp_path, text, label_column):
    # Spreadsheet "CSV UTF-8" exports start with U+FEFF, which must neither
    # spoil the first cell nor the first column's name.
    path = tmp_path / "excel.csv"
    path.write_text("\ufeff" + text, encoding="utf-8")
    data = load_labeled_csv(path, label_column)
    np.testing.assert_array_equal(data.samples.data, [[1.5, 2], [3, 4], [5, 6]])
    np.testing.assert_array_equal(data.labels, [0, 1, 0])


class TestExperimentReport:
    def test_json_is_sorted_and_stable(self):
        report = ExperimentReport(
            command="demo", parameters={"b": 1, "a": 2}, metrics={"x": [1.5]},
            provenance={"seed": 0},
        )
        assert report.to_json() == report.to_json()
        payload = json.loads(report.to_json())
        assert payload["parameters"] == {"a": 2, "b": 1}

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "nested" / "report.json"
        write_text_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
        assert not leftovers
        # A failed replace removes its temp file.
        blocked = tmp_path / "a-directory"
        blocked.mkdir()
        with pytest.raises(OSError):
            write_text_atomic(blocked, "hello\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "nested"]
        assert not list(blocked.iterdir())


class TestDepthCommand:
    def test_single_sample_self_depth(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text("1.0,2.0\n")
        code = main([
            "depth", "--csv", str(csv), "--query", "1.0,2.0",
            "--method", "sphere", "--r", "1.0", "--s", "1.0",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["depths"][0] == pytest.approx(0.5, abs=1e-12)

    def test_oracle_grid_cross(self, tmp_path, capsys):
        csv = tmp_path / "cross.csv"
        csv.write_text("1,0\n-1,0\n0,1\n0,-1\n")
        code = main([
            "depth", "--csv", str(csv), "--query", "0,0",
            "--method", "oracle-grid", "--r", "0.4", "--s", "0.0",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["depths"][0] == 0.0

    def test_sphere_rejects_indicator_scale(self, tmp_path, capsys):
        csv = tmp_path / "cross.csv"
        csv.write_text("1,0\n-1,0\n0,1\n0,-1\n")
        code = main([
            "depth", "--csv", str(csv), "--query", "0,0",
            "--method", "sphere", "--r", "1.0", "--s", "0.0",
        ])
        assert code == 2
        assert "oracle-grid" in capsys.readouterr().err

    def test_s_zero_hint_names_method_flag(self, capsys):
        code = main(["depth", "--n", "20", "--query", "0,0", "--r", "1", "--s", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "s > 0" in err and "--method oracle-grid" in err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_are_rejected(self, capsys, threads):
        with pytest.raises(SystemExit) as info:
            main(["depth", "--n", "20", "--query", "0,0", "--threads", threads])
        assert info.value.code == 2
        assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["depth", "--self-score", "--n", "3000", "--oracle-check", "0"], "--oracle-check", "0"),
            (["depth", "--query", "0,0", "--grid-size", "0"], "--grid-size", "0"),
            (["contour", "--bounds", "0", "1", "0", "1", "--resolution", "3", "0"],
             "--resolution", "0"),
            (["contour", "--bounds", "0", "1", "0", "1", "--resolution", "-1", "3"],
             "--resolution", "-1"),
            (["anomaly", "--csv", "data.csv", "--label-column", "y", "--grid-size", "-4"],
             "--grid-size", "-4"),
            (["htest", "--reps", "0"], "--reps", "0"),
        ],
        ids=["oracle-check", "grid-size", "resolution-y", "resolution-x", "anomaly-grid", "reps"],
    )
    def test_counts_below_one_are_refused_before_any_work(
        self, capsys, monkeypatch, argv, flag, value
    ):
        monkeypatch.setattr(f"spheredepth.cli.run_{argv[0]}", lambda args: pytest.fail("runner ran"))
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"{flag}: must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, first, second",
        [
            (["depth", "--n", "20", "--self-score", "--query", "1,2,3", "--r", "1", "--s", "1"],
             "--self-score", "--query"),
            (["depth", "--query=0,0", "--query=1,1", "--self-score"], "--query", "--self-score"),
        ],
        ids=["self-score-first", "query-first"],
    )
    def test_query_and_self_score_are_refused_together_before_any_work(
        self, capsys, monkeypatch, argv, first, second
    ):
        monkeypatch.setattr("spheredepth.cli.run_depth", lambda args: pytest.fail("runner ran"))
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {second}: not allowed with argument {first}" in capsys.readouterr().err

    def test_label_column_is_left_out(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((40, 2)).tolist()
        labels = rng.integers(0, 2, 40).tolist()
        labelled, plain = tmp_path / "labelled.csv", tmp_path / "plain.csv"
        labelled.write_text("a,y,b\n" + "".join(f"{a!r},{y},{b!r}\n"
                                                 for (a, b), y in zip(data, labels)))
        plain.write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in data))
        depths = []
        for extra in (["--csv", str(labelled), "--label-column", "y"], ["--csv", str(plain)]):
            assert main(["depth", *extra, "--self-score"]) == 0
            depths.append(json.loads(capsys.readouterr().out)["metrics"]["depths"])
        assert len(depths[0]) == 40 and depths[0] == depths[1]

    @pytest.mark.parametrize(
        "args, delimiter",
        [
            (["anomaly", "--csv", "data.csv", "--label-column", "y"], ""),
            (["anomaly", "--csv", "data.csv", "--label-column", "y"], ";;"),
            (["depth", "--csv", "data.csv", "--query", "0,0"], ""),
        ],
        ids=["anomaly-empty", "anomaly-two", "depth-empty"],
    )
    def test_delimiter_must_be_one_character(self, capsys, args, delimiter):
        with pytest.raises(SystemExit) as info:
            main([*args, "--delimiter", delimiter])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"--delimiter: must be exactly one character, got {delimiter!r}" in err

    @pytest.mark.parametrize("s", ["1e-200", "1e-250", "1e-300"])
    def test_very_small_s_reports_finite_depths(self, s, tmp_path):
        out = tmp_path / "report.json"
        args = ["depth", "--n", "20", "--d", "2", "--self-score", "--r", "1", "--s", s]
        for seed in ("0", "1", "2", "3"):
            assert main([*args, "--seed", seed, "--output", str(out)]) == 0
            depths = json.loads(out.read_text())["metrics"]["depths"]
            assert len(depths) == 20 and all(0.0 <= v <= 1.0 for v in depths)

    def test_subnormal_s_is_an_error(self, capsys):
        args = ["depth", "--n", "20", "--d", "2", "--self-score", "--r", "1", "--s", "1e-310"]
        assert main([*args, "--seed", "1"]) == 2
        assert "1/s or 2r/s overflows" in capsys.readouterr().err

    def test_missing_csv_is_an_error_not_a_traceback(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["depth", "--csv", str(missing), "--query", "0,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("where", ["under-a-file", "missing-directories", "a-directory"])
    def test_unusable_output_directory_is_an_error_before_any_work(
        self, tmp_path, capsys, monkeypatch, where
    ):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        target = {
            "under-a-file": blocker / "x.json",
            "missing-directories": tmp_path / "no" / "sub" / "x.json",
            "a-directory": tmp_path,
        }[where]
        monkeypatch.setattr("spheredepth.cli.run_depth", lambda args: pytest.fail("runner ran"))
        assert main(["depth", "--n", "20", "--query", "0,0", "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --output: ")
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]  # nothing created
        assert blocker.read_text() == ""

    def test_failed_final_write_is_an_error(self, tmp_path, capsys, monkeypatch):
        def fail(path, text):
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr("spheredepth.cli.write_text_atomic", fail)
        target = tmp_path / "x.json"
        assert main(["depth", "--n", "20", "--query", "0,0", "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not list(tmp_path.iterdir())

    def test_oracle_check_gap(self, capsys):
        code = main([
            "depth", "--generator", "gaussian", "--n", "200", "--d", "2",
            "--self-score", "--r", "1.0", "--s", "1.0",
            "--oracle-check", "512", "--seed", "3",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["max_oracle_gap"] <= 5e-3

    def test_csv_format(self, capsys):
        code = main([
            "depth", "--generator", "gaussian", "--n", "50", "--d", "2",
            "--query", "0,0", "--r", "1", "--s", "1", "--format", "csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("index,depth\n")

    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "depth", "--generator", "bi-gaussian", "--n", "80", "--d", "2",
            "--query", "0,0", "--query", "1,1", "--r", "1", "--s", "1", "--seed", "11",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("method", ["sphere", "mahalanobis", "oracle-grid", "halfspace"])
    @pytest.mark.parametrize(
        "queries, message",
        [
            (["1,2", "3"], "--query 1: '3': query has dimension 1, expected 2"),
            (["1,2", "1,2,3"], "--query 1: '1,2,3': query has dimension 3, expected 2"),
            (["1,,2"], "--query 0: '1,,2': could not convert string to float: ''"),
            (["0,0", "1,nan"], "--query 1: '1,nan': query contains non-finite entries"),
        ],
        ids=["short", "long", "empty-coordinate", "nan"],
    )
    def test_bad_query_is_named_before_any_scoring(
        self, capsys, monkeypatch, method, queries, message
    ):
        monkeypatch.setattr(
            "spheredepth.cli._depth_scores", lambda *args, **kwargs: pytest.fail("scored")
        )
        argv = ["depth", "--n", "20", "--method", method]
        assert main(argv + [f"--query={q}" for q in queries]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestMethodOptions:
    """Each depth method reads its own options from the parsed arguments."""

    @pytest.fixture
    def sample(self, tmp_path):
        X = SampleSet(np.random.default_rng(5).standard_normal((30, 4)))
        path = tmp_path / "sample.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in X.data.tolist()))
        return X, path

    @staticmethod
    def depths(capsys, path, *options):
        argv = ["depth", "--csv", str(path), "--self-score", "--r", "1", "--s", "0.5", *options]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["metrics"]["depths"]

    def test_oracle_grid_reads_grid_size_and_seed(self, sample, capsys):
        X, path = sample
        depths = self.depths(capsys, path, "--method", "oracle-grid", "--grid-size", "300",
                             "--seed", "7")
        grid = DirectionGrid.generate(300, 4, seed=7)
        params = DepthParams(r=1.0, s=0.5)
        assert depths == [grid_oracle_sphere_depth(z, X, params, grid).value for z in X.data]
        assert depths != self.depths(capsys, path, "--method", "oracle-grid")

    def test_mahalanobis_reads_regularization(self, sample, capsys):
        X, path = sample
        depths = self.depths(capsys, path, "--method", "mahalanobis", "--regularization", "0.5")
        assert depths == mahalanobis_depth(X.data, fit_mahalanobis(X, 0.5)).tolist()
        assert depths != self.depths(capsys, path, "--method", "mahalanobis")

    def test_kspatial_reads_bandwidth(self, sample, capsys):
        X, path = sample
        depths = self.depths(capsys, path, "--method", "kspatial", "--bandwidth", "0.7")
        model = fit_kernelized_spatial(X, KernelConfig(bandwidth_h=0.7))
        assert depths == kernelized_spatial_depth(X.data, model).tolist()
        assert depths != self.depths(capsys, path, "--method", "kspatial")

    def test_halfspace_reads_seed(self, sample, capsys, monkeypatch):
        # Most seeds find the same exact count, so the seed is watched on
        # its way into the library call as well.
        X, path = sample
        seeds = []

        def recorded(z, X, cfg):
            seeds.append(cfg.seed)
            return halfspace_depth(z, X, cfg)

        monkeypatch.setattr("spheredepth.cli.halfspace_depth", recorded)
        depths = self.depths(capsys, path, "--method", "halfspace", "--seed", "3")
        cfg = HalfspaceConfig(seed=3)
        assert depths == [halfspace_depth(z, X, cfg).value for z in X.data]
        assert seeds == [3] * X.n

    def test_sphere_reads_threads(self, sample, capsys, monkeypatch):
        X, path = sample
        pools = []

        def recorded(points, X, params, cfg, threads=1):
            pools.append(threads)
            return batch_depth(points, X, params, cfg, threads=threads)

        monkeypatch.setattr("spheredepth.cli.batch_depth", recorded)
        depths = self.depths(capsys, path, "--threads", "2")
        expected = batch_depth(X.data, X, DepthParams(r=1.0, s=0.5))
        assert depths == [res.value for res in expected]
        assert pools == [2]


class TestContourCommand:
    def test_two_by_two(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main([
            "contour", "--generator", "bi-gaussian", "--n", "100", "--d", "2",
            "--bounds", "-1", "1", "-1", "1", "--resolution", "2", "2",
            "--method", "kspatial", "--output", str(out),
        ])
        assert code == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()
            if not line.startswith("#")
        ]
        values = np.array(rows)
        assert values.shape == (2, 2)
        assert np.all((0.0 <= values) & (values <= 1.0))

    def test_modes_deeper_than_saddle(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main([
            "contour", "--generator", "bi-gaussian", "--n", "400", "--d", "2",
            "--bounds", "-5.25", "5.25", "-5.25", "5.25", "--resolution", "7", "7",
            "--method", "sphere", "--r", "1", "--s", "1", "--seed", "5",
            "--output", str(out),
        ])
        assert code == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()
            if not line.startswith("#")
        ]
        values = np.array(rows)
        # Grid step 1.75: modes (+-3.5, +-3.5) sit at indices 1 and 5,
        # the saddle (0, 0) at index 3.
        saddle = values[3, 3]
        assert values[1, 1] > saddle
        assert values[5, 5] > saddle

    def test_identical_bytes(self, tmp_path):
        args = [
            "contour", "--generator", "bi-gaussian", "--n", "60", "--d", "2",
            "--bounds", "-2", "2", "-2", "2", "--resolution", "3", "3",
            "--method", "mahalanobis", "--seed", "9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_s_zero_hint_names_method_flag(self, capsys):
        code = main([
            "contour", "--n", "20", "--bounds", "-1", "1", "-1", "1",
            "--resolution", "2", "2", "--r", "1", "--s", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "s > 0" in err and "--method oracle-grid" in err

    def test_requires_2d(self, tmp_path, capsys):
        code = main([
            "contour", "--generator", "gaussian", "--n", "30", "--d", "3",
            "--bounds", "-1", "1", "-1", "1",
        ])
        assert code == 2
        assert "2-D" in capsys.readouterr().err


class TestRankbenchCommand:
    def test_density_method_perfect(self, capsys):
        code = main([
            "rankbench", "--dims", "2", "--n", "60", "--runs", "2",
            "--methods", "density", "--seed", "4",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        runs = payload["metrics"]["correlations"]["density"]["2"]["spearman_runs"]
        assert runs == [1.0, 1.0]

    def test_s_zero_names_no_oracle_grid(self, capsys):
        code = main([
            "rankbench", "--dims", "2", "--n", "20", "--runs", "1",
            "--methods", "sphere", "--s", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "s > 0" in err and "oracle-grid" not in err

    def test_repeatable(self, tmp_path):
        args = [
            "rankbench", "--dims", "2", "--n", "40", "--runs", "1",
            "--methods", "kspatial", "--seed", "6",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_runs_below_one_are_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rankbench", "--dims", "2", "--n", "20", "--runs", "0"])
        assert info.value.code == 2
        assert "--runs: must be at least 1, got 0" in capsys.readouterr().err


class TestHtestCommand:
    def test_determinism_and_schema(self, capsys):
        code = main([
            "htest", "--source-f", "gauss", "--source-g", "gauss",
            "--n", "40", "--m", "40", "--reps", "2", "--method", "mahalanobis",
            "--both-orderings", "--seed", "1",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("fg", "gf"):
            assert len(payload["metrics"][key]["z_stats"]) == 2
            assert 0.0 <= payload["metrics"][key]["rejection_rate"] <= 1.0

    def test_s_zero_names_no_oracle_grid(self, capsys):
        code = main(["htest", "--n", "20", "--m", "20", "--reps", "1", "--s", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "s > 0" in err and "oracle-grid" not in err

    @pytest.mark.parametrize(
        "sizes", [["--n", "1", "--m", "5"], ["--n", "5", "--m", "1", "--both-orderings"]]
    )
    def test_excluding_the_only_term_is_an_error(self, capsys, sizes):
        # A point equal to every reference row has nothing left once its
        # self terms are excluded.
        assert main(["htest", *sizes, "--reps", "2", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: point 0 ") and "every reference row (n = 1)" in err
        kept = main(["htest", *sizes, "--reps", "2", "--seed", "1", "--self-terms", "include"])
        assert kept == 0

    def test_mahalanobis_is_unregularised(self, capsys):
        assert main(["htest", "--n", "30", "--m", "25", "--reps", "2", "--method",
                     "mahalanobis", "--seed", "4"]) == 0
        fg = json.loads(capsys.readouterr().out)["metrics"]["fg"]

        def depth_fn(points, reference):
            return mahalanobis_depth(points, fit_mahalanobis(reference, 0.0))

        for rep in range(2):
            X = gen_truncated_gaussian(2, 30, (4, rep, 0), truncation_norm=10.0)
            Y = gen_truncated_gaussian(2, 25, (4, rep, 1), truncation_norm=10.0)
            result, _ = homogeneity_test(X, Y, depth_fn, level=0.05)
            assert (fg["z_stats"][rep], fg["q_values"][rep]) == (result.z_stat, result.q)

    def test_method_outside_sphere_and_mahalanobis_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr("spheredepth.cli.run_htest", lambda args: pytest.fail("runner ran"))
        with pytest.raises(SystemExit) as exited:
            main(["htest", "--method", "kspatial"])
        assert exited.value.code == 2
        assert "invalid choice: 'kspatial'" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "htest", "--source-f", "t2", "--source-g", "t3corr",
            "--n", "30", "--m", "30", "--reps", "2", "--method", "mahalanobis",
            "--seed", "8",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bigauss_source_reruns_byte_identical(self, tmp_path):
        args = [
            "htest", "--source-f", "bigauss", "--source-g", "gauss",
            "--n", "30", "--m", "30", "--reps", "2", "--seed", "5",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["parameters"]["source_f"] == "bigauss"

    @pytest.mark.parametrize(
        "argv",
        [["htest", "--reps", "1000"], ["rankbench"], ["speedbench"],
         ["contour", "--bounds", "0", "1", "0", "1"]],
        ids=["htest", "rankbench", "speedbench", "contour"],
    )
    def test_format_is_refused_before_any_work(self, capsys, monkeypatch, argv):
        # Only depth and anomaly reports have a per-point score table.
        runner = f"spheredepth.cli.run_{argv[0]}"
        monkeypatch.setattr(runner, lambda args: pytest.fail("runner ran"))
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--format", "csv"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err


class TestAnomalyCommand:
    @pytest.fixture
    def separable_csv(self, tmp_path):
        rng = np.random.default_rng(123)
        inliers = rng.standard_normal((95, 3))
        outliers = rng.uniform(8, 12, size=(5, 3)) * rng.choice([-1, 1], size=(5, 3))
        rows = ["f1,f2,f3,y"]
        for row in inliers:
            rows.append(",".join(repr(float(v)) for v in row) + ",0")
        for row in outliers:
            rows.append(",".join(repr(float(v)) for v in row) + ",1")
        path = tmp_path / "synthetic.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_separable_auroc(self, separable_csv, capsys):
        code = main([
            "anomaly", "--csv", str(separable_csv), "--label-column", "y",
            "--methods", "sphere", "mahalanobis",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["sphere"]["auroc"] == 1.0
        assert payload["metrics"]["mahalanobis"]["auroc"] >= 0.95
        # default hyperparameters recorded for replay
        assert payload["parameters"]["r"] > 0
        assert payload["parameters"]["s"] > 0

    def test_s_zero_hint_names_methods_flag(self, separable_csv, capsys):
        code = main([
            "anomaly", "--csv", str(separable_csv), "--label-column", "y",
            "--methods", "sphere", "--s", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "s > 0" in err and "--methods oracle-grid" in err

    def test_single_class_rejected(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("a,y\n1,0\n2,0\n")
        code = main(["anomaly", "--csv", str(path), "--label-column", "y"])
        assert code == 2
        assert "single label class" in capsys.readouterr().err

    def test_directory_as_csv_is_an_error_not_a_traceback(self, tmp_path, capsys):
        code = main(["anomaly", "--csv", str(tmp_path), "--label-column", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_csv_format_scores(self, separable_csv, capsys):
        code = main([
            "anomaly", "--csv", str(separable_csv),
            "--label-column", "y", "--methods", "mahalanobis", "--format", "csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("index,score_mahalanobis\n")
        assert len(out.strip().splitlines()) == 101


class TestSpeedbenchCommand:
    def test_schema(self, capsys):
        code = main([
            "speedbench", "--n-list", "1000", "2000", "--methods", "sphere",
            "--seed", "2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["warmup_n"] == 1000
        assert "1000" in payload["metrics"]["seconds"]["sphere"]
        assert "2000" in payload["metrics"]["seconds"]["sphere"]
        # The far query z = (10, 10, 10) is stationary at the start.
        assert payload["metrics"]["iterations"]["sphere"] == {"1000": 0, "2000": 0}
        # The sample mean is in distribution, so the solver has to descend.
        centred = payload["metrics"]["centred_iterations"]["sphere"]
        assert set(centred) == {"1000", "2000"}
        assert all(v > 0 for v in centred.values())
        assert set(payload["metrics"]["centred_seconds"]["sphere"]) == {"1000", "2000"}

    def test_both_methods_at_both_queries(self, capsys):
        code = main([
            "speedbench", "--n-list", "1000", "2000", "--methods", "sphere", "halfspace",
            "--restarts", "2", "--seed", "2",
        ])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        methods = {"sphere", "halfspace"}
        ns = {"1000", "2000"}
        for key in ("seconds", "calls_per_sample", "iterations"):
            for prefix in ("", "centred_"):
                assert set(metrics[prefix + key]) == methods
                for method in methods:
                    assert set(metrics[prefix + key][method]) == ns
        for prefix in ("", "centred_"):
            seconds = metrics[prefix + "seconds"]
            assert metrics[prefix + "halfspace_over_sphere"] == {
                n: seconds["halfspace"][n] / seconds["sphere"][n] for n in ns
            }
            assert set(metrics[prefix + "scaling"]) == methods
            for method in methods:
                assert set(metrics[prefix + "scaling"][method]) == {"2000/1000"}
        assert set(metrics) == {
            "warmup_n", "seconds", "calls_per_sample", "iterations",
            "halfspace_over_sphere", "scaling",
            "centred_seconds", "centred_calls_per_sample", "centred_iterations",
            "centred_halfspace_over_sphere", "centred_scaling",
        }
        assert metrics["iterations"]["sphere"] == {"1000": 0, "2000": 0}
        for method in methods:
            assert all(v > 0 for v in metrics["centred_iterations"][method].values())

    def test_threads_is_refused_before_any_work(self, capsys, monkeypatch):
        # speedbench times single solves; only the scoring commands take --threads.
        monkeypatch.setattr("spheredepth.cli.run_speedbench", lambda args: pytest.fail("runner ran"))
        with pytest.raises(SystemExit) as exited:
            main(["speedbench", "--threads", "2"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_decreasing_n_rejected(self, capsys):
        code = main(["speedbench", "--n-list", "2000", "1000"])
        assert code == 2
        assert "non-decreasing" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["scipy", "scipy.optimize", "scipy.spatial"])
def test_cli_import_defers_scipy(module):
    # scipy.optimize and scipy.spatial cost most of the CLI's start-up; only
    # the halfspace and kernel-spatial baselines need them, and they import
    # them when called, so the import loads no part of scipy at all.
    src = str(Path(spheredepth.__file__).resolve().parents[1])
    code = f"import sys, spheredepth.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_public_surface():
    assert sorted(spheredepth.__all__) == sorted([
        "__version__",
        "DepthParams", "DirectionGrid", "OracleResult", "SampleSet",
        "grid_oracle_halfspace_depth", "grid_oracle_sphere_depth", "sigmoid",
        "sigmoid_derivative", "sphere_loss", "sphere_loss_gradient", "unit_direction",
        "DepthResult", "OptimizerConfig", "batch_depth", "default_params", "exp_map",
        "riemannian_descent", "sphere_depth", "tangent_project",
        "HalfspaceConfig", "KernelConfig", "KernelSpatialModel", "MahalanobisModel",
        "fit_kernelized_spatial", "fit_mahalanobis", "halfspace_depth",
        "kernelized_spatial_depth", "mahalanobis_depth",
        "QualityIndexResult", "RankCorrelationResult", "RocResult", "auroc",
        "homogeneity_test", "kendall_tau", "quality_index", "rank_correlations", "spearman",
        "MixtureSpec", "StandardizationStats", "StudentSpec", "bi_gaussian_spec",
        "gen_mixture", "gen_student_t", "gen_truncated_gaussian", "mixture_density",
        "standardize",
        "ExperimentReport", "LabeledDataset", "load_features_csv", "load_labeled_csv",
    ])
    for name in spheredepth.__all__:
        assert getattr(spheredepth, name) is not None
    assert callable(spheredepth.io.write_text_atomic)
