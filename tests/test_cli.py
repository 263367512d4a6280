import csv
import json
import math
import sys

import numpy as np
import pytest

from delo.cli import ColumnSpec, CLIInputError, _read_rows, ingest_csv, main, parse_columns

TRIANGLE_CSV = "0,0\n3,0\n0,4\n"
SQUARE_CSV = "0,0\n1,0\n0,1\n1,1\n"


@pytest.fixture
def triangle(tmp_path):
    p = tmp_path / "tri.csv"
    p.write_text(TRIANGLE_CSV)
    return str(p)


@pytest.fixture
def square(tmp_path):
    p = tmp_path / "sq.csv"
    p.write_text(SQUARE_CSV)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- ingestion ----------------------------------------------------------------

def test_ingest_triangle(triangle):
    ps, rows = ingest_csv(triangle, ColumnSpec())
    assert ps.n == 3 and ps.dim == 2
    assert rows == [0, 1, 2]


def test_ingest_by_name_equals_by_index(tmp_path):
    p = tmp_path / "named.csv"
    p.write_text("t,price_a,price_b\n0,0,0\n1,3,0\n2,0,4\n")
    by_name, _ = ingest_csv(str(p), ColumnSpec(columns=("price_a", "price_b"), header=True))
    by_index, _ = ingest_csv(str(p), ColumnSpec(columns=(1, 2), header=True))
    assert np.array_equal(by_name.coords, by_index.coords)


def test_ingest_duplicate_rows_named(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("0,0\n3,0\n0,4\n3,0\n")
    from delo import DuplicatePointError

    with pytest.raises(DuplicatePointError) as exc:
        ingest_csv(str(p), ColumnSpec())
    assert exc.value.indices == (1, 3)


def test_ingest_strict_parse_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,0\nx,0\n0,4\n")
    with pytest.raises(CLIInputError):
        ingest_csv(str(p), ColumnSpec())


def test_ingest_lenient_skips(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("0,0\nx,0\n3,0\n0,4\n")
    ps, rows = ingest_csv(str(p), ColumnSpec(), strict=False)
    assert ps.n == 3
    assert rows == [0, 2, 3]


def test_ingest_too_few_rows(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("0,0\n")
    with pytest.raises(CLIInputError):
        ingest_csv(str(p), ColumnSpec())


def test_parse_columns():
    assert parse_columns("0,1") == (0, 1)
    assert parse_columns("a,b") == ("a", "b")
    assert parse_columns(None) is None
    for bad in ("-1,-2", "0,-1", "0,0", "1,01", "a,b,a"):
        with pytest.raises(CLIInputError, match="--columns"):
            parse_columns(bad)


def _reference_read_rows(path, spec, strict):
    """_read_rows as a per-row loop only, checking each row with np.isfinite:
    the reference for its one-pass path and its math.isfinite check."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh, delimiter=spec.delimiter)
                if row and not row[0].startswith("#")]
    if not rows:
        raise CLIInputError(f"{path} has no data rows")
    header = None
    if spec.header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if spec.columns is None:
        idx = list(range(len(rows[0]) if rows else 0))
    elif all(isinstance(c, int) for c in spec.columns):
        idx = list(spec.columns)
    else:
        idx = [header.index(str(c)) for c in spec.columns]
    if not idx:
        raise CLIInputError("no columns selected")
    coords, kept_rows, skipped = [], [], 0
    for rno, row in enumerate(rows):
        try:
            vals = [float(row[c]) for c in idx]
            if not all(np.isfinite(vals)):
                raise ValueError("non-finite value")
        except (ValueError, IndexError) as err:
            if strict:
                raise CLIInputError(f"row {rno}: cannot parse columns {idx}: {err}") from err
            skipped += 1
            continue
        coords.append(vals)
        kept_rows.append(rno)
    if skipped:
        print(f"warning: skipped {skipped} unparseable rows", file=sys.stderr)
    if len(coords) < 2:
        raise CLIInputError(f"{path}: fewer than 2 valid rows")
    return np.array(coords, dtype=np.float64), kept_rows


INGEST_CSVS = {
    # float() syntax: underscores, padding, exponents, a negative zero
    "float-syntax": "# prices\na,b,c\n1_000, 2.5 ,1e3\n-0.0,1,2\n# gap\n3,4,-5E-1\n6,7,8\n",
    "non-finite": "a,b,c\n1,2,3\nnan,1,2\n4,inf,5\n9,10,11\n12,13,-inf\n",
    "bad-cells": "a,b,c\n1,2,3\nnan,1,2\n4,inf,5\n6,,7\n8\n9,10,11\n12,13,-inf\n",
    "one-row": "a,b,c\n1,2,3\n",
    "header-only": "# nothing\na,b,c\n",
}
INGEST_SPECS = [ColumnSpec(), ColumnSpec(columns=(1,)), ColumnSpec(columns=(2, 0)),
                ColumnSpec(header=True), ColumnSpec(columns=("b",), header=True),
                ColumnSpec(columns=("a", "c"), header=True)]


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("spec", INGEST_SPECS)
@pytest.mark.parametrize("name", INGEST_CSVS)
def test_read_rows_matches_per_row_loop(tmp_path, capsys, name, spec, strict):
    p = tmp_path / f"{name}.csv"
    p.write_text(INGEST_CSVS[name])

    def outcome(read):
        try:
            arr, rows = read(str(p), spec, strict)
            result = (arr.dtype, arr.shape, arr.flags.c_contiguous, arr.tobytes(), rows)
        except CLIInputError as err:
            result = str(err)
        return result, capsys.readouterr().err

    assert outcome(_read_rows) == outcome(_reference_read_rows)


# --- score --------------------------------------------------------------------

def test_score_triangle_rows_in_order(capsys, triangle):
    code, out, _ = run(capsys, "score", triangle)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "row,x0,x1,log_score,score"
    vals = [float(l.split(",")[-1]) for l in lines[1:]]
    assert vals == pytest.approx([math.sqrt(12), math.sqrt(15), math.sqrt(20)])
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2"]


def test_score_json_format(capsys, triangle):
    code, out, _ = run(capsys, "score", triangle, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema_version"] == "delo.scores.v1"
    assert [r["row"] for r in obj["records"]] == [0, 1, 2]


def test_score_deterministic_output(capsys, triangle):
    _, out1, _ = run(capsys, "score", triangle)
    _, out2, _ = run(capsys, "score", triangle)
    assert out1 == out2


def test_score_degenerate_square_exits_2(capsys, square):
    code, _, err = run(capsys, "score", square)
    assert code == 2
    obj = json.loads(err)
    assert obj["kind"] == "geometry"
    assert obj["detail"]["subset"] == [0, 1, 2, 3]


def test_score_square_with_jitter(capsys, square):
    code, out, _ = run(capsys, "score", square, "--jitter")
    assert code == 0
    assert len(out.splitlines()) == 2 + 4


def test_score_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "score", "/nonexistent.csv")
    assert code == 1
    assert json.loads(err)["kind"] == "input"


def test_score_overflowing_coordinates_exit_1(tmp_path, capsys):
    p = tmp_path / "huge.csv"
    pts = np.random.default_rng(0).uniform(-1, 1, (8, 2)) * 1e160
    p.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    code, out, err = run(capsys, "score", str(p))
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["kind"] == "input"
    assert "overflow" in obj["message"]


@pytest.mark.parametrize("case", ["empty-delimiter", "long-delimiter", "negative-jitter-seed",
                                  "jitter-seed-without-jitter", "non-utf8-byte",
                                  "over-long-field", "simulate-two-outliers",
                                  "negative-columns", "repeated-columns"])
def test_bad_input_gives_one_json_line_exit_1(tmp_path, capsys, triangle, case):
    data = tmp_path / "data.csv"
    argv = {
        "empty-delimiter": ["score", triangle, "--delimiter", ""],
        "long-delimiter": ["score", triangle, "--delimiter", ";;"],
        "negative-jitter-seed": ["score", triangle, "--jitter", "--jitter-seed", "-1"],
        "jitter-seed-without-jitter": ["score", triangle, "--jitter-seed", "5"],
        "non-utf8-byte": ["score", str(data)],
        "over-long-field": ["score", str(data)],
        "simulate-two-outliers": ["simulate", "--dim", "2", "--n", "10", "--replicates", "1",
                                  "--outlier", "0,0", "--outlier", "5,5"],
        "negative-columns": ["score", triangle, "--columns=-1,-2"],
        "repeated-columns": ["score", triangle, "--columns", "0,0"],
    }[case]
    if case == "non-utf8-byte":
        data.write_bytes(b"0,0\n3,0\n0,\xff4\n")
    elif case == "over-long-field":
        data.write_text("0,0\n3,0\n0," + "4" * 131_073 + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "input"


def test_change_point_series_scores_separate(tmp_path, capsys):
    rng = np.random.default_rng(321)
    walk1 = np.cumsum(rng.normal(0, 0.01, size=(300, 2)), axis=0)
    start2 = walk1[-1] + np.array([5.0, 5.0])
    walk2 = start2 + np.cumsum(rng.normal(0, 2.0, size=(100, 2)), axis=0)
    pts = np.vstack([walk1, walk2])
    p = tmp_path / "walk.csv"
    p.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in pts))
    code, out, _ = run(capsys, "score", str(p))
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("#", "row"))]
    assert len(lines) == 400
    scores = np.array([float(l.split(",")[-1]) for l in lines])
    rows = [int(l.split(",")[0]) for l in lines]
    assert rows == list(range(400))  # series order preserved for plotting
    assert scores[300:].min() > scores[:300].max()  # regime change visible


# --- flag ----------------------------------------------------------------------

def test_flag_triangle(capsys, triangle):
    code, out, _ = run(capsys, "flag", triangle, "--alpha", "4")
    assert code == 0
    data_lines = [l for l in out.splitlines() if l and not l.startswith(("#", "row"))]
    assert len(data_lines) == 1
    assert data_lines[0].startswith("2,")
    assert "# flagged=1 total=3 alpha=4.0" in out


def test_flag_zero_alpha_flags_all(capsys, triangle):
    code, out, _ = run(capsys, "flag", triangle, "--alpha", "0", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["flagged_count"] == 3


def test_flag_above_max_flags_none(capsys, triangle):
    code, out, _ = run(capsys, "flag", triangle, "--alpha", "100", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["flagged_count"] == 0


def test_flag_nested_thresholds(capsys, tmp_path):
    rng = np.random.default_rng(5)
    p = tmp_path / "r.csv"
    p.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rng.uniform(-1, 1, (50, 2))))
    sets = []
    for alpha in ("1", "0.2", "0.05"):
        _, out, _ = run(capsys, "flag", str(p), "--alpha", alpha, "--format", "json")
        sets.append({r["row"] for r in json.loads(out)["flagged"]})
    assert sets[0] <= sets[1] <= sets[2]


def test_flag_negative_alpha_exits_1(capsys, triangle):
    code, _, err = run(capsys, "flag", triangle, "--alpha", "-1")
    assert code == 1


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_flag_non_finite_alpha_exits_1(capsys, triangle, alpha):
    code, out, err = run(capsys, "flag", triangle, "--alpha", alpha)
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "input"


# --- triangulate -----------------------------------------------------------------

def test_triangulate_triangle(capsys, triangle):
    code, out, _ = run(capsys, "triangulate", triangle)
    assert code == 0
    data = [l for l in out.splitlines() if l and not l.startswith(("#", "i,"))]
    assert data == ["0,1,3.0", "0,2,4.0", "1,2,5.0"]


def test_triangulate_oracle_agreement(capsys, tmp_path):
    p = tmp_path / "q.csv"
    p.write_text("0,0\n1,0\n0,1\n0.9,0.9\n")
    code, out, _ = run(capsys, "triangulate", str(p), "--oracle", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["oracle_agreement"] is True
    assert [e[:2] for e in obj["edges"]] == [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]


def test_triangulate_oracle_accepts_cospherical_points_around_a_point_inside(capsys, tmp_path):
    # the four points on the unit circle are cospherical, but every circle
    # through three of them holds (0, 0): both sides give the unique fan
    p = tmp_path / "circle.csv"
    p.write_text("1,0\n-1,0\n0,1\n0,-1\n0,0\n")
    code, out, _ = run(capsys, "triangulate", str(p), "--oracle")
    assert code == 0
    assert out.splitlines()[-1] == "# oracle_agreement=true"
    data = [l.split(",")[:2] for l in out.splitlines() if l and not l.startswith(("#", "i,"))]
    assert data == [["0", "2"], ["0", "3"], ["0", "4"], ["1", "2"], ["1", "3"], ["1", "4"],
                    ["2", "4"], ["3", "4"]]


def test_triangulate_degenerate_square_exit_2(capsys, square):
    code, _, err = run(capsys, "triangulate", square)
    assert code == 2
    assert json.loads(err)["detail"]["subset"] == [0, 1, 2, 3]


def test_triangulate_round_trip_scores(capsys, tmp_path):
    rng = np.random.default_rng(8)
    p = tmp_path / "r.csv"
    p.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in rng.uniform(-1, 1, (30, 2))))
    _, edges_out, _ = run(capsys, "triangulate", str(p))
    rows = [line.split(",") for line in edges_out.splitlines()
            if line and not line.startswith(("#", "i,"))]
    ends = np.array([(int(i), int(j)) for i, j, _ in rows]).ravel()
    logs = np.log([float(length) for *_, length in rows])
    # each point's score: the mean of the log lengths of its edges, exponentiated
    want = np.exp(np.bincount(ends, weights=np.repeat(logs, 2), minlength=30)
                  / np.bincount(ends, minlength=30))
    _, scores_out, _ = run(capsys, "score", str(p))
    scores = [float(l.split(",")[-1]) for l in scores_out.splitlines()
              if l and not l.startswith(("#", "row"))]
    assert scores == pytest.approx(list(want), rel=1e-15)


# --- simulate / consistency -------------------------------------------------------

def test_simulate_echoes_config_and_is_deterministic(capsys, tmp_path):
    args = ["simulate", "--dim", "2", "--n", "30", "--replicates", "3",
            "--seed", "9", "--thresholds", "0.9,1.0", "--processes", "1"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    obj = json.loads(out1)
    assert obj["config"] == {"dim": 2, "n_inliers": 30, "replicates": 3, "seed": 9,
                             "r_lo": 0.7, "r_hi": 1.1, "outliers": [[0.0, 0.0]],
                             "thresholds": [0.9, 1.0]}
    code, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_simulate_histogram_csv(capsys, tmp_path):
    hist = tmp_path / "h.csv"
    code, _, _ = run(capsys, "simulate", "--dim", "2", "--n", "25", "--replicates", "2",
                     "--seed", "1", "--processes", "1", "--histogram-csv", str(hist),
                     "--output", str(tmp_path / "r.json"))
    assert code == 0
    lines = hist.read_text().splitlines()
    assert lines[0].startswith("# schema=")
    assert len(lines) == 2 + 50


def test_simulate_invalid_flags_exit_1(capsys):
    code, _, err = run(capsys, "simulate", "--dim", "2", "--n", "30",
                       "--replicates", "0", "--processes", "1")
    assert code == 1
    code, _, err = run(capsys, "simulate", "--dim", "2")
    assert code == 1
    assert "usage" in json.loads(err)["message"]
    code, _, err = run(capsys, "simulate", "--dim", "7", "--n", "30",
                       "--replicates", "1", "--processes", "1")
    assert code == 1
    assert json.loads(err)["kind"] == "input"
    for argv in (["--thresholds", "0.9,0.9"], ["--processes", "0"]):
        code, out, err = run(capsys, "simulate", "--dim", "2", "--n", "30",
                             "--replicates", "1", "--processes", "1", *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "input"


@pytest.mark.parametrize("argv", [
    ["--thresholds", "nan,inf"],
    ["--outlier", "nan,0"],
    ["--r-hi", "inf"],
], ids=["thresholds", "outlier", "r-hi"])
def test_simulate_non_finite_flags_exit_1(capsys, argv):
    # each used to exit 0 with NaN in the report, or fail later as geometry
    code, out, err = run(capsys, "simulate", "--dim", "2", "--n", "20", "--replicates", "1",
                         "--processes", "1", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "input"


def test_consistency_cli(capsys):
    code, out, _ = run(capsys, "consistency", "--schedule", "30,60",
                       "--replicates", "3", "--seed", "4", "--processes", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] == 2.0
    assert obj["violations"] == 0
    assert len(obj["lambda_medians"]) == 2


def test_consistency_outlier_inside_ball_exit_1(capsys):
    code, _, _ = run(capsys, "consistency", "--outlier", "0.2,0", "--schedule", "30",
                     "--replicates", "2", "--processes", "1")
    assert code == 1


def test_consistency_default_outlier_has_dim_coordinates(capsys):
    code, out, _ = run(capsys, "consistency", "--dim", "3", "--schedule", "20",
                       "--replicates", "1", "--processes", "1")
    assert code == 0
    assert json.loads(out)["config"]["outliers"] == [[3.0, 0.0, 0.0]]


@pytest.mark.parametrize("argv", [
    ["--outlier", "3,0", "--outlier", "3,0"],
    ["--outlier", "3,0,4,0"],
    ["--replicates", "0"],
    ["--radius", "-1"],
    ["--schedule", "30,x"],
    ["--schedule", "100,50"],
    ["--schedule", "50,50"],
    ["--processes", "0"],
], ids=["duplicate-outliers", "outlier-dimension", "no-replicates", "negative-radius",
        "bad-schedule", "decreasing-schedule", "repeated-schedule", "no-processes"])
def test_consistency_bad_input_exit_1(capsys, argv):
    code, out, err = run(capsys, "consistency", "--schedule", "30", "--replicates", "2",
                         "--processes", "1", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "input"
