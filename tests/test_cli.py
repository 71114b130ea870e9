import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import ballmapper as bm
from ballmapper import cli, datagen, point_cloud, summary
from ballmapper.cli import RESULTS_HEADER, _write_merged_csv, _write_results_csv, main
from ballmapper.errors import ValidationError
from ballmapper.point_cloud import format_floats, write_cells

from conftest import cover_from_members, laid_out_graphs


def run_cli(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


@pytest.fixture
def auto_csv(tmp_path):
    dest = tmp_path / "auto.csv"
    shutil.copy(bm.auto_csv_path(), dest)
    return dest


AUTO_RUN = [
    "run", "--axes", "mpg,trunk,weight,length,turn,displacement,gear_ratio",
    "-e", "1.5", "--standardize", "--color", "foreign",
]


def auto_run_args(auto_csv, tmp_path, tag=""):
    return AUTO_RUN + [
        "-i", auto_csv,
        "--svg", tmp_path / f"g{tag}.svg",
        "--results", tmp_path / f"r{tag}.csv",
        "--merged", tmp_path / f"m{tag}.csv",
    ]


class TestRun:
    def test_auto_pipeline_files(self, auto_csv, tmp_path, capsys):
        assert run_cli(auto_run_args(auto_csv, tmp_path)) == 0
        out = capsys.readouterr().out
        assert "g.svg" in out and "r.csv" in out and "m.csv" in out

        rows = read_rows(tmp_path / "r.csv")
        nodes = [r for r in rows if r["type"] == "node"]
        edges = [r for r in rows if r["type"] == "edge"]
        assert len(nodes) == 19
        assert all(r["source"] == "" and r["shared"] == "" for r in nodes)
        assert all(r["ball"] == "" and r["size"] == "" for r in edges)
        assert all(int(e["shared"]) >= 1 for e in edges)

        merged = read_rows(tmp_path / "m.csv")
        assert len(merged) == sum(int(n["size"]) for n in nodes) == 101
        assert set(merged[0]) == {"ball", *bm.load_csv(auto_csv).column_names}
        node_ids = {n["ball"] for n in nodes}
        merged_ids = {m["ball"] for m in merged}
        assert node_ids == merged_ids

    def test_epsilon_zero_message_and_exit(self, auto_csv, tmp_path, capsys):
        code = run_cli(["run", "-i", auto_csv, "--axes", "mpg", "-e", "0"])
        assert code == 1
        assert "epsilon must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["1.5", "1e308"])
    def test_gap_that_overflows_runs_without_warning(self, tmp_path, epsilon):
        # x spans 2e308, past float64: no stage may warn, and the inf gap is no member
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1e308,0\n-1e308,0\n1e308,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["run", "-i", path, "--axes", "x,y", "-e", epsilon,
                            "--svg", tmp_path / "h.svg", "--results", tmp_path / "r.csv",
                            "--merged", tmp_path / "m.csv"])
        assert code == 0
        assert [(r["ball"], r["x"], r["y"]) for r in read_rows(tmp_path / "m.csv")] == [
            ("1", "1e308", "0"), ("1", "1e308", "1"), ("2", "-1e308", "0"),
        ]

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = run_cli(["run", "-i", tmp_path / "no.csv", "--axes", "x", "-e", "1"])
        assert code == 2

    def test_unknown_axis_is_validation_error(self, auto_csv, capsys):
        code = run_cli(["run", "-i", auto_csv, "--axes", "mpg,bogus", "-e", "1"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_byte_determinism(self, auto_csv, tmp_path):
        assert run_cli(auto_run_args(auto_csv, tmp_path, "1")) == 0
        assert run_cli(auto_run_args(auto_csv, tmp_path, "2")) == 0
        for a, b in (("g1.svg", "g2.svg"), ("r1.csv", "r2.csv"), ("m1.csv", "m2.csv")):
            ha = hashlib.sha256((tmp_path / a).read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / b).read_bytes()).hexdigest()
            assert ha == hb

    def test_x_dataset_consistency(self, tmp_path, capsys):
        x_csv = tmp_path / "x.csv"
        assert run_cli(["gen", "x", "--seed", "3", "-o", x_csv]) == 0
        assert run_cli([
            "run", "-i", x_csv, "--axes", "x1,x2", "-e", "1.2", "--color", "y1",
            "--svg", tmp_path / "x.svg",
            "--results", tmp_path / "xr.csv",
            "--merged", tmp_path / "xm.csv",
        ]) == 0
        nodes = [r for r in read_rows(tmp_path / "xr.csv") if r["type"] == "node"]
        merged = read_rows(tmp_path / "xm.csv")
        assert len(nodes) == len({m["ball"] for m in merged})
        assert sum(int(n["size"]) for n in nodes) == len(merged)


    def test_merged_directory_leaves_stale_outputs(self, auto_csv, tmp_path, capsys):
        stale = {"g.svg": b"stale svg", "r.csv": b"stale results"}
        for name, data in stale.items():
            (tmp_path / name).write_bytes(data)
        (tmp_path / "m").mkdir()
        code = run_cli(["run", "-i", auto_csv, "--axes", "mpg,weight", "-e", "1",
                        "--svg", tmp_path / "g.svg", "--results", tmp_path / "r.csv",
                        "--merged", tmp_path / "m"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        for name, data in stale.items():
            assert (tmp_path / name).read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["auto.csv", "g.svg", "m", "r.csv"]
        assert list((tmp_path / "m").iterdir()) == []

    def test_missing_output_directory_writes_nothing(self, auto_csv, tmp_path, capsys):
        code = run_cli(["run", "-i", auto_csv, "--axes", "mpg,weight", "-e", "1",
                        "--svg", tmp_path / "g.svg", "--results", tmp_path / "r.csv",
                        "--merged", tmp_path / "no" / "m.csv"])
        assert code == 2
        assert str(tmp_path / "no" / "m.csv") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["auto.csv"]

    def test_negative_seed_ignored_in_data_order(self, auto_csv, tmp_path):
        assert run_cli(auto_run_args(auto_csv, tmp_path, "1") + ["--seed", "-1"]) == 0
        assert run_cli(auto_run_args(auto_csv, tmp_path, "2")) == 0
        for a, b in (("g1.svg", "g2.svg"), ("r1.csv", "r2.csv"), ("m1.csv", "m2.csv")):
            assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()


def _write_merged_reference(path, raw, cover):
    """The merged writer before each row was rendered once: one writerows call."""
    write_cells(path, ("ball",) + raw.column_names, (
        (ball,) + raw.rows[r]
        for ball, member_rows in enumerate(cover.members, start=1)
        for r in member_rows
    ))


# Cell text that csv must quote: delimiters, quotes and embedded line breaks.
CSV_TEXT = st.lists(st.sampled_from(["a", "1.5", ",", '"', "\n", "\r\n", "\r", " ", "é"]),
                    max_size=4).map("".join)


@st.composite
def merged_inputs(draw):
    """A raw table of awkward cells and a cover over its rows, balls of any overlap."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    names = tuple(draw(st.lists(CSV_TEXT.filter(bool), min_size=k, max_size=k, unique=True)))
    rows = tuple(draw(st.lists(st.tuples(*[CSV_TEXT] * k), min_size=n, max_size=n)))
    subsets = st.sets(st.integers(0, n - 1), min_size=1).map(lambda m: tuple(sorted(m)))
    members = tuple(draw(st.lists(subsets, min_size=1, max_size=5)))
    cover = cover_from_members(1.0, tuple(m[0] for m in members), members, tuple(range(n)))
    return bm.RawTable(names, rows), cover


@given(merged_inputs())
@example((bm.RawTable(("x",), (("",), ("a\nb",))),
          cover_from_members(1.0, (0,), ((0, 1),), (0, 1))))
@settings(max_examples=200, deadline=None)
def test_merged_csv_matches_reference_writer(tmp_path_factory, inputs):
    raw, cover = inputs
    out = tmp_path_factory.mktemp("merged")
    _write_merged_csv(out / "got.csv", raw, cover)
    _write_merged_reference(out / "want.csv", raw, cover)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def _write_results_reference(path, graph, positions):
    """The results writer before its rows were f-string lines: cells through write_cells,
    each float formatted on its own."""
    xy = {b: (format_floats([x])[0], format_floats([y])[0]) for b, (x, y) in positions.items()}
    rows = []
    for n in graph.nodes:
        x, y = xy[n.ball]
        rows.append((
            "node", n.ball, x, y, n.size,
            "" if n.color_mean is None else format_floats([n.color_mean])[0],
            "" if n.color_bin is None else n.color_bin,
            "", "", "", "", "",
        ))
    for e in graph.edges:
        x1, y1 = xy[e.source]
        x2, y2 = xy[e.target]
        rows.append((
            "edge", "", x1, y1, "", "", "",
            e.source, e.target, x2, y2, e.shared,
        ))
    write_cells(path, RESULTS_HEADER, rows)


@given(laid_out_graphs())
@settings(max_examples=200, deadline=None)
def test_results_csv_matches_reference_writer(tmp_path_factory, inputs):
    graph, positions, _scale = inputs
    out = tmp_path_factory.mktemp("results")
    _write_results_csv(out / "got.csv", graph, positions)
    _write_results_reference(out / "want.csv", graph, positions)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def test_plain_input_run_never_reaches_csv_writer(auto_csv, tmp_path, monkeypatch):
    # every cell of auto.csv is plain, so all three outputs are joined text
    def refuse(*args, **kwargs):
        raise AssertionError("a plain batch reached csv.writer")

    want = tmp_path / "want"
    want.mkdir()
    assert run_cli(auto_run_args(auto_csv, want, "")) == 0
    monkeypatch.setattr(csv, "writer", refuse)
    monkeypatch.setattr(point_cloud, "_CSV_BATCH", 7)
    assert run_cli(auto_run_args(auto_csv, tmp_path, "")) == 0
    for name in ("g.svg", "r.csv", "m.csv"):
        assert (tmp_path / name).read_bytes() == (want / name).read_bytes()


def _child_env():
    src = os.path.dirname(os.path.dirname(bm.__file__))
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_commands_leave_out_numpy_ma(tmp_path):
    # importing numpy.ma costs every command about 1.3 MB of peak RSS
    merged = tmp_path / "m.csv"
    commands = [
        AUTO_RUN + ["-i", bm.auto_csv_path(), "--svg", tmp_path / "g.svg",
                    "--results", tmp_path / "r.csv", "--merged", merged],
        ["ball-summary", "--merged", merged, "--variables", "mpg,price,foreign",
         "-o", tmp_path / "means.csv"],
        ["variable-summary", "--merged", merged, "--variable", "price",
         "-o", tmp_path / "price.csv", "--boxplot", tmp_path / "price.svg"],
    ]
    code = ("import json, sys; from ballmapper.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules)")
    argvs = json.dumps([list(map(str, argv)) for argv in commands])
    child = subprocess.run([sys.executable, "-c", code, argvs], env=_child_env(),
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "False"


def test_cli_import_leaves_out_xml_and_urllib():
    code = ("import sys, ballmapper.cli; "
            "print([m for m in ('xml.sax', 'urllib.request') if m in sys.modules])")
    child = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                           capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"


class TestBallSummaryCommand:
    def test_toy_merged(self, tmp_path):
        merged = tmp_path / "m.csv"
        merged.write_text("ball,x,y\n1,0,2\n1,1,4\n2,1,4\n2,2,6\n")
        out = tmp_path / "means.csv"
        assert run_cli(["ball-summary", "--merged", merged, "--variables", "y", "-o", out]) == 0
        assert out.read_text().splitlines() == ["ball,y,size", "1,3,2", "2,5,2"]

    def test_auto_reproduces_mean_table(self, auto_csv, tmp_path):
        run_cli(auto_run_args(auto_csv, tmp_path))
        out = tmp_path / "means.csv"
        assert run_cli([
            "ball-summary", "--merged", tmp_path / "m.csv",
            "--variables", "mpg,trunk,weight,length,turn,displacement,gear_ratio,price,foreign",
            "-o", out,
        ]) == 0
        rows = read_rows(out)
        assert len(rows) == 19
        ball1 = rows[0]
        assert float(ball1["mpg"]) == 22.5
        assert float(ball1["price"]) == 5725.25
        assert ball1["size"] == "4"

        # merged-file path agrees bitwise with the in-memory path
        raw = bm.load_csv(auto_csv)
        cloud, _ = bm.validate_axes(
            raw, ("mpg", "trunk", "weight", "length", "turn", "displacement", "gear_ratio")
        )
        std, _ = bm.standardize(cloud)
        cover = bm.build_cover(std, 1.5)
        table = bm.ball_summary(cover, raw, tuple(rows[0])[1:-1])
        for csv_row, lib_row in zip(rows, table.rows):
            assert int(csv_row["ball"]) == lib_row.ball
            assert int(csv_row["size"]) == lib_row.size
            for var, mean in zip(table.variables, lib_row.means):
                assert float(csv_row[var]) == mean

    def test_unknown_variable_named_in_error(self, tmp_path, capsys):
        merged = tmp_path / "m.csv"
        merged.write_text("ball,x\n1,0\n")
        code = run_cli(["ball-summary", "--merged", merged, "--variables", "zz", "-o", tmp_path / "o.csv"])
        assert code == 1
        assert "zz" in capsys.readouterr().err

    def test_missing_ball_column(self, tmp_path, capsys):
        merged = tmp_path / "m.csv"
        merged.write_text("x,y\n1,2\n")
        code = run_cli(["ball-summary", "--merged", merged, "--variables", "y", "-o", tmp_path / "o.csv"])
        assert code == 1
        assert "ball" in capsys.readouterr().err


class TestVariableSummaryCommand:
    def test_auto_price_rows(self, auto_csv, tmp_path):
        run_cli(auto_run_args(auto_csv, tmp_path))
        out = tmp_path / "price.csv"
        box = tmp_path / "box.svg"
        assert run_cli([
            "variable-summary", "--merged", tmp_path / "m.csv",
            "--variable", "price", "-o", out, "--boxplot", box,
        ]) == 0
        rows = read_rows(out)
        ball1 = rows[0]
        assert float(ball1["mean"]) == 5725.25
        assert abs(float(ball1["sd"]) - 1946.6) <= 0.1
        assert [float(ball1[q]) for q in ("q25", "q50", "q75")] == [4143.0, 5336.5, 7307.5]
        assert box.read_text().startswith("<svg")

    def test_auto_foreign_ball19(self, auto_csv, tmp_path):
        run_cli(auto_run_args(auto_csv, tmp_path))
        out = tmp_path / "foreign.csv"
        assert run_cli([
            "variable-summary", "--merged", tmp_path / "m.csv",
            "--variable", "foreign", "-o", out,
        ]) == 0
        ball19 = read_rows(out)[18]
        assert ball19["ball"] == "19"
        assert ball19["size"] == "2"
        for fieldname in ("mean", "sd", "min", "q25", "q50", "q75", "max"):
            assert float(ball19[fieldname]) == (0.0 if fieldname == "sd" else 1.0)

    def test_constant_column_sd_zero(self, tmp_path):
        merged = tmp_path / "m.csv"
        merged.write_text("ball,c\n1,9\n1,9\n2,9\n2,9\n")
        out = tmp_path / "c.csv"
        assert run_cli(["variable-summary", "--merged", merged, "--variable", "c", "-o", out]) == 0
        for row in read_rows(out):
            assert row["sd"] == "0"

    @pytest.mark.parametrize("stale", [None, b"stale stats"])
    def test_boxplot_directory_writes_nothing(self, tmp_path, capsys, stale):
        merged = tmp_path / "m.csv"
        merged.write_text("ball,x\n1,0\n1,2\n")
        out = tmp_path / "s.csv"
        if stale is not None:
            out.write_bytes(stale)
        (tmp_path / "box").mkdir()
        code = run_cli(["variable-summary", "--merged", merged, "--variable", "x",
                        "-o", out, "--boxplot", tmp_path / "box"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        if stale is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == stale
        assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
            ["m.csv", "box"] + ([] if stale is None else ["s.csv"]))


class TestGenCommand:
    def test_x_schema(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli(["gen", "x", "--seed", "7", "-o", out]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x1,x2,y1,y2,y3,y4,y5,group"
        assert len(rows) == 901

    def test_gauss_row_count(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli(["gen", "gauss", "--n", "1000", "--k", "2", "--seed", "1", "-o", out]) == 0
        assert len(out.read_text().splitlines()) == 1001

    def test_same_command_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["gen", "x", "--seed", "5", "-o", a]) == 0
        assert run_cli(["gen", "x", "--seed", "5", "-o", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_dataset(self, tmp_path, capsys):
        code = run_cli(["gen", "moons", "-o", tmp_path / "m.csv"])
        assert code == 1
        assert "moons" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 1.46 TiB for an array with shape (100000000000, 2) "
                     "and data type float64"),
         "error: Unable to allocate 1.46 TiB for an array with shape (100000000000, 2) "
         "and data type float64\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_one_line_and_exit_2(self, exc, line, tmp_path, capsys,
                                                 monkeypatch):
        # the generator is made to fail: a real huge allocation could be killed
        # for out-of-memory on a host that overcommits instead
        def fail(n, k, seed):
            raise exc
        monkeypatch.setattr(datagen, "gen_gaussian_cloud", fail)
        out = tmp_path / "x.csv"
        assert run_cli(["gen", "gauss", "--n", "100000000000", "-o", out]) == 2
        assert capsys.readouterr().err == line
        assert list(tmp_path.iterdir()) == []


RUN_OUT = ["--svg", "{out}/g.svg", "--results", "{out}/r.csv", "--merged", "{out}/m.csv"]
RUN_AUTO = ["run", "-i", "{auto}", "--axes", "mpg,weight", "-e", "1"]
BAD_INPUT = {
    "bins_zero": RUN_AUTO + ["--color", "price", "--bins", "0"] + RUN_OUT,
    "bins_past_legend": RUN_AUTO + ["--color", "price", "--bins", "31"] + RUN_OUT,
    "iterations_zero": RUN_AUTO + ["--iterations", "0"] + RUN_OUT,
    "repulsion_zero": RUN_AUTO + ["--repulsion", "0"] + RUN_OUT,
    "attraction_negative": RUN_AUTO + ["--attraction", "-1"] + RUN_OUT,
    "repulsion_inf": RUN_AUTO + ["--repulsion", "inf"] + RUN_OUT,
    "attraction_inf": RUN_AUTO + ["--attraction", "inf"] + RUN_OUT,
    "repulsion_overflows": RUN_AUTO + ["--repulsion", "1e308"] + RUN_OUT,
    "color_range_overflows": ["run", "-i", "{wide}", "--axes", "x", "-e", "1",
                              "--color", "c"] + RUN_OUT,
    "color_mean_overflows": ["run", "-i", "{huge}", "--axes", "x", "-e", "1",
                             "--color", "c"] + RUN_OUT,
    "color_range_underflows": ["run", "-i", "{tiny}", "--axes", "x", "-e", "1",
                               "--color", "c"] + RUN_OUT,
    "ball_column": ["run", "-i", "{balled}", "--axes", "x", "-e", "1"] + RUN_OUT,
    "svg_is_results": RUN_AUTO + ["--svg", "{out}/g.svg", "--results", "{out}/g.svg",
                                  "--merged", "{out}/m.csv"],
    "all_outputs_one_file": RUN_AUTO + ["--svg", "{out}/o", "--results", "{out}/o",
                                        "--merged", "{out}/o"],
    "summary_out_is_boxplot": ["variable-summary", "--merged", "{balled}", "--variable", "x",
                               "-o", "{out}/s", "--boxplot", "{out}/./s"],
    "merged_is_input": RUN_AUTO + ["--svg", "{out}/g.svg", "--results", "{out}/r.csv",
                                   "--merged", "{auto}"],
    "svg_is_input_via_symlink": RUN_AUTO + ["--svg", "{link}", "--results", "{out}/r.csv",
                                            "--merged", "{out}/m.csv"],
    "ball_summary_out_is_merged": ["ball-summary", "--merged", "{balled}", "--variables", "x",
                                   "-o", "{balled}"],
    "boxplot_is_merged": ["variable-summary", "--merged", "{balled}", "--variable", "x",
                          "-o", "{out}/s.csv", "--boxplot", "{balled}"],
    "repeated_axis": ["run", "-i", "{auto}", "--axes", "mpg,mpg", "-e", "1"] + RUN_OUT,
    "gauss_n_zero": ["gen", "gauss", "--n", "0", "-o", "{out}/g.csv"],
    "gauss_k_zero": ["gen", "gauss", "--k", "0", "-o", "{out}/g.csv"],
    "shuffle_negative_seed": RUN_AUTO + ["--order", "shuffle", "--seed", "-1"] + RUN_OUT,
    "gauss_negative_seed": ["gen", "gauss", "--seed", "-1", "-o", "{out}/g.csv"],
    "x_negative_seed": ["gen", "x", "--seed", "-1", "-o", "{out}/x.csv"],
    "variable_summary_no_rows": ["variable-summary", "--merged", "{empty}", "--variable", "x",
                                 "-o", "{out}/s.csv", "--boxplot", "{out}/b.svg"],
    "ball_summary_no_rows": ["ball-summary", "--merged", "{empty}", "--variables", "x",
                             "-o", "{out}/s.csv"],
    "ball_summary_repeated_variable": ["ball-summary", "--merged", "{balled}",
                                       "--variables", "x,x", "-o", "{out}/s.csv"],
    "ball_summary_variable_size": ["ball-summary", "--merged", "{balled}",
                                   "--variables", "size", "-o", "{out}/s.csv"],
    "ball_summary_variable_ball": ["ball-summary", "--merged", "{balled}",
                                   "--variables", "ball", "-o", "{out}/s.csv"],
    "ball_summary_no_variables": ["ball-summary", "--merged", "{balled}",
                                  "--variables", "", "-o", "{out}/s.csv"],
    "ball_summary_mean_overflows": ["ball-summary", "--merged", "{overflow}",
                                    "--variables", "c", "-o", "{out}/s.csv"],
    "variable_summary_mean_overflows": ["variable-summary", "--merged", "{overflow}",
                                        "--variable", "c", "-o", "{out}/s.csv",
                                        "--boxplot", "{out}/b.svg"],
    "ball_id_outside_int64": ["ball-summary", "--merged", "{bigball}", "--variables", "x",
                              "-o", "{out}/s.csv"],
    "boxplot_range_overflows": ["variable-summary", "--merged", "{span}", "--variable", "c",
                                "-o", "{out}/s.csv", "--boxplot", "{out}/b.svg"],
    "input_not_utf8": ["run", "-i", "{latin1}", "--axes", "x", "-e", "1"] + RUN_OUT,
    "input_field_oversize": ["run", "-i", "{oversize}", "--axes", "x", "-e", "1"] + RUN_OUT,
    "standardize_sd_overflows": ["run", "-i", "{spread}", "--axes", "x", "-e", "1",
                                 "--standardize"] + RUN_OUT,
    "input_header_only": ["run", "-i", "{header_only}", "--axes", "x", "-e", "1"] + RUN_OUT,
    "epsilon_not_a_number": ["run", "-i", "{auto}", "--axes", "mpg", "-e", "abc"] + RUN_OUT,
    "unknown_flag": RUN_AUTO + ["--bogus"] + RUN_OUT,
    "missing_required_flag": ["run", "--axes", "mpg", "-e", "1"] + RUN_OUT,
}

BAD_INPUT_FILES = {
    "empty": b"ball,x\n",
    "balled": b"ball,x,size\n1,0,1\n2,1,1\n",
    "wide": b"x,c\n0,-1e308\n5,1e308\n",  # two finite ball means, their range overflows
    "huge": b"x,c\n0,1.7e308\n0.5,1.7e308\n",  # one ball whose mean overflows
    "tiny": b"x,c\n0,0\n5,5e-324\n",  # a range too narrow for one bin width
    "overflow": b"ball,c\n1,1.7e308\n1,1.7e308\n",  # a merged ball whose mean overflows
    "span": b"ball,c\n1,1e308\n2,-1e308\n",  # two finite balls, their range overflows
    "bigball": b"ball,x\n1,0\n9223372036854775808,1\n",  # a ball id one past int64
    "latin1": b"x\n\xff\n",
    "oversize": b"x\n" + b"1" * 131073 + b"\n",  # one field over csv.field_size_limit()
    "header_only": b"x,y\n",
    "spread": b"x\n1e300\n-1e300\n0\n",  # a finite mean whose sd overflows
}


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_is_one_error_line_and_no_output(argv, auto_csv, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    paths = {"auto": auto_csv, "out": out, "link": tmp_path / "link.csv"}
    paths["link"].symlink_to(auto_csv)
    for name, text in BAD_INPUT_FILES.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_bytes(text)
    inputs = {p: p.read_bytes() for p in paths.values() if p.is_file()}
    code = run_cli([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []
    assert {p: p.read_bytes() for p in inputs} == inputs


BLANK_HEADER = {  # (argv, the input, whose header has a blank name)
    "run": (["run", "-i", "{input}", "--axes", "x", "-e", "1"] + RUN_OUT, b"x,,y\n1,2,3\n"),
    "ball-summary": (["ball-summary", "--merged", "{input}", "--variables", "x",
                      "-o", "{out}/s.csv"], b"ball,x, \n1,2,3\n"),
    "variable-summary": (["variable-summary", "--merged", "{input}", "--variable", "x",
                          "-o", "{out}/s.csv", "--boxplot", "{out}/b.svg"], b"ball,x, \n1,2,3\n"),
}


@pytest.mark.parametrize("argv, text", BLANK_HEADER.values(), ids=BLANK_HEADER.keys())
def test_blank_header_name_refused(argv, text, tmp_path, capsys):
    out, path = tmp_path / "out", tmp_path / "in.csv"
    out.mkdir()
    path.write_bytes(text)
    assert run_cli([a.format(input=path, out=out) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {path}: blank header name\n"
    assert list(out.iterdir()) == []


SUMMARY_VARIABLES = "mpg,trunk,weight,length,turn,displacement,gear_ratio,price,foreign"
OVER_SIZE_LIMIT = {  # (argv, the output written first); None reruns auto_run_args
    "run": (None, "g.svg"),
    "ball-summary": (["ball-summary", "--merged", "{tmp}/m.csv", "--variables",
                      SUMMARY_VARIABLES, "-o", "{tmp}/means.csv"], "means.csv"),
    "variable-summary": (["variable-summary", "--merged", "{tmp}/m.csv", "--variable", "price",
                          "-o", "{tmp}/price.csv", "--boxplot", "{tmp}/box.svg"], "price.csv"),
    "gen": (["gen", "gauss", "--n", "2000", "-o", "{tmp}/g.csv"], "g.csv"),
}


@pytest.mark.parametrize("argv, target", OVER_SIZE_LIMIT.values(), ids=OVER_SIZE_LIMIT.keys())
def test_failed_write_names_target_and_keeps_earlier_outputs(argv, target, auto_csv, tmp_path):
    argv = (auto_run_args(auto_csv, tmp_path) if argv is None
            else [a.format(tmp=tmp_path) for a in argv])
    assert run_cli(auto_run_args(auto_csv, tmp_path)) == 0
    assert run_cli(argv) == 0
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    limit = 1024  # bytes; every target here is larger

    def limit_file_size():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    child = subprocess.run(
        [sys.executable, "-c", "import sys; from ballmapper.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *argv],
        env=_child_env(), preexec_fn=limit_file_size, capture_output=True, text=True,
    )
    assert child.returncode == 2, child.stderr
    assert str(tmp_path / target) in child.stderr
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert list(tmp_path.glob(".*.tmp")) == []


# ------------------------------------------ summaries streamed from the merged CSV

def _cli_summaries(merged, out, variables):
    """Each summary command's output bytes through cli.main, or its stderr on a refusal."""
    out.mkdir()
    commands = [(["ball-summary", "--merged", merged, "--variables", ",".join(variables),
                  "-o", out / "means.csv"], [out / "means.csv"])]
    for j, v in enumerate(variables + ("ball",)):
        dist, box = out / f"dist{j}.csv", out / f"box{j}.svg"
        commands.append((["variable-summary", "--merged", merged, "--variable", v,
                          "-o", dist, "--boxplot", box], [dist, box]))
    results = []
    for argv, outputs in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        results.append(err.getvalue() if code else tuple(p.read_bytes() for p in outputs))
    return results


def _library_summaries(merged, out, variables):
    """The same outputs through load_csv's RawTable and the library's summaries:
    the reference the streamed commands must match byte for byte, refusals too."""
    out.mkdir()

    def means():
        raw = bm.load_csv(merged)
        table = summary.means_over_groups(raw, summary.ball_groups_from_merged(raw), variables)
        table.write(out / "means.csv")
        return ((out / "means.csv").read_bytes(),)

    def distribution(v):
        raw = bm.load_csv(merged)
        table = summary.distribution_over_groups(raw, summary.ball_groups_from_merged(raw), v)
        table.write(out / "dist.csv")
        return (out / "dist.csv").read_bytes(), bm.render_boxplot_svg(
            table.rows, title=v).encode()

    results = []
    for run in [means] + [lambda v=v: distribution(v) for v in variables + ("ball",)]:
        try:
            results.append(run())
        except ValidationError as exc:
            results.append(f"error: {exc}\n")
    return results


NUMBER_CELL = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-1000, 1000).map(str),
    st.floats(-1e6, 1e6).map(lambda x: f" {x!r} "),
)
BAD_NUMBER_CELL = st.sampled_from(["", " ", "x", "nan", "-inf", "1e999"])
BALL_CELL = st.tuples(st.integers(1, 6), st.sampled_from(["{}", " {} ", "+{}", "0{}"])).map(
    lambda t: t[1].format(t[0]))
BAD_BALL_CELL = st.sampled_from(["x", "1.0", "", "9223372036854775808"])


@st.composite
def merged_files(draw, faults=True, repeat_to=None):
    """A merged CSV's bytes and its numeric columns' names.

    The ball column and one to three numeric columns sit among one to three
    text columns whose cells csv must quote; the file may start with a BOM,
    end its lines with CRLF and hold blank lines. With faults, a file may
    also hold cells the summaries refuse. With repeat_to, the drawn rows are
    repeated until there are that many.
    """
    numeric = tuple(f"v{j}" for j in range(draw(st.integers(1, 3))))
    header = draw(st.permutations(
        ("ball",) + numeric + tuple(f"t{j}" for j in range(draw(st.integers(1, 3))))))
    cells = {"ball": BALL_CELL, **{name: NUMBER_CELL for name in numeric}}
    if faults and draw(st.booleans()):
        for name in draw(st.sets(st.sampled_from(sorted(cells)), min_size=1)):
            cells[name] = st.one_of(cells[name], BAD_BALL_CELL if name == "ball" else
                                    BAD_NUMBER_CELL)
    rows = draw(st.lists(st.tuples(*[cells.get(name, CSV_TEXT) for name in header]),
                         min_size=1, max_size=30))
    if repeat_to is not None:
        rows = (rows * repeat_to)[:repeat_to]
    blank = draw(st.sets(st.integers(0, len(rows))))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=terminator)
    writer.writerow(header)
    for i, row in enumerate(rows):
        if i in blank:
            text.write(terminator)
        writer.writerow(row)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text.getvalue()).encode(), numeric


def _merged_lines(n):
    """Lines of a valid merged CSV with n rows: ball, two numeric columns and a text one."""
    return ["ball,a,b,name"] + [f"{i % 50 + 1},{i / 7!r},{-i},row {i}" for i in range(n)]


# The direct chunk tests run first: a fault in the streamed reader fails them in
# a second, before the Hypothesis tests below spend time on their examples.
def test_run_refuses_the_row_major_first_cell_across_chunks(tmp_path):
    # CRLF, so streamed: x's bad cell is in the second chunk, y's first in the first
    rows = [f"{i},{i % 7},{i % 3},t{i}" for i in range(point_cloud._CHUNK_ROWS + 10)]
    rows[point_cloud._CHUNK_ROWS + 5] = "foo,1,2,t"
    rows[point_cloud._CHUNK_ROWS + 7] = "7,baz,2,t"
    rows[100] = "100,bar,1,t"
    (tmp_path / "in.csv").write_text("\r\n".join(["x,y,c,t"] + rows) + "\r\n", newline="")
    got, want, taken, streamed = _run_both_ways(tmp_path / "in.csv", tmp_path,
                                                ["--axes", "x,y", "-e", "2", "--color", "c"])
    assert got == want and True not in taken and streamed == 1
    assert got[:3] == (1, "", "error: non-numeric cell 'bar' in column 'y' at row 100\n")


@pytest.mark.parametrize("command", ["ball-summary", "variable-summary"])
def test_summaries_refuse_the_first_cell_across_chunks(command, tmp_path, capsys):
    # CRLF, so streamed: a's bad cells sit in the first and the second chunk, b's
    # above a's first; a stream that keeps a later chunk's cell names 'foo', and a
    # search in row-major order (run's, not the summaries') names b's 'baz'
    lines = _merged_lines(point_cloud._CHUNK_ROWS + 10)
    lines[1 + 50] = "1,2,baz,t"
    lines[1 + 100] = "1,bar,3,t"
    lines[1 + point_cloud._CHUNK_ROWS + 7] = "1,foo,3,t"
    merged = tmp_path / "m.csv"
    merged.write_text("\r\n".join(lines) + "\r\n", newline="")
    argv = (["ball-summary", "--variables", "a,b"] if command == "ball-summary"
            else ["variable-summary", "--variable", "a"])
    assert run_cli(argv + ["--merged", merged, "-o", tmp_path / "o.csv"]) == 1
    message = "error: non-numeric cell 'bar' in column 'a' at row 100\n"
    assert capsys.readouterr().err == message
    assert _library_summaries(str(merged), tmp_path / "library", ("a",))[:2] == [message] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["library", "m.csv"]


# No shrinking: a reader fault shrunk over multi-fault, multi-chunk files has
# kept one run busy for minutes at close to 1 GB; the direct tests above name it.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@given(merged_files(), st.integers(1, 5))
@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
def test_streamed_summaries_match_raw_table_path(tmp_path_factory, merged, chunk_rows):
    data, numeric = merged
    tmp = tmp_path_factory.mktemp("streamed")
    (tmp / "m.csv").write_bytes(data)
    want = _library_summaries(str(tmp / "m.csv"), tmp / "library", numeric)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(point_cloud, "_CHUNK_ROWS", chunk_rows)
        assert _cli_summaries(str(tmp / "m.csv"), tmp / "cli", numeric) == want


@given(merged_files(faults=False, repeat_to=2 * point_cloud._CHUNK_ROWS + 7))
@settings(max_examples=5, deadline=None, phases=NO_SHRINK)
def test_streamed_summaries_match_raw_table_path_over_real_chunks(tmp_path_factory, merged):
    data, numeric = merged
    tmp = tmp_path_factory.mktemp("streamed")
    (tmp / "m.csv").write_bytes(data)
    want = _library_summaries(str(tmp / "m.csv"), tmp / "library", numeric)
    assert _cli_summaries(str(tmp / "m.csv"), tmp / "cli", numeric) == want


FAULT_ROW = point_cloud._CHUNK_ROWS + 404  # a data row past the first chunk
SINGLE_FAULTS = {  # name: (the line that replaces data row FAULT_ROW, the refusal)
    "short_row": ("1,2", "{path}: row {row} has 2 cells, header has 4"),
    "not_utf8": (b"1,2,3,\xff", "{path}: not UTF-8 text"),
    "oversize_field": ("1,2,3," + "x" * 131073,
                       "{path}: line {line}: field larger than field limit (131072)"),
    "bad_ball_id": ("x,2,3,t", "bad ball id 'x' at merged row {row}"),
    "blank_held_cell": ("1, ,3,t", "missing value in column 'a' at row {row}"),
    "non_numeric_held_cell": ("1,foo,3,t", "non-numeric cell 'foo' in column 'a' at row {row}"),
}


@pytest.mark.parametrize("line, message", SINGLE_FAULTS.values(), ids=SINGLE_FAULTS.keys())
@pytest.mark.parametrize("command", ["ball-summary", "variable-summary"])
def test_single_fault_past_first_chunk_refused_like_raw_table_path(line, message, command,
                                                                   tmp_path, capsys):
    lines = [s.encode() for s in _merged_lines(2 * point_cloud._CHUNK_ROWS)]
    lines[1 + FAULT_ROW] = line if isinstance(line, bytes) else line.encode()
    merged = tmp_path / "m.csv"
    merged.write_bytes(b"\n".join(lines) + b"\n")
    message = message.format(path=merged, row=FAULT_ROW, line=FAULT_ROW + 2)
    argv = (["ball-summary", "--variables", "a,b"] if command == "ball-summary"
            else ["variable-summary", "--variable", "a"])
    assert run_cli(argv + ["--merged", merged, "-o", tmp_path / "o.csv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _library_summaries(str(merged), tmp_path / "library", ("a",))[:2] == [
        f"error: {message}\n"] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["library", "m.csv"]


ROWS = 2 * point_cloud._CHUNK_ROWS + 1
HEADER_FAULTS = {  # name: (argv after the command, the header line, data rows, the refusal)
    "unknown_variable": (["ball-summary", "--variables", "a,zz"], "ball,a,b,name", ROWS,
                         "unknown column 'zz'"),
    "unknown_variable_dist": (["variable-summary", "--variable", "zz"], "ball,a,b,name", ROWS,
                              "unknown column 'zz'"),
    "no_ball_column": (["ball-summary", "--variables", "a"], "x,a,b,name", ROWS,
                       "merged table has no 'ball' column"),
    "no_ball_column_dist": (["variable-summary", "--variable", "a"], "x,a,b,name", ROWS,
                            "merged table has no 'ball' column"),
    "size_clash": (["ball-summary", "--variables", "a,size"], "ball,a,b,size", ROWS,
                   "variable 'size' would clash with the table's 'size' column"),
    "ball_clash": (["ball-summary", "--variables", "ball"], "ball,a,b,name", ROWS,
                   "variable 'ball' would clash with the table's 'ball' column"),
    "repeated_variable": (["ball-summary", "--variables", "a,b,a"], "ball,a,b,name", ROWS,
                          "variable 'a' is given more than once"),
    "no_rows": (["ball-summary", "--variables", "a"], "ball,a,b,name", 0,
                "merged table has no rows"),
    "no_rows_dist": (["variable-summary", "--variable", "a"], "ball,a,b,name", 0,
                     "merged table has no rows"),
}


@pytest.mark.parametrize("argv, header, n, message", HEADER_FAULTS.values(),
                         ids=HEADER_FAULTS.keys())
def test_header_fault_refused_like_raw_table_path(argv, header, n, message, tmp_path, capsys):
    merged = tmp_path / "m.csv"
    merged.write_text("\n".join([header] + _merged_lines(n)[1:]) + "\n")
    assert run_cli(argv + ["--merged", merged, "-o", tmp_path / "o.csv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    raw = bm.load_csv(merged)
    with pytest.raises(ValidationError) as exc:
        groups = summary.ball_groups_from_merged(raw)
        if argv[0] == "ball-summary":
            summary.means_over_groups(raw, groups, argv[2].split(","))
        else:
            summary.distribution_over_groups(raw, groups, argv[2])
    assert str(exc.value) == message


def test_header_checks_come_before_rows(tmp_path, capsys):
    # two faults: the RawTable path meets the short row first, the streamed
    # summaries refuse the unknown variable before reading any row
    lines = _merged_lines(10)
    lines[5] = "1,2"
    merged = tmp_path / "m.csv"
    merged.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="row 4 has 2 cells"):
        bm.load_csv(merged)
    assert run_cli(["ball-summary", "--merged", merged, "--variables", "zz",
                    "-o", tmp_path / "o.csv"]) == 1
    assert capsys.readouterr().err == "error: unknown column 'zz'\n"


def test_ball_summary_holds_floats_and_one_chunk_not_the_text(tmp_path):
    n = 20_000
    merged = tmp_path / "m.csv"
    rows = [(i % 300 + 1, repr(i / 7), repr(-i / 3), repr(i * 0.1), repr(i / 9), f"row {i}")
            for i in range(n)]
    write_cells(merged, ("ball", "a", "b", "x", "y", "name"), rows)
    with open(merged, newline="") as f:
        chunk = list(itertools.islice(csv.reader(f), 1, 1 + point_cloud._CHUNK_ROWS))
    chunk_bytes = sum(sys.getsizeof(r) + sum(map(sys.getsizeof, r)) for r in chunk)
    float_bytes = n * 3 * 8  # the ball ids and the two summarised columns
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["ball-summary", "--merged", merged, "--variables", "a,b",
                            "-o", tmp_path / "o.csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's text as load_csv holds it is about five chunks; the bound
    # leaves room for the ids, the columns and their copies, but for one chunk only
    assert peak < 8 * float_bytes + 1.5 * chunk_bytes


def test_streamed_reader_holds_floats_and_one_chunk_not_the_text(tmp_path, monkeypatch):
    # the file above is plain, so numpy's parser reads it; here the streamed
    # reader, the only one for quoted, CRLF or BOM files, is held to the same bound
    read, calls = point_cloud._read_streamed, []
    monkeypatch.setattr(point_cloud, "_read_plain", lambda *args, **kwargs: None)
    monkeypatch.setattr(point_cloud, "_read_streamed",
                        lambda *args, **kwargs: calls.append(args) or read(*args, **kwargs))
    test_ball_summary_holds_floats_and_one_chunk_not_the_text(tmp_path)
    assert len(calls) == 1


# ------------------------------------------ plain merged files read by numpy's parser

PLAIN_TEXT = st.text("ab #-.1", max_size=4)  # text cells that keep a file plain
MERGED_FAULTS = {  # name: the text of a cell put into a merged file, or None for a line
    "quote": ['"1.5"', '"a,b"'], "lone_cr": ["1\r5"], "nul": ["1\x005"], "non_ascii": ["é"],
    "hash": ["#1", "1#"], "underscore": ["1_000"], "nan": ["nan"], "inf": ["inf", "-inf"],
    "overflow": ["1e999"], "empty": ["", " "], "ball_float": ["1.0"], "ball_plus": ["+7"],
    "ball_spaces": [" 7 "], "ball_past_int64": ["9223372036854775808"],
}
LINE_FAULTS = ["crlf", "bom", "not_utf8", "blank_line", "whitespace_line", "short_row",
               "long_row", "over_limit", "no_rows"]


@st.composite
def plain_merged_files(draw):
    """A merged CSV's bytes, its numeric columns' names, a csv field size limit
    and the name of its one fault or feature that is not plain (None if none)."""
    numeric = tuple(f"v{j}" for j in range(draw(st.integers(1, 3))))
    header = draw(st.permutations(
        ("ball",) + numeric + tuple(f"t{j}" for j in range(draw(st.integers(0, 2))))))
    cells = {"ball": st.integers(1, 6).map(str), **{name: NUMBER_CELL for name in numeric}}
    rows = draw(st.lists(st.tuples(*[cells.get(h, PLAIN_TEXT) for h in header]).map(list),
                         min_size=1, max_size=30))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    limit = csv.field_size_limit()
    i = draw(st.integers(1, len(rows)))  # the data line a fault goes to
    fault = draw(st.sampled_from([None, *MERGED_FAULTS, *LINE_FAULTS]))
    if fault in MERGED_FAULTS:
        column = "ball" if fault.startswith("ball") else draw(st.sampled_from(header))
        rows[i - 1][header.index(column)] = draw(st.sampled_from(MERGED_FAULTS[fault]))
        lines[i] = ",".join(rows[i - 1])
    elif fault in ("blank_line", "whitespace_line"):
        lines.insert(i, "" if fault == "blank_line" else "  ")
    elif fault in ("short_row", "long_row"):
        lines[i] = lines[i].rsplit(",", 1)[0] if fault == "short_row" else lines[i] + ",1"
    elif fault == "over_limit":
        limit = max(1, max(map(len, lines)) - draw(st.integers(1, 8)))
    elif fault == "no_rows":
        lines = lines[:1]
    text = ("\r\n" if fault == "crlf" else "\n").join(lines) + "\n"
    data = (text if fault != "bom" else "﻿" + text).encode()
    if fault == "not_utf8":
        data = data.replace(b"\n", b"\xff\n", 2)
    return data, numeric, limit, fault


@given(plain_merged_files())
@settings(max_examples=150, deadline=None)
def test_summaries_of_plain_files_match_the_streamed_reader(tmp_path_factory, merged):
    data, numeric, limit, fault = merged
    tmp = tmp_path_factory.mktemp("plain")
    (tmp / "m.csv").write_bytes(data)
    read_plain, taken = point_cloud._read_plain, []

    def counted(path, names, **kwargs):
        result = read_plain(path, names, **kwargs)
        taken.append(result is not None)
        return result

    old_limit = csv.field_size_limit(limit)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(point_cloud, "_read_plain", counted)
            got = _cli_summaries(str(tmp / "m.csv"), tmp / "either", numeric)
        # every command but variable-summary of 'ball' takes a fault-free file's fast path
        assert fault is not None or taken == [True] * (len(numeric) + 1) + [False]
        with pytest.MonkeyPatch.context() as mp:  # the streamed reader alone
            mp.setattr(point_cloud, "_read_plain", lambda *args, **kwargs: None)
            assert _cli_summaries(str(tmp / "m.csv"), tmp / "streamed", numeric) == got
    finally:
        csv.field_size_limit(old_limit)


def test_lone_carriage_return_round_trips_through_both_summaries(tmp_path, capsys):
    inp, merged = tmp_path / "in.csv", tmp_path / "m.csv"
    inp.write_bytes(b'x,"t\ru"\n1,"a\rb"\n2,c\n')
    assert run_cli(["run", "-i", inp, "--axes", "x", "-e", "0.5", "--svg", tmp_path / "g.svg",
                    "--results", tmp_path / "r.csv", "--merged", merged]) == 0
    assert merged.read_bytes() == b'ball,x,"t\ru"\n1,1,"a\rb"\n2,2,c\n'
    assert run_cli(["ball-summary", "--merged", merged, "--variables", "x",
                    "-o", tmp_path / "means.csv"]) == 0
    assert run_cli(["variable-summary", "--merged", merged, "--variable", "x",
                    "-o", tmp_path / "x.csv", "--boxplot", tmp_path / "x.svg"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "means.csv").read_text() == "ball,x,size\n1,1,1\n2,2,1\n"
    assert (tmp_path / "x.csv").read_text().splitlines()[1:] == ["1,1,,1,1,1,1,1,1",
                                                                  "2,2,,2,2,2,2,2,1"]


# ------------------------------------------ run's plain input read by numpy's parser

RUN_NUMBER_CELL = st.one_of(NUMBER_CELL, st.sampled_from(
    ["-0", "0", "+4", "07", "3.0", "-12.000", "1e3", "-2.5E-2", "4e+0", " 5 "]))


def _cli_run(inp, out, extra):
    """run's exit code, stdout and stderr (out as OUT) and its outputs' bytes through cli.main."""
    out.mkdir()
    argv = ["run", "-i", inp, "--iterations", "2", *extra, "--svg", out / "g.svg",
            "--results", out / "r.csv", "--merged", out / "m.csv"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(argv)
    files = [p.read_bytes() if p.exists() else None for p in (out / "g.svg", out / "r.csv",
                                                              out / "m.csv")]
    return code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), files


def _run_by_load_csv(args):
    """cmd_run as it read every input that _read_plain declined before the streamed
    reader did: load_csv, the ball clash, validate_axes over every row, the color by
    numeric_column, and the merged rows rendered from the RawTable. The oracle of
    run's outputs and refusals, in their order, for inputs whose flags are valid."""
    raw = bm.load_csv(args.input)
    if "ball" in raw.column_names:
        raise ValidationError("input column 'ball' would clash with the merged CSV's ball column")
    cloud = bm.validate_axes(raw, args.axes)[0]
    if args.standardize:
        cloud, std_spec = bm.standardize(cloud)
        for name, mean, sd in zip(std_spec.columns, std_spec.means, std_spec.sds):
            print(f"standardized {name}: mean {mean:.6g}, sd {sd:.6g}")
    color = None if args.color is None else raw.numeric_column(args.color)
    cover = bm.build_cover(cloud, args.epsilon, order=args.order, seed=args.seed)
    graph = bm.build_graph(cover, color)
    scale = None
    if args.color is not None:
        scale, graph = bm.assign_bins(graph, args.bins)
    positions = bm.compute_layout(graph, args.repulsion, args.attraction, args.iterations)
    svg = bm.render_graph_svg(graph, positions, scale, bm.RenderOptions(show_labels=args.labels))
    return [
        (args.svg, lambda p: cli._write_text(p, svg)),
        (args.results, lambda p: _write_results_csv(p, graph, positions)),
        (args.merged, lambda p: _write_merged_csv(p, raw, cover)),
    ], f"Ball mapper run complete: graph {args.svg}, results {args.results}, merged {args.merged}"


@contextlib.contextmanager
def _calls_of(*functions):
    """The names of the functions called while the block runs, by whatever name they
    are reached, as a list."""
    codes, calls, old = {f.__code__ for f in functions}, [], sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(old)


def _run_both_ways(inp, tmp, extra):
    """_cli_run as it is, then through _run_by_load_csv; returns both results, whether
    the plain reader read the file, and how often the streamed reader was called.
    run itself calls none of load_csv, validate_axes and RawTable.numeric_column."""
    read_plain, read_streamed, taken, streamed = (point_cloud._read_plain,
                                                  point_cloud._read_streamed, [], [])

    def counted(*args, **kwargs):
        result = read_plain(*args, **kwargs)
        taken.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(point_cloud, "_read_plain", counted)
        mp.setattr(point_cloud, "_read_streamed",
                   lambda *args, **kwargs: streamed.append(args) or read_streamed(*args, **kwargs))
        with _calls_of(bm.load_csv, bm.validate_axes, bm.RawTable.numeric_column) as calls:
            got = _cli_run(inp, tmp / "either", extra)
    assert calls == []
    with pytest.MonkeyPatch.context() as mp:  # load_csv's path alone
        mp.setattr(cli, "cmd_run", _run_by_load_csv)
        with _calls_of(bm.load_csv) as calls:
            want = _cli_run(inp, tmp / "fallback", extra)
    assert calls == ["load_csv"]  # which shows that _calls_of sees the calls
    return got, want, taken, len(streamed)


@st.composite
def plain_inputs(draw):
    """A plain input CSV's bytes and run's flags: one to three axes, maybe a
    color column, text columns, names padded with spaces, blank lines, and a
    last line that may lack its LF."""
    axes = tuple(f"x{j}" for j in range(draw(st.integers(1, 3))))
    color = draw(st.sampled_from([None, "c", axes[0]]))
    names = axes + (("c",) if color == "c" else ()) + tuple(
        f"t{j}" for j in range(draw(st.integers(0, 2))))
    header = draw(st.permutations(names))
    cells = {name: RUN_NUMBER_CELL for name in axes + ("c",)}
    rows = draw(st.lists(st.tuples(*[cells.get(h, PLAIN_TEXT) for h in header]),
                         min_size=1, max_size=25))
    lines = [",".join(draw(st.sampled_from(["{}", " {}", "{} "])).format(h) for h in header)]
    lines += [",".join(row) for row in rows]
    for i in sorted(draw(st.sets(st.integers(1, len(lines)))), reverse=True):
        lines.insert(i, "")
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    flags = ["--axes", ",".join(axes), "-e", repr(draw(st.sampled_from([0.5, 1.0, 3.0])))]
    flags += ["--color", color] if color else []
    flags += ["--standardize"] if draw(st.booleans()) else []
    return text.encode(), flags


@given(plain_inputs())
@example((b"x\n1", ["--axes", "x", "-e", "1"]))
@example((b"x, t\n\n-0,a\n\n1e3,b #\n\n", ["--axes", "x", "-e", "1", "--color", "x"]))
@settings(max_examples=150, deadline=None)
def test_run_on_plain_input_matches_load_csv_path(tmp_path_factory, inputs):
    data, flags = inputs
    tmp = tmp_path_factory.mktemp("plain_run")
    (tmp / "in.csv").write_bytes(data)
    got, want, taken, streamed = _run_both_ways(tmp / "in.csv", tmp, flags)
    assert got == want
    assert taken == [True] and streamed == 0  # the plain path, and the stream never called


def test_run_on_plain_input_keeps_row_ids_over_blank_lines(tmp_path):
    (tmp_path / "in.csv").write_text("x,t\n\n0,a\n\n\n5,b\n0.2,c\n")
    got, want, taken, _ = _run_both_ways(tmp_path / "in.csv", tmp_path, ["--axes", "x", "-e", "1"])
    assert got == want and taken == [True]
    assert got[3][2] == b"ball,x,t\n1,0,a\n1,0.2,c\n2,5,b\n"


PLAIN_RUN = "x,y,c,t\n1,2,3,a\n4,5,6,b\n7,8.5,9,c\n"
RUN_DECLINED = {  # name: (input text, flags, exit code), each declined by the plain reader
    "crlf": (PLAIN_RUN.replace("\n", "\r\n"), [], 0),
    "quoted": (PLAIN_RUN.replace(",b\n", ',"b,d"\n'), [], 0),
    "quoted_axis": (PLAIN_RUN.replace("4,5", '"4",5'), [], 0),
    "non_ascii": (PLAIN_RUN.replace(",b\n", ",é\n"), [], 0),
    "bom": ("﻿" + PLAIN_RUN, [], 0),
    "nan": (PLAIN_RUN.replace("4,5", "nan,5"), [], 1),
    "inf_color": (PLAIN_RUN.replace("5,6", "5,-inf"), [], 1),
    "empty_cell": (PLAIN_RUN.replace("4,5", "4,"), [], 1),
    "non_numeric_axis": (PLAIN_RUN.replace("8.5", "foo"), [], 1),
    "non_numeric_color": (PLAIN_RUN.replace("5,6", "5,bar"), [], 1),
    "ball_in_header": (PLAIN_RUN.replace(",t\n", ",ball\n", 1), [], 1),
    "short_row": (PLAIN_RUN.replace("4,5,6,b", "4,5,6"), [], 1),
    "short_row_and_repeated_axis": (PLAIN_RUN.replace("4,5,6,b", "4,5,6"),
                                    ["--axes", "x,x"], 1),
    "whitespace_line": (PLAIN_RUN.replace("b\n", "b\n  \n"), [], 1),
    "repeated_axis": (PLAIN_RUN, ["--axes", "x,x"], 1),
    "unknown_axis": (PLAIN_RUN, ["--axes", "x,z"], 1),
    "unknown_color": (PLAIN_RUN, ["--color", "z"], 1),
    "no_data_rows": ("x,y,c,t\n\n", [], 1),
    "empty_file": ("", [], 1),
    "over_limit": (PLAIN_RUN.replace(",b\n", "," + "b" * 150 + "\n"), [], 0),
    # several faults: the first in run's order is refused
    "two_bad_axes": (PLAIN_RUN.replace("4,5", "foo,5").replace("1,2", "1,bar"), [], 1),
    "crlf_bad_axis_and_color_standardized": (
        PLAIN_RUN.replace("4,5,6", "4,,z").replace("\n", "\r\n"), ["--standardize"], 1),
    "ball_and_short_row": (PLAIN_RUN.replace(",t\n", ",ball\n", 1).replace("4,5,6,b", "4,5,6"),
                           [], 1),
    "zero_variance_and_bad_color": ("x,y,c,t\n1,2,3,a\n4,2,bad,b\n7,2,9,c\n",
                                    ["--standardize"], 1),
}


# the streamed reader takes each of these, and matches load_csv's path, _run_by_load_csv
@pytest.mark.parametrize("text, flags, code", RUN_DECLINED.values(), ids=RUN_DECLINED.keys())
def test_run_declined_input_takes_load_csv_path(text, flags, code, tmp_path):
    (tmp_path / "in.csv").write_bytes(text.encode())
    flags = ["--axes", "x,y", "-e", "2", "--color", "c"] + flags  # later flags win
    old_limit = csv.field_size_limit(155)  # every field within it, not every line
    try:
        got, want, taken, streamed = _run_both_ways(tmp_path / "in.csv", tmp_path, flags)
    finally:
        csv.field_size_limit(old_limit)
    assert got == want
    assert True not in taken and streamed == 1  # the plain reader declined the input
    assert got[0] == code and got[2].count("\n") == (code != 0)
    assert got[2].startswith("error: ") or code == 0


@pytest.mark.parametrize("text, plain", [
    (PLAIN_RUN, True), (PLAIN_RUN.replace("\n", "\r\n"), False), ("x,y,c,t\n", False),
], ids=["plain", "crlf", "no_data_rows"])
def test_run_with_no_axis_is_refused_after_either_read(text, plain, tmp_path):
    # whichever reader takes the input, no axis is refused, and before no data rows
    (tmp_path / "in.csv").write_bytes(text.encode())
    got, want, taken, streamed = _run_both_ways(
        tmp_path / "in.csv", tmp_path, ["--axes", ",", "-e", "2", "--color", "c"])
    assert got == want and taken == [plain] and streamed == (not plain)
    assert got[:3] == (1, "", "error: at least one axis column is required\n")


def test_run_stream_holds_the_numbers_and_the_text_once(tmp_path):
    # a CRLF input of five chunks: the stream keeps what numpy's reader keeps of
    # the LF copy, each row's text and the float64 columns, and at its peak
    # holds less than load_csv, which keeps every cell as a str
    cloud = datagen.gen_gaussian_cloud(20_000, 6, 1)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    bm.write_point_cloud_csv(cloud, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert cloud.n >= 3 * point_cloud._CHUNK_ROWS

    def traced(read):
        tracemalloc.start()
        try:
            result = read()
            return (result, *tracemalloc.get_traced_memory())  # retained, peak
        finally:
            tracemalloc.stop()

    names = cloud.column_names
    plain, plain_retained, _ = traced(lambda: point_cloud._read_plain(lf, names))
    streamed, retained, peak = traced(lambda: point_cloud._read_streamed(crlf, names))
    load_peak = traced(lambda: point_cloud.load_csv(crlf))[2]
    assert streamed[1] == plain[1] and streamed[3] == dict.fromkeys(names)
    assert all(streamed[2][k].tobytes() == plain[2][k].tobytes() for k in names)
    assert retained <= 1.1 * plain_retained
    assert peak < load_peak


FLAG_ERRORS = {  # name: (flags, the library's refusal)
    "bins_past_legend": (["--color", "c", "--bins", "31"],
                         "bin_count must be from 1 to 30, the legend's rows"),
    "bins_zero": (["--color", "c", "--bins", "0"],
                  "bin_count must be from 1 to 30, the legend's rows"),
    "iterations_zero": (["--iterations", "0"], "iterations must be positive"),
    "repulsion_zero": (["--repulsion", "0"],
                       "repulsion and attraction must be positive and finite"),
    "repulsion_nan": (["--repulsion", "nan"],
                      "repulsion and attraction must be positive and finite"),
    "attraction_negative": (["--attraction", "-1"],
                            "repulsion and attraction must be positive and finite"),
    "attraction_inf": (["--attraction", "inf"],
                       "repulsion and attraction must be positive and finite"),
    "epsilon_zero": (["-e", "0"], "epsilon must be positive"),
    "epsilon_nan": (["-e", "nan"], "epsilon must be positive"),
    "shuffle_negative_seed": (["--order", "shuffle", "--seed", "-1"], "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("flags, message", FLAG_ERRORS.values(), ids=FLAG_ERRORS.keys())
@pytest.mark.parametrize("exists", [True, False], ids=["input", "no_input"])
def test_flag_errors_are_refused_before_the_input_is_read(flags, message, exists, tmp_path,
                                                          monkeypatch):
    def unread(*args, **kwargs):
        raise AssertionError("run read its input")
    monkeypatch.setattr(point_cloud, "_read_plain", unread)
    monkeypatch.setattr(point_cloud, "_read_streamed", unread)
    if exists:
        (tmp_path / "in.csv").write_text(PLAIN_RUN)
    got = _cli_run(tmp_path / "in.csv", tmp_path / "out", ["--axes", "x,y", "-e", "2", *flags])
    assert got == (1, "", f"error: {message}\n", [None] * 3)


def test_run_refusals_keep_their_order_after_standardize(tmp_path, capsys):
    # the color column is parsed after the axes are standardized, on either path
    for i, (text, code, printed, error) in enumerate([
        ("x,y,c\n1,5,3\n2,5,bad\n", 1, 0, "error: column 'y' has zero variance\n"),
        ("x,y,c\n1,5,3\n2,6,bad\n", 1, 2, "error: non-numeric cell 'bad' in column 'c' at row 1\n"),
        ("x,y,c\n1,5,3\n2,6,4\n", 0, 3, ""),
    ]):
        (tmp_path / f"in{i}.csv").write_text(text)
        assert run_cli(["run", "-i", tmp_path / f"in{i}.csv", "--axes", "x,y", "-e", "1",
                        "--standardize", "--color", "c", "--svg", tmp_path / "g.svg",
                        "--results", tmp_path / "r.csv", "--merged", tmp_path / "m.csv"]) == code
        out, err = capsys.readouterr()
        assert out.count("\n") == printed and err == error
