import csv
import hashlib
import os
import resource
import shutil
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ballmapper as bm
from ballmapper.cli import _write_merged_csv, main
from ballmapper.point_cloud import write_cells


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
    cover = bm.BallCover(1.0, tuple(m[0] for m in members), members, tuple(range(n)))
    return bm.RawTable(names, rows), cover


@given(merged_inputs())
@example((bm.RawTable(("x",), (("",), ("a\nb",))), bm.BallCover(1.0, (0,), ((0, 1),), (0, 1))))
@settings(max_examples=200, deadline=None)
def test_merged_csv_matches_reference_writer(tmp_path_factory, inputs):
    raw, cover = inputs
    out = tmp_path_factory.mktemp("merged")
    _write_merged_csv(out / "got.csv", raw, cover)
    _write_merged_reference(out / "want.csv", raw, cover)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def _child_env():
    src = os.path.dirname(os.path.dirname(bm.__file__))
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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


RUN_OUT = ["--svg", "{out}/g.svg", "--results", "{out}/r.csv", "--merged", "{out}/m.csv"]
RUN_AUTO = ["run", "-i", "{auto}", "--axes", "mpg,weight", "-e", "1"]
BAD_INPUT = {
    "bins_zero": RUN_AUTO + ["--color", "price", "--bins", "0"] + RUN_OUT,
    "iterations_zero": RUN_AUTO + ["--iterations", "0"] + RUN_OUT,
    "repulsion_zero": RUN_AUTO + ["--repulsion", "0"] + RUN_OUT,
    "attraction_negative": RUN_AUTO + ["--attraction", "-1"] + RUN_OUT,
    "repulsion_inf": RUN_AUTO + ["--repulsion", "inf"] + RUN_OUT,
    "attraction_inf": RUN_AUTO + ["--attraction", "inf"] + RUN_OUT,
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
