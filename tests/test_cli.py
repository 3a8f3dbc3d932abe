import csv
import json

import pytest
from click.testing import CliRunner

from starqec import codes
from starqec.cli import main
from starqec.decoder import DecoderBuildError

SQUARE_PATCH = "vertices 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\nface 0 1 2 3\n"


@pytest.fixture()
def runner():
    return CliRunner()


class TestCodeInfo:
    def test_ssd(self, runner):
        res = runner.invoke(main, ["code", "info", "--code", "ssd"])
        assert res.exit_code == 0, res.output
        assert "n: 30" in res.output
        assert "k: 8" in res.output
        assert "d_z: 3" in res.output
        assert "d_x: 3" in res.output
        assert "chi=-6" in res.output
        assert "logical basis: ok" in res.output

    def test_surface17(self, runner):
        res = runner.invoke(main, ["code", "info", "--code", "surface17"])
        assert res.exit_code == 0
        assert "n: 9" in res.output and "k: 1" in res.output

    def test_complex_file(self, runner, tmp_path):
        path = tmp_path / "square.cplx"
        path.write_text(SQUARE_PATCH)
        res = runner.invoke(main, ["code", "info", "--complex-file", str(path)])
        assert res.exit_code == 0
        assert "k: 0" in res.output

    def test_malformed_complex_names_line(self, runner, tmp_path):
        path = tmp_path / "bad.cplx"
        path.write_text("vertices 4\nedge 0 1\nedge 5 9\n")
        res = runner.invoke(main, ["code", "info", "--complex-file", str(path)])
        assert res.exit_code == 2
        assert "line 3" in res.output

    @pytest.mark.parametrize("text, line", [
        ("vertices \u00b2\nedge 0 1\n", 1),
        ("vertices 4\nedge 0 1\nedge 1 2\nedge 0 2\nface 0 1 9\n", 5),
        ("vertices 4\nedge 0 1\nedge 1 2\nedge 0 1\nface 0 1 2\n", 4),
    ])
    def test_complex_fault_names_its_line(self, runner, tmp_path, text, line):
        path = tmp_path / "bad.cplx"
        path.write_text(text, encoding="utf-8")
        res = runner.invoke(main, ["code", "info", "--complex-file", str(path)])
        assert res.exit_code == 2, res.output
        assert f"line {line}: " in res.output

    def test_requires_selector(self, runner):
        res = runner.invoke(main, ["code", "info"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("cap", [0, -1, 7, 30])
    def test_bad_distance_cap_is_usage_error(self, runner, monkeypatch, cap):
        # below 1, or more supports than MAX_DISTANCE_SUPPORTS: refused before
        # a single support is enumerated (SSD's default cap of 6 is 768,211)
        def refuse(*_args):
            raise AssertionError("supports were enumerated")

        monkeypatch.setattr(codes, "combinations", refuse)
        res = runner.invoke(main, ["code", "info", "--code", "ssd", "--distance-max", str(cap)])
        assert res.exit_code == 2, res.output
        assert "--distance-max" in res.output
        assert "Traceback" not in res.output


class TestSchedule:
    def test_build_and_verify(self, runner, tmp_path):
        out = tmp_path / "s17.sched"
        res = runner.invoke(
            main, ["schedule", "build", "--code", "surface17", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        assert out.exists()
        assert "steps: 8" in res.output
        res = runner.invoke(
            main,
            ["schedule", "verify", "--code", "surface17", "--schedule", str(out)],
        )
        assert res.exit_code == 0
        assert "unique syndromes: ok" in res.output

    def test_interleaved_ssd_reports_unavailable(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["schedule", "build", "--code", "ssd", "--mode", "interleaved",
             "--retries", "3", "--out", str(tmp_path / "i.sched")],
        )
        assert res.exit_code == 1
        assert "sequential schedule remains" in res.output
        assert "best coloring" in res.output

    def test_verify_detects_bad_schedule(self, runner, tmp_path):
        from starqec.scheduling import save_schedule
        from test_faulttol import reordered_ssd_schedule

        bad = tmp_path / "bad.sched"
        save_schedule(reordered_ssd_schedule(), bad)
        res = runner.invoke(
            main, ["schedule", "verify", "--code", "ssd", "--schedule", str(bad)]
        )
        assert res.exit_code == 1
        assert "unique syndromes: FAIL" in res.output

    @pytest.mark.parametrize("old, new, line", [
        ("mode separate", "mode", 1),
        ("steps 10", "steps", 2),
        ("steps 10", "steps ten", 2),
        ("cnot 1 X 0 0", "cnot 1 X 0 zero", 3),
        ("steps 10", "steps 99999999999", 2),
        ("mode separate", "mode sideways", 1),
        ("cnot 1 X 0 0", "cnot 0 X 0 0", 3),
        ("cnot 1 X 0 0", "cnot 11 X 0 0", 3),
        ("cnot 1 X 1 8", "cnot 1 X 0 0", 4),
        ("cnot 1 X 1 8", "cnot 1 X 1 0", 4),
        ("cnot 1 X 1 8", "cnot 1 X 0 7", 4),
    ])
    def test_malformed_schedule_names_line(self, runner, tmp_path, old, new, line):
        # a usage error, never a traceback or an EC circuit past the last CNOT
        from starqec.faulttol import builtin_schedule
        from starqec.scheduling import format_schedule

        text = format_schedule(builtin_schedule("ssd"))
        assert text.splitlines()[line - 1].startswith(old)
        path = tmp_path / "bad.sched"
        path.write_text(text.replace(old, new, 1))
        res = runner.invoke(main, ["schedule", "verify", "--code", "ssd", "--schedule", str(path)])
        assert res.exit_code == 2, res.output
        assert f"line {line}: " in res.output


class TestDecoder:
    def test_build_writes_tables(self, runner, tmp_path):
        res = runner.invoke(
            main, ["decoder", "build", "--code", "surface17", "--out", str(tmp_path)]
        )
        assert res.exit_code == 0, res.output
        x = tmp_path / "surface17-x.table"
        z = tmp_path / "surface17-z.table"
        assert x.exists() and z.exists()
        body = [l for l in z.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 16

    def test_dump_to_stdout(self, runner):
        res = runner.invoke(main, ["decoder", "dump", "--code", "surface17", "--kind", "Z"])
        assert res.exit_code == 0
        assert res.output.startswith("# kind Z")


class TestSim:
    def test_verify_surface17(self, runner):
        res = runner.invoke(main, ["sim", "verify", "--code", "surface17"])
        assert res.exit_code == 0, res.output
        assert "condition 1: ok" in res.output
        assert "exrec single-fault sweep: ok" in res.output
        assert "cnots per EC unit: 96 (pairs: 4560)" in res.output

    def test_exrec_writes_csv_and_is_reproducible(self, runner, tmp_path):
        args = [
            "sim", "exrec", "--code", "surface17", "--p", "0.003", "--trials", "5000",
            "--seed", "9", "--threads", "1",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        res1 = runner.invoke(main, args + ["--out", str(out1)])
        assert res1.exit_code == 0, res1.output
        res2 = runner.invoke(main, args + ["--out", str(out2)])
        assert res2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "code,mode,p,trials,failures,p_l,ci_low,ci_high,seed"

    def test_exrec_rejects_bad_p(self, runner):
        res = runner.invoke(
            main, ["sim", "exrec", "--code", "surface17", "--p", "1.5", "--trials", "10"]
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_exrec_rejects_bad_threads(self, runner, monkeypatch, threads):
        def no_build(*args, **kwargs):
            raise AssertionError("Simulator built before --threads was checked")

        monkeypatch.setattr("starqec.cli.Simulator", no_build)
        res = runner.invoke(main, ["sim", "exrec", "--code", "surface17", "--p", "0.003",
                                   "--trials", "10", "--threads", threads])
        assert res.exit_code == 2, res.output
        assert "--threads must be >= 1" in res.output

    def test_lifetime_summary(self, runner, tmp_path):
        out = tmp_path / "life.csv"
        res = runner.invoke(
            main,
            [
                "sim", "lifetime", "--code", "surface17", "--p", "0.005",
                "--trials", "30", "--rounds-max", "3000", "--seed", "4",
                "--out", str(out),
            ],
        )
        assert res.exit_code == 0, res.output
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert list(row) == ["code", "p", "trajectories", "failures", "censored",
                             "mean_rounds", "max_rounds", "seed"]
        assert (row["code"], row["trajectories"], row["max_rounds"]) == ("surface17", "30", "3000")
        assert f"mean_rounds={float(row['mean_rounds']):.1f} " in res.output
        assert f"failed={row['failures']} censored={row['censored']}" in res.output
        # a lifetime CSV holds no failure rates to fit
        res = runner.invoke(main, ["fit", "--results", str(out)])
        assert res.exit_code == 2, res.output
        assert "missing column(s)" in res.output

    def test_lifetime_rejects_zero_trials(self, runner):
        res = runner.invoke(
            main, ["sim", "lifetime", "--code", "surface17", "--p", "0.005", "--trials", "0"]
        )
        assert res.exit_code == 2
        assert "--trials" in res.output

    def test_bad_p_rejected_before_simulator_is_built(self, runner, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("Simulator built before --p was checked")

        monkeypatch.setattr("starqec.cli.Simulator", no_build)
        for command in ("exrec", "lifetime"):
            res = runner.invoke(
                main, ["sim", command, "--code", "surface17", "--p", "1.5", "--trials", "10"]
            )
            assert res.exit_code == 2, res.output
            assert "--p must be in (0, 1)" in res.output

    @pytest.mark.parametrize(
        "text",
        [
            "mode separate\nsteps x\n",  # unparsable header
            "mode separate\nsteps 8\ncnot 1 X 0 99\n",  # qubit outside the code
        ],
    )
    def test_malformed_schedule_is_usage_error(self, runner, tmp_path, text):
        path = tmp_path / "bad.sched"
        path.write_text(text)
        for args in (
            ["sim", "exrec", "--code", "surface17", "--p", "0.003", "--trials", "10"],
            ["sim", "verify", "--code", "surface17"],
            ["schedule", "verify", "--code", "surface17"],
        ):
            res = runner.invoke(main, args + ["--schedule", str(path)])
            assert res.exit_code == 2, (args, res.output)
            assert "bad schedule file" in res.output
            assert not isinstance(res.exception, ValueError)

    def test_exact_surface17(self, runner):
        res = runner.invoke(main, ["sim", "exact", "--code", "surface17"])
        assert res.exit_code == 0, res.output
        summary = json.loads(res.output)
        assert summary["c"] == pytest.approx(4525.008888890047, rel=1e-9)
        assert summary["pstar"] == pytest.approx(1 / (10 * summary["c"]), rel=1e-12)
        n = summary["distinct_signatures"]
        assert n == 756
        assert summary["pairs"] == n * (n + 1) // 2 + n * n
        assert summary["wall_s"] > 0
        parts = summary["c_x"] + summary["c_z"] - summary["c_xz"]
        assert parts == pytest.approx(summary["c"], rel=1e-12)
        assert summary["keys"] == {"X": 98, "Z": 98}

    def test_exact_bad_inputs_are_usage_errors(self, runner, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_text("mode separate\nsteps 8\ncnot 1 X 0 99\n")
        for args in (["--code", "surface17", "--schedule", str(path)], ["--code", "steane"]):
            res = runner.invoke(main, ["sim", "exact"] + args)
            assert res.exit_code == 2, (args, res.output)

    def test_oversized_decoder_is_usage_error(self, runner, tmp_path):
        from starqec.codes import code_from_complex
        from starqec.scheduling import save_schedule
        from oracles import format_complex
        from test_decoder import colored_schedule, grid_complex

        cplx = grid_complex(5, 5)
        (tmp_path / "grid.cplx").write_text(format_complex(cplx))
        save_schedule(colored_schedule(code_from_complex(cplx)), tmp_path / "grid.sched")
        files = ["--complex-file", str(tmp_path / "grid.cplx"),
                 "--schedule", str(tmp_path / "grid.sched")]
        for command in (["decoder", "build", "--out", str(tmp_path)], ["sim", "exact"],
                        ["sim", "verify"]):
            res = runner.invoke(main, command + files)
            assert res.exit_code == 2, (command, res.output)
            assert "2^25 entries" in res.output
            assert not isinstance(res.exception, DecoderBuildError)

    def test_outdir_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("STARQEC_OUTDIR", str(tmp_path))
        res = runner.invoke(
            main,
            ["sim", "exrec", "--code", "surface17", "--p", "0.003", "--trials", "1000",
             "--seed", "1", "--threads", "1"],
        )
        assert res.exit_code == 0
        assert (tmp_path / "surface17-exrec.csv").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["schedule", "build", "--code", "surface17"],
        ["decoder", "dump", "--code", "surface17"],
        ["sim", "exrec", "--code", "surface17", "--p", "0.001"],
        ["sim", "lifetime", "--code", "surface17", "--p", "0.001"],
        ["fit", "--results", __file__],
        ["sim", "exrec", "--code", "surface17", "--p", "0.001", "outdir"],
    ],
)
def test_out_in_missing_directory_is_usage_error(runner, tmp_path, monkeypatch, command):
    # refused when the command line is parsed, before any work starts
    from starqec import cli

    def refuse(*_args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_resolve_code", refuse)
    monkeypatch.setattr(cli, "_read_results", refuse)
    missing = tmp_path / "missing"
    if command[-1] == "outdir":  # the default file under $STARQEC_OUTDIR
        command = command[:-1]
        monkeypatch.setenv("STARQEC_OUTDIR", str(missing))
    else:
        command = command + ["--out", str(missing / "result")]
    res = runner.invoke(main, command)
    assert res.exit_code == 2, res.output
    assert f"{missing} does not exist" in res.output


class TestFit:
    def synthetic_csv(self, tmp_path, c, name="x"):
        from starqec.results import ResultRow, write_results_csv

        rows = []
        for p in (3e-4, 1e-3):
            n = 2_000_000
            k = round(c * p * p * n)
            rows.append(ResultRow("syn", "exrec", p, n, k, k / n, 0.0, 1.0, 1))
        path = tmp_path / f"{name}.csv"
        write_results_csv(path, rows)
        return path

    def test_fit_synthetic(self, runner, tmp_path):
        path = self.synthetic_csv(tmp_path, 3000)
        res = runner.invoke(main, ["fit", "--results", str(path)])
        assert res.exit_code == 0, res.output
        summary = json.loads(res.output[: res.output.rindex("}") + 1])
        assert summary["c"] == pytest.approx(3000, rel=0.02)
        assert summary["pstar"] == pytest.approx(3.33e-5, rel=0.02)

    def test_fit_json_lists_dropped_points(self, runner, tmp_path):
        from starqec.results import ResultRow, write_results_csv

        path = tmp_path / "mixed.csv"
        rows = [
            ResultRow("syn", "exrec", 1e-4, 1000, 2, 0.002, 0.0, 1.0, 1),
            ResultRow("syn", "exrec", 1e-3, 1_000_000, 3000, 0.003, 0.0, 1.0, 1),
        ]
        write_results_csv(path, rows)
        out = tmp_path / "fit.json"
        res = runner.invoke(main, ["fit", "--results", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        summary = json.loads(out.read_text())
        assert summary["points_used"] == [1e-3]
        assert summary["dropped"] == [{"p": 1e-4, "reason": "too few failures"}]

    def test_fit_insufficient_failures(self, runner, tmp_path):
        from starqec.results import ResultRow, write_results_csv

        path = tmp_path / "thin.csv"
        write_results_csv(path, [ResultRow("syn", "exrec", 1e-3, 100, 1, 0.01, 0, 1, 1)])
        res = runner.invoke(main, ["fit", "--results", str(path)])
        assert res.exit_code == 1
        assert "increase trials" in res.output

    def test_fit_compare_m_copies(self, runner, tmp_path):
        small = self.synthetic_csv(tmp_path, 3000, "small")
        big = self.synthetic_csv(tmp_path, 56000, "big")
        res = runner.invoke(
            main,
            ["fit", "--results", str(small), "--compare", str(big), "--m-copies", "8"],
        )
        assert res.exit_code == 0, res.output
        assert "stay below" in res.output
        assert "do NOT" not in res.output

    def test_fit_compare_failure_prints_and_exits_1(self, runner, tmp_path):
        from starqec.results import ResultRow, write_results_csv

        small = self.synthetic_csv(tmp_path, 3000, "small")
        thin = tmp_path / "thin.csv"
        write_results_csv(thin, [ResultRow("syn", "exrec", 1e-3, 100, 1, 0.01, 0, 1, 1)])
        out = tmp_path / "fit.json"
        res = runner.invoke(
            main, ["fit", "--results", str(small), "--compare", str(thin), "--out", str(out)]
        )
        assert res.exit_code == 1, res.output
        assert res.output.startswith("comparison fit failed: ")
        assert "increase trials" in res.output
        assert isinstance(res.exception, SystemExit)  # no FitError traceback
        assert not out.exists()

    def test_fit_compare_bad_m_copies_is_usage_error(self, runner, tmp_path):
        small = self.synthetic_csv(tmp_path, 3000, "small")
        big = self.synthetic_csv(tmp_path, 56000, "big")
        res = runner.invoke(
            main,
            ["fit", "--results", str(small), "--compare", str(big), "--m-copies", "0"],
        )
        assert res.exit_code == 2
        assert "--m-copies must be >= 1" in res.output
        assert "{" not in res.output  # refused before the first fit is printed

    @pytest.mark.parametrize("defect", ["missing-column", "non-numeric"])
    def test_fit_bad_results_csv_is_usage_error(self, runner, tmp_path, defect):
        path = self.synthetic_csv(tmp_path, 3000)
        header, first, *rest = path.read_text().splitlines()
        if defect == "missing-column":
            drop = header.split(",").index("trials")
            header, first, *rest = (
                ",".join(f for i, f in enumerate(line.split(",")) if i != drop)
                for line in (header, first, *rest)
            )
        else:
            first = first.replace(",2000000,", ",many,")
        path.write_text("\n".join((header, first, *rest)) + "\n")
        for args in (["--results", str(path)],
                     ["--results", str(self.synthetic_csv(tmp_path, 3000, "ok")),
                      "--compare", str(path)]):
            res = runner.invoke(main, ["fit", *args])
            assert res.exit_code == 2, res.output
            assert "bad results file" in res.output
            assert ("trials" if defect == "missing-column" else "line 2") in res.output
            assert "{" not in res.output
