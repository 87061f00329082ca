import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specmp
from specmp.cli import main

ARMA11 = '{"type":"arma","ar":[-0.5],"ma":[1]}'
WHITE = '{"type":"arma"}'
PIECEWISE = json.dumps(
    {
        "type": "piecewise",
        "pieces": [
            {"lo": 0.0, "hi": math.pi, "alpha": 1.0},
            {"lo": math.pi, "hi": 2.0 * math.pi, "alpha": 2.0},
        ],
    }
)


def run(args):
    return main(args)


def child_env(**extra):
    # a child interpreter finds the specmp this test imported, whether it came
    # from PYTHONPATH, pytest's pythonpath setting or an installed package
    src = str(Path(specmp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestGammaDensityCommand:
    def test_arma11_support_line(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run(["gamma-density", "--model", ARMA11, "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "0 16"
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "lambda,g_lambda"
        assert len(lines) == 513

    def test_white_noise_atomic_output(self, tmp_path, capsys):
        out = tmp_path / "wn"
        assert run(["gamma-density", "--model", WHITE, "--out", str(out)]) == 0
        assert "atom 1 1" in capsys.readouterr().out
        assert (tmp_path / "wn.csv").read_text().splitlines() == ["level,weight", "1,1"]

    def test_piecewise_atoms(self, tmp_path):
        out = tmp_path / "pw"
        assert run(["gamma-density", "--model", PIECEWISE, "--out", str(out)]) == 0
        lines = (tmp_path / "pw.csv").read_text().splitlines()
        assert lines == ["level,weight", "1,0.5", "2,0.5"]

    def test_malformed_json_exits_2_without_file(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = run(["gamma-density", "--model", '{"type":"arma","ar":[-0.5', "--out", str(out)])
        capsys.readouterr()
        assert code == 2
        assert not (tmp_path / "bad.csv").exists()

    def test_unstable_model_exits_2(self, tmp_path, capsys):
        code = run(["gamma-density", "--model", '{"type":"arma","ar":[-1.0]}', "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2


class TestLsdDensityCommand:
    def test_writes_table_and_sidecar(self, tmp_path):
        out = tmp_path / "mp"
        code = run(["lsd-density", "--model", WHITE, "--y", "1", "--grid", "128", "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "mp.csv").read_text().splitlines()
        assert lines[0] == "x,p_x"
        meta = json.loads((tmp_path / "mp.json").read_text())
        assert meta["y"] == 1.0
        assert meta["mass_at_zero"] == 0.0
        assert meta["solver"]["iterations"] > 0

    def test_mass_at_zero_recorded(self, tmp_path):
        out = tmp_path / "half"
        assert run(["lsd-density", "--model", WHITE, "--y", "0.5", "--grid", "96", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "half.json").read_text())["mass_at_zero"] == 0.5

    def test_invalid_y_exits_2(self, tmp_path, capsys):
        code = run(["lsd-density", "--model", WHITE, "--y", "0", "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2

    def test_nonconvergence_exits_3(self, tmp_path, capsys):
        code = run(
            ["lsd-density", "--model", WHITE, "--y", "1", "--max-iter", "2", "--out", str(tmp_path / "x")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "x=" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lsd-density", "--model", WHITE, "--y", "inf"],
            ["lsd-density", "--model", WHITE, "--y", "1", "--grid", "4"],
            ["compare", "--model", WHITE, "--y", "1", "--p", "16", "--grid", "4"],
            ["gamma-density", "--model", ARMA11, "--grid", "0"],
            ["lsd-density", "--model", WHITE, "--y", "1", "--tol", "-1"],
            ["lsd-density", "--model", WHITE, "--y", "1", "--tol", "nan"],
            ["lsd-density", "--model", WHITE, "--y", "1", "--max-iter", "0"],
        ],
    )
    def test_out_of_range_input_exits_2(self, argv, tmp_path, capsys):
        code = run(argv + ["--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())


class TestSimulateCommand:
    def test_smoke_and_trace(self, tmp_path):
        out = tmp_path / "sim"
        code = run(["simulate", "--model", WHITE, "--y", "1", "--p", "4", "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = (tmp_path / "sim_rep0.csv").read_text().splitlines()
        assert rows[0] == "eigenvalue"
        assert len(rows) == 5
        summary = json.loads((tmp_path / "sim_summary.json").read_text())
        assert summary["replicates"][0]["trace_check"]["rel_err"] <= 1e-9
        # centred: the trace is that of the centred matrix
        args = ["simulate", "--model", WHITE, "--y", "1", "--p", "4", "--seed", "7", "--center", "--mu", "5"]
        assert run(args + ["--out", str(tmp_path / "cen")]) == 0
        summary = json.loads((tmp_path / "cen_summary.json").read_text())
        assert summary["replicates"][0]["trace_check"]["rel_err"] <= 1e-9

    def test_replicates_produce_distinct_files(self, tmp_path):
        out = tmp_path / "reps"
        code = run(
            ["simulate", "--model", ARMA11, "--y", "1", "--p", "8", "--seed", "1", "--replicates", "3", "--out", str(out)]
        )
        assert code == 0
        contents = {(tmp_path / f"reps_rep{k}.csv").read_text() for k in range(3)}
        assert len(contents) == 3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--model", ARMA11, "--y", "2", "--p", "16", "--seed", "42"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (tmp_path / "a_rep0.csv").read_bytes() == (tmp_path / "b_rep0.csv").read_bytes()

    def test_tiny_p_rejected(self, tmp_path, capsys):
        code = run(["simulate", "--model", WHITE, "--y", "1", "--p", "1", "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2


class TestCompareCommand:
    def test_small_run_report(self, tmp_path):
        out = tmp_path / "cmp"
        code = run(
            [
                "compare", "--model", ARMA11, "--y", "3", "--p", "120", "--seed", "5",
                "--replicates", "2", "--grid", "256", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "cmp.json").read_text())
        assert set(report) >= {"plan", "replicates", "ks_max", "ks_median", "pass", "note"}
        assert report["pass"] is None  # thresholds are scale-aware only at p >= 500
        assert report["note"]
        assert 0.0 < report["ks_max"] < 1.0

    def test_scale_aware_pass(self, tmp_path):
        out = tmp_path / "big"
        code = run(
            ["compare", "--model", WHITE, "--y", "1", "--p", "600", "--seed", "3", "--grid", "384", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((tmp_path / "big.json").read_text())
        assert report["pass"] is True
        assert report["ks_max"] <= 0.05

    def test_idempotent_reports(self, tmp_path):
        args = ["compare", "--model", WHITE, "--y", "1", "--p", "64", "--seed", "9", "--grid", "128"]
        assert run(args + ["--out", str(tmp_path / "r1")]) == 0
        assert run(args + ["--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "specmp.cli", "gamma-density", "--model", WHITE, "--out", str(tmp_path / "m")],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "atom 1 1" in proc.stdout

    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specmp.cli", "simulate", "--frobnicate"],
            capture_output=True,
            env=child_env(),
        )
        assert proc.returncode == 2

    def test_threads_env_respected(self, tmp_path):
        for threads in ("2", "1"):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "specmp.cli", "simulate", "--model", WHITE, "--y", "1",
                    "--p", "16", "--seed", "2", "--replicates", "3", "--out", str(tmp_path / f"t{threads}"),
                ],
                capture_output=True,
                env=child_env(SPECMP_THREADS=threads),
            )
            assert proc.returncode == 0
        # threads change how replicates are scheduled, not what they contain
        for k in range(3):
            assert (tmp_path / f"t2_rep{k}.csv").read_bytes() == (tmp_path / f"t1_rep{k}.csv").read_bytes()
