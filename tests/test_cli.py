import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmp
from specmp.cli import main
from specmp.simulator import INNOVATION_LAWS

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

# long memory: simulated, but gamma_lsd refuses its law
LONG_MEMORY = '{"type":"farima","d":0.3}'

# spec keys that the type does not read
ARMA_WITH_D = '{"type":"arma","ar":[-0.3],"d":-0.25}'
PIECEWISE_WITH_AR = json.dumps({**json.loads(PIECEWISE), "ar": [0.5]})

# AR roots so near the unit circle that |phi|^2 as a cosine sum rounded to < 0 (f < 0) or to 0
# (f = inf) at the peak; the root form solves both
NEGATIVE_F = json.dumps(
    {
        "type": "arma",
        "ar": [0.9935212290463952, -0.9939139301270936, -0.9996072978804833],
        "ma": [-0.23927213182136864, 0.9841467518903655],
    }
)
INFINITE_F = json.dumps({"type": "arma", "ar": [-0.8946377354927975, -0.895280022166188, 0.999357707428716]})
# AR zeros on the unit circle, at 1 and at +-i: no stationary process, refused
UNIT_ROOT = '{"type":"arma","ar":[-1.0]}'
UNIT_PAIR = '{"type":"arma","ar":[0.0,1.0]}'
# spectral levels outside [2^-500, 2^500]: a piecewise level of 1e-200, and max f = 1e154
TINY_LEVEL = json.dumps({"type": "piecewise", "pieces": [{"lo": 0.0, "hi": 2.0 * math.pi, "alpha": 1e-200}]})
HUGE_MAX_F = '{"type":"arma","ma":[1e77]}'


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
        assert meta["solver"]["offset"] > 0.0
        assert "eps_schedule" not in meta["solver"]
        args = ["lsd-density", "--model", WHITE, "--y", "1", "--eps-schedule", "1e-2", "--out", str(tmp_path / "e")]
        assert run(args) == 2

    @pytest.mark.parametrize(
        "spec, law",
        [
            (WHITE, "atoms"),
            (ARMA11, "exact"),
            ('{"type": "arma", "ma": [1, 0.5]}', "szego"),
            ('{"type": "arma", "ar": [0.6, -0.3], "ma": [0.4, 0.2, -0.1]}', "szego"),
            ('{"type": "farima", "d": -0.25}', "szego"),
        ],
        ids=["white", "arma11", "ma2", "arma23", "farima"],
    )
    def test_sidecar_names_the_law_it_solved_on(self, spec, law, tmp_path):
        out = tmp_path / "t"
        assert run(["lsd-density", "--model", spec, "--y", "3", "--grid", "16", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "t.json").read_text())["solver"]["law"] == law

    @pytest.mark.parametrize("spec", [NEGATIVE_F, INFINITE_F], ids=["negative-f", "infinite-f"])
    def test_solves_ar_roots_near_the_unit_circle(self, spec, tmp_path):
        # AR roots 1e-7 and 3e-4 from the unit circle, which gamma_lsd refused
        # while |phi|^2 was a cosine sum: the peak of f is 2.8e18 and 2.9e16
        assert run(["lsd-density", "--model", spec, "--y", "1", "--out", str(tmp_path / "x")]) == 0
        report = json.loads((tmp_path / "x.json").read_text(), parse_constant=pytest.fail)
        density = np.loadtxt(tmp_path / "x.csv", delimiter=",", skiprows=1)[:, 1]
        assert report["solver"]["law"] == "szego" and np.all(np.isfinite(density) & (density >= 0.0))

    @pytest.mark.parametrize(
        "spec", ['{"type":"arma","ma":[1,1,1]}', '{"type":"farima","ma":[0,1],"d":-0.2}'], ids=["arma", "farima"]
    )
    @pytest.mark.parametrize("command", [["gamma-density"], ["lsd-density", "--y", "1"]], ids=lambda c: c[0])
    def test_f_vanishing_at_the_middle_node(self, spec, command, tmp_path):
        # theta has zeros at +-i, so f = 0 at w = pi/2, the middle node of the
        # Szegő law's tanh-sinh rule, where L' is infinite; pytest's
        # filterwarnings = error fails the run on any RuntimeWarning there
        assert run([*command, "--model", spec, "--out", str(tmp_path / "x")]) == 0

    def test_mass_at_zero_recorded(self, tmp_path):
        out = tmp_path / "half"
        assert run(["lsd-density", "--model", WHITE, "--y", "0.5", "--grid", "96", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "half.json").read_text())["mass_at_zero"] == 0.5

    @pytest.mark.parametrize("size", [16, 31])
    def test_small_grid(self, size, tmp_path):
        args = ["lsd-density", "--model", WHITE, "--y", "1", "--grid", str(size)]
        assert run(args + ["--out", str(tmp_path / "s")]) == 0
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        assert len(rows) == size
        assert float(rows[-1].split(",")[0]) == pytest.approx(4.2, rel=1e-12)

    def test_invalid_y_exits_2(self, tmp_path, capsys):
        code = run(["lsd-density", "--model", WHITE, "--y", "0", "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2

    def test_nonconvergence_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(specmp.stieltjes, "MAX_ITER", 2)
        code = run(["lsd-density", "--model", WHITE, "--y", "1", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 3
        assert "x=" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lsd-density", "--model", WHITE, "--y", "inf"],
            ["lsd-density", "--model", WHITE, "--y", "1", "--grid", "4"],
            ["compare", "--model", WHITE, "--y", "1", "--p", "16", "--replicates", "0"],
            ["gamma-density", "--model", ARMA11, "--grid", "0"],
            ["lsd-density", "--model", WHITE, "--y", "nan"],
            ["simulate", "--model", WHITE, "--y", "1", "--p", "16", "--mu", "nan"],
            ["compare", "--model", WHITE, "--y", "1", "--p", "16", "--mu", "inf"],
            ["simulate", "--model", WHITE, "--y", "1", "--p", "16", "--seed", "-1"],
            ["compare", "--model", WHITE, "--y", "1", "--p", "16", "--seed", "-1"],
            ["gamma-density", "--model", '{"type":"arma","ar":"0.5"}'],
            ["lsd-density", "--model", '{"type":"farima","d":"x"}', "--y", "1"],
            ["simulate", "--model", '{"type":"arma","ma":"12"}', "--y", "1", "--p", "16"],
            ["gamma-density", "--model", '{"type":"arma","ma":[1e200]}'],
            ["lsd-density", "--model", '{"type":"arma","ma":[1e200]}', "--y", "1"],
            ["simulate", "--model", '{"type":"arma","ma":[1e200]}', "--y", "1", "--p", "16"],
            ["gamma-density", "--model", '{"type":"arma","ma":[1e150,1e150]}'],
            ["lsd-density", "--model", '{"type":"arma","ma":[1e150,1e150]}', "--y", "1"],
            ["gamma-density", "--model", '{"type":"arma","ma":[1e154]}'],
            ["lsd-density", "--model", '{"type":"arma","ma":[1e154]}', "--y", "1"],
            ["gamma-density", "--model", UNIT_ROOT],
            ["lsd-density", "--model", UNIT_ROOT, "--y", "1"],
            ["gamma-density", "--model", UNIT_PAIR],
            ["lsd-density", "--model", UNIT_PAIR, "--y", "1"],
            ["gamma-density", "--model", ARMA_WITH_D],
            ["lsd-density", "--model", ARMA_WITH_D, "--y", "1"],
            ["simulate", "--model", ARMA_WITH_D, "--y", "1", "--p", "16"],
            ["gamma-density", "--model", PIECEWISE_WITH_AR],
            ["lsd-density", "--model", PIECEWISE_WITH_AR, "--y", "1"],
            # plans whose p * n exceeds what NumPy can index, refused before any solve
            ["simulate", "--model", WHITE, "--y", "1e300", "--p", "16"],
            ["compare", "--model", WHITE, "--y", "1e300", "--p", "2"],
            # spectral levels outside [2^-500, 2^500]
            ["gamma-density", "--model", TINY_LEVEL],
            ["lsd-density", "--model", TINY_LEVEL, "--y", "0.5"],
            ["gamma-density", "--model", HUGE_MAX_F],
            ["lsd-density", "--model", HUGE_MAX_F, "--y", "3"],
            ["lsd-density", "--model", HUGE_MAX_F, "--y", "0.5"],
        ],
    )
    def test_out_of_range_input_exits_2(self, argv, tmp_path, capsys):
        code = run(argv + ["--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())


class TestModelFile:
    def test_same_bytes_as_inline(self, tmp_path, capsys):
        spec = tmp_path / "model.json"
        spec.write_text(ARMA11)
        assert run(["gamma-density", "--model-file", str(spec), "--out", str(tmp_path / "f")]) == 0
        from_file = capsys.readouterr().out
        assert run(["gamma-density", "--model", ARMA11, "--out", str(tmp_path / "m")]) == 0
        assert capsys.readouterr().out == from_file
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [["--model", ARMA11, "--model-file", "model.json"], [], ["--model-file", "missing.json"],
         ["--model-file", "utf16.json"]],
        ids=["both", "neither", "missing-file", "not-utf8"],
    )
    def test_misused_flags_exit_2(self, flags, tmp_path, capsys):
        (tmp_path / "model.json").write_text(ARMA11)
        (tmp_path / "utf16.json").write_bytes(ARMA11.encode("utf-16"))  # not UTF-8 from its byte-order mark on
        out = tmp_path / "out"
        out.mkdir()
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        assert run(["gamma-density", *flags, "--out", str(out / "r")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(out.iterdir())


def _stationary(spec):
    try:
        specmp.model_from_spec(spec)
    except specmp.ModelSpecError:
        return False
    return True


_coefs = st.lists(st.floats(-0.9, 0.9), max_size=3)
_arma = st.builds(lambda ar, ma: {"type": "arma", "ar": ar, "ma": ma}, _coefs, _coefs).filter(_stationary)
_farima = st.builds(
    lambda arma, d: {**arma, "type": "farima", "d": d},
    _arma,
    st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
)
_piecewise = st.builds(
    lambda cuts, levels: {
        "type": "piecewise",
        "pieces": [
            {"lo": lo, "hi": hi, "alpha": a}
            for lo, hi, a in zip([0.0, *sorted(cuts)], [*sorted(cuts), 2.0 * math.pi], levels)
        ],
    },
    st.lists(st.floats(0.01, 2.0 * math.pi - 0.01), max_size=4, unique=True),
    # atoms at levels 1e-150..1e150
    st.lists(st.floats(-150.0, 150.0).map(lambda e: 10.0**e), min_size=5, max_size=5),
)
_malformed = st.one_of(
    st.sampled_from(
        [
            '{"type":"arma","ar":[-0.5', '{"type":"mystery"}', '{"type":"farima"}', "[1,2]",
            '{"type":"arma","ar":"0.5"}', '{"type":"farima","d":"x"}', '{"type":"arma","ma":"12"}',
            '{"type":"arma","ma":[1e200]}', '{"type":"arma","ma":[1e150,1e150]}', '{"type":"arma","ma":[1e154]}',
            ARMA_WITH_D, PIECEWISE_WITH_AR,
        ]
    ),
    st.text(max_size=12),
)
_y = st.floats(0.25, 4.0).map(repr)
# log-uniform on [1e-300, 1e300] for the law's commands, which build no matrix
_y_wide = st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e))
_grid = st.integers(16, 40).map(str)


def _mostly(valid, invalid):
    # valid in about four examples of five; one_of would give each branch an
    # equal share, and valid is also the simplest choice, where Hypothesis starts
    return st.integers(0, 4).flatmap(lambda k: invalid if k == 4 else valid)


# a mean shift whose squares, summed over a row, overflow from 1e154 on
_mu = st.sampled_from(["0", "5", "1e100", "1e154", "1e300"])


def _sim(p, seed):
    return st.builds(
        lambda p, seed, y, mu: ["--p", str(p), "--seed", str(seed), "--y", y, "--mu", mu], p, seed, _y, _mu
    )


# stationary models and valid plans in most examples, so that most simulate
# runs build a matrix; the others fail validation and must exit 2
_model = _mostly(st.one_of(_arma, _farima).map(json.dumps), st.one_of(_piecewise.map(json.dumps), _malformed))
_plan = _sim(st.integers(2, 16), st.integers(0, 2**32))
_runs = st.tuples(
    _mostly(_plan, _sim(st.just(1), st.integers(0, 2**32)) | _sim(st.integers(2, 16), st.integers(-3, -1))).map(
        lambda sim: ["simulate", *sim]
    ),
    st.just(["gamma-density"]),
    st.builds(lambda grid, y: ["lsd-density", "--grid", grid, "--y", y], _grid, _y_wide),
    # a valid plan, so that compare reaches the theory for every model it can simulate
    st.builds(
        lambda sim, law: ["compare", *sim, "--law", law],
        _plan,
        st.sampled_from(INNOVATION_LAWS),
    ),
)


def _numbers(text):
    # every number in a JSON document, or in the data rows of a CSV table
    if not text.lstrip().startswith("{"):
        return [float(v) for line in text.splitlines()[1:] for v in line.split(",")]
    found = []
    keep = lambda s: found.append(float(s))
    json.loads(text, parse_float=keep, parse_int=keep, parse_constant=keep)
    return found


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(runs=_runs, model=_model)
def test_exit_code_contract(runs, model):
    # whatever the model and range of the inputs, each command returns 0, 2
    # or 3 with no traceback; a failed run says why and writes nothing, and a
    # successful one writes finite numbers only, with no negative density
    for argv in runs:
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, f"--model={model}", "--out", os.path.join(out, "r")])
            assert code in (0, 2, 3), argv
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert "error:" in err.getvalue() or "numerical failure:" in err.getvalue()
                assert os.listdir(out) == []
            for name in os.listdir(out):
                values = _numbers(Path(out, name).read_text())
                assert values and all(math.isfinite(v) for v in values), name
                if argv[0] == "lsd-density" and name.endswith(".csv"):
                    assert min(values[1::2]) >= 0.0, name


@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(model=st.one_of(_arma, _farima, _piecewise).map(json.dumps), grid=_grid, y=_y_wide)
def test_lsd_density_exit_codes_under_warnings_as_errors(model, grid, y, tmp_path_factory):
    # the contract in a child interpreter where every warning is an error, so
    # that no NumPy RuntimeWarning on the way to a table or a typed failure
    # turns into exit 1
    out = tmp_path_factory.mktemp("w")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "specmp.cli", "lsd-density", "--model", model, "--grid", grid, "--y", y,
         "--out", str(out / "r")],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=300,
    )
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


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

    def test_trace_check_is_finite_at_a_large_mean(self, tmp_path):
        # every eigenvalue is finite (their sum is 2e306), and so is the trace:
        # the summary carries no Infinity or NaN
        args = ["simulate", "--model", WHITE, "--y", "1", "--p", "200", "--mu", "1e152"]
        assert run(args + ["--out", str(tmp_path / "big")]) == 0
        check = json.loads((tmp_path / "big_summary.json").read_text())["replicates"][0]["trace_check"]
        assert all(math.isfinite(v) for v in check.values()), check
        assert check["rel_err"] <= 1e-9

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

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 the caller's frame keeps a reference to a call's arguments until it returns",
    )
    def test_matrix_freed_before_eigensolve(self, tmp_path, monkeypatch):
        # each simulated matrix is dead by the time its Gram matrix is eigensolved
        matrices, alive = [], []
        simulate, eigvalsh = specmp.cli.simulate_matrix, np.linalg.eigvalsh

        def recording_simulate(*args, **kwargs):
            X = simulate(*args, **kwargs)
            matrices.append(weakref.ref(X))
            return X

        def checking_eigvalsh(S):
            alive.append([ref() is not None for ref in matrices])
            return eigvalsh(S)

        monkeypatch.setattr(specmp.cli, "simulate_matrix", recording_simulate)
        monkeypatch.setattr(np.linalg, "eigvalsh", checking_eigvalsh)
        args = ["simulate", "--model", ARMA11, "--y", "2", "--p", "50", "--seed", "3", "--replicates", "2"]
        for center in ([], ["--center"]):
            matrices.clear()
            alive.clear()
            assert run(args + center + ["--out", str(tmp_path / "w")]) == 0
            assert alive == [[False], [False, False]]

    def test_tiny_p_rejected(self, tmp_path, capsys):
        code = run(["simulate", "--model", WHITE, "--y", "1", "--p", "1", "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_memory_error_exits_2(self, command, tmp_path, capsys, monkeypatch):
        # a matrix too large for the host is a refused input, not a traceback
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate the simulated matrix")

        monkeypatch.setattr(specmp.cli, "simulate_matrix", no_memory)
        assert run([command, "--model", WHITE, "--y", "1", "--p", "16", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not list(tmp_path.iterdir())


class TestCompareCommand:
    def test_small_run_report(self, tmp_path):
        out = tmp_path / "cmp"
        code = run(
            [
                "compare", "--model", ARMA11, "--y", "3", "--p", "120", "--seed", "5",
                "--replicates", "2", "--out", str(out),
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
            ["compare", "--model", WHITE, "--y", "1", "--p", "600", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((tmp_path / "big.json").read_text())
        assert report["pass"] is True
        assert report["ks_max"] <= 0.05

    def test_scale_aware_pass_below_y_one(self, tmp_path):
        # at y < 1 the law has the atom 1 - y at zero, met by exact zero eigenvalues
        out = tmp_path / "half"
        code = run(["compare", "--model", WHITE, "--y", "0.5", "--p", "1000", "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "half.json").read_text())
        assert report["mass_at_zero"] == 0.5
        assert report["pass"] is True
        assert report["ks_max"] <= 0.05

    @pytest.mark.parametrize("y", ["0.5", "3"])
    def test_ks_reads_the_table_at_each_eigenvalue(self, y, tmp_path, monkeypatch):
        # compare solves F at every positive eigenvalue of every replicate and
        # at the support's upper edge, and nowhere else, so lsd_cdf returns
        # table entries at the eigenvalues
        spectra, tables = [], []
        eigensolve, invert = specmp.cli.sample_cov_eigenvalues, specmp.cli.invert_to_density

        def recording_eigensolve(*args, **kwargs):
            spectra.append(eigensolve(*args, **kwargs))
            return spectra[-1]

        def recording_invert(*args, **kwargs):
            tables.append(invert(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(specmp.cli, "sample_cov_eigenvalues", recording_eigensolve)
        monkeypatch.setattr(specmp.cli, "invert_to_density", recording_invert)
        args = ["--model", ARMA11, "--y", y, "--p", "40", "--seed", "4", "--replicates", "2"]
        assert run(["compare", *args, "--out", str(tmp_path / "c")]) == 0
        (density,) = tables
        report = json.loads((tmp_path / "c.json").read_text())
        assert len(spectra) == len(report["replicates"]) == 2
        eigs = np.concatenate([spectrum.eigenvalues for spectrum in spectra])
        edge = specmp.estimate_support_upper(specmp.gamma_lsd(specmp.model_from_spec(ARMA11)), float(y))
        assert np.array_equal(density.grid, np.union1d(eigs[eigs > 0.0], edge))
        for spectrum, replicate in zip(spectra, report["replicates"]):
            assert set(replicate) == {"ks", "trace"}
            eigs = spectrum.eigenvalues[spectrum.eigenvalues > 0.0]
            at = np.searchsorted(density.grid, eigs)
            assert np.array_equal(density.grid[at], eigs)
            assert np.array_equal(specmp.lsd_cdf(density, eigs), density.cdf[at])
            assert replicate["ks"] == specmp.ks_distance(spectrum, lambda x: specmp.lsd_cdf(density, x))
        assert specmp.lsd_cdf(density, 0.0) == density.mass_at_zero
        # the same plan simulated reports each replicate's file and trace only
        assert run(["simulate", *args, "--out", str(tmp_path / "s")]) == 0
        summary = json.loads((tmp_path / "s_summary.json").read_text())
        assert [set(replicate) for replicate in summary["replicates"]] == [{"csv", "trace_check"}] * 2

    def test_centred_single_column_has_no_positive_eigenvalue(self, tmp_path):
        # p = 2, n = 1 centred: both eigenvalues are zero, and the table holds
        # the support's upper edge alone
        args = ["compare", "--model", WHITE, "--y", "0.5", "--p", "2", "--center", "--out", str(tmp_path / "c")]
        assert run(args) == 0
        report = json.loads((tmp_path / "c.json").read_text())
        assert report["plan"]["n"] == 1
        assert report["ks_max"] == 0.5  # both eigenvalues at zero, against the atom 1/2

    def test_idempotent_reports(self, tmp_path):
        args = ["compare", "--model", WHITE, "--y", "1", "--p", "64", "--seed", "9"]
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

    def test_long_memory_simulates_under_warnings_as_errors(self, tmp_path):
        # a d > 0 model is built and simulated with no warning to raise
        argv = ["simulate", "--model", LONG_MEMORY, "--y", "1", "--p", "50", "--out", str(tmp_path / "x")]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "specmp.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        rows = (tmp_path / "x_rep0.csv").read_text().splitlines()
        assert rows[0] == "eigenvalue" and len(rows) == 51
        assert np.all(np.isfinite(np.array(rows[1:], dtype=float)))

    @pytest.mark.parametrize(
        "command",
        [["gamma-density"], ["lsd-density", "--y", "1"], ["compare", "--y", "1", "--p", "50"]],
        ids=lambda c: c[0],
    )
    def test_long_memory_law_exits_2(self, command, tmp_path):
        # gamma_lsd refuses d > 0 before any work, whether or not warnings are errors
        argv = [*command, "--model", LONG_MEMORY, "--out", str(tmp_path / "x")]
        for flags in ([], ["-W", "error"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "specmp.cli", *argv],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("error: d > 0") and "Traceback" not in proc.stderr
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["lsd-density", "--model", WHITE, "--y", "1.79e308", "--grid", "16"],
            ["lsd-density", "--model", ARMA11, "--y", "5e307", "--grid", "16"],
            ["simulate", "--model", WHITE, "--y", "1", "--p", "200", "--mu", "1e154"],
            ["compare", "--model", WHITE, "--y", "1", "--p", "200", "--mu", "1e154"],
            ["simulate", "--model", WHITE, "--y", "1", "--p", "50", "--mu", "1e307", "--center"],
        ],
        ids=["lsd-density-white", "lsd-density-arma11", "simulate-gram", "compare-gram", "simulate-centred-mean"],
    )
    def test_extreme_y_exits_3_under_warnings_as_errors(self, argv, tmp_path):
        # where the grid's end (white noise: 1.05 x the edge), the edge itself
        # (ARMA(1,1): about 4 y), each sum of squares in the Gram matrix (mu =
        # 1e154) or a row's sum for its mean (mu = 1e307) overflows, the run
        # fails typed and writes nothing, not with a RuntimeWarning that
        # -W error turns into exit 1
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "specmp.cli", *argv, "--out", str(tmp_path / "x")],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=300,
        )
        assert proc.returncode == 3, proc.stderr
        assert "numerical failure" in proc.stderr and "overflows" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("model", [WHITE, ARMA11], ids=["white", "arma11"])
    @pytest.mark.parametrize("y", ["1e-300", "1e300", "3e306"])
    def test_extreme_y_tables_under_warnings_as_errors(self, model, y, tmp_path):
        # where the edge is representable the table is written, with no
        # warning on the way (y = 3e306 overflowed y T' in the edge's
        # bisection, and y = 1e-300 divided by zero at E's root s = 2 there).
        # White noise is the Marchenko-Pastur law: at y = 1e300 its bulk,
        # 4e-150 of y wide, falls between the grid points, so the table is the
        # closed form's transform at the table's offset, to 1e-11
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "specmp.cli", "lsd-density", "--model", model, "--y", y,
             "--grid", "16", "--out", str(tmp_path / "x")],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        table = np.loadtxt(tmp_path / "x.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(table)) and np.all(table[:, 1] >= 0.0)
        if model == WHITE and y == "1e300":
            offset = json.loads((tmp_path / "x.json").read_text())["solver"]["offset"]
            exact = [specmp.mp_stieltjes(float(y), complex(x, offset)).imag / math.pi for x in table[:, 0]]
            assert np.max(np.abs(table[:, 1] / exact - 1.0)) <= 1e-11

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_simulate_bytes_independent_of_cpus(self, tmp_path):
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            pytest.skip("needs two CPUs to compare against one")
        one = {min(cpus)}
        # n + K = 2080 + 53 normal samples a row: five blocks of 30 rows and one of 10
        args = [
            sys.executable, "-m", "specmp.cli", "simulate", "--model", ARMA11, "--y", "13",
            "--p", "160", "--seed", "2", "--replicates", "2",
        ]
        for name, preexec in (("all", None), ("one", lambda: os.sched_setaffinity(0, one))):
            proc = subprocess.run(
                args + ["--out", str(tmp_path / name)],
                capture_output=True,
                env=child_env(),
                preexec_fn=preexec,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        # the CPU count changes the eigensolver's BLAS threads, not the bytes written
        for k in range(2):
            assert (tmp_path / f"all_rep{k}.csv").read_bytes() == (tmp_path / f"one_rep{k}.csv").read_bytes()

    def test_numpy_only_import(self, tmp_path):
        # SciPy is a test dependency only: no command below loads it,
        # simulations of any model included
        script = f"""
import json, sys
import specmp, specmp.cli
out = sys.argv[1]
for argv in (
    ["gamma-density", "--model", {ARMA11!r}, "--out", out + "/g"],
    ["lsd-density", "--model", {ARMA11!r}, "--y", "3", "--grid", "64", "--out", out + "/l"],
    ["simulate", "--model", {WHITE!r}, "--y", "1", "--p", "16", "--out", out + "/w"],
    ["simulate", "--model", {ARMA11!r}, "--y", "1", "--p", "16", "--out", out + "/a"],
    ["compare", "--model", {ARMA11!r}, "--y", "1", "--p", "16", "--out", out + "/c"],
):
    assert specmp.cli.main(argv) == 0
print("scipy:", json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=child_env(), timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        (loaded,) = (json.loads(line[7:]) for line in proc.stdout.splitlines() if line.startswith("scipy: "))
        assert loaded == []
