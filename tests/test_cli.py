import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from ddehopf import cli
from ddehopf.errors import DimensionMismatchError


def run(argv):
    return cli.main(argv)


class TestHopf:
    def test_ndde_json(self, tmp_path, capsys):
        out = tmp_path / "hopf.json"
        assert run(["hopf", "--model", "ndde", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert abs(data["omega0"] - 1.1424) < 5e-4
        assert abs(data["lambda0"] - 1.3079) < 5e-4
        assert len(data["v_basis"]) == 2 and len(data["w_basis"]) == 2
        assert data["v_basis"][0]["dim"] == 2

    def test_sir_values(self, tmp_path):
        out = tmp_path / "hopf.json"
        assert run(["hopf", "--model", "sir", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert abs(data["omega0"] - 0.03440) < 2e-4


class TestExpand:
    def test_csv_tables(self, tmp_path):
        out = tmp_path / "exp.csv"
        assert run(["expand", "--model", "ndde", "--order", "5",
                    "--z0-scale", "msq", "--out", str(out)]) == 0
        series = (tmp_path / "exp_series.csv").read_text().splitlines()
        assert series[0] == ("order,lambda_hat [dimensionless],"
                             "T_hat [dimensionless]")
        row2 = series[3].split(",")
        assert abs(float(row2[1]) - 0.1666) < 2e-3
        coefs = (tmp_path / "exp_coefficients.csv").read_text().splitlines()
        assert coefs[0] == "order,harmonic,component,cos,sin"
        assert len(coefs) > 20
        assert coefs[1].split(",")[2] == "x1 [m]"

    def test_json_format(self, tmp_path):
        out = tmp_path / "exp.json"
        assert run(["expand", "--model", "ndde", "--order", "3",
                    "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["order"] == 3
        assert len(data["lambda_hats"]) == 4
        assert data["conventions"]["qj"] == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["expand", "--model", "sir", "--order", "4",
                        "--out", str(out)]) == 0
        assert (tmp_path / "a_series.csv").read_bytes() \
            == (tmp_path / "b_series.csv").read_bytes()
        assert (tmp_path / "a_coefficients.csv").read_bytes() \
            == (tmp_path / "b_coefficients.csv").read_bytes()


class TestSolve:
    def test_row(self, tmp_path):
        out = tmp_path / "solve.json"
        assert run(["solve", "--model", "ndde", "--order", "8",
                    "--z0-scale", "msq", "--lambda", "1.4",
                    "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert abs(data["eps"] - 0.7385) < 0.01
        assert abs(data["period"] - 5.9158) < 1e-3

    def test_below_bifurcation_exit_code(self):
        assert run(["solve", "--model", "ndde", "--order", "4",
                    "--lambda", "1.0"]) == cli.EXIT_EPSILON

    def test_orbit_trace_svg(self, tmp_path):
        out = tmp_path / "orbit.svg"
        assert run(["solve", "--model", "ndde", "--order", "6",
                    "--z0-scale", "msq", "--lambda", "1.5",
                    "--format", "svg", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.count("<polyline") == 2

    def test_bad_order_exit_code(self):
        assert run(["expand", "--model", "ndde", "--order", "0"]) == 2

    @pytest.mark.parametrize("lam", ["inf", "-inf", "nan"])
    def test_non_finite_delay_exit_code(self, lam, capsys):
        assert run(["solve", "--model", "ndde", "--order", "4",
                    f"--lambda={lam}"]) == cli.EXIT_MODEL
        assert capsys.readouterr().out == ""

    def test_non_finite_delay_is_refused_before_the_expansion(
            self, monkeypatch, capsys):
        # the orbit's own check would refuse it too, after an expansion
        monkeypatch.setattr(cli, "expand", None)
        assert run(["solve", "--model", "ndde", "--order", "4",
                    "--lambda=nan"]) == cli.EXIT_MODEL
        assert "--lambda must be finite" in capsys.readouterr().err

    def test_overflowing_delay_exit_code(self, capsys):
        # the amplitude scan of a delay near the float range overflows;
        # that is a typed error with one line on stderr, not a warning
        assert run(["residual", "--model", "ndde", "--order", "4",
                    "--lambda", "1e300"]) == cli.EXIT_EPSILON
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "overflows" in err


    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_overflowing_profile_exit_code(self, command, capsys):
        # the order-2 amplitude root of a delay near the float range is
        # finite, but the orbit profile overflows; run with numpy's warnings
        # as errors, so a warning fails the test
        assert run([command, "--model", "sir", "--order", "2",
                    "--lambda", "1e300"]) == cli.EXIT_EPSILON
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "overflows" in err

    @pytest.mark.parametrize("model, lam, t", [("sir", "1e100", "1e+98"),
                                               ("ndde", "1e200", "1e+198")])
    def test_overflowing_integration_exit_code(self, model, lam, t, capsys):
        # the reference integration at a delay near the float range leaves
        # it: the non-finite-state error, with no numpy warning before it
        assert run(["validate", "--model", model, "--order", "2",
                    "--lambda", lam]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: non-finite state at t={t}\n"

    @pytest.mark.parametrize("lam", ["1e20", "1e50"])
    def test_overflowing_model_exit_code(self, lam, capsys):
        # the amplitude root exists, but the model overflows on the orbit
        assert run(["residual", "--model", "ndde", "--order", "4",
                    "--lambda", lam]) == cli.EXIT_EPSILON
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "overflows" in err


class TestResidual:
    def test_row(self, tmp_path):
        out = tmp_path / "res.csv"
        assert run(["residual", "--model", "ndde", "--order", "4",
                    "--z0-scale", "msq", "--lambda", "1.4",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lambda [s],order,eps,r_r")
        r_r = float(lines[1].split(",")[3])
        assert 0.001 < r_r < 0.02


class TestDiagram:
    def test_csv_and_svg(self, tmp_path):
        out = tmp_path / "diag.csv"
        assert run(["diagram", "--model", "ndde", "--order", "6",
                    "--z0-scale", "msq", "--lambda-grid", "1.25:1.5:6",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda [s],component,min,max,eps,residual_flag"
        assert len(lines) == 1 + 6 * 2
        svg = tmp_path / "diag.svg"
        assert run(["diagram", "--model", "ndde", "--order", "6",
                    "--z0-scale", "msq", "--lambda-grid", "1.25:1.5:6",
                    "--format", "svg", "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "<polyline" in text

    def test_bad_grid(self):
        assert run(["diagram", "--model", "ndde", "--order", "4",
                    "--lambda-grid", "oops"]) == cli.EXIT_MODEL

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_all_error_sweep_renders_only_its_format(self, fmt, monkeypatch,
                                                     capsys):
        # every grid point failed: each format still writes its output, and
        # only the renderer of the asked format runs
        rows = [{"lambda": lam, "eps": 0.0, "residual": 0.0,
                 "extrapolated": False, "components": None,
                 "error": "NoRealRootError: no root"} for lam in (1.3, 1.4)]
        monkeypatch.setattr(cli, "bifurcation_diagram", lambda exp, grid: rows)
        ran = []
        for name in ("_csv", "_json", "_svg"):
            def spy(*a, _name=name, _real=getattr(cli, name)):
                ran.append(_name)
                return _real(*a)
            monkeypatch.setattr(cli, name, spy)
        assert run(["diagram", "--model", "ndde", "--order", "2",
                    "--lambda-grid", "1.3:1.4:2", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert ran == ["_" + fmt]
        if fmt == "csv":
            assert out.splitlines()[1:] == [
                "1.3,error,,,,NoRealRootError: no root",
                "1.4,error,,,,NoRealRootError: no root"]
        elif fmt == "json":
            assert json.loads(out) == rows
        else:
            assert out.startswith("<svg") and out.endswith("</svg>\n")
            assert "<polyline" not in out

    def test_one_point_grid_exit_code(self, capsys):
        assert run(["diagram", "--model", "sir", "--order", "4",
                    "--lambda-grid", "95:150:1"]) == cli.EXIT_MODEL
        assert capsys.readouterr().err \
            == "error: --lambda-grid needs at least 2 points\n"

    @pytest.mark.parametrize("grid", ["nan:1.5:3", "1.4:inf:3", "-inf:1.5:3"])
    def test_non_finite_grid_exit_code(self, grid, capsys):
        assert run(["diagram", "--model", "ndde", "--order", "4",
                    "--z0-scale", "msq", f"--lambda-grid={grid}"]) \
            == cli.EXIT_MODEL
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["hopf"],
    ["expand", "--order", "3"],
    ["solve", "--order", "3", "--lambda", "1.4"],
    ["residual", "--order", "3", "--lambda", "1.4"],
    ["diagram", "--order", "3", "--lambda-grid", "1.25:1.5:6"],
    ["validate", "--order", "3", "--lambda", "1.4"],
], ids=lambda argv: argv[0])
def test_json_format_every_subcommand(argv, capsys):
    assert run([*argv, "--model", "ndde", "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["hopf", "--format", "csv"],
    ["expand", "--order", "3", "--format", "svg"],
    ["residual", "--order", "3", "--lambda", "1.4", "--format", "svg"],
    ["validate", "--order", "3", "--lambda", "1.4", "--format", "svg"],
], ids=lambda argv: argv[0])
def test_unwritten_format_is_refused(argv, tmp_path, capsys):
    # each subcommand offers only the formats it writes; argparse exits 2
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--model", "ndde", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())
    assert capsys.readouterr().out == ""


def test_runtime_is_numpy_only():
    code = ("import sys\n"
            "from ddehopf import cli\n"
            "assert cli.main(['expand', '--model', 'ndde', '--order', '2']) == 0\n"
            "assert cli.main(['validate', '--model', 'ndde', '--order', '4',\n"
            "                 '--lambda', '1.4']) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestValidate:
    def test_row_structure(self, tmp_path):
        out = tmp_path / "val.csv"
        assert run(["validate", "--model", "ndde", "--order", "6",
                    "--z0-scale", "msq", "--lambda", "1.4",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["lambda [s]", "order", "r_r", "e_r",
                          "period_expansion [s]", "period_numeric [s]"]
        vals = lines[1].split(",")
        assert float(vals[2]) < 0.01 and float(vals[3]) < 0.01

    def test_trajectory_is_freed_before_the_residual(self, monkeypatch):
        # residual's sample tables must not add to the integration's peak
        # memory, so the trajectory is gone by the time residual runs
        trajectories = []
        cross_validate, residual = cli.di.cross_validate, cli.residual

        def keep_weakref(*a, **kw):
            out = cross_validate(*a, **kw)
            trajectories.append(weakref.ref(out[2]))
            return out

        def check_freed(orbit):
            assert trajectories and trajectories[0]() is None
            return residual(orbit)

        monkeypatch.setattr(cli.di, "cross_validate", keep_weakref)
        monkeypatch.setattr(cli, "residual", check_freed)
        assert run(["validate", "--model", "ndde", "--order", "3",
                    "--lambda", "1.4"]) == 0


class TestOtherErrors:
    # errors with no exit code of their own end in 1

    def test_untyped_package_error_exit_code(self, monkeypatch, capsys):
        def cmd_hopf(args):
            raise DimensionMismatchError("raised by the subcommand")

        monkeypatch.setattr(cli, "cmd_hopf", cmd_hopf)
        assert run(["hopf", "--model", "ndde"]) == 1
        assert capsys.readouterr().err == "error: raised by the subcommand\n"

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "hopf.json"
        assert run(["hopf", "--model", "ndde", "--out", str(out)]) == 1
        assert "No such file or directory" in capsys.readouterr().err


class TestConfig:
    def test_params_file_and_precedence(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "model": "ndde",
            "params": {"d": 0.12},
        }))
        out = tmp_path / "hopf.json"
        assert run(["hopf", "--params", str(cfg), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        # a stronger response intensity moves the bifurcation point
        assert abs(data["omega0"] - 1.1424) > 1e-3

    def test_unknown_model_exit_code(self):
        assert run(["expand", "--order", "3"]) == cli.EXIT_MODEL

    def test_rhs_of_the_wrong_length_exit_code(self, monkeypatch, capsys):
        # a dim-2 model whose rhs gives three components
        make_ndde = cli.mdl.BUILTIN_MODELS["ndde"]

        def make(params):
            model = make_ndde(params)
            rhs = model.rhs
            model.rhs = lambda lam, x, y: rhs(lam, x, y) + [x[0]]
            return model

        monkeypatch.setitem(cli.mdl.BUILTIN_MODELS, "ndde", make)
        assert run(["expand", "--model", "ndde", "--order", "3"]) \
            == cli.EXIT_MODEL
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: the rhs returned 3 values for a dim-2 model\n")

    def test_hopf_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "model": "ndde",
            "hopf_hint": {"omega": 250.0, "lambda": 400.0},
        }))
        assert run(["hopf", "--params", str(cfg)]) == cli.EXIT_HOPF

    @pytest.mark.parametrize("config", [
        {"model": "ndde", "params": {"K": 1e300}},
        {"model": "ndde", "params": {"d": 1e300}},
        {"model": "ndde", "hopf_hint": {"omega": 1e300, "lambda": 1.0}},
    ], ids=["sensitivity", "intensity", "frequency"])
    def test_overflowing_characteristic_matrix_exit_code(self, tmp_path,
                                                         config, capsys):
        # a row norm that overflows would scale its row to 0 and fake a
        # characteristic root, reported as a resonance
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        assert run(["hopf", "--params", str(cfg)]) == cli.EXIT_HOPF
        out, err = capsys.readouterr()
        assert out == "" and err == "error: the characteristic matrix overflows\n"

    def test_overflowing_equilibrium_exit_code(self, tmp_path, capsys):
        # the rhs overflows at the hint: no Newton iterations on NaN
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": "sir", "params": {"P_max": 1e300}}))
        assert run(["hopf", "--params", str(cfg)]) == cli.EXIT_MODEL
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: equilibrium residual is not finite at lam=100.0\n")

    @pytest.mark.parametrize("config", [
        {"model": "ndde", "hopf_hint": {"omega": 0.03}},
        {"model": "sir", "params": {"beta": "0.01"}},
        [1, 2],
        {"model": "ndde", "params": {"gamma": 0.5}},
        {"model": "ndde", "parms": {"d": 0.12}},
        {"model": "ndde", "params": {"d": float("nan")}},
    ], ids=["hint_key_missing", "string_value", "not_an_object",
            "unknown_name", "unknown_top_level_key", "non_finite_value"])
    def test_malformed_params_file_exit_code(self, tmp_path, config):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        assert run(["hopf", "--params", str(cfg)]) == cli.EXIT_MODEL
