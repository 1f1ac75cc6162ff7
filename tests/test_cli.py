import json
from dataclasses import asdict

import numpy as np
import pytest

from fracschrod import Domain, NewtonConfig, build_grid
from fracschrod.cli import main
from fracschrod.solver import _physical_memory
from conftest import CONFIGS

GETOOR = {
    "experiment": "solve",
    "seed": 0,
    "domain": {"kind": "interval-1d", "lower": [-1.0], "upper": [1.0]},
    "s": 0.5,
    "h": 2.0**-6,
    "R": 4.0,
    "potential": {"kind": "constant", "value": 0.0},
    "source": {"kind": "constant", "value": 1.0},
    "exterior_data": [],
}


# a recovery that runs to the end on the GETOOR domain
RECOVER = {"experiment": "recover", "h": 0.25, "window": {"inner": 0.25, "outer": 1.0}}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_solve_getoor_config(tmp_path):
    cfg_path = write_config(tmp_path, GETOOR)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "solution.csv")
    assert header == ["x", "value"]
    by_x = {float(r[0]): float(r[1]) for r in rows}
    assert abs(by_x[0.0] - 1.0) < 0.05
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "solve"
    assert manifest["config"]["s"] == 0.5
    assert "library_version" in manifest
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "thread_variables",
                        "cpu_affinity"}
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"numpy", "scipy"}
    assert all(set(build) == {"name", "version"} for build in env["blas"].values())
    assert {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "OPENBLAS_THREAD_TIMEOUT"} <= set(env["thread_variables"])
    assert env["cpu_affinity"] >= 1


def test_solve_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, GETOOR)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_malformed_order_rejected(tmp_path):
    cfg = dict(GETOOR, s=1.2)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = main(["solve", "--config", cfg_path, "--out", str(out)])
    assert code != 0
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "OrderOutOfRange"


@pytest.mark.parametrize("override, code, error", [
    ({"s": 1.2}, 1, "OrderOutOfRange"),   # a ToolkitError
    # a string spacing was a raw ValueError (exit 2); test_non_toolkit_error
    # keeps exit 2 covered
    ({"h": "abc"}, 1, "Validation"),
    ({"potential": {"kind": "constant", "value": float("nan")}}, 1, "Validation"),
    ({"exterior_data": [{"width": 0.4}]}, 1, "Validation"),
    ({"exterior_data": [{"center": [1.5], "width": "wide"}]}, 1, "Validation"),
    ({"source": {"kind": "bumps", "bumps": [{"center": "mid", "width": 0.4}]}},
     1, "Validation"),
    # with zero exterior data Newton would report -3 iterations
    ({"experiment": "forward", "newton": {"max_iters": -3}}, 1, "Validation"),
    # JSON's NaN is refused on load, wherever it stands
    ({"R": float("nan")}, 1, "Validation"),
    (dict(RECOVER, regularization=float("nan")), 1, "Validation"),
    (dict(RECOVER, noise=float("nan")), 1, "Validation"),
    # an integer literal no float holds (it was a raw OverflowError, exit 2)
    ({"R": 10**400}, 1, "Validation"),
    # integer keys are not truncated: 2.5 trials ran 2, -3 trials ran none,
    # seed 1.5 ran seed 1 and seed -1 was a raw ValueError (exit 2)
    ({"experiment": "principles", "trials": 2.5}, 1, "Validation"),
    ({"experiment": "principles", "trials": -3}, 1, "Validation"),
    ({"experiment": "principles", "seed": 1.5}, 1, "Validation"),
    ({"experiment": "principles", "seed": -1}, 1, "Validation"),
    (dict(RECOVER, noise=0.1, seed=-1), 1, "Validation"),
    # a negative noise level ran noiseless yet reported no inverse crime,
    # and a bool regularization ran as 1
    (dict(RECOVER, noise=-0.1), 1, "Validation"),
    (dict(RECOVER, noise="0.1"), 1, "Validation"),
    (dict(RECOVER, noise=True), 1, "Validation"),
    (dict(RECOVER, regularization=True), 1, "Validation"),
    (dict(RECOVER, regularization=-1e-6), 1, "Validation"),
    (dict(RECOVER, regularization="1e-6"), 1, "Validation"),
    ({"experiment": "probe", "window_sweep": [40.7]}, 1, "Validation"),
    ({"experiment": "forward", "newton": {"max_iters": 2.7}}, 1, "Validation"),
    # the newton object is NewtonConfig's to check: a string damping ran as
    # 0.5, a string tolerance was a raw ValueError (exit 2), an unknown key
    # was ignored and a non-object was a raw AttributeError (exit 2)
    ({"experiment": "forward", "newton": {"damping": "0.5"}}, 1, "Validation"),
    ({"experiment": "forward", "newton": {"residual_tol": "x"}}, 1, "Validation"),
    ({"experiment": "forward", "newton": {"tolerance": 1e-8}}, 1, "Validation"),
    ({"experiment": "linearize", "newton": [50]}, 1, "Validation"),
    # a value of the wrong JSON kind was a raw AttributeError or TypeError
    # (exit 2) ...
    ({"potential": 3}, 1, "Validation"),
    (dict(RECOVER, truth=[1]), 1, "Validation"),
    ({"experiment": "forward", "nonlinearity": 3}, 1, "Validation"),
    ({"exterior_data": 5}, 1, "Validation"),
    ({"experiment": "linearize", "probe_data": 3}, 1, "Validation"),
    ({"experiment": "probe", "window_sweep": 5}, 1, "Validation"),
    # ... or a raw ValueError, UFuncTypeError or TypeError (exit 2) ...
    ({"experiment": "linearize", "eta_schedule": "abc"}, 1, "Validation"),
    ({"experiment": "forward", "nonlinearity": {"name": "linear", "a": "x"}},
     1, "Validation"),
    ({"domain": {"kind": "interval-1d", "lower": ["-1"], "upper": ["1"]}},
     1, "Validation"),
    ({"domain": {"kind": "interval-1d", "lower": [False], "upper": [1.0]}},
     1, "Validation"),
    # ... and a string or bool ran as the number it spells
    ({"h": "0.125"}, 1, "Validation"),
    ({"potential": {"kind": "constant", "value": "0.5"}}, 1, "Validation"),
    ({"potential": {"kind": "constant", "value": True}}, 1, "Validation"),
    ({"exterior_data": [{"center": ["1.5"], "width": 0.4}]}, 1, "Validation"),
    ({"exterior_data": [{"center": [1.5], "width": "0.4"}]}, 1, "Validation"),
    ({"exterior_data": [{"center": [1.5], "width": 0.4, "amplitude": "1"}]},
     1, "Validation"),
    (dict(RECOVER, window={"inner": "0.5", "outer": 1.0}), 1, "Validation"),
    ({"R": True}, 1, "Validation"),
    ({"s": True}, 1, "Validation"),
    # a misspelt top-level key ran on the default: this recovery ran
    # noiseless and reported inverse_crime true
    (dict(RECOVER, noize=0.1), 1, "Validation"),
])
def test_exit_codes(tmp_path, capsys, override, code, error):
    out = tmp_path / "out"
    experiment = override.get("experiment", "solve")
    cfg_path = write_config(tmp_path, dict(GETOOR, **override))
    assert main([experiment, "--config", cfg_path, "--out", str(out)]) == code
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == error and record["experiment"] == experiment
    assert json.loads(capsys.readouterr().err) == record


def test_non_toolkit_error(tmp_path, capsys, monkeypatch):
    # an error that is not a ToolkitError, a fault of the program rather
    # than of the config, exits 2 and is recorded by its class name
    from fracschrod import cli

    def broken(cfg, out):
        raise ZeroDivisionError("a fault")

    monkeypatch.setitem(cli._RUNNERS, "solve", broken)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, GETOOR),
                 "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "ZeroDivisionError", "message": "a fault",
                      "experiment": "solve"}
    assert json.loads(capsys.readouterr().err) == record


@pytest.mark.parametrize("experiment, override", [
    ("forward", {"newton": {"max_iters": 50.0}}),
    ("principles", {"h": 0.25, "trials": 3.0, "seed": 2.0}),
])
def test_integral_floats_read_as_integers(tmp_path, experiment, override):
    # every integer key reads 2.0 as 2, newton.max_iters included, and the
    # manifest records the integer
    cfg = dict(GETOOR, experiment=experiment, **override)
    out = tmp_path / "out"
    assert main([experiment, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    if experiment == "forward":
        assert config["newton"]["max_iters"] == 50
        assert isinstance(config["newton"]["max_iters"], int)
    else:
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["trials"] == 3


@pytest.mark.parametrize("override", [
    # a pair center on the 1D grid
    {"exterior_data": [{"center": [1.5, 0.0], "width": 0.4}]},
    # a one-component center on a 2D grid
    {"domain": {"kind": "box-2d", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
     "h": 0.25, "R": 3.0, "exterior_data": [{"center": [1.5], "width": 0.4}]},
])
def test_bump_center_of_another_dimension_rejected(tmp_path, override):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, dict(GETOOR, **override))
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "Validation" and "bump center" in record["message"]
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("experiment, window", [
    ("forward", {"outer": 1.0}),
    ("recover", {"inner": 0.125}),
    ("recover", {"inner": "near", "outer": 1.0}),
])
def test_malformed_window_rejected_before_assembly(tmp_path, monkeypatch,
                                                   experiment, window):
    from fracschrod import cli

    def no_assembly(*args):
        raise AssertionError("assembled before the window was read")

    monkeypatch.setattr(cli, "assemble", no_assembly)
    cfg = dict(GETOOR, experiment=experiment, window=window)
    out = tmp_path / "out"
    assert main([experiment, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "Validation" and "window" in record["message"]


def test_operator_too_large_exit_code(tmp_path):
    # (-1,1)^2 at h=2^-7, R=3 assembles, and its first solve needs one packed
    # factor of 65025 rows, 15.8 GiB
    grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-7, 3.0)
    ni = grid.n_interior
    if ni * (ni + 1) // 2 * 8 <= _physical_memory():
        pytest.skip("this machine holds one factor of the test grid")
    box = {"kind": "box-2d", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    cfg_path = write_config(tmp_path, dict(GETOOR, domain=box, h=2.0**-7, R=3.0))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "OperatorTooLarge"


def test_experiment_name_mismatch(tmp_path):
    cfg_path = write_config(tmp_path, GETOOR)
    out = tmp_path / "out"
    code = main(["forward", "--config", cfg_path, "--out", str(out)])
    assert code != 0
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "Validation"


def test_unparsable_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = tmp_path / "out"
    code = main(["solve", "--config", str(path), "--out", str(out)])
    assert code != 0
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigParse"


def test_forward_with_bank(tmp_path):
    cfg = {
        "experiment": "forward",
        "domain": {"kind": "interval-1d", "lower": [-1.0], "upper": [1.0]},
        "s": 0.5, "h": 1.0 / 16, "R": 3.0,
        "nonlinearity": {"name": "saturating-cubic", "a": 1.0},
        "exterior_data": [
            {"center": [1.5], "width": 0.3, "amplitude": 1.0},
            {"center": [-1.5], "width": 0.3, "amplitude": 0.5},
        ],
        "window": {"inner": 0.5, "outer": 1.0},
    }
    out = tmp_path / "out"
    assert main(["forward", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    bank = json.loads((out / "cauchy_bank.json").read_text())
    assert [d["g-id"] for d in bank["data"]] == ["g-0", "g-1"]
    header, rows = read_csv(out / "newton_trace.csv")
    assert header == ["iteration", "residual"]
    assert float(rows[-1][1]) <= 1e-10
    # the manifest records the Newton settings the run used, defaults included
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["newton"] == asdict(NewtonConfig())
    assert set(manifest["config"]["newton"]) == {"max_iters", "residual_tol", "damping"}


def test_forward_factors_nothing(tmp_path, monkeypatch):
    # the solution and both bank data are Newton solves whose steps are all
    # CG on the tau matrix, so nothing is factored; the manifest records the
    # CG iterations of every Newton step of each solve
    from fracschrod import solver

    calls = []
    factor_system = solver._factor_system
    monkeypatch.setattr(solver, "_factor_system",
                        lambda *args: calls.append(1) or factor_system(*args))
    out = tmp_path / "out"
    assert main(["forward", "--config", str(CONFIGS / "forward.json"),
                 "--out", str(out)]) == 0
    assert calls == []
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert len(summary["cg_iterations"]) == summary["iterations"]
    counts = summary["bank_cg_iterations"]
    assert sorted(counts) == ["g-0", "g-1"]
    assert all(k >= 1 for run in [summary["cg_iterations"], *counts.values()] for k in run)


def test_linearize_linear_model(tmp_path):
    cfg = {
        "experiment": "linearize",
        "domain": {"kind": "interval-1d", "lower": [-1.0], "upper": [1.0]},
        "s": 0.5, "h": 1.0 / 16, "R": 3.0,
        "nonlinearity": {"name": "linear", "a": 1.0},
        "exterior_data": [{"center": [1.5], "width": 0.3, "amplitude": 1.0}],
        "eta_schedule": [1e-1, 1e-2, 1e-3],
        "newton": {"residual_tol": 1e-13},
    }
    out = tmp_path / "out"
    assert main(["linearize", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "linearize.csv")
    assert header == ["eta", "e_l2", "e_sup", "converged"]
    assert all(float(r[2]) <= 1e-10 for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["newton"] == asdict(NewtonConfig(residual_tol=1e-13))


def test_linearize_defaults_to_the_study_newton_settings(tmp_path):
    # without a newton object the run uses linearization_study's own
    # default, not the forward solve's residual_tol 1e-10, and records it
    from fracschrod.calderon import LINEARIZATION_NEWTON

    cfg = {
        "experiment": "linearize",
        "domain": {"kind": "interval-1d", "lower": [-1.0], "upper": [1.0]},
        "s": 0.5, "h": 1.0 / 8, "R": 3.0,
        "nonlinearity": {"name": "linear", "a": 1.0},
        "exterior_data": [{"center": [1.5], "width": 0.3, "amplitude": 1.0}],
        "eta_schedule": [1e-1, 1e-2],
    }
    out = tmp_path / "out"
    assert main(["linearize", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["newton"]["residual_tol"] == 1e-12
    assert manifest["config"]["newton"] == asdict(LINEARIZATION_NEWTON)


def test_principles_run(tmp_path):
    cfg = {
        "experiment": "principles",
        "domain": {"kind": "interval-1d", "lower": [-1.0], "upper": [1.0]},
        "s": 0.5, "h": 1.0 / 8, "R": 3.0,
        "trials": 10, "seed": 3,
    }
    out = tmp_path / "out"
    assert main(["principles", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"] == {"trials": 10, "failures": 0}


def test_recover_run(tmp_path):
    cfg = {
        "experiment": "recover",
        "domain": {"kind": "interval-1d", "lower": [-1.0], "upper": [1.0]},
        "s": 0.5, "h": 1.0 / 8, "R": 4.0,
        "truth": {"kind": "constant", "value": 0.5},
        "window": {"inner": 1.0 / 8, "outer": 1.0},
        "regularization": 0.0,
    }
    out = tmp_path / "out"
    assert main(["recover", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["relative_l2_error"] < 0.10
    assert summary["inverse_crime"] is True
    # the iteration's own account of the run: "cap" is the 500-evaluation
    # cap and nothing else; each step tried is one evaluation after the
    # first, accepted or not, and the damping never falls below its floor
    assert summary["stop"] in ("gradient", "cost", "step", "damping", "cap")
    assert (summary["stop"] == "cap") == (summary["evaluations"] == 500)
    assert 1 <= summary["evaluations"] <= 500
    assert 1 <= summary["iterations"] <= summary["evaluations"] - 1
    assert summary["damping"] >= 1e-15
    assert summary["gradient_norm"] >= 0.0
    header, _ = read_csv(out / "recover.csv")
    assert header == ["x", "a_true", "a_estimate"]


def test_recover_config_reaches_its_truth(cli_outputs):
    # configs/recover.json fits noiseless data, which determine its truth:
    # the estimate must reach it, not stop at the evaluation cap 2.03e-2
    # away with misfit 9.0e-10 as trf did (the declared fix "Recovery to
    # the truth" of tests/golden/README.md)
    out = cli_outputs / "recover"
    header, rows = read_csv(out / "recover.csv")
    values = np.array(rows, dtype=float)
    a_true = values[:, header.index("a_true")]
    estimate = values[:, header.index("a_estimate")]
    assert np.linalg.norm(estimate - a_true) <= 1e-4 * np.linalg.norm(a_true)
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["misfit"] <= 1e-12


def test_probe_run(tmp_path):
    cfg = {
        "experiment": "probe",
        "domain": {"kind": "interval-1d", "lower": [-1.0], "upper": [1.0]},
        "s": 0.5, "h": 1.0 / 8, "R": 4.0,
        "window_sweep": [48, 44, 40, 36],
    }
    out = tmp_path / "out"
    assert main(["probe", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "probe.csv")
    assert header == ["window_size", "sigma_min"]
    sigmas = [float(r[1]) for r in rows]
    assert all(s > 0 for s in sigmas)
    assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))


def test_solve_2d_box(tmp_path):
    cfg = {
        "experiment": "solve",
        "domain": {"kind": "box-2d", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "s": 0.5, "h": 0.25, "R": 3.0,
        "source": {"kind": "constant", "value": 1.0},
        "exterior_data": [{"center": [1.75, 0.0], "width": 0.5, "amplitude": 0.3}],
    }
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "solution.csv")
    assert header == ["x", "y", "value"]
    values = np.array([float(r[2]) for r in rows])
    assert np.all(np.isfinite(values)) and values.max() > 0


def test_csv_float_format(tmp_path):
    cfg_path = write_config(tmp_path, GETOOR)
    out = tmp_path / "out"
    main(["solve", "--config", cfg_path, "--out", str(out)])
    _, rows = read_csv(out / "solution.csv")
    # 17 significant digits round-trip doubles exactly
    for r in rows[:5]:
        assert float(format(float(r[1]), ".17g")) == float(r[1])
