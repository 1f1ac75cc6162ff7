import json

import numpy as np
import pytest

from fracschrod import Domain, build_grid
from fracschrod.cli import main
from fracschrod.fraclap import _physical_memory

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
    assert env["numpy"] == np.__version__ and set(env["blas"]) == {"name", "version"}
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
    ({"h": "abc"}, 2, "ValueError"),      # anything else
    ({"potential": {"kind": "constant", "value": float("nan")}}, 1, "Validation"),
])
def test_exit_codes(tmp_path, capsys, override, code, error):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, dict(GETOOR, **override))
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == code
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == error and record["experiment"] == "solve"
    assert json.loads(capsys.readouterr().err) == record


def test_operator_too_large_exit_code(tmp_path):
    # (-1,1)^2 at h=2^-7, R=3 needs 224 GiB of dense blocks
    grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-7, 3.0)
    if grid.n_interior * grid.n_nodes * 8 <= _physical_memory():
        pytest.skip("this machine holds the dense blocks of the test grid")
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
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["relative_l2_error"] < 0.10
    assert manifest["summary"]["inverse_crime"] is True
    header, _ = read_csv(out / "recover.csv")
    assert header == ["x", "a_true", "a_estimate"]


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
