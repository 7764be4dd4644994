import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qlocc
from qlocc import cli, nogo
from qlocc.errors import NotAttained
from qlocc.states import density_matrix_to_dict, make_werner

from conftest import random_density_matrix

MEASURE_REPORT_KEYS = {
    "fidelity",
    "lambda_spectrum",
    "concurrence",
    "entanglement_of_formation",
    "invariant_ratios",
    "pauli",
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qlocc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qlocc.__all__)
    assert len(set(qlocc.__all__)) == len(qlocc.__all__)
    assert not {"scale_factor_bound_check", "werner_twirl"} & set(qlocc.__all__)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_werner(capsys):
    code, out, _ = _run(capsys, ["measure", "--werner", "0.75"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"manifest", "report"}
    assert set(doc["report"]) == MEASURE_REPORT_KEYS
    assert abs(doc["report"]["concurrence"] - 0.5) < 1e-9
    assert abs(doc["report"]["fidelity"] - 0.75) < 1e-12
    assert doc["manifest"]["command"] == "measure"


def test_measure_unentangled_werner(capsys):
    code, out, _ = _run(capsys, ["measure", "--werner", "0.5"])
    assert code == 0
    assert json.loads(out)["report"]["concurrence"] == 0.0


def test_measure_bell_maximally_mixed(capsys):
    code, out, _ = _run(capsys, ["measure", "--bell", "0.25,0.25,0.25,0.25"])
    assert code == 0
    assert json.loads(out)["report"]["entanglement_of_formation"] == 0.0


def test_measure_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(density_matrix_to_dict(make_werner(0.8))))
    code, out, _ = _run(capsys, ["measure", "--state", str(path)])
    assert code == 0
    assert abs(json.loads(out)["report"]["concurrence"] - 0.6) < 1e-9


def test_measure_out_of_domain_is_usage_error(capsys):
    for argv in (["measure", "--werner", "1.5"], ["measure", "--bell", "nan,0,0,1"]):
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert "error" in err


def test_measure_bad_bell_string(capsys):
    code, _, _ = _run(capsys, ["measure", "--bell", "0.5,half"])
    assert code == 1


def test_nogo_non_finite_tolerance_is_usage_error(capsys):
    for tol in ("nan", "inf"):
        code, _, err = _run(capsys, ["nogo", "--werner", "0.8", "--tolerance", tol])
        assert code == 1
        assert "tolerance" in err


def test_ragged_state_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"matrix": [[[0.5, 0], [0, 0]], [[0, 0]]]}))
    code, out, err = _run(capsys, ["measure", "--state", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed density-matrix JSON")


def test_nogo_bad_seed_is_usage_error(capsys):
    code, out, err = _run(capsys, ["nogo", "--werner", "0.8", "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: seed ")


def test_measure_invalid_state_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[[1.0, 0.0]] * 4] * 4}))
    code, _, _ = _run(capsys, ["measure", "--state", str(path)])
    assert code == 2


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_state_file_is_usage_error(kind, tmp_path, capsys):
    path = tmp_path / "state.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"matrix": "\xff\xfe"}')
    code, out, err = _run(capsys, ["measure", "--state", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read --state file")


MEASURE_ARGV = ["measure", "--werner", "0.8"]
SWEEP_ARGV = ["sweep", "--f-list", "0.75", "--grid-density", "8"]


@pytest.mark.parametrize("argv, target", [
    (MEASURE_ARGV, "directory"),
    (MEASURE_ARGV, "missing-parent"),
    (SWEEP_ARGV, "directory"),
    (SWEEP_ARGV, "missing-parent"),
    (SWEEP_ARGV, "sidecar-directory"),
], ids=["measure-directory", "measure-missing-parent", "sweep-directory",
        "sweep-missing-parent", "sweep-sidecar-directory"])
def test_unwritable_out_is_usage_error(argv, target, tmp_path, capsys):
    out_path = tmp_path / "out"
    if target == "directory":
        out_path.mkdir()
    elif target == "missing-parent":
        out_path = tmp_path / "missing" / "out"
    else:
        (tmp_path / "out.manifest.json").mkdir()
    code, out, err = _run(capsys, argv + ["--out", str(out_path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write")


def test_missing_state_flag_is_usage_error(capsys):
    code, _, _ = _run(capsys, ["measure"])
    assert code == 1


def test_nogo_certificate(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    argv = [
        "nogo", "--werner", "0.8", "--restarts", "64", "--seed", "7",
        "--out", str(out_path),
    ]
    code, _, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["certificate"]["best_gain"] <= 1e-7
    assert doc["certificate"]["holds"] is True
    assert doc["manifest"]["seed"] == 7
    # certificate bits depend on the numpy and LAPACK builds
    assert doc["manifest"]["backend"] == qlocc.BACKEND
    assert doc["manifest"]["numpy"] == np.__version__
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
    assert doc["manifest"]["lapack"] == {"name": lapack["name"], "version": lapack["version"]}
    # and on the kernels OpenBLAS chose and numpy's enabled dispatch targets
    assert doc["manifest"]["blas_core"] == cli._blas_core()
    from numpy._core._multiarray_umath import __cpu_dispatch__
    assert set(doc["manifest"]["cpu_dispatch"]) <= set(__cpu_dispatch__)


def test_nogo_flags_are_the_search_config_fields():
    # each SearchConfig field has the flag whose dest is its name, and the
    # field's default
    args = cli.build_parser().parse_args(["nogo", "--werner", "0.8"])
    for field in dataclasses.fields(nogo.SearchConfig):
        assert getattr(args, field.name) == field.default, field.name


def test_nogo_config_is_echoed_once(capsys):
    # all five settings off their defaults: the certificate's config is the
    # SearchConfig, and the manifest echoes it with the seed under its own key
    settings = {"restarts": 30, "grid_density": 2, "local_steps": 5, "seed": 3,
                "tolerance": 2.5e-8}
    assert all(getattr(nogo.SearchConfig(), k) != v for k, v in settings.items())
    argv = ["nogo", "--bell", "0.7,0.1,0.15,0.05"]
    for name, value in settings.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    manifest, config = doc["manifest"], doc["certificate"]["config"]
    params = dict(manifest["parameters"])
    assert params.pop("bell") == [0.7, 0.1, 0.15, 0.05]
    assert {**params, "seed": manifest["seed"]} == config
    assert config == dataclasses.asdict(nogo.SearchConfig(**settings)) == settings


def test_manifest_records_the_environment(capsys):
    code, out, _ = _run(capsys, ["measure", "--werner", "0.8"])
    assert code == 0
    manifest = json.loads(out)["manifest"]
    env = cli.environment()
    assert sorted(env) == ["blas_core", "cpu_dispatch", "lapack", "numpy"]
    assert {key: manifest[key] for key in env} == env


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_manifest_records_the_blas_core_in_use(coretype):
    # OpenBLAS made to pick another CPU's kernels: the manifest names them,
    # unless this OpenBLAS is not the wheel's, and reading them adds no
    # import to the CLI's start
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = ("import sys, numpy; loaded = set(sys.modules); from qlocc import cli; "
            "print(cli._manifest('measure', {})['blas_core'], 'ctypes' in loaded)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == [coretype if cli._blas_core() != "unknown" else "unknown", "True"]


def test_nogo_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["nogo", "--werner", "0.8", "--restarts", "64", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    body1 = json.dumps(json.loads(out1)["certificate"], sort_keys=True)
    body2 = json.dumps(json.loads(out2)["certificate"], sort_keys=True)
    assert body1 == body2


def test_nogo_svd_failure_is_validation_error(capsys, tmp_path, rng, svd_fails_on_stacks):
    # the batched kernel's fallback svd fails on the grid stage's points,
    # which for a random full-rank state all reach LAPACK
    path = tmp_path / "random.json"
    path.write_text(json.dumps(density_matrix_to_dict(random_density_matrix(rng))))
    code, out, err = _run(capsys, ["nogo", "--state", str(path), "--restarts", "64"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "did not converge" in err


def test_nogo_budget_beyond_stage_cap_is_usage_error(capsys):
    # rejected before the grid or the random draws are allocated
    for argv in (["--grid-density", "100"], ["--restarts", "3000000000"]):
        code, out, err = _run(capsys, ["nogo", "--werner", "0.8", *argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "search stage" in err


def test_non_finite_state_file_is_validation_error(capsys, tmp_path):
    doc = density_matrix_to_dict(make_werner(0.8))
    doc["matrix"][0][1] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    for command in ("measure", "nogo"):
        code, out, err = _run(capsys, [command, "--state", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "non-finite" in err


def test_nogo_unentangled_input(capsys):
    code, _, err = _run(capsys, ["nogo", "--werner", "0.4"])
    assert code == 2
    assert "concurrence" in err


def test_normal_form_not_attained_is_validation_error(capsys, monkeypatch):
    def not_attained(rho, cfg):
        raise NotAttained("marginal residual 2.499e-04 after 2000 iterations")

    monkeypatch.setattr(nogo, "maximize_concurrence_gain", not_attained)
    code, _, err = _run(capsys, ["nogo", "--werner", "0.8"])
    assert code == 2
    assert "residual" in err


def test_sweep_default_grid(capsys):
    code, out, err = _run(capsys, ["sweep", "--grid-density", "24"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "F,max_scale_factor,t_worst_case,floor"
    assert len(lines) == 6  # 0.55 .. 0.95 step 0.1
    for line in lines[1:]:
        f, factor, t_worst, floor = (float(x) for x in line.split(","))
        assert factor <= 1.0 + 1e-12
        assert t_worst >= floor - 1e-12
    assert json.loads(err)["command"] == "sweep"


def test_sweep_single_point(capsys):
    code, out, _ = _run(capsys, ["sweep", "--f-min", "0.75", "--f-max", "0.75",
                                 "--f-step", "0.1", "--grid-density", "16"])
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_sweep_f_list_approaching_half(capsys):
    code, out, _ = _run(capsys, ["sweep", "--f-list", "0.51,0.501,0.5001",
                                 "--grid-density", "16"])
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        _, _, t_worst, floor = (float(x) for x in line.split(","))
        assert t_worst >= floor - 1e-12


def test_sweep_empty_or_malformed_f_list_is_usage_error(capsys):
    # an empty list is no list of numbers: it does not fall back to the
    # default grid
    for f_list in ("", "0.6,", "0.6,high"):
        code, out, err = _run(capsys, ["sweep", "--f-list", f_list, "--grid-density", "2"])
        assert (code, out) == (1, "")
        assert err.startswith("error: --f-list expects comma-separated numbers")


def test_sweep_invalid_grid(capsys):
    code, _, _ = _run(capsys, ["sweep", "--f-min", "0.9", "--f-max", "0.6",
                               "--f-step", "0.1"])
    assert code == 1


def test_sweep_non_finite_bounds_are_usage_errors(capsys):
    for flag, value in (("--f-min", "nan"), ("--f-max", "nan"), ("--f-step", "nan"),
                        ("--f-max", "inf"), ("--f-step", "inf"), ("--f-min", "-inf")):
        code, out, err = _run(capsys, ["sweep", f"{flag}={value}", "--grid-density", "8"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and flag in err


def test_sweep_beyond_its_caps_is_usage_error(capsys):
    # 4e8 fidelities, and a 1e15-point scale-factor grid: rejected before
    # either is built
    for argv in (["--f-step", "1e-9", "--grid-density", "8"], ["--f-step", "5e-324"],
                 ["--f-list", "0.8", "--grid-density", "100000"]):
        code, out, err = _run(capsys, ["sweep", *argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
    # the cap itself is accepted: 0.55..0.95 in MAX_SWEEP_FIDELITIES rows
    step = str(0.4 / (cli.MAX_SWEEP_FIDELITIES - 1))
    code, out, _ = _run(capsys, ["sweep", "--f-step", step, "--grid-density", "2"])
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + cli.MAX_SWEEP_FIDELITIES


def test_sweep_default_grid_is_the_library_default(capsys, monkeypatch):
    # `qlocc sweep` and scale_factor_grid share one default grid density
    grids, grid = [], nogo.scale_factor_grid
    monkeypatch.setattr(nogo, "scale_factor_grid", lambda *args: grids.append(args) or grid(*args))
    code, out, _ = _run(capsys, ["sweep", "--f-list", "0.75"])
    assert code == 0
    assert grids == [(0.75, nogo.SCALE_GRID_DENSITY)]
    row = grid(0.75)
    assert out.strip().split("\n")[1] == (
        f"{row.F!r},{row.max_factor!r},{row.t_worst_case!r},{row.floor!r}")


def test_sweep_f_list_beyond_the_cap_is_usage_error(capsys, monkeypatch):
    # the list is checked against the cap before any grid runs
    grids, grid = [], nogo.scale_factor_grid

    def counting(*args):
        grids.append(args)
        return grid(*args)

    monkeypatch.setattr(nogo, "scale_factor_grid", counting)
    code, out, err = _run(capsys, ["sweep", "--f-list", ",".join(["0.8"] * 10_001),
                                   "--grid-density", "2"])
    assert (code, out, grids) == (1, "", [])
    assert err.startswith("error: ") and "10001" in err
    monkeypatch.setattr(cli, "MAX_SWEEP_FIDELITIES", 3)
    code, out, _ = _run(capsys, ["sweep", "--f-list", "0.6,0.7,0.8", "--grid-density", "2"])
    assert code == 0 and len(out.strip().split("\n")) == 4 and len(grids) == 3
    code, out, err = _run(capsys, ["sweep", "--f-list", "0.6,0.7,0.8,0.9", "--grid-density", "2"])
    assert (code, out, len(grids)) == (1, "", 3)
    assert err.startswith("error: ")


def test_sweep_out_writes_manifest_sidecar(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = _run(capsys, ["sweep", "--f-list", "0.75", "--grid-density", "8",
                               "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()
    sidecar = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert sidecar["command"] == "sweep"
    assert sidecar["backend"] == qlocc.BACKEND
    assert set(sidecar["lapack"]) == {"name", "version"}
    assert sidecar["lapack"]["name"] != "unknown"


def test_collective_monotone_csv(capsys):
    code, out, _ = _run(capsys, ["collective", "--f0", "0.6", "--target", "0.9"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,F,F_prime,p_succ"
    fs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(x < y for x, y in zip(fs, fs[1:]))
    assert float(lines[-1].split(",")[2]) >= 0.9


def test_collective_header_only(capsys):
    code, out, _ = _run(capsys, ["collective", "--f0", "0.9", "--target", "0.9"])
    assert code == 0
    assert out == "step,F,F_prime,p_succ\n"


def test_collective_reaches_far_target(capsys):
    code, out, _ = _run(capsys, ["collective", "--f0", "0.55", "--target", "0.999",
                                 "--max-steps", "128"])
    assert code == 0
    assert float(out.strip().split("\n")[-1].split(",")[2]) >= 0.999


def test_collective_exhaustion_is_validation_error(capsys):
    code, _, err = _run(capsys, ["collective", "--f0", "0.55", "--target", "0.99",
                                 "--max-steps", "2"])
    assert code == 2
    assert "target" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = _run(capsys, ["measure", "--werner", "0.7", "--bogus"])
    assert code == 1


def test_measure_golden_output_is_stable(capsys):
    # identical invocations must produce identical report bytes
    _, out1, _ = _run(capsys, ["measure", "--werner", "0.75"])
    _, out2, _ = _run(capsys, ["measure", "--werner", "0.75"])
    body1 = json.dumps(json.loads(out1)["report"], sort_keys=True)
    body2 = json.dumps(json.loads(out2)["report"], sort_keys=True)
    assert body1 == body2
