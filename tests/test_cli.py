import json

import numpy as np

import qlocc
from qlocc import _kernels, cli, nogo
from qlocc.errors import NotAttained
from qlocc.states import density_matrix_to_dict, make_werner

MEASURE_REPORT_KEYS = {
    "fidelity",
    "lambda_spectrum",
    "concurrence",
    "entanglement_of_formation",
    "invariant_ratios",
    "pauli",
}


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


def test_measure_invalid_state_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[[1.0, 0.0]] * 4] * 4}))
    code, _, _ = _run(capsys, ["measure", "--state", str(path)])
    assert code == 2


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


def test_nogo_rerun_is_byte_identical(tmp_path, capsys):
    argv = ["nogo", "--werner", "0.8", "--restarts", "64", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    body1 = json.dumps(json.loads(out1)["certificate"], sort_keys=True)
    body2 = json.dumps(json.loads(out2)["certificate"], sort_keys=True)
    assert body1 == body2


def test_nogo_jacobi_sweep_cap_is_validation_error(capsys, monkeypatch):
    monkeypatch.setattr(_kernels, "JACOBI_MAX_SWEEPS", 1)
    code, _, err = _run(capsys, ["nogo", "--werner", "0.8", "--restarts", "64"])
    assert code == 2
    assert "sweeps" in err


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
