import json
import math

import numpy as np
import pytest

from ctqmc.channels import eigenbasis, superop_of
from ctqmc.cli import main
from ctqmc.generators import BlockTridiagonalOperator, Geometry
from ctqmc.kernels import KernelRequest
from ctqmc.presets import depolarizing


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "channel": {"preset": "depolarizing", "s": 1.0 / 3.0},
    "geometry": {"kind": "half_line", "left_boundary": "absorbing"},
    "density": {"preset": "E11"},
    "goal": {"psi": [[0.5, 0.0], [math.sqrt(3.0) / 2.0, 0.0]]},
    "sites": {"i": 1, "j": 0},
    "time_grid": {"start": 0.0, "stop": 2.0, "points": 5},
}


def test_channel_inspect_lambdas(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["--config", cfg, "channel-inspect"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["is_pq"] is True
    assert report["is_hermitian"] is True
    lams = sorted(report["lambdas"])
    assert lams == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.5])


def test_channel_inspect_non_pq(tmp_path, capsys):
    cfg = write_config(tmp_path, {"channel": {"preset": "segment_example"}})
    assert main(["--config", cfg, "channel-inspect"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["is_pq"] is False
    assert report["is_hermitian"] is True


def test_prob_csv_deterministic(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["--config", cfg, "--output", str(out), "prob",
                     "--mode", "state"]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().split("\n")
    assert lines[0] == "t,value"
    assert lines[1] == "0,0"  # no mass at i != j initially
    assert b1.endswith(b"\n")


def test_prob_site_json(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["--config", cfg, "--format", "json", "prob"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["config"]["channel"]["preset"] == "depolarizing"
    assert doc["series"][0]["t"] == 0.0
    assert all(0.0 <= row["value"] <= 1.0 for row in doc["series"])


def test_recurrence_command(tmp_path, capsys):
    doc = dict(BASE, sites={"i": 3, "j": 0})
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "--format", "json", "recurrence"]) == 0
    series = json.loads(capsys.readouterr().out)["series"][0]
    assert series["classification"] == "transient"
    assert series["integral"] == pytest.approx(8.0, abs=1e-10)


def test_optimize_command(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE, time_grid={"start": 1.0, "stop": 1.0,
                                                       "points": 1}))
    assert main(["--config", cfg, "--format", "json", "optimize"]) == 0
    row = json.loads(capsys.readouterr().out)["series"][0]
    assert row["value_plus"] >= row["value_minus"]
    # depolarizing: optimum is the goal projector, Bloch (-1/2, sqrt(3)/2, 0)
    assert row["x_plus"] == pytest.approx(-0.5, abs=1e-12)
    assert row["y_plus"] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_optimize_prints_no_negative_zero(tmp_path, capsys, fmt):
    # The antipode of |0> has y = z = -0.0, which must print as 0.
    doc = dict(BASE, goal={"psi": [1.0, 0.0]}, sites={"i": 1, "j": 1},
               time_grid={"start": 1.0, "stop": 1.0, "points": 1})
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "--format", fmt, "optimize"]) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        assert out.splitlines()[1].split(",")[6:9] == ["-1", "0", "0"]
    else:
        row = json.loads(out)["series"][0]
        assert [math.copysign(1.0, row[k]) for k in ("y_minus", "z_minus")] == [
            1.0, 1.0]


def test_measure_command_atoms(tmp_path, capsys):
    doc = {"geometry": {"kind": "segment", "sites": 3}, "lambda": 0.3}
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "--format", "json", "measure"]) == 0
    series = json.loads(capsys.readouterr().out)["series"]
    assert len(series) == 3
    assert sum(row["weight"] for row in series) == pytest.approx(1.0, abs=1e-14)


def test_figure_fig1_endpoints(tmp_path, capsys):
    cfg = write_config(tmp_path, {"time_grid": {"start": 0.0, "stop": 1.0,
                                                "points": 2}})
    assert main(["--config", cfg, "--format", "json", "figure",
                 "--name", "fig1"]) == 0
    first = json.loads(capsys.readouterr().out)["series"][0]
    assert first["rho_plus"] == pytest.approx(1.0, abs=1e-12)
    assert first["rho_minus"] == pytest.approx(0.0, abs=1e-12)
    assert first["E11"] == pytest.approx(0.25, abs=1e-12)
    assert first["E22"] == pytest.approx(0.75, abs=1e-12)
    assert first["uniform_plus"] == pytest.approx(0.5 + math.sqrt(3.0) / 4.0,
                                                  abs=1e-12)


def test_figure_fig3_ordering(tmp_path, capsys):
    cfg = write_config(tmp_path, {"time_grid": {"start": 0.1, "stop": 5.0,
                                                "points": 20}})
    assert main(["--config", cfg, "--format", "json", "figure",
                 "--name", "fig3"]) == 0
    for row in json.loads(capsys.readouterr().out)["series"]:
        assert row["reflecting"] > row["line"] > row["absorbing"]


def test_oracle_compare_passes(tmp_path, capsys):
    doc = dict(BASE, time_grid={"start": 0.5, "stop": 2.0, "points": 2},
               max_site=2)
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "--format", "json", "--truncation", "120",
                 "oracle-compare"]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["max_abs_error_expm"] <= 1e-8
    assert meta["max_abs_error_quadrature"] <= 1e-10


def test_oracle_compare_never_forms_the_dense_generator(tmp_path, capsys,
                                                        monkeypatch):
    def unavailable(self):
        raise AssertionError("oracle-compare formed the dense generator")

    monkeypatch.setattr(BlockTridiagonalOperator, "dense", unavailable)
    for geometry in ({"kind": "line"}, BASE["geometry"],
                     {"kind": "segment", "sites": 4}):
        doc = dict(BASE, geometry=geometry, max_site=2,
                   time_grid={"start": 0.5, "stop": 2.0, "points": 2})
        cfg = write_config(tmp_path, doc)
        assert main(["--config", cfg, "--truncation", "120", "oracle-compare"]) == 0
    capsys.readouterr()


def test_validation_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"channel": {"preset": "nonsense"}})
    assert main(["--config", cfg, "channel-inspect"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lambda_rounding_accepted(tmp_path, capsys):
    # For some strengths the eigensolver lands the eigenvalue 1/2 one ulp
    # above it; every such channel must still run.
    for s in np.linspace(0.30, 0.36, 601):
        basis = eigenbasis(superop_of(depolarizing(float(s))))
        assert np.abs(basis.lambdas).max() <= 0.5
        for lam in basis.lambdas:
            KernelRequest(geometry=Geometry.half_line("absorbing"), lam=float(lam),
                          i=1, j=0, t=1.0)
    cfg = write_config(tmp_path, dict(BASE, channel={"preset": "depolarizing",
                                                     "s": 0.3053}))
    assert main(["--config", cfg, "prob"]) == 0
    assert capsys.readouterr().out.startswith("t,value\n")


SEGMENT_NO_SITES = {"kind": "segment", "left_boundary": "absorbing"}
MEASURE = {"geometry": {"kind": "half_line", "left_boundary": "absorbing"},
           "lambda": 0.3}
# case -> (config, subcommand argv, text the error line must contain)
INVALID = {
    "bad_json": (BASE, ["prob"], ""),
    "missing_config": (BASE, ["prob"], ""),
    "wrong_type": (dict(BASE, channel={"preset": "depolarizing", "s": "abc"}),
                   ["prob"], ""),
    "unwritable_output": (BASE, ["prob"], ""),
    "overflow": (dict(BASE, geometry={"kind": "line"},
                      time_grid={"start": 800.0, "stop": 800.0, "points": 1}),
                 ["prob"], ""),
    "missing_sites": ({k: v for k, v in BASE.items() if k != "sites"},
                      ["prob"], "missing field 'sites.i'"),
    "missing_site_j": (dict(BASE, sites={"i": 1}), ["optimize"],
                       "missing field 'sites.j'"),
    "missing_segment_sites": (dict(BASE, geometry=SEGMENT_NO_SITES), ["prob"],
                              "missing field 'geometry.sites'"),
    "missing_pq_r": (dict(BASE, channel={"preset": "pq", "p": 0.2, "q": 0.1}),
                     ["prob"], "missing field 'channel.r'"),
    "measure_samples_0": (dict(MEASURE, samples=0), ["measure"], "samples"),
    "measure_samples_1": (dict(MEASURE, samples=1), ["measure"], "samples"),
    "measure_samples_2": (dict(MEASURE, samples=2), ["measure"], "samples"),
    "truncation_0": (BASE, ["--truncation", "0", "oracle-compare"],
                     "truncation must be >= 2"),
    "truncation_1": (BASE, ["--truncation", "1", "oracle-compare"],
                     "truncation must be >= 2"),
    "truncation_0_segment": (dict(BASE, geometry={"kind": "segment", "sites": 4},
                                  sites={"i": 0, "j": 0}),
                             ["--truncation", "0", "oracle-compare"],
                             "truncation must be >= 2"),
    # The first (t, j) pair whose flow leaves the window names itself.
    "truncation_30_window": (
        dict(BASE, time_grid={"start": 0.5, "stop": 10.0, "points": 5}, max_site=5),
        ["--truncation", "30", "oracle-compare"],
        "truncation 30 too small: site 1 with horizon t=0.5 needs a window "
        "through site 30"),
    "max_site_negative": (dict(BASE, max_site=-1), ["oracle-compare"],
                          "max_site must be >= 0"),
    "config_not_object": ([1], ["figure", "--name", "fig1"],
                          "config must be an object, got list"),
    "sites_not_object": (dict(BASE, sites=5), ["prob"],
                         "field 'sites' must be an object, got int"),
    "geometry_not_object": (dict(BASE, geometry="line"), ["prob"],
                            "field 'geometry' must be an object, got str"),
}


@pytest.mark.parametrize("case", list(INVALID))
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, case):
    doc, command, message = INVALID[case]
    cfg = write_config(tmp_path, doc)
    if case == "bad_json":
        (tmp_path / "config.json").write_text('{"channel": {"preset": ')
    elif case == "missing_config":
        cfg = str(tmp_path / "absent.json")
    argv = ["--config", cfg] + command
    if case == "unwritable_output":
        argv = ["--output", str(tmp_path / "no_such_dir" / "out.csv")] + argv
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]
