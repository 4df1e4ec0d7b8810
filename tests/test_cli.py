import json
import os
import subprocess
import sys

import numpy as np
import pytest

from skofbsde.cli import RunConfig, main

BASE = {
    "spec_version": 1,
    "measure": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "coefficients": {
        "G0": 0.0,
        "alpha": {"kind": "const", "value": 0.25},
        "beta": {"kind": "const", "value": 1.0},
        "beta_floor": 1.0,
    },
    "solver": {"nt": 64, "nx1": 65, "nx2": 33},
    "simulation": {"n_paths": 64, "n_steps": 256, "seed": 7},
    "embedding": {"n_steps": 256},
    "output_dir": "out",
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg and isinstance(cfg[key], dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_missing_config_file(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve", "--config", str(p)]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, typo_key=1)
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "typo_key" in err


def test_unknown_nested_key_rejected(tmp_path):
    cfg = write_config(tmp_path, solver={"mt": 12})
    assert main(["solve", "--config", cfg]) == 1


def test_wrong_spec_version(tmp_path):
    cfg = write_config(tmp_path, spec_version=2)
    assert main(["solve", "--config", cfg]) == 1


def test_solve_embed_verify_chain(tmp_path, capsys):
    out = str(tmp_path / "run")
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "field.csv"))
    assert os.path.exists(os.path.join(out, "field.json"))
    assert main(["embed", "--config", cfg, "--out", out,
                 "--field", os.path.join(out, "field.csv")]) == 0
    assert os.path.exists(os.path.join(out, "embedding.csv"))
    assert os.path.exists(os.path.join(out, "law_report.json"))
    assert main(["verify", "--config", cfg, "--out", out,
                 "--results", os.path.join(out, "embedding.csv")]) == 0
    report = json.loads((tmp_path / "run" / "law_report.json").read_text())
    assert report["law_strong"]["n"] == 64
    assert "guard_counts" in report
    capsys.readouterr()


def test_all_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["all", "--config", cfg, "--out", out1]) == 0
    assert main(["all", "--config", cfg, "--out", out2]) == 0
    capsys.readouterr()
    for name in ("field.csv", "field.json", "embedding.csv",
                 "law_report.json", "verify_report.json", "stopped_hist.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_seed_changes_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["all", "--config", cfg, "--out", out1, "--seed", "1"]) == 0
    assert main(["all", "--config", cfg, "--out", out2, "--seed", "2"]) == 0
    capsys.readouterr()
    a = open(os.path.join(out1, "embedding.csv"), "rb").read()
    b = open(os.path.join(out2, "embedding.csv"), "rb").read()
    assert a != b


def test_verify_detects_corruption(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "v")
    assert main(["all", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "embedding.csv")).read().splitlines()
    head, body = rows[0], rows[1:]
    shifted = [head]
    for row in body:
        parts = row.split(",")
        parts[3] = repr(float(parts[3]) + 0.4)
        shifted.append(",".join(parts))
    bad = os.path.join(out, "corrupted.csv")
    with open(bad, "w") as fh:
        fh.write("\n".join(shifted) + "\n")
    assert main(["verify", "--config", cfg, "--out", out, "--results", bad]) == 2
    capsys.readouterr()


def test_dump_paths(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "d")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert main(["embed", "--config", cfg, "--out", out,
                 "--field", os.path.join(out, "field.csv"),
                 "--dump-paths", "3"]) == 0
    capsys.readouterr()
    files = sorted(os.listdir(os.path.join(out, "paths")))
    assert len(files) == 3
    header = open(os.path.join(out, "paths", files[0])).readline().strip()
    assert header == "t,W,X1,X2,Y,Z"


def test_empirical_measure_cannot_be_solved(tmp_path, capsys):
    cfg = write_config(
        tmp_path, measure={"kind": "empirical",
                           "samples": list(np.linspace(0, 1, 40))})
    # remove uniform-only keys
    raw = json.loads(open(cfg).read())
    raw["measure"] = {"kind": "empirical",
                      "samples": list(np.linspace(0, 1, 40))}
    open(cfg, "w").write(json.dumps(raw))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "e")]) == 3
    assert "solver error" in capsys.readouterr().err


def test_field_config_mismatch(tmp_path, capsys):
    cfg_u = write_config(tmp_path, "u.json")
    out = str(tmp_path / "m")
    assert main(["solve", "--config", cfg_u, "--out", out]) == 0
    cfg_n = write_config(tmp_path, "n.json",
                         measure={"kind": "normal", "mu": 0.0, "sigma": 1.0})
    raw = json.loads(open(cfg_n).read())
    raw["measure"] = {"kind": "normal", "mu": 0.0, "sigma": 1.0}
    open(cfg_n, "w").write(json.dumps(raw))
    assert main(["embed", "--config", cfg_n, "--out", out,
                 "--field", os.path.join(out, "field.csv")]) == 1
    capsys.readouterr()


def test_table_coefficients_from_csv(tmp_path):
    table = tmp_path / "beta.csv"
    table.write_text("0.0,1.0\n1.0,1.0\n2.0,1.0\n")
    cfg = write_config(tmp_path, coefficients={
        "G0": 0.0,
        "alpha": {"kind": "const", "value": 0.1},
        "beta": {"kind": "table", "csv": str(table)},
        "beta_floor": 1.0,
    })
    rc = RunConfig.from_file(cfg)
    # beta == 1 from the table, so H is the identity on [0, T_phys]
    half = rc.coefficients.t_phys * 0.5
    assert rc.coefficients.clock_H(half) == pytest.approx(half, abs=1e-9)


def test_piecewise_measure_config(tmp_path):
    cfg = write_config(tmp_path)
    raw = json.loads(open(cfg).read())
    raw["measure"] = {"kind": "piecewise_cdf", "xs": [0.0, 0.5, 1.0],
                      "Fs": [0.0, 0.6, 1.0]}
    open(cfg, "w").write(json.dumps(raw))
    rc = RunConfig.from_file(cfg)
    assert rc.measure.kind == "piecewise_cdf"
    assert rc.g.lipschitz > 0


def test_shipped_example_configs_parse():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("normal_nodrift.json", "uniform_lineardrift.json",
                 "normal_sindrift.json", "smoke_small.json"):
        rc = RunConfig.from_file(os.path.join(root, name))
        assert rc.solver.T == 1.0


def _bad_table_cell(tmp_path, cfg, field_dir):
    table = tmp_path / "beta.csv"
    table.write_text("0.0,1.0\n1.0,one\n2.0,1.0\n")
    bad = write_config(tmp_path, "table.json", coefficients={
        "G0": 0.0,
        "alpha": {"kind": "const", "value": 0.1},
        "beta": {"kind": "table", "csv": str(table)},
        "beta_floor": 1.0,
    })
    return ["solve", "--config", bad, "--out", str(tmp_path / "t")]


def _empty_table_csv(tmp_path, cfg, field_dir):
    table = tmp_path / "beta.csv"
    table.write_text("")
    bad = write_config(tmp_path, "table.json", coefficients={
        "G0": 0.0,
        "alpha": {"kind": "const", "value": 0.1},
        "beta": {"kind": "table", "csv": str(table)},
        "beta_floor": 1.0,
    })
    return ["solve", "--config", bad, "--out", str(tmp_path / "t")]


def _empty_empirical_csv(tmp_path, cfg, field_dir):
    samples = tmp_path / "samples.csv"
    samples.write_text("")
    raw = json.loads(open(cfg).read())
    raw["measure"] = {"kind": "empirical", "csv": str(samples)}
    bad = tmp_path / "empirical.json"
    bad.write_text(json.dumps(raw))
    return ["solve", "--config", str(bad), "--out", str(tmp_path / "e")]


def _truncated_field(tmp_path, cfg, field_dir):
    path = field_dir / "field.csv"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    return ["embed", "--config", cfg, "--out", str(field_dir),
            "--field", str(path)]


def _wrong_row_count(tmp_path, cfg, field_dir):
    path = field_dir / "field.csv"
    rows = path.read_text().splitlines(keepends=True)
    path.write_text("".join(rows[:-1]))
    return ["embed", "--config", cfg, "--out", str(field_dir),
            "--field", str(path)]


def _version_1_sidecar(tmp_path, cfg, field_dir):
    side = field_dir / "field.json"
    meta = json.loads(side.read_text())
    meta["version"] = 1
    side.write_text(json.dumps(meta))
    return ["embed", "--config", cfg, "--out", str(field_dir),
            "--field", str(field_dir / "field.csv")]


def _zero_paths(tmp_path, cfg, field_dir):
    return ["embed", "--config", cfg, "--out", str(field_dir),
            "--field", str(field_dir / "field.csv"), "--paths", "0"]


def _bad_results_cell(tmp_path, cfg, field_dir):
    results = tmp_path / "results.csv"
    results.write_text("seed,tau_weak,tau_strong,stopped_value\n"
                       "0,0.1,0.1,0.5\n1,0.1,0.1,half\n")
    return ["verify", "--config", cfg, "--out", str(field_dir),
            "--results", str(results)]


def _negative_seed(tmp_path, cfg, field_dir):
    return ["embed", "--config", cfg, "--out", str(field_dir),
            "--field", str(field_dir / "field.csv"), "--seed", "-5"]


def _solve_with(name, **overrides):
    def breaker(tmp_path, cfg, field_dir):
        bad = write_config(tmp_path, "bad.json", **overrides)
        return ["solve", "--config", bad, "--out", str(tmp_path / "b")]
    breaker.__name__ = name     # the test id
    return breaker


_nan_G0 = _solve_with("_nan_G0", coefficients={"G0": float("nan")})
_nan_beta_floor = _solve_with("_nan_beta_floor",
                              coefficients={"beta_floor": float("nan")})
_bool_n_paths = _solve_with("_bool_n_paths", simulation={"n_paths": True})
_nan_fixpoint_tol = _solve_with("_nan_fixpoint_tol",
                                solver={"fixpoint_tol": float("nan")})
_uniform_lo_above_hi = _solve_with(
    "_uniform_lo_above_hi", measure={"kind": "uniform", "lo": 2.0, "hi": 1.0})
_normal_negative_sigma = _solve_with(
    "_normal_negative_sigma",
    measure={"kind": "normal", "mu": 0.0, "sigma": -1.0})
_normal_nan_mu = _solve_with(
    "_normal_nan_mu",
    measure={"kind": "normal", "mu": float("nan"), "sigma": 1.0})
_piecewise_nan_x = _solve_with(
    "_piecewise_nan_x", measure={"kind": "piecewise_cdf",
                                 "xs": [0.0, float("nan"), 2.0],
                                 "Fs": [0.0, 0.5, 1.0]})
_text_in_samples = _solve_with(
    "_text_in_samples", measure={"kind": "empirical", "samples": [1, "x", 3]})


@pytest.mark.parametrize("breaker", [
    _bad_table_cell, _empty_table_csv, _empty_empirical_csv, _truncated_field,
    _wrong_row_count, _version_1_sidecar, _zero_paths, _bad_results_cell,
    _negative_seed, _nan_G0, _nan_beta_floor, _bool_n_paths, _nan_fixpoint_tol,
    _uniform_lo_above_hi, _normal_negative_sigma, _normal_nan_mu,
    _piecewise_nan_x, _text_in_samples])
def test_malformed_input_exits_1(tmp_path, capsys, breaker):
    cfg = write_config(tmp_path)
    field_dir = tmp_path / "f"
    assert main(["solve", "--config", cfg, "--out", str(field_dir)]) == 0
    capsys.readouterr()
    argv = breaker(tmp_path, cfg, field_dir)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "skofbsde.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    if breaker is _version_1_sidecar:
        assert "re-run skofbsde solve" in lines[0]
