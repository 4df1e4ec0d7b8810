import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from skofbsde import embed as embed_mod
from skofbsde import fbsde as fbsde_mod
from skofbsde.cli import RunConfig, main
from skofbsde.fbsde import simulate_block
from skofbsde.field import load_field

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
    # a measure override replaces the whole spec (its keys depend on its
    # kind); other sections are merged key by key
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict) \
                and key != "measure":
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
    assert os.path.exists(os.path.join(out, "field.npy"))
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


def test_embed_never_reads_field_csv(tmp_path, capsys):
    # embed reads field.json and field.npy by the stem of --field: with the
    # CSV export deleted it runs, and writes the same bytes as beside it
    cfg = write_config(tmp_path)
    field_dir = tmp_path / "f"
    assert main(["solve", "--config", cfg, "--out", str(field_dir)]) == 0
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("field.json", "field.npy"):
        shutil.copy(field_dir / name, bare / name)
    outs = []
    for d in (field_dir, bare):
        outs.append(tmp_path / f"embed_{d.name}")
        assert main(["embed", "--config", cfg, "--out", str(outs[-1]),
                     "--field", str(d / "field.csv"), "--dump-paths", "3"]) == 0
    capsys.readouterr()
    assert not (bare / "field.csv").exists()
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                   if p.is_file())
    assert len(files) == 6
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                           if p.is_file())
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_all_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["all", "--config", cfg, "--out", out1]) == 0
    assert main(["all", "--config", cfg, "--out", out2]) == 0
    capsys.readouterr()
    for name in ("field.csv", "field.json", "field.npy", "embedding.csv",
                 "law_report.json", "verify_report.json", "stopped_hist.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_guard_fired_exits_4(tmp_path, capsys, monkeypatch):
    # the r-grid ends far below the stopping times: the guard stops every
    # late path, the per-path results are still written and the run exits 4
    limits = embed_mod.strong_limits

    def short_grid(g_lipschitz, coeffs, n_steps=None):
        bound, _, K2, _ = limits(g_lipschitz, coeffs)
        return bound, 0.05, K2, None if n_steps is None else 0.05 / n_steps

    monkeypatch.setattr(embed_mod, "strong_limits", short_grid)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, embedding={"n_steps": 256})
    assert main(["all", "--config", cfg, "--out", str(out)]) == 4
    assert "localization guards fired" in capsys.readouterr().err
    report = json.loads((out / "law_report.json").read_text())
    assert report["guard_counts"]["K1"] > 0
    assert report["tau_strong_max"] == 0.05
    assert (out / "embedding.csv").exists()


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


def test_dump_paths(tmp_path, capsys, monkeypatch):
    # each dumped file is the repr text of the simulated path, for 3 paths
    # in one block and for 5 paths in blocks patched to 2: no call of
    # simulate_block gets more paths than a block
    cfg = write_config(tmp_path)
    out = str(tmp_path / "d")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    rc = RunConfig(json.loads(open(cfg).read()), base_dir=str(tmp_path))
    f = load_field(os.path.join(out, "field.npy"))
    calls = []

    def spy(f, base_seed, indices, n_steps):
        calls.append(len(indices))
        return simulate_block(f, base_seed, indices, n_steps)

    monkeypatch.setattr(fbsde_mod, "simulate_block", spy)
    for count, block in ((3, embed_mod._DUMP_BLOCK), (5, 2)):
        monkeypatch.setattr(embed_mod, "_DUMP_BLOCK", block)
        calls.clear()
        dump = str(tmp_path / f"dump{count}")
        assert main(["embed", "--config", cfg, "--out", dump,
                     "--field", os.path.join(out, "field.csv"),
                     "--dump-paths", str(count)]) == 0
        capsys.readouterr()
        assert sum(calls) == count and max(calls) <= block, calls
        files = sorted(os.listdir(os.path.join(dump, "paths")))
        assert len(files) == count
        header = open(os.path.join(dump, "paths", files[0])).readline()
        assert header.strip() == "t,W,X1,X2,Y,Z"
        for p in simulate_block(f, rc.seed, range(count), rc.n_steps):
            rows = zip(p.t_grid, p.W, p.X1, p.X2, p.Y, p.Z)
            want = "t,W,X1,X2,Y,Z\n" + "".join(
                ",".join(repr(float(v)) for v in row) + "\n" for row in rows)
            name = os.path.join(dump, "paths", f"path_{p.seed:020d}.csv")
            assert open(name).read() == want, name
    assert calls == [2, 2, 1]


def test_empirical_measure_cannot_be_solved(tmp_path, capsys):
    cfg = write_config(
        tmp_path, measure={"kind": "empirical",
                           "samples": list(np.linspace(0, 1, 40))})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "e")]) == 3
    assert "solver error" in capsys.readouterr().err


def _results_csv(path, m, n=1000):
    # a results file whose stopped values are n evenly spread quantiles of m
    values = np.asarray(m.quantile((np.arange(n) + 0.5) / n))
    with open(path, "w") as fh:
        fh.write("seed,tau_weak,tau_strong,stopped_value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},0.1,0.1,{float(v)!r}\n")
    return str(path)


@pytest.mark.parametrize("n", [3, 5, 8, 17, 40])
def test_empirical_law_verifies_but_is_not_solved(tmp_path, capsys,
                                                  solved_field, n):
    from skofbsde.measure import TargetMeasure
    samples = list(np.linspace(0, 1, n))
    cfg = write_config(tmp_path, measure={"kind": "empirical",
                                          "samples": samples})
    res = _results_csv(tmp_path / "res.csv", TargetMeasure.empirical(samples))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"),
                 "--results", res]) == 0
    capsys.readouterr()
    for argv in (["solve"], ["all"],
                 ["embed", "--field", str(solved_field / "field.csv")]):
        out = str(tmp_path / argv[0])
        assert main([*argv, "--config", cfg, "--out", out]) == 3, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver error:"), lines
        assert "Lipschitz" in lines[0]
        assert not os.path.exists(out)


def test_piecewise_law_with_a_gap_is_not_solved(tmp_path, capsys):
    cfg = write_config(tmp_path, measure={"kind": "piecewise_cdf",
                                          "xs": [0, 1, 2, 3],
                                          "Fs": [0, 0.5, 0.5, 1]})
    out = str(tmp_path / "g")
    assert main(["solve", "--config", cfg, "--out", out]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "no finite Lipschitz constant" in lines[0]
    assert not os.path.exists(out)


@pytest.mark.parametrize("measure", [
    {"kind": "empirical", "samples": [0, 0, 0, 1]},
    {"kind": "piecewise_cdf", "xs": [0, 1], "Fs": [0.8, 1]},
    {"kind": "empirical", "samples": [0, 1]},
    {"kind": "piecewise_cdf", "xs": [0, 1], "Fs": [0.5, 1]}],
    ids=["empirical_atom", "piecewise_atom", "empirical_two_atoms",
         "piecewise_half_atom"])
def test_laws_with_atoms_verify(tmp_path, capsys, measure):
    # one atom covering the quartiles is no point mass, and KS reads the
    # left limit at an atom: a sample of the law passes
    cfg = write_config(tmp_path, measure=measure)
    m = RunConfig.from_file(cfg).measure
    res = _results_csv(tmp_path / "res.csv", m, n=10_000)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"),
                 "--results", res]) == 0
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["ks"] <= 1e-4


def test_verify_builds_no_coefficients_and_loads_no_scipy(tmp_path):
    res = tmp_path / "res.csv"
    res.write_text("seed,tau_weak,tau_strong,stopped_value\n"
                   + "".join(f"{i},0.1,0.1,{(i + 0.5) / 200!r}\n"
                             for i in range(200)))
    code = (
        "import sys\n"
        "from skofbsde import cli, coeffs\n"
        "calls = []\n"
        "init = coeffs.ProcessCoefficients.__init__\n"
        "def spy(self, *args, **kwargs):\n"
        "    calls.append(args)\n"
        "    init(self, *args, **kwargs)\n"
        "coeffs.ProcessCoefficients.__init__ = spy\n"
        f"argv = ['verify', '--config', {write_config(tmp_path)!r},\n"
        f"        '--out', {str(tmp_path / 'v')!r}, '--results', {str(res)!r}]\n"
        "assert cli.main(argv) == 0\n"
        "assert not calls, 'verify built the coefficients'\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
        # the spy does see the build that a solve would make
        "cli.RunConfig.from_file(argv[2]).delta\n"
        "assert len(calls) == 1\n"
    )
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=root,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_field_config_mismatch(tmp_path, capsys):
    cfg_u = write_config(tmp_path, "u.json")
    out = str(tmp_path / "m")
    assert main(["solve", "--config", cfg_u, "--out", out]) == 0
    # the normal law's L_g of 1 needs 1050 strong steps or more
    cfg_n = write_config(tmp_path, "n.json",
                         measure={"kind": "normal", "mu": 0.0, "sigma": 1.0},
                         embedding={"n_steps": 2048})
    assert main(["embed", "--config", cfg_n, "--out", out,
                 "--field", os.path.join(out, "field.csv")]) == 1
    # the other way round the field's x2 grid (up to 1.05 L_g^2 of the
    # normal law) lies beyond the uniform law's clock: still a config error
    out_n = str(tmp_path / "n")
    assert main(["solve", "--config", cfg_n, "--out", out_n]) == 0
    capsys.readouterr()
    assert main(["embed", "--config", cfg_u, "--out", out_n,
                 "--field", os.path.join(out_n, "field.csv")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines


def test_field_for_another_drift_rejected(tmp_path, capsys):
    # same law, so the same L_g and T, but another delayed drift: the
    # terminal layer g(x1) - delta(x2) of the field differs
    out = str(tmp_path / "d")
    assert main(["solve", "--config", write_config(tmp_path, "a.json"),
                 "--out", out]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path, "b.json", coefficients={
        "G0": 0.3, "alpha": {"kind": "const", "value": 1.0}})
    # a refused embed leaves no output directory behind
    new_out = str(tmp_path / "new")
    assert main(["embed", "--config", cfg, "--out", new_out,
                 "--field", os.path.join(out, "field.csv")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert not os.path.exists(new_out)


def test_contraction_failure_names_the_grid(tmp_path, capsys):
    # a strong constant drift on a coarse time grid: the per-step fixed
    # point does not contract, and the message names nt and the remedy
    # (the law's L_g of 0.80 needs 426 strong steps or more)
    cfg = write_config(tmp_path, measure={"kind": "uniform", "lo": 0.0,
                                          "hi": 2.0},
                       coefficients={"alpha": {"kind": "const",
                                               "value": 16.0}},
                       embedding={"n_steps": 512})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "c")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error:"), lines
    assert "nt = 64" in lines[0] and "raise solver.nt" in lines[0]
    # the output directory is made only for a field that is saved
    assert not os.path.exists(tmp_path / "c")


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


def test_relative_csv_paths_resolve_beside_the_config(tmp_path, capsys,
                                                      monkeypatch):
    # every relative path of a config (each csv and output_dir) is taken
    # from the config file's directory, whatever the working directory
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    (cfg_dir / "beta.csv").write_text("0.0,1.0\n1.0,1.0\n2.0,1.0\n")
    (cfg_dir / "samples.csv").write_text("0.1\n0.4\n0.7\n")
    table = write_config(cfg_dir, "table.json", coefficients={
        "beta": {"kind": "table", "csv": "beta.csv"}})
    empirical = write_config(cfg_dir, "empirical.json", measure={
        "kind": "empirical", "csv": "samples.csv"})
    for cwd in (cfg_dir, tmp_path):
        monkeypatch.chdir(cwd)
        assert main(["solve", "--config", table]) == 0, cwd
        assert (cfg_dir / "out" / "field.npy").exists()
        shutil.rmtree(cfg_dir / "out")
        rc = RunConfig.from_file(empirical)
        assert rc.measure.kind == "empirical"
        assert rc.measure.mean == pytest.approx(0.4, abs=1e-15)
    capsys.readouterr()


def test_empty_solver_section_takes_the_defaults():
    from dataclasses import fields, replace
    from skofbsde.field import SolverConfig
    raw = json.loads(json.dumps(BASE))
    raw["solver"] = {}
    rc = RunConfig(raw)
    L_g = rc.g.lipschitz
    assert rc.solver == SolverConfig.defaults(L_g)
    assert rc.solver.x2_hi == 1.05 * L_g**2
    # each key overrides its field, and only it
    values = {"nt": 300, "nx1": 101, "nx2": 65, "x1_lo": -5, "x1_hi": 5.5,
              "x2_hi": 2.0}
    assert set(values) == {f.name for f in fields(SolverConfig)}
    for key, value in values.items():
        raw["solver"] = {key: value}
        want = replace(SolverConfig.defaults(L_g), **{key: value})
        assert RunConfig(raw).solver == want, key
        assert want != SolverConfig.defaults(L_g), key


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
    # solver and coefficients are built on first read: read them
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("normal_nodrift.json", "uniform_lineardrift.json",
                 "normal_sindrift.json", "smoke_small.json",
                 "uniform_timevarying_beta.json"):
        rc = RunConfig.from_file(os.path.join(root, name))
        assert rc.coefficients.t_phys > 0.0
        rc.solver.validate(rc.g.lipschitz)


def test_x2_box_sets_the_clock_horizon(tmp_path, capsys):
    # the clock's horizon solves H(T_phys) = solver.x2_hi, so a wider box
    # than the default 1.05 L_g^2 is inside the clock
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    raw = json.loads(open(os.path.join(root, "smoke_small.json")).read())
    raw["solver"]["x2_hi"] = 0.2
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["embed", "--config", str(cfg), "--out", str(out),
                 "--field", str(out / "field.csv")]) == 0
    capsys.readouterr()
    bound = json.loads((out / "law_report.json").read_text())["tau_bound"]
    taus = np.loadtxt(out / "embedding.csv", delimiter=",", skiprows=1)[:, 1:3]
    assert taus.shape == (200, 2) and np.all(taus <= bound + 1e-9)


def test_time_varying_beta_runs(tmp_path, capsys):
    # beta = 1 + 0.5 s: the clock's table fell short of x2_hi by 1e-9
    # (relative), and `all` exited 4 before the solve
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    out = tmp_path / "run"
    assert main(["all", "--config",
                 os.path.join(root, "uniform_timevarying_beta.json"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    law = json.loads((out / "law_report.json").read_text())
    assert law["law_strong"]["ks_passed"] and law["law_weak"]["ks_passed"]
    assert law["guard_counts"] == {"K1": 0, "K2": 0}


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


def _empirical_csv_and_samples(tmp_path, cfg, field_dir):
    samples = tmp_path / "samples.csv"
    samples.write_text("0.1\n0.4\n0.7\n")
    raw = json.loads(open(cfg).read())
    raw["measure"] = {"kind": "empirical", "csv": str(samples),
                      "samples": [5, 6, 7, 8]}
    bad = tmp_path / "empirical.json"
    bad.write_text(json.dumps(raw))
    return ["solve", "--config", str(bad), "--out", str(tmp_path / "e")]


def _field_array(name, edit):
    """A case that rewrites ``field.npy`` through ``edit(path, u)``; the
    embed names ``field.csv``, as the CLI chain does."""
    def breaker(tmp_path, cfg, field_dir):
        path = field_dir / "field.npy"
        edit(path, np.load(path))
        return ["embed", "--config", cfg, "--out", str(tmp_path / "new"),
                "--field", str(field_dir / "field.csv")]
    breaker.__name__ = name     # the test id
    return breaker


def _truncate(path, u):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _with_nan(path, u):
    # one NaN in an interior layer of u: refused before any output is made
    u[u.shape[0] // 2, u.shape[1] // 2, u.shape[2] // 2] = np.nan
    np.save(path, u)


def _as_npz(path, u):
    with open(path, "wb") as fh:
        np.savez(fh, u=u)


_truncated_field = _field_array("_truncated_field", _truncate)
# one x1 row fewer in every time layer
_wrong_row_count = _field_array(
    "_wrong_row_count", lambda path, u: np.save(path, u[:, :-1]))
_nan_in_field = _field_array("_nan_in_field", _with_nan)
_npy_missing = _field_array("_npy_missing", lambda path, u: path.unlink())
_float32_field = _field_array(
    "_float32_field", lambda path, u: np.save(path, u.astype(np.float32)))
_fortran_field = _field_array(
    "_fortran_field", lambda path, u: np.save(path, np.asfortranarray(u)))
_pickled_field = _field_array(
    "_pickled_field",
    lambda path, u: np.save(path, u.astype(object), allow_pickle=True))
_npz_field = _field_array("_npz_field", _as_npz)
_bytes_after_array = _field_array(
    "_bytes_after_array", lambda path, u: path.write_bytes(
        path.read_bytes() + b"\0" * 8))


def _edited_sidecar(name, **edits):
    """A case that sets each key of ``edits`` in ``field.json`` to its
    function of the sidecar's values."""
    def breaker(tmp_path, cfg, field_dir):
        side = field_dir / "field.json"
        meta = json.loads(side.read_text())
        meta.update({key: edit(meta) for key, edit in edits.items()})
        side.write_text(json.dumps(meta))
        return ["embed", "--config", cfg, "--out", str(tmp_path / "new"),
                "--field", str(field_dir / "field.csv")]
    breaker.__name__ = name     # the test id
    return breaker


_version_1_sidecar = _edited_sidecar("_version_1_sidecar", version=lambda m: 1)
_version_2_sidecar = _edited_sidecar("_version_2_sidecar", version=lambda m: 2)
_version_3_sidecar = _edited_sidecar("_version_3_sidecar", version=lambda m: 3)
_version_4_sidecar = _edited_sidecar("_version_4_sidecar", version=lambda m: 4)

# certified bounds that no solve writes, and an L_g of another law: 0.5 and
# 0.3 (this law's is 0.3989) are finite and positive, so only the
# compatibility check refuses them
_zero_g_lipschitz = _edited_sidecar("_zero_g_lipschitz",
                                    g_lipschitz=lambda m: 0.0)
_nan_g_lipschitz = _edited_sidecar("_nan_g_lipschitz",
                                   g_lipschitz=lambda m: float("nan"))
_inf_g_lipschitz = _edited_sidecar("_inf_g_lipschitz",
                                   g_lipschitz=lambda m: float("inf"))
_negative_g_lipschitz = _edited_sidecar("_negative_g_lipschitz",
                                        g_lipschitz=lambda m: -0.5)
_other_g_lipschitz = _edited_sidecar("_other_g_lipschitz",
                                     g_lipschitz=lambda m: 0.5)
_low_g_lipschitz = _edited_sidecar("_low_g_lipschitz",
                                   g_lipschitz=lambda m: 0.3)
_nan_delta_deriv_sup = _edited_sidecar(
    "_nan_delta_deriv_sup", delta_deriv_sup=lambda m: float("nan"))
_inf_delta_deriv_sup = _edited_sidecar(
    "_inf_delta_deriv_sup", delta_deriv_sup=lambda m: float("inf"))
_negative_delta_deriv_sup = _edited_sidecar(
    "_negative_delta_deriv_sup", delta_deriv_sup=lambda m: -0.25)

# box ends and shapes that fix no grid
_x1_ends_reversed = _edited_sidecar(
    "_x1_ends_reversed", x1_lo=lambda m: m["x1_hi"],
    x1_hi=lambda m: m["x1_lo"])
_nan_x1_lo = _edited_sidecar("_nan_x1_lo", x1_lo=lambda m: float("nan"))
_x2_hi_zero = _edited_sidecar("_x2_hi_zero", x2_hi=lambda m: 0.0)
_x2_hi_negative = _edited_sidecar("_x2_hi_negative",
                                  x2_hi=lambda m: -m["x2_hi"])
_non_integer_shape = _edited_sidecar(
    "_non_integer_shape", shape=lambda m: [m["shape"][0] + 0.5] + m["shape"][1:])
_shape_entry_one = _edited_sidecar(
    "_shape_entry_one", shape=lambda m: m["shape"][:2] + [1])


def _solver_T(command):
    # the horizon is 1 and no longer a solver key
    def breaker(tmp_path, cfg, field_dir):
        bad = write_config(tmp_path, "bad.json", solver={"T": 0.5})
        argv = [command, "--config", bad, "--out", str(tmp_path / "new")]
        if command == "embed":
            argv += ["--field", str(field_dir / "field.csv")]
        return argv
    breaker.__name__ = f"_solver_T_{command}"
    return breaker


_solver_T_solve, _solver_T_embed, _solver_T_all = map(
    _solver_T, ("solve", "embed", "all"))


def _zero_paths(tmp_path, cfg, field_dir):
    return ["embed", "--config", cfg, "--out", str(field_dir),
            "--field", str(field_dir / "field.csv"), "--paths", "0"]


def _bad_results_cell(tmp_path, cfg, field_dir):
    results = tmp_path / "results.csv"
    results.write_text("seed,tau_weak,tau_strong,stopped_value\n"
                       "0,0.1,0.1,0.5\n1,0.1,0.1,half\n")
    return ["verify", "--config", cfg, "--out", str(field_dir),
            "--results", str(results)]


def _header_only_results(tmp_path, cfg, field_dir):
    results = tmp_path / "results.csv"
    results.write_text("seed,tau_weak,tau_strong,stopped_value\n")
    return ["verify", "--config", cfg, "--out", str(field_dir),
            "--results", str(results)]


def _nan_results_cell(tmp_path, cfg, field_dir):
    results = tmp_path / "results.csv"
    results.write_text("seed,tau_weak,tau_strong,stopped_value\n"
                       "0,0.1,0.1,0.5\n1,0.1,0.1,nan\n")
    return ["verify", "--config", cfg, "--out", str(field_dir),
            "--results", str(results)]


def _negative_seed(tmp_path, cfg, field_dir):
    return ["embed", "--config", cfg, "--out", str(field_dir),
            "--field", str(field_dir / "field.csv"), "--seed", "-5"]


def _seed_2_64_override(tmp_path, cfg, field_dir):
    return ["embed", "--config", cfg, "--out", str(tmp_path / "new"),
            "--field", str(field_dir / "field.json"), "--seed", str(2**64)]


def _beyond_float_paths(tmp_path, cfg, field_dir):
    return ["embed", "--config", cfg, "--out", str(tmp_path / "new"),
            "--field", str(field_dir / "field.json"),
            "--paths", str(10**400)]


def _negative_dump_paths(tmp_path, cfg, field_dir):
    return ["embed", "--config", cfg, "--out", str(tmp_path / "new"),
            "--field", str(field_dir / "field.csv"), "--dump-paths", "-3"]


def _solve_with(name, **overrides):
    def breaker(tmp_path, cfg, field_dir):
        bad = write_config(tmp_path, "bad.json", **overrides)
        return ["solve", "--config", bad, "--out", str(tmp_path / "b")]
    breaker.__name__ = name     # the test id
    return breaker


_nan_G0 = _solve_with("_nan_G0", coefficients={"G0": float("nan")})
_nan_beta_floor = _solve_with("_nan_beta_floor",
                              coefficients={"beta_floor": float("nan")})
# the clock's horizon solves H(T_phys) = solver.x2_hi and is not a key
_coefficients_T_phys = _solve_with("_coefficients_T_phys",
                                   coefficients={"T_phys": 2.0})
_bool_n_paths = _solve_with("_bool_n_paths", simulation={"n_paths": True})
_nan_x2_hi = _solve_with("_nan_x2_hi", solver={"x2_hi": float("nan")})
# the solve's constants other than the grid are not keys, at any value
_solver_cutoff_H = _solve_with("_solver_cutoff_H", solver={"cutoff_H": 4.0})
_solver_fixpoint_tol = _solve_with("_solver_fixpoint_tol",
                                   solver={"fixpoint_tol": 1e-9})
_solver_fixpoint_max_iter = _solve_with("_solver_fixpoint_max_iter",
                                        solver={"fixpoint_max_iter": 200})
_solver_deriv_floor_eps = _solve_with("_solver_deriv_floor_eps",
                                      solver={"deriv_floor_eps": 1e-6})
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
# a path key takes only a string
_numeric_csv_path = _solve_with(
    "_numeric_csv_path", measure={"kind": "empirical", "csv": 5})
# the localization guards are derived from the certified bound, not keys
_zero_K1 = _solve_with("_zero_K1", embedding={"K1": 0})
_negative_K1 = _solve_with("_negative_K1", embedding={"K1": -1.0})
_zero_K2 = _solve_with("_zero_K2", embedding={"K2": 0.0})
# integers beyond the float range: refused by the config's number check,
# not by a traceback from the first float conversion
_beyond_float_G0 = _solve_with("_beyond_float_G0",
                               coefficients={"G0": 10**400})
_beyond_float_alpha_value = _solve_with(
    "_beyond_float_alpha_value",
    coefficients={"alpha": {"kind": "const", "value": 10**400}})
_beyond_float_nt = _solve_with("_beyond_float_nt", solver={"nt": 10**400})
_beyond_float_n_paths = _solve_with("_beyond_float_n_paths",
                                    simulation={"n_paths": 10**400})
_beyond_float_sample = _solve_with(
    "_beyond_float_sample",
    measure={"kind": "empirical", "samples": [0, 1, 10**400]})
# a grid of in-range sizes whose byte count is beyond the float range
_beyond_float_grid_bytes = _solve_with(
    "_beyond_float_grid_bytes",
    solver={"nt": 10**201, "nx1": 10**200, "nx2": 10**200})
# a path's key takes the seed modulo 2^64: a larger seed is refused, not
# read as a smaller one
_seed_2_64 = _solve_with("_seed_2_64", simulation={"seed": 2**64})
# point masses: the quantile transform g is constant
_uniform_point_mass = _solve_with(
    "_uniform_point_mass", measure={"kind": "uniform", "lo": 1, "hi": 1})
_normal_point_mass = _solve_with(
    "_normal_point_mass", measure={"kind": "normal", "mu": 0, "sigma": 0})
# a grid of 1.6e16 bytes per field array: refused before any allocation
_oversized_grid = _solve_with(
    "_oversized_grid", solver={"nt": 200_000, "nx1": 100_001, "nx2": 100_001})


def _embed_with(name, **overrides):
    def breaker(tmp_path, cfg, field_dir):
        bad = write_config(tmp_path, "bad.json", **overrides)
        return ["embed", "--config", bad, "--out", str(tmp_path / "new"),
                "--field", str(field_dir / "field.json")]
    breaker.__name__ = name     # the test id
    return breaker


# the field of BASE read by a configuration of another grid: its terminal
# layer, formed on its own grids, and its L_g match this law's
_field_of_other_nt = _embed_with("_field_of_other_nt", solver={"nt": 128})
_field_of_other_nx2 = _embed_with("_field_of_other_nx2", solver={"nx2": 17})
_field_of_other_x1_box = _embed_with("_field_of_other_x1_box",
                                     solver={"x1_lo": -5.0, "x1_hi": 5.0})
_field_of_other_x2_box = _embed_with("_field_of_other_x2_box",
                                     solver={"x2_hi": 2.0})
# path runs beyond any machine's memory: refused before any work, not by a
# traceback from the first allocation of the path loop
_huge_n_steps = _embed_with("_huge_n_steps", simulation={"n_steps": 10**12})
_huge_n_paths = _solve_with("_huge_n_paths", simulation={"n_paths": 10**12})
_huge_embed_steps = _embed_with("_huge_embed_steps",
                                embedding={"n_steps": 10**12})

# the strong pass's step rule: dr = 5.768e-04 at 4096 steps for this law's
# L_g of 1.5, refused before any work by each command that runs it
_COARSE_STRONG_STEP = {"measure": {"kind": "normal", "mu": 0.0, "sigma": 1.5},
                       "embedding": {"n_steps": 4096}}
_coarse_strong_step_solve = _solve_with("_coarse_strong_step_solve",
                                        **_COARSE_STRONG_STEP)


def _coarse_strong_step_embed(tmp_path, cfg, field_dir):
    bad = write_config(tmp_path, "bad.json", **_COARSE_STRONG_STEP)
    return ["embed", "--config", bad, "--out", str(tmp_path / "new"),
            "--field", str(field_dir / "field.csv")]


def _coarse_strong_step_all(tmp_path, cfg, field_dir):
    bad = write_config(tmp_path, "bad.json", **_COARSE_STRONG_STEP)
    return ["all", "--config", bad, "--out", str(tmp_path / "new")]


def _alpha_expr(name, expr):
    return _solve_with(name, coefficients={"alpha": {"kind": "expr",
                                                     "expr": expr}})


_expr_syntax_error = _alpha_expr("_expr_syntax_error", "s**")
_expr_division_by_zero = _alpha_expr("_expr_division_by_zero", "1/0")
_expr_list = _alpha_expr("_expr_list", "[s, s]")
_expr_conditional = _alpha_expr("_expr_conditional", "s if s else 1")
_expr_string = _alpha_expr("_expr_string", "'a'")
# not elementwise: its value would depend on the query batch
_expr_subscript = _alpha_expr("_expr_subscript", "s[0]")
_expr_overflow = _alpha_expr("_expr_overflow", "(1e308*10)*s")

# a part of the one stderr line that names the refusal
_MESSAGE = {
    _version_1_sidecar: "re-run skofbsde solve",
    _version_2_sidecar: "re-run skofbsde solve",
    _version_3_sidecar: "re-run skofbsde solve",
    _version_4_sidecar: "re-run skofbsde solve",
    _zero_g_lipschitz: "finite g_lipschitz > 0 and delta_deriv_sup >= 0",
    _nan_g_lipschitz: "finite g_lipschitz > 0 and delta_deriv_sup >= 0",
    _inf_g_lipschitz: "finite g_lipschitz > 0 and delta_deriv_sup >= 0",
    _negative_g_lipschitz: "finite g_lipschitz > 0 and delta_deriv_sup >= 0",
    _nan_delta_deriv_sup: "finite g_lipschitz > 0 and delta_deriv_sup >= 0",
    _inf_delta_deriv_sup: "finite g_lipschitz > 0 and delta_deriv_sup >= 0",
    _negative_delta_deriv_sup:
        "finite g_lipschitz > 0 and delta_deriv_sup >= 0",
    _other_g_lipschitz: "not compatible with this configuration",
    _low_g_lipschitz: "not compatible with this configuration",
    _nan_x2_hi: "config key 'x2_hi' must be a finite number",
    _solver_cutoff_H: "unknown config keys in solver: ['cutoff_H']",
    _solver_fixpoint_tol: "unknown config keys in solver: ['fixpoint_tol']",
    _solver_fixpoint_max_iter:
        "unknown config keys in solver: ['fixpoint_max_iter']",
    _solver_deriv_floor_eps:
        "unknown config keys in solver: ['deriv_floor_eps']",
    _oversized_grid: "memory",
    _huge_n_steps: "path run needs about",
    _huge_n_paths: "path run needs about",
    _huge_embed_steps: "path run needs about",
    _x1_ends_reversed: "finite x1_lo < x1_hi",
    _nan_x1_lo: "finite x1_lo < x1_hi",
    _x2_hi_zero: "x2_hi > 0",
    _x2_hi_negative: "x2_hi > 0",
    _non_integer_shape: "not three integers of at least 2",
    _shape_entry_one: "not three integers of at least 2",
    _solver_T_solve: "unknown config keys in solver: ['T']",
    _solver_T_embed: "unknown config keys in solver: ['T']",
    _solver_T_all: "unknown config keys in solver: ['T']",
    _coefficients_T_phys: "unknown config keys in coefficients: ['T_phys']",
    _nan_in_field: "non-finite",
    _truncated_field: "cannot read field file",
    _wrong_row_count: "expected float64 of shape (65, 65, 33) in C order",
    _npy_missing: "No such file",
    _float32_field: "float32 array",
    _fortran_field: "in Fortran order",
    _pickled_field: "object array",
    _npz_field: "cannot read field file",
    _bytes_after_array: "bytes after the array",
    _negative_dump_paths: "--dump-paths",
    _coarse_strong_step_solve: "dr = 5.768e-04 too coarse",
    _coarse_strong_step_embed: "dr = 5.768e-04 too coarse",
    _coarse_strong_step_all: "dr = 5.768e-04 too coarse",
    _numeric_csv_path: "config key 'csv' has wrong type (int)",
    _empirical_csv_and_samples: "takes 'csv' or 'samples', not both",
    _field_of_other_nt: "not compatible with this configuration",
    _field_of_other_nx2: "not compatible with this configuration",
    _field_of_other_x1_box: "not compatible with this configuration",
    _field_of_other_x2_box: "not compatible with this configuration",
    _zero_K1: "unknown config keys in embedding: ['K1']",
    _negative_K1: "unknown config keys in embedding: ['K1']",
    _zero_K2: "unknown config keys in embedding: ['K2']",
    _beyond_float_G0: "config key 'G0' must be a finite number",
    _beyond_float_alpha_value: "config key 'value' must be a finite number",
    _beyond_float_nt: "config key 'nt' must be a finite number",
    _beyond_float_n_paths: "config key 'n_paths' must be a finite number",
    _beyond_float_sample: "invalid measure: int too large to convert",
    _beyond_float_grid_bytes: "solver grid needs about 1.49e+593 GiB",
    _beyond_float_paths: "path run needs about 1.79e+393 GiB",
    _seed_2_64: "0 <= seed < 2^64",
    _seed_2_64_override: "0 <= seed < 2^64",
}


@pytest.fixture(scope="module")
def solved_field(tmp_path_factory):
    """The field of ``BASE``, solved once; each case gets its own copy,
    because some cases rewrite it."""
    root = tmp_path_factory.mktemp("solved")
    out = root / "f"
    assert main(["solve", "--config", write_config(root),
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("breaker", [
    _bad_table_cell, _empty_table_csv, _empty_empirical_csv, _truncated_field,
    _wrong_row_count, _version_1_sidecar, _zero_paths, _bad_results_cell,
    _header_only_results, _nan_results_cell, _negative_seed, _nan_G0,
    _nan_beta_floor, _bool_n_paths, _nan_x2_hi, _uniform_lo_above_hi,
    _normal_negative_sigma, _normal_nan_mu, _piecewise_nan_x, _text_in_samples,
    _zero_K1, _negative_K1, _zero_K2, _uniform_point_mass,
    _normal_point_mass, _oversized_grid, _expr_syntax_error, _expr_division_by_zero, _expr_list,
    _expr_conditional, _expr_string, _expr_subscript, _expr_overflow,
    _solver_T_solve, _solver_T_embed, _solver_T_all, _x1_ends_reversed,
    _nan_x1_lo, _x2_hi_zero, _x2_hi_negative, _non_integer_shape,
    _shape_entry_one, _version_3_sidecar, _coefficients_T_phys,
    _nan_in_field, _negative_dump_paths, _npy_missing, _float32_field,
    _fortran_field, _pickled_field, _npz_field, _bytes_after_array,
    _version_2_sidecar, _coarse_strong_step_solve, _coarse_strong_step_embed,
    _coarse_strong_step_all, _numeric_csv_path, _empirical_csv_and_samples,
    _version_4_sidecar, _zero_g_lipschitz, _nan_g_lipschitz, _inf_g_lipschitz,
    _negative_g_lipschitz, _other_g_lipschitz, _low_g_lipschitz,
    _nan_delta_deriv_sup, _inf_delta_deriv_sup, _negative_delta_deriv_sup,
    _solver_cutoff_H, _solver_fixpoint_tol, _solver_fixpoint_max_iter,
    _solver_deriv_floor_eps, _field_of_other_nt, _field_of_other_nx2,
    _field_of_other_x1_box, _field_of_other_x2_box, _huge_n_steps,
    _huge_n_paths, _huge_embed_steps, _beyond_float_G0,
    _beyond_float_alpha_value, _beyond_float_nt, _beyond_float_n_paths,
    _beyond_float_paths, _beyond_float_sample, _beyond_float_grid_bytes,
    _seed_2_64, _seed_2_64_override])
def test_malformed_input_exits_1(tmp_path, solved_field, breaker):
    cfg = write_config(tmp_path)
    field_dir = tmp_path / "f"
    field_dir.mkdir()
    for name in ("field.csv", "field.json", "field.npy"):
        shutil.copy(solved_field / name, field_dir / name)
    argv = breaker(tmp_path, cfg, field_dir)
    out = argv[argv.index("--out") + 1]
    out_existed = os.path.exists(out)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "skofbsde.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert _MESSAGE.get(breaker, "") in lines[0]
    # a refused command leaves no output directory behind
    assert out_existed or not os.path.exists(out)


def test_cli_import_leaves_scipy_unloaded(tmp_path, solved_field):
    # the field solver loads only SciPy's LAPACK module, from its file, on
    # its first banded solve: no command imports the SciPy package; and
    # embed and verify on a saved field never load the CSV float formatter
    cfg, out = str(solved_field.parent / "cfg.json"), str(tmp_path / "e")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import skofbsde.cli as cli\n"
        "from skofbsde import field\n"
        "cfg = cli.RunConfig.from_file('configs/smoke_small.json')\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
        "assert callable(field.solve_banded)\n"
        "f = field.solve_field(cfg.g, cfg.delta, cfg.solver)\n"
        "field.derivative_fields(f, 'coupled_system', g=cfg.g, delta=cfg.delta)\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
        "assert f.u.shape == (65, 65, 33) and np.isfinite(f.u).all()\n"
        f"assert cli.main(['embed', '--config', {cfg!r}, '--out', {out!r},\n"
        f"                 '--field', {str(solved_field / 'field.npy')!r}]) == 0\n"
        f"assert cli.main(['verify', '--config', {cfg!r}, '--out', {out!r},\n"
        f"                 '--results', {out + '/embedding.csv'!r}]) == 0\n"
        "assert 'skofbsde._floattext' not in sys.modules, 'formatter imported'\n"
    )
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=root,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_all_loads_no_scipy_package(tmp_path):
    # solve, coupled check, embed and verify in one process: SciPy's LAPACK
    # module is the only part of SciPy loaded, and it is not registered
    code = (
        "import sys\n"
        "import skofbsde.cli as cli\n"
        "assert cli.main(['all', '--config', 'configs/smoke_small.json',\n"
        f"                 '--out', {str(tmp_path / 'all')!r}]) == 0\n"
        "loaded = {'scipy', 'scipy.linalg', '_flapack'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=root,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
