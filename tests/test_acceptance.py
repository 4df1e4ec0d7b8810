"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single ``[criterion N] PASS`` line (visible with -s/-rA);
a failing assertion marks the criterion red.  Expensive ensembles are shared
session fixtures; their construction wall time is carried along so the
runtime budgets can be enforced where stated.
"""

import time

import numpy as np
import pytest

from conftest import N_ACCEPT, N_STEPS_ACCEPT, make_case
from skofbsde.cli import main as cli_main
from skofbsde.coeffs import TimeFunction
from skofbsde.embed import coupled_round_trip, strong_embed_on_W, tau_bound
from skofbsde.fbsde import martingale_check, simulate_ensemble
from skofbsde.field import SolverConfig, field_diagnostics, solve_field
from skofbsde.measure import TargetMeasure
from skofbsde.verify import (OracleField, ks_statistic, shifted_field,
                             wasserstein1)

# below this sup error the affine closed form is reproduced to accumulated
# roundoff and a halving ratio would only compare noise
EXACTNESS_FLOOR = 1e-6


def _report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS - {detail}")


def test_criterion_01_trivial_embedding():
    t0 = time.perf_counter()
    case = make_case(TargetMeasure.normal(0.0, 1.0),
                     TimeFunction.const(0.0), TimeFunction.const(1.0), 1.0)
    f, coeffs = case["field"], case["coeffs"]
    u_err = np.abs(f.u - f.x1_grid[None, :, None]).max()
    assert u_err <= 1e-6

    ens = simulate_ensemble(f, 2000, 1024, seed=11)
    taus = np.asarray(coeffs.clock_H_inv(ens.X2_T))
    assert np.abs(taus - 1.0).max() <= 1e-9

    strong = strong_embed_on_W(f, coeffs, 2000, 2048, seed=12)
    assert np.abs(strong.tau_strong - 1.0).max() <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"sup|u-x1|={u_err:.2e}, all tau within 1e-9 of 1, "
               f"{elapsed:.1f}s < 10s")


def test_criterion_02_linear_drift_closed_form(case_linear, case_uniform_k05,
                                               linear_exact):
    f = case_linear.value["field"]
    interior = np.abs(f.u - linear_exact(f))[:, 2:-2, :]
    err_fine = float(interior.max())
    assert err_fine <= 1e-3

    coarse = make_case(TargetMeasure.normal(0.0, 1.0), TimeFunction.const(0.5),
                       TimeFunction.const(1.0), 1.0, nt=128, nx1=129, nx2=65)
    fc = coarse["field"]
    err_coarse = float(np.abs(fc.u - linear_exact(fc))[:, 2:-2, :].max())
    if max(err_fine, err_coarse) < EXACTNESS_FLOOR:
        # affine solutions are reproduced exactly by the scheme; the halving
        # law is confirmed on a genuinely curved solution instead
        c = case_uniform_k05.value
        oracle = OracleField("linear_drift", c["g"], kappa=0.5)
        errs = []
        for nt, nx1, nx2 in ((128, 129, 65), (256, 257, 129)):
            fu = solve_field(c["g"], c["delta"],
                             SolverConfig.defaults(c["g"].lipschitz, nt=nt,
                                                   nx1=nx1, nx2=nx2))
            mask = np.abs(fu.x1_grid) <= 2.0
            errs.append(float(np.abs(
                fu.u[0, mask, 0] - oracle(0.0, fu.x1_grid[mask], 0.0)).max()))
        ratio = errs[0] / errs[1]
        assert 1.5 <= ratio <= 3.0
        _report(2, f"closed form exact to {err_fine:.1e} (roundoff); curved-"
                   f"case halving ratio {ratio:.2f} in [1.5, 3]")
    else:
        ratio = err_coarse / err_fine
        assert 1.5 <= ratio <= 3.0
        _report(2, f"interior err {err_fine:.2e} <= 1e-3, halving ratio "
                   f"{ratio:.2f} in [1.5, 3]")


def test_criterion_03_cole_hopf_oracle():
    t0 = time.perf_counter()
    case = make_case(TargetMeasure.uniform(0.0, 1.0), TimeFunction.const(0.5),
                     TimeFunction.const(1.0), 1.0)
    f, g = case["field"], case["g"]
    oracle = OracleField("linear_drift", g, kappa=0.5)
    oracle.validate(seed=42, n=1_000_000)
    mask = np.abs(f.x1_grid) <= 2.0
    err = float(np.abs(f.u[0, mask, 0]
                       - oracle(0.0, f.x1_grid[mask], 0.0)).max())
    elapsed = time.perf_counter() - t0
    assert err <= 2e-3
    assert elapsed < 120.0
    _report(3, f"|u_num - oracle| = {err:.2e} <= 2e-3 on [-2, 2], "
               f"{elapsed:.0f}s < 120s")


def test_criterion_04_z_bound(case_trivial, case_linear, case_uniform_k05,
                              case_uniform_k025, case_normal_sin,
                              weak_trivial, weak_uniform_k025, weak_normal_sin):
    details = []
    for case in (case_trivial, case_linear, case_uniform_k05,
                 case_uniform_k025, case_normal_sin):
        c = case.value
        diag = field_diagnostics(c["field"], c["g"], c["delta"])
        assert diag.z_sup <= c["g"].lipschitz + 1e-2
        details.append(f"{diag.z_sup:.4f}/{c['g'].lipschitz:.4f}")
    for case, weak in ((case_trivial, weak_trivial),
                       (case_uniform_k025, weak_uniform_k025),
                       (case_normal_sin, weak_normal_sin)):
        L = case.value["g"].lipschitz
        assert weak.value["z_abs_max_raw"].max() <= L + 1e-2
    _report(4, f"z_sup/L_g per case: {', '.join(details)}; per-path raw "
               f"max within L_g + 1e-2 on {N_ACCEPT} paths")


def test_criterion_05_stopping_time_bound(case_trivial, case_uniform_k025,
                                          case_normal_sin, weak_trivial,
                                          weak_uniform_k025, weak_normal_sin,
                                          strong_trivial, strong_uniform_k025,
                                          strong_normal_sin):
    triples = ((case_trivial, weak_trivial, strong_trivial),
               (case_uniform_k025, weak_uniform_k025, strong_uniform_k025),
               (case_normal_sin, weak_normal_sin, strong_normal_sin))
    worst = 0.0
    for case, weak, strong in triples:
        c = case.value
        bound = tau_bound(c["field"], c["coeffs"])
        tw = weak.value["tau_weak"]
        assert tw.size == N_ACCEPT
        assert np.all(tw <= bound + 1e-6)
        ts = strong.value.tau_strong
        assert ts.size == N_ACCEPT
        assert np.all(ts <= bound + strong.value.dr)
        worst = max(worst, float((tw - bound).max()),
                    float((ts - bound).max()))
    _report(5, f"100% of {N_ACCEPT} weak and strong times within bound "
               f"(worst overshoot {worst:.2e})")


@pytest.mark.parametrize("case_name,measure", [
    ("uniform_k025", TargetMeasure.uniform(0.0, 1.0)),
    ("normal_sin", TargetMeasure.normal(0.0, 1.0)),
])
def test_criterion_06_law_transport(case_name, measure, request,
                                    weak_uniform_k025, strong_uniform_k025,
                                    weak_normal_sin, strong_normal_sin):
    weak, strong = {
        "uniform_k025": (weak_uniform_k025, strong_uniform_k025),
        "normal_sin": (weak_normal_sin, strong_normal_sin),
    }[case_name]
    ks_s = ks_statistic(strong.value.stopped_value, measure)
    w1_s = wasserstein1(strong.value.stopped_value, measure)
    ks_w = ks_statistic(weak.value["stopped_value"], measure)
    w1_w = wasserstein1(weak.value["stopped_value"], measure)
    assert ks_s <= 0.02 and w1_s <= 0.02
    assert ks_w <= 0.02 and w1_w <= 0.02
    elapsed = weak.seconds + strong.seconds
    assert elapsed < 300.0
    _report(6, f"{case_name}: strong KS={ks_s:.4f} W1={w1_s:.4f}, weak "
               f"KS={ks_w:.4f} W1={w1_w:.4f} (all <= 0.02), "
               f"{elapsed:.0f}s < 300s")


@pytest.mark.parametrize("case_name", ["uniform_k025", "normal_sin"])
def test_criterion_07_weak_strong_round_trip(case_name, case_uniform_k025,
                                             case_normal_sin):
    c = {"uniform_k025": case_uniform_k025,
         "normal_sin": case_normal_sin}[case_name].value
    rt = coupled_round_trip(c["field"], c["coeffs"], n_paths=1000,
                            n_steps=N_STEPS_ACCEPT, seed=7007)
    assert rt["mean_abs_diff"] <= 1e-2
    assert rt["max_abs_diff"] <= 5e-2
    _report(7, f"{case_name}: mean |tau_w - tau_s| = "
               f"{rt['mean_abs_diff']:.2e} <= 1e-2, max = "
               f"{rt['max_abs_diff']:.2e} <= 5e-2 over 1000 coupled paths")


def test_criterion_08_derivative_bounds(case_trivial, case_linear,
                                        case_uniform_k05, case_uniform_k025,
                                        case_normal_sin):
    for case in (case_trivial, case_linear, case_uniform_k05,
                 case_uniform_k025, case_normal_sin):
        c = case.value
        diag = field_diagnostics(c["field"], c["g"], c["delta"])
        assert diag.u2_sup <= c["delta"].deriv_sup + 1e-2
        assert diag.min_u1_interior > 0.0

    base = field_diagnostics(case_uniform_k05.value["field"]).time_lip_u1
    cu = case_uniform_k05.value
    f2 = solve_field(cu["g"], cu["delta"],
                     SolverConfig.defaults(cu["g"].lipschitz, nt=512))
    fine = field_diagnostics(f2).time_lip_u1
    ratio = fine / base
    assert 1.0 / 1.5 <= ratio <= 1.5
    _report(8, f"u2 bound and u1 positivity hold on all cases; time-Lipschitz "
               f"estimate stable under nt doubling (ratio {ratio:.3f})")


def test_criterion_09_martingale_property(ensemble_trivial,
                                          ensemble_uniform_k025,
                                          ensemble_normal_sin,
                                          case_uniform_k025):
    for name, ens in (("trivial", ensemble_trivial),
                      ("uniform_k025", ensemble_uniform_k025),
                      ("normal_sin", ensemble_normal_sin)):
        rep = martingale_check(ens.value)
        assert rep.mean_passed.all(), name
        assert rep.n_paths == N_ACCEPT

    # negative control A: a drifted field must fail the martingale band
    c = case_uniform_k025.value
    bad = shifted_field(c["field"], coef_t=0.1)
    rep_bad = martingale_check(simulate_ensemble(bad, 4096, 1024, seed=913))
    assert not rep_bad.mean_passed.all()

    # negative control B: a shifted starting constant must fail criterion 6
    bad2 = shifted_field(c["field"], coef_time_to_go=0.05)
    strong_bad = strong_embed_on_W(bad2, c["coeffs"], N_ACCEPT,
                                   N_STEPS_ACCEPT, seed=914)
    ks_bad = ks_statistic(strong_bad.stopped_value, TargetMeasure.uniform(0, 1))
    assert ks_bad > 0.02
    _report(9, f"martingale band holds at 8 checkpoints on 3 cases at "
               f"N={N_ACCEPT}; corrupted fields fail (negative-control "
               f"KS={ks_bad:.3f} > 0.02)")


def test_criterion_10_determinism(tmp_path, capsys):
    import json
    cfg = {
        "spec_version": 1,
        "measure": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "coefficients": {"G0": 0.0,
                         "alpha": {"kind": "const", "value": 0.25},
                         "beta": {"kind": "const", "value": 1.0},
                         "beta_floor": 1.0},
        "solver": {"nt": 64, "nx1": 65, "nx2": 33},
        "simulation": {"n_paths": 256, "n_steps": 512, "seed": 20240810},
        "embedding": {"n_steps": 512},
        "output_dir": "out",
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["all", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["all", "--config", str(cfg_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    names = ("field.csv", "field.json", "field.npy", "embedding.csv",
             "law_report.json", "verify_report.json", "stopped_hist.csv")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _report(10, f"reruns byte-identical across {len(names)} artifacts")
