from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skofbsde import embed
from skofbsde.coeffs import ProcessCoefficients, TimeFunction
from skofbsde.embed import (coupled_round_trip, strong_embed_on_W,
                            strong_stopping_time, tau_bound, weak_embed,
                            weak_embed_ensemble)
from skofbsde.errors import ConfigError
from skofbsde.fbsde import normal_increments, path_seed, simulate_block
from skofbsde.field import eval_field


def test_weak_embed_trivial(case_trivial):
    c = case_trivial.value
    p = simulate_block(c["field"], 17, [0], 1024)[0]
    we = weak_embed(p, c["coeffs"], g=c["g"])
    assert we.tau_weak == pytest.approx(1.0, abs=1e-9)
    assert we.stopped_value == pytest.approx(p.X1[-1], abs=1e-9)
    assert we.identity_residual < 1e-9
    assert we.sigma_inverse_defect < 1e-9


def test_weak_embed_bound_and_identity(case_uniform_k05):
    c = case_uniform_k05.value
    bound = tau_bound(c["field"], c["coeffs"])
    for p in simulate_block(c["field"], 70, range(16), 4096):
        we = weak_embed(p, c["coeffs"], g=c["g"])
        assert we.tau_weak <= bound + 1e-9
        assert we.identity_residual <= 1e-2
        assert we.sigma_inverse_defect <= 1e-2
        assert np.all(np.diff(we.B) * 0 == 0)  # finite


def test_weak_stopped_value_matches_g_of_W1(case_uniform_k05):
    c = case_uniform_k05.value
    p = simulate_block(c["field"], 71, [0], 4096)[0]
    we = weak_embed(p, c["coeffs"], g=c["g"])
    assert we.stopped_value == pytest.approx(
        float(np.asarray(c["g"](p.X1[-1]))), abs=1e-2)


def test_strong_stopping_trivial(case_trivial):
    c = case_trivial.value
    dr = 1.0 / 2048
    dB = normal_increments(5, 4096, dr)
    ss = strong_stopping_time(c["field"], c["coeffs"], dB, dr)
    assert ss.tau == pytest.approx(1.0, abs=1e-9)
    assert ss.guard == "none"
    assert ss.clamp_fraction == 0.0
    # sigma grows linearly at unit rate
    k = ss.sigma_path.shape[0] // 2
    assert ss.sigma_path[k] == pytest.approx(k * dr, abs=1e-9)


def test_strong_stopping_guard_K2(case_uniform_k05):
    c = case_uniform_k05.value
    bound = tau_bound(c["field"], c["coeffs"])
    dr = bound / 512
    dB = normal_increments(6, 2048, dr)
    # a K2 breach is reported like a K1 stop, not raised
    ss = strong_stopping_time(c["field"], c["coeffs"], dB, dr, K2=1e-4)
    assert ss.guard == "K2" and ss.tau < bound
    assert abs(ss.Sigma_tau) >= 1e-4


def test_strong_embed_constants(case_uniform_k025):
    c = case_uniform_k025.value
    er = strong_embed_on_W(c["field"], c["coeffs"], 512, 2048, seed=90, g=c["g"])
    # the starting constant is the field value at the origin
    assert er.c == eval_field(c["field"], 0.0, 0.0, 0.0)
    assert er.tau_bound == pytest.approx(tau_bound(c["field"], c["coeffs"]))
    assert er.guard_counts == {"K1": 0, "K2": 0}
    assert np.all(er.tau_strong <= er.tau_bound + er.dr)
    assert er.strong_identity_mean < 1e-2


def test_clamp_fraction_weighted_per_step(case_uniform_k025, monkeypatch):
    # a floor above most of u1 makes the clamp fire on a sizeable share of
    # steps; the fraction is total hits over total active steps
    c = case_uniform_k025.value
    f = replace(c["field"], deriv_floor_eps=0.3)
    fractions = []
    for block in (5, 16):                 # 37 paths: a multiple of neither
        monkeypatch.setattr(embed, "_STRONG_BLOCK", block)
        with pytest.warns(RuntimeWarning, match="clamp"):
            er = strong_embed_on_W(f, c["coeffs"], 37, 2048, seed=12)
        fractions.append(er.clamp_fraction)
    r_max, K2 = embed._strong_limits(f, c["coeffs"])
    dB = np.array([normal_increments(int(s), 2048, er.dr) for s in er.seeds])
    whole = embed._integrate_strong(f, c["coeffs"], dB, er.dr, r_max, K2)
    hits, steps = int(whole["clamp_hits"].sum()), int(whole["steps"].sum())
    assert hits > 0
    assert fractions == [hits / steps] * 2


def test_strong_embed_dr_rule_enforced(case_uniform_k025):
    c = case_uniform_k025.value
    with pytest.raises(ConfigError):
        strong_embed_on_W(c["field"], c["coeffs"], 8, 16, seed=1)


def test_strong_embed_reproducible(case_uniform_k025):
    c = case_uniform_k025.value
    a = strong_embed_on_W(c["field"], c["coeffs"], 64, 2048, seed=4)
    b = strong_embed_on_W(c["field"], c["coeffs"], 64, 2048, seed=4)
    assert np.array_equal(a.stopped_value, b.stopped_value)
    assert np.array_equal(a.tau_strong, b.tau_strong)


def test_round_trip_small(case_uniform_k025):
    c = case_uniform_k025.value
    rt = coupled_round_trip(c["field"], c["coeffs"], n_paths=64,
                            n_steps=4096, seed=21)
    assert rt["mean_abs_diff"] <= 1e-2
    assert rt["max_abs_diff"] <= 5e-2


def test_weak_ensemble_fields(case_uniform_k025):
    c = case_uniform_k025.value
    weak = weak_embed_ensemble(c["field"], c["coeffs"], 128, 1024, seed=31,
                               g=c["g"])
    bound = tau_bound(c["field"], c["coeffs"])
    assert weak["tau_weak"].shape == (128,)
    assert np.all(weak["tau_weak"] <= bound + 1e-9)
    assert np.all(weak["stopped_value"] >= -0.05)
    assert np.all(weak["stopped_value"] <= 1.05)
    assert len(set(weak["seeds"].tolist())) == 128


def test_strong_limits(case_uniform_k025):
    c = case_uniform_k025.value
    f, coeffs = c["field"], c["coeffs"]
    cap = coeffs.t_phys * (1.0 - 1e-9)
    r_max, K2 = embed._strong_limits(f, coeffs)
    assert r_max == min(2.0 * tau_bound(f, coeffs), cap)
    assert K2 > 0.0
    # explicit guards: K1 only moves the horizon, and only below the cap
    assert embed._strong_limits(f, coeffs, K1=0.05, K2=3.0) == (0.05, 3.0)
    assert embed._strong_limits(f, coeffs, K1=0.05) == (0.05, K2)
    assert embed._strong_limits(f, coeffs, K1=10.0 * cap) == (cap, K2)


def _per_path_weak(c, n_paths, n_steps, seed, g=None):
    """Reference for the ensembles: whole paths, one weak_embed each."""
    paths = simulate_block(c["field"], seed, range(n_paths), n_steps)
    return paths, [weak_embed(p, c["coeffs"], g=g) for p in paths]


def _time_change_reference(coeffs, t_grid, X2, Y, X1_T, g):
    """The weak time change of one path, a row at a time."""
    tau = float(coeffs.clock_H_inv(float(X2[-1])))
    r_nodes = np.asarray(coeffs.clock_H_inv(X2))
    keep = np.concatenate([[True], np.diff(r_nodes) > 0.0])
    r_mono, t_mono = r_nodes[keep], t_grid[keep]
    r_grid = np.linspace(0.0, tau, embed._WEAK_B_STEPS + 1)
    Y_at = np.interp(np.interp(r_grid, r_mono, t_mono), t_grid, Y)
    dB = np.diff(Y_at) / np.asarray(coeffs.beta(r_grid[:-1]))
    beta_mid = np.asarray(coeffs.beta(0.5 * (r_grid[:-1] + r_grid[1:])))
    int_beta_dB = float(np.sum(beta_mid * dB))
    stopped = float(Y[0] + coeffs.delta_hat(tau) + int_beta_dB)
    if g is not None:
        residual = abs(stopped - float(np.asarray(g(X1_T))))
    else:
        residual = abs(int_beta_dB - (Y[-1] - Y[0]))
    defect = np.abs(np.interp(r_nodes, r_mono, t_mono) - t_grid).max()
    return {"tau_weak": tau, "stopped_value": stopped, "r_grid": r_grid,
            "B": np.concatenate([[0.0], np.cumsum(dB)]),
            "identity_residual": residual, "sigma_inverse_defect": defect}


@pytest.mark.parametrize("beta", ["1.0", "1.0 + 0.2*cos(3*s)"])
def test_weak_time_change_matches_per_row_reference(case_uniform_k025,
                                                    monkeypatch, beta):
    # the sub-blocked time change against the per-row formulas, bitwise,
    # with a drift and a time-varying beta (27 rows: sub-blocks of 8 and 3)
    c = case_uniform_k025.value
    L_g = c["field"].g_lipschitz
    coeffs = ProcessCoefficients(
        0.0, TimeFunction.expression("0.3*sin(s)"),
        TimeFunction.expression(beta), beta_floor=0.8,
        h_target=1.05 * L_g**2)
    paths = simulate_block(c["field"], 61, range(27), 1024)
    monkeypatch.setattr(embed, "_TIME_CHANGE_ROWS", 8)
    for g in (None, c["g"]):
        tau, stopped, residual, r_grid, B = embed._weak_time_change(
            coeffs, paths[0].t_grid, np.array([p.X2 for p in paths]),
            np.array([p.Y for p in paths]),
            np.array([p.X1[-1] for p in paths]), g, paths=True)
        for j, p in enumerate(paths):
            ref = _time_change_reference(coeffs, p.t_grid, p.X2, p.Y,
                                         p.X1[-1], g)
            got = {"tau_weak": tau[j], "stopped_value": stopped[j],
                   "r_grid": r_grid[j], "B": B[j],
                   "identity_residual": residual[j]}
            one = vars(weak_embed(p, coeffs, g=g))
            for key, want in ref.items():
                if key in got:
                    assert np.array_equal(got[key], want), key
                assert np.array_equal(one[key], want), key


def test_weak_ensemble_matches_per_path_reference(case_uniform_k025):
    c = case_uniform_k025.value
    weak = weak_embed_ensemble(c["field"], c["coeffs"], 37, 1024, seed=55,
                               g=c["g"])
    paths, embs = _per_path_weak(c, 37, 1024, 55, g=c["g"])
    ref = {
        "seeds": np.array([p.seed for p in paths], dtype=np.uint64),
        "tau_weak": np.array([we.tau_weak for we in embs]),
        "stopped_value": np.array([we.stopped_value for we in embs]),
        "identity_residual": np.array([we.identity_residual for we in embs]),
        "z_abs_max_raw": np.array([p.z_abs_max_raw for p in paths]),
        "X2_T": np.array([p.X2[-1] for p in paths]),
    }
    assert weak.keys() == ref.keys()
    for key, want in ref.items():
        assert weak[key].dtype == want.dtype, key
        assert np.array_equal(weak[key], want), key


def test_round_trip_matches_per_path_reference(case_uniform_k025):
    c = case_uniform_k025.value
    f, coeffs = c["field"], c["coeffs"]
    rt = coupled_round_trip(f, coeffs, 37, 1024, seed=55)
    dr = rt["dr"]
    r_max, K2 = embed._strong_limits(f, coeffs)
    M = int(np.ceil(r_max / dr))
    r_u = np.arange(M + 1) * dr
    paths, embs = _per_path_weak(c, 37, 1024, 55)
    dB = np.empty((37, M))
    for j, (p, we) in enumerate(zip(paths, embs)):
        dB[j] = np.diff(np.interp(r_u, we.r_grid, we.B))
        n_inside = max(int(np.floor(we.tau_weak / dr)), 0)
        assert n_inside < M                  # the fresh extension is used
        dB[j, n_inside:] = normal_increments(
            path_seed(p.seed ^ embed._STRONG_SEED_SALT, 1), M - n_inside, dr)
    tau_w = np.array([we.tau_weak for we in embs])
    tau_s = embed._integrate_strong(f, coeffs, dB, dr, r_max, K2)["tau"]
    assert np.array_equal(rt["tau_weak"], tau_w)
    assert np.array_equal(rt["tau_strong"], tau_s)
    assert rt["weak_identity_residual_max"] == max(
        we.identity_residual for we in embs)
    assert rt["mean_abs_diff"] == float(np.abs(tau_w - tau_s).mean())
    assert rt["max_abs_diff"] == float(np.abs(tau_w - tau_s).max())


def _strong_reference(f, coeffs, dB, dr, r_max, K2):
    """The strong rule one path at a time: the same Euler step in plain
    Python, with ``eval_field`` on one-element arrays.  A path stops at its
    first crossing (interpolated inside the step), at |Sigma| >= K2 after a
    step, or at the end of the r-grid (K1)."""
    m_max = min(dB.shape[1], int(np.ceil(r_max / dr)))
    r_left = np.arange(m_max) * dr
    beta_r = np.asarray(coeffs.beta(r_left))
    H_r = np.asarray(coeffs.clock_H(r_left))
    floor, L_g = f.deriv_floor_eps, f.g_lipschitz
    rows, paths, clamp_hits, steps = [], [], [], []
    for dB_j in dB:
        sigma = Sigma = ibw = 0.0
        path = [sigma]
        clamp_hits.append(0)
        steps.append(0)
        for m in range(m_max):
            u1 = eval_field(f, np.clip([sigma], 0.0, 1.0), np.array([Sigma]),
                            H_r[m], "u1")[0]
            clamp_hits[-1] += int(u1 < floor)
            steps[-1] += 1
            u1c = float(np.clip(u1, floor, L_g))
            b = beta_r[m]
            dsig = dr * b * b / (u1c * u1c)
            dSig = (b / u1c) * dB_j[m]
            dW = b * dB_j[m]
            if sigma + dsig >= 1.0:
                theta = (1.0 - sigma) / dsig
                row = (r_left[m] + theta * dr, Sigma + theta * dSig,
                       ibw + theta * dW, 0)
                path.append(sigma)
                break
            sigma, Sigma, ibw = sigma + dsig, Sigma + dSig, ibw + dW
            path.append(sigma)
            if abs(Sigma) >= K2:
                row = (r_left[m] + dr, Sigma, ibw, 2)
                break
        else:
            row = (m_max * dr, Sigma, ibw, 1)
        rows.append(row)
        paths.append(path)
    tau, Sigma_tau, ibw_tau, guard = map(np.array, zip(*rows))
    return {"tau": tau, "Sigma_tau": Sigma_tau, "int_beta_dB": ibw_tau,
            "guard": guard.astype(np.int8),
            "clamp_hits": np.array(clamp_hits, dtype=np.int64),
            "steps": np.array(steps, dtype=np.int64)}, paths


def test_strong_rule_matches_per_path_reference_with_mixed_stops(
        case_uniform_k025, monkeypatch):
    # K1 and K2 chosen so that crossings, K2 breaches and K1 ends all occur
    # among the 37 paths (seed 3: 19 / 5 / 13)
    c = case_uniform_k025.value
    f, coeffs = c["field"], c["coeffs"]
    K1, K2, n_steps = 0.1, 1.5, 512
    r_max, K2 = embed._strong_limits(f, coeffs, K1, K2)
    dr = r_max / n_steps
    seeds = path_seed(3 ^ embed._STRONG_SEED_SALT, np.arange(37))
    dB = np.array([normal_increments(int(s), n_steps, dr) for s in seeds])
    ref, ref_paths = _strong_reference(f, coeffs, dB, dr, r_max, K2)
    assert set(ref["guard"].tolist()) == {0, 1, 2}

    def check(res, expect):
        assert res.keys() >= expect.keys()
        for key, want in expect.items():
            assert np.array_equal(res[key], want), key
            assert np.asarray(res[key]).dtype == np.asarray(want).dtype, key

    # one dense block holding all three kinds of stop, with every path's
    # sigma frozen after its stop step.  One crossing path gets a large
    # increment at its crossing step, so that step also leaves |Sigma| >= K2
    # (dSig >= 10 K2 / L_g); it stays a crossing, since whether sigma crosses
    # depends only on the state before the step
    j0 = int(np.flatnonzero(ref["guard"] == 0)[0])
    dense = dB.copy()
    dense[j0, len(ref_paths[j0]) - 2] = 10.0 * K2
    row0, _ = _strong_reference(f, coeffs, dense[j0:j0 + 1], dr, r_max, K2)
    assert row0["guard"][0] == 0
    dense_ref = {key: np.array(want) for key, want in ref.items()}
    for key in ("tau", "Sigma_tau", "int_beta_dB"):
        dense_ref[key][j0] = row0[key][0]
    res = embed._integrate_strong(f, coeffs, dense, dr, r_max, K2,
                                  keep_paths=True)
    check(res, dense_ref)
    width = max(len(p) for p in ref_paths)
    assert np.array_equal(res["sigma_path"], np.array(
        [p + p[-1:] * (width - len(p)) for p in ref_paths]))

    # the streamed noise through strong_embed_on_W, at two block sizes
    integrate = embed._integrate_strong
    blocks = []

    def recorded(*args, **kwargs):
        blocks.append(integrate(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(embed, "_integrate_strong", recorded)
    for block in (5, 16):
        blocks.clear()
        monkeypatch.setattr(embed, "_STRONG_BLOCK", block)
        er = strong_embed_on_W(f, coeffs, 37, n_steps, seed=3, K1=K1, K2=K2)
        assert len(blocks) == -(-37 // block)
        check({key: (np.concatenate([b[key] for b in blocks])
                     if isinstance(ref[key], np.ndarray)
                     else sum(b[key] for b in blocks)) for key in ref}, ref)
        assert np.array_equal(er.tau_strong, ref["tau"])
        assert er.guard_counts == {
            "K1": int(np.count_nonzero(ref["guard"] == 1)),
            "K2": int(np.count_nonzero(ref["guard"] == 2))}
    monkeypatch.setattr(embed, "_integrate_strong", integrate)

    # the one-path rule keeps sigma up to and including the stop step: at a
    # crossing the last value repeats, at a breach it is the breached step
    for kind in (0, 1, 2):
        j = int(np.flatnonzero(ref["guard"] == kind)[0])
        one = embed._integrate_strong(f, coeffs, dB[j:j + 1], dr, r_max, K2,
                                      keep_paths=True)
        assert np.array_equal(one["sigma_path"][0], ref_paths[j])
        ss = strong_stopping_time(f, coeffs, dB[j], dr, K1=K1, K2=K2)
        assert np.array_equal(ss.sigma_path, ref_paths[j])
        assert (ss.tau, ss.Sigma_tau) == (ref["tau"][j], ref["Sigma_tau"][j])
        assert ss.guard == ("none", "K1", "K2")[kind]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 24),
       block=st.integers(1, 16))
def test_weak_tau_bound_property(case_small, seed, n_paths, block):
    c = case_small.value
    bound = float(c["coeffs"].clock_H_inv(c["field"].g_lipschitz ** 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embed, "_WEAK_BLOCK", block)
        weak = weak_embed_ensemble(c["field"], c["coeffs"], n_paths, 256,
                                   seed, g=c["g"])
    assert weak["tau_weak"].shape == (n_paths,)
    assert np.all(weak["tau_weak"] <= bound + 1e-6)
