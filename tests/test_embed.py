from dataclasses import replace

import numpy as np
import pytest

from skofbsde import embed
from skofbsde.embed import (coupled_round_trip, strong_embed_on_W,
                            strong_stopping_time, tau_bound, weak_embed,
                            weak_embed_ensemble)
from skofbsde.errors import ConfigError, LocalizationError
from skofbsde.fbsde import (increment_block, normal_increments, simulate_block,
                            simulate_path)


def test_weak_embed_trivial(case_trivial):
    c = case_trivial.value
    p = simulate_path(c["field"], n_steps=1024, seed=17)
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
    p = simulate_path(c["field"], n_steps=4096, seed=71)
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
    dr = tau_bound(c["field"], c["coeffs"]) / 512
    dB = normal_increments(6, 2048, dr)
    with pytest.raises(LocalizationError):
        strong_stopping_time(c["field"], c["coeffs"], dB, dr, K2=1e-4)


def test_strong_embed_constants(case_uniform_k025):
    c = case_uniform_k025.value
    er = strong_embed_on_W(c["field"], c["coeffs"], 512, 2048, seed=90, g=c["g"])
    # the starting constant is the field value at the origin
    from skofbsde.field import eval_field
    assert er.c == eval_field(c["field"], 0.0, 0.0, 0.0)
    assert er.tau_bound == pytest.approx(tau_bound(c["field"], c["coeffs"]))
    assert er.guard_counts == {"K1": 0, "K2": 0}
    assert np.all(er.tau_strong <= er.tau_bound + er.dr)
    assert er.extras["strong_identity_mean"] < 1e-2


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
    K1, K2 = embed._default_guards(f, c["coeffs"])
    whole = embed._integrate_strong(
        f, c["coeffs"], increment_block(er.seeds, 2048, er.dr), er.dr, K1, K2)
    assert whole["clamp_hits"] > 0
    assert fractions == [whole["clamp_hits"] / whole["total_steps"]] * 2


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


def test_embeddings_require_unit_horizon(case_uniform_k025):
    c = case_uniform_k025.value
    f2 = replace(c["field"], t_grid=c["field"].t_grid * 2.0)
    with pytest.raises(ConfigError):
        strong_embed_on_W(f2, c["coeffs"], 4, 2048, seed=2)
