import warnings

import numpy as np
import pytest

from skofbsde import embed, fbsde
from skofbsde.embed import (_STRONG_SEED_SALT, coupled_round_trip,
                            strong_embed_on_W, weak_embed_ensemble)
from skofbsde.fbsde import (backward_residual, martingale_check,
                            normal_increments, path_seed, simulate_block,
                            simulate_ensemble, simulate_path)
from skofbsde.verify import shifted_field


def test_increment_stream_is_deterministic():
    a = normal_increments(123, 1024, 0.5)
    b = normal_increments(123, 1024, 0.5)
    assert np.array_equal(a, b)
    c = normal_increments(124, 1024, 0.5)
    assert not np.array_equal(a, c)


def test_increment_moments():
    z = normal_increments(777, 400_000, 1.0)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs((z**4).mean() - 3.0) < 0.1


def test_path_seed_spreads():
    seeds = {path_seed(42, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def _splitmix_reference(base, index):
    mask = (1 << 64) - 1
    z = (base + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("base", [0, 2**64 - 1, 55 ^ _STRONG_SEED_SALT])
def test_path_seed_arrays(base):
    n = 5000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seeds = path_seed(base, np.arange(n))
        scalar = [path_seed(base, i) for i in range(n)]
    assert seeds.dtype == np.uint64
    assert all(type(s) is int for s in scalar)
    assert seeds.tolist() == scalar
    assert scalar == [_splitmix_reference(base, i) for i in range(n)]


def test_trivial_path(case_trivial):
    f = case_trivial.value["field"]
    p = simulate_path(f, n_steps=512, seed=9)
    assert np.abs(p.Z - 1.0).max() < 1e-9
    assert p.X2[-1] == pytest.approx(f.T, abs=1e-12)
    assert backward_residual(p) < 1e-12
    assert np.array_equal(p.X1, p.W)  # zero start: X1 = W


def test_reproducible_path(case_trivial):
    f = case_trivial.value["field"]
    p1 = simulate_path(f, n_steps=256, seed=1234)
    p2 = simulate_path(f, n_steps=256, seed=1234)
    for a, b in ((p1.W, p2.W), (p1.X2, p2.X2), (p1.Y, p2.Y), (p1.Z, p2.Z)):
        assert np.array_equal(a, b)


def test_linear_field_path_identities(case_linear):
    f = case_linear.value["field"]
    p = simulate_path(f, n_steps=4096, seed=31)
    assert p.Y[0] == pytest.approx(-0.5, abs=1e-6)
    # Z = 1 makes X2_T = T, so Y_T = X1_T - 0.5 T
    assert p.Y[-1] == pytest.approx(p.X1[-1] - 0.5, abs=1e-6)
    assert backward_residual(p) < 1e-9


def test_terminal_condition_per_path(case_uniform_k05):
    c = case_uniform_k05.value
    f = c["field"]
    for p in simulate_block(f, 800, range(8), 2048):
        yT = float(np.asarray(c["g"](p.X1[-1])) - np.asarray(c["delta"](p.X2[-1])))
        assert abs(p.Y[-1] - yT) < 2e-3   # 2x interpolation tolerance


def test_backward_residual_magnitude(case_uniform_k05):
    f = case_uniform_k05.value["field"]
    paths = simulate_block(f, 900, range(1000), 4096)
    mean_resid = np.mean([backward_residual(p) for p in paths])
    assert mean_resid < 5e-3


def test_backward_residual_shrinks_with_dt(case_uniform_k05):
    f = case_uniform_k05.value["field"]
    means = []
    for ns in (256, 512):
        paths = simulate_block(f, 901, range(128), ns)
        means.append(np.mean([backward_residual(p) for p in paths]))
    assert 1.2 <= means[0] / means[1] <= 2.5


def test_z_and_x2_bounds(case_uniform_k05):
    c = case_uniform_k05.value
    f = c["field"]
    L = c["g"].lipschitz
    dt = f.T / 1024
    for p in simulate_block(f, 902, range(32), 1024):
        assert p.z_abs_max_raw <= L + 1e-2
        assert np.abs(p.Z).max() <= L + 1e-12     # certified projection
        assert p.X2[-1] <= L**2 * f.T + 1e-2
        inc = np.diff(p.X2)
        assert np.all(inc >= 0.0)
        assert np.abs(inc - p.Z[:-1] ** 2 * dt).max() < 1e-15


# each ensemble routine, its block-size constant, and a small unit-horizon run
_ENSEMBLES = {
    "simulate_ensemble": (fbsde, "_ENSEMBLE_BLOCK", lambda c: simulate_ensemble(
        c["field"], 37, 256, seed=55)),
    "weak_embed_ensemble": (embed, "_WEAK_BLOCK", lambda c: weak_embed_ensemble(
        c["field"], c["coeffs"], 37, 256, seed=55, g=c["g"])),
    "strong_embed_on_W": (embed, "_STRONG_BLOCK", lambda c: strong_embed_on_W(
        c["field"], c["coeffs"], 37, 2048, seed=55, g=c["g"])),
    "coupled_round_trip": (embed, "_ROUND_TRIP_BLOCK", lambda c: coupled_round_trip(
        c["field"], c["coeffs"], 37, 1024, seed=55)),
}


@pytest.mark.parametrize("routine", list(_ENSEMBLES))
def test_ensemble_block_invariance(case_uniform_k025, monkeypatch, routine):
    module, constant, run = _ENSEMBLES[routine]
    results = []
    for block in (5, 16):                 # 37 paths: a multiple of neither
        monkeypatch.setattr(module, constant, block)
        res = run(case_uniform_k025.value)
        results.append(res if isinstance(res, dict) else vars(res))
    a, b = results
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert np.array_equal(a[key], b[key]), key
        else:
            assert a[key] == b[key], key


def test_martingale_check_passes(case_linear):
    f = case_linear.value["field"]
    ens = simulate_ensemble(f, 4000, 1024, seed=66)
    rep = martingale_check(ens)
    assert rep.mean_passed.all()
    assert rep.qv_passed.all()
    assert rep.all_passed


def test_martingale_check_negative_control(case_linear):
    # adding 0.1 t to the field breaks the martingale property of Y
    f = shifted_field(case_linear.value["field"], coef_t=0.1)
    ens = simulate_ensemble(f, 4000, 1024, seed=67)
    rep = martingale_check(ens)
    assert not rep.mean_passed.all()
    assert not rep.all_passed
