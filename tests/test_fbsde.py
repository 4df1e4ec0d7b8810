import dataclasses
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skofbsde import embed, fbsde
from skofbsde.embed import (_STRONG_SEED_SALT, coupled_round_trip,
                            strong_embed_on_W, weak_embed_ensemble)
from skofbsde.fbsde import (IncrementStreams, backward_residual,
                            martingale_check, normal_increments, path_seed,
                            simulate_block, simulate_ensemble)
from skofbsde.field import eval_field
from skofbsde.measure import phi_inv
from skofbsde.verify import shifted_field


def reference_increments(seed, n_steps, dt):
    """N(0, dt) increments drawn through ``Generator.integers``: interior
    uniforms (v + 1/2) / 2^53 from a Philox stream, mapped by phi_inv."""
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    v = gen.integers(0, 1 << 53, size=n_steps, dtype=np.uint64)
    return np.sqrt(dt) * phi_inv((v.astype(np.float64) + 0.5) * 2.0**-53)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), n_steps=st.integers(1, 600),
       chunk=st.integers(1, 300),
       stops=st.lists(st.integers(0, 600), min_size=1, max_size=6))
def test_increment_streams_match_normal_increments(seed, n_steps, chunk,
                                                   stops):
    # rows read column by column, each until its own stop step, as the
    # strong pass does: every increment drawn is the reference's bitwise
    seeds = path_seed(seed, np.arange(len(stops)))
    dt = 1.0 / n_steps
    stops = np.minimum(stops, n_steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbsde, "_NOISE_CHUNK", chunk)
        streams = IncrementStreams(seeds, n_steps, dt)
        drawn = [[] for _ in stops]
        for k in range(n_steps):
            rows = np.flatnonzero(stops > k)
            if rows.size == 0:
                break
            for i, v in zip(rows, streams.column(k, rows)):
                drawn[i].append(v)
    for s, stop, got in zip(seeds, stops, drawn):
        want = reference_increments(s, n_steps, dt)[:stop]
        assert np.array_equal(np.array(got), want)
    # all rows, in draws of alternating widths
    streams = IncrementStreams(seeds, n_steps, dt)
    parts, done = [], 0
    while done < n_steps:
        m = min(chunk if len(parts) % 2 == 0 else 1, n_steps - done)
        parts.append(streams.next(m))
        done += m
    want = [reference_increments(s, n_steps, dt) for s in seeds]
    assert np.array_equal(np.concatenate(parts, axis=1), np.array(want))
    got = [normal_increments(int(s), n_steps, dt) for s in seeds]
    assert np.array_equal(np.array(got), np.array(want))


def test_map_blocks_frees_a_block_before_the_next():
    # fn returns a view of its block buffer last; the copy into the result
    # must not keep that buffer alive into the next block
    refs = []

    def fn(lo, hi):
        assert all(r() is None for r in refs)
        buf = np.full((hi - lo, 1000), float(lo))
        refs.append(weakref.ref(buf))
        return np.arange(lo, hi), buf[:, 0]

    idx, first = fbsde.map_blocks(10, 4, fn)
    assert len(refs) == 3
    assert idx.tolist() == list(range(10))
    assert first.tolist() == [0.0] * 4 + [4.0] * 4 + [8.0] * 2


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
    p = simulate_block(f, 9, [0], 512)[0]
    assert np.abs(p.Z - 1.0).max() < 1e-9
    assert p.X2[-1] == pytest.approx(1.0, abs=1e-12)
    assert backward_residual(p) < 1e-12
    assert np.array_equal(p.X1, p.W)  # zero start: X1 = W


def test_reproducible_path(case_trivial):
    f = case_trivial.value["field"]
    p1 = simulate_block(f, 1234, [0], 256)[0]
    p2 = simulate_block(f, 1234, [0], 256)[0]
    for a, b in ((p1.W, p2.W), (p1.X2, p2.X2), (p1.Y, p2.Y), (p1.Z, p2.Z)):
        assert np.array_equal(a, b)


def test_linear_field_path_identities(case_linear):
    f = case_linear.value["field"]
    p = simulate_block(f, 31, [0], 4096)[0]
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
    dt = 1.0 / 1024
    for p in simulate_block(f, 902, range(32), 1024):
        assert p.z_abs_max_raw <= L + 1e-2
        assert np.abs(p.Z).max() <= L + 1e-12     # certified projection
        assert p.X2[-1] <= L**2 + 1e-2
        inc = np.diff(p.X2)
        assert np.all(inc >= 0.0)
        assert np.abs(inc - p.Z[:-1] ** 2 * dt).max() < 1e-15


def test_simulate_block_returns_whole_paths(case_uniform_k025):
    f = case_uniform_k025.value["field"]
    n_steps = 256
    paths = simulate_block(f, 55, range(37), n_steps)
    assert len(paths) == 37
    for i, p in enumerate(paths):
        for a in (p.W, p.X1, p.X2, p.Y, p.Z):
            assert a.shape == (n_steps + 1,)
        # every path starts at the origin, so X1 is W's array
        assert np.array_equal(p.X1, p.W)
        assert np.shares_memory(p.X1, p.W)
        assert p.W[0] == 0.0 and p.X2[0] == 0.0
        assert np.array_equal(p.W[1:], np.cumsum(
            normal_increments(p.seed, n_steps, 1.0 / n_steps)))
        # one path alone gives the same arrays as inside a block
        q = simulate_block(f, 55, [i], n_steps)[0]
        for name in ("t_grid", "W", "X1", "X2", "Y", "Z"):
            assert np.array_equal(getattr(p, name), getattr(q, name)), name
        assert p.z_abs_max_raw == q.z_abs_max_raw
    # no indices, no paths
    assert simulate_block(f, 55, [], n_steps) == []


def _reference_sweep(f, seeds, n_steps):
    """The Euler sweep with every lookup made at every step: one
    ``eval_field`` call for ``u1`` and one for ``u`` per step, at X1 = W
    from the origin.  Returns whole (paths, steps + 1) arrays."""
    dt = 1.0 / n_steps
    n = seeds.size
    t_grid = np.linspace(0.0, 1.0, n_steps + 1)
    W, X2, Y, Z = np.empty((4, n, n_steps + 1))
    noise = IncrementStreams(seeds, n_steps, dt)
    w = np.zeros(n)
    X2[:, 0] = 0.0
    L_g = f.g_lipschitz
    z_raw_max = np.zeros(n)
    for k in range(n_steps + 1):
        W[:, k] = w
        zk = eval_field(f, t_grid[k], w, X2[:, k], "u1")
        Y[:, k] = eval_field(f, t_grid[k], w, X2[:, k], "u")
        np.maximum(z_raw_max, np.abs(zk), out=z_raw_max)
        zk = np.minimum(np.maximum(-L_g, zk), L_g)
        Z[:, k] = zk
        if k < n_steps:
            X2[:, k + 1] = X2[:, k] + zk * zk * dt
            w = w + noise.column(k)
    return t_grid, W, X2, Y, Z, z_raw_max


@pytest.mark.parametrize("case", ["case_small", "case_uniform_k025"])
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**64 - 1), n_paths=st.integers(1, 9),
       shift=st.floats(-7.0, 7.0), block=st.integers(2, 7),
       blocks=st.integers(1, 6), data=st.data(), paths=st.booleans())
def test_sweep_matches_per_step_reference(request, case, seed, n_paths, shift,
                                          block, blocks, data, paths):
    # blocks of `block` steps over n_steps + 1 sweep points, a multiple of
    # neither; the x1 box shifted by up to 7, so that paths start outside
    # it (u extrapolates, u1 clamps): every array bitwise the per-step
    # sweep's
    f = request.getfixturevalue(case).value["field"]
    f = dataclasses.replace(f, x1_grid=f.x1_grid + shift)
    n_steps = blocks * block + data.draw(st.integers(1, block - 1)) - 1
    seeds = path_seed(seed, np.arange(n_paths))
    want = _reference_sweep(f, seeds, n_steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbsde, "_STEP_BLOCK_BYTES", 8 * n_paths * block)
        got = fbsde._simulate_arrays(f, seeds, n_steps, paths)
    if not paths:
        want = list(want)
        want[1], want[4] = want[1][:, -1], None
    for name, a, b in zip(("t_grid", "W", "X2", "Y", "Z", "z_abs_max_raw"),
                          got, want):
        assert (a is None and b is None) or np.array_equal(a, b), name


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
    # 37 paths: a multiple of neither block size; noise chunks of 7 columns
    # divide none of the step counts; Euler sweeps of the default step
    # block and of 1 and 3 steps (16 paths) per block
    for block, chunk, step_bytes in ((5, 256, fbsde._STEP_BLOCK_BYTES),
                                     (16, 256, 8), (16, 7, 3 * 8 * 16)):
        monkeypatch.setattr(module, constant, block)
        monkeypatch.setattr(fbsde, "_NOISE_CHUNK", chunk)
        monkeypatch.setattr(fbsde, "_STEP_BLOCK_BYTES", step_bytes)
        res = run(case_uniform_k025.value)
        results.append(res if isinstance(res, dict) else vars(res))
    a = results[0]
    for b in results[1:]:
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
