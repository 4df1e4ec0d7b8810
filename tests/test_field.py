import json

import numpy as np
import pytest
from conftest import make_case
from hypothesis import assume, given, settings, strategies as st

from skofbsde.coeffs import ProcessCoefficients, TimeFunction
from skofbsde.errors import (ConfigError, CutoffActiveError, DomainError,
                             NonLipschitzError)
from skofbsde.field import (SolverConfig, _coupled_system_derivatives,
                            derivative_fields, eval_field, field_diagnostics,
                            load_field, save_field, sidecar_path, solve_field)
from skofbsde.measure import TargetMeasure, make_g
from skofbsde.verify import OracleField


def small_cfg(L_g, **kw):
    return SolverConfig.defaults(L_g, nt=kw.pop("nt", 64),
                                 nx1=kw.pop("nx1", 65), nx2=kw.pop("nx2", 33))


def test_trivial_field_is_identity(case_trivial):
    f = case_trivial.value["field"]
    assert np.abs(f.u - f.x1_grid[None, :, None]).max() < 1e-6
    assert np.abs(f.u1 - 1.0).max() < 1e-6
    assert np.abs(f.u2).max() < 1e-6


def test_linear_drift_closed_form(case_linear, linear_exact):
    f = case_linear.value["field"]
    assert np.abs(f.u - linear_exact(f)).max() < 1e-3
    assert eval_field(f, 0.0, 0.0, 0.0) == pytest.approx(-0.5, abs=1e-6)


def test_linear_drift_derivatives(case_linear):
    f = case_linear.value["field"]
    assert np.abs(f.u1 - 1.0).max() < 1e-6
    assert np.abs(f.u2 + 0.5).max() < 1e-6


def test_convolution_oracle_no_drift(case_uniform_nodrift):
    # with zero drift the field is the Gaussian smoothing of g alone
    c = case_uniform_nodrift.value
    f = c["field"]
    oracle = OracleField("no_drift", c["g"])
    sub_t = f.t_grid[::32]
    interior = np.abs(f.x1_grid) <= 4.0
    worst = 0.0
    for t in sub_t:
        o = oracle(np.full(interior.sum(), t), f.x1_grid[interior])
        n = f.u[np.searchsorted(f.t_grid, t), interior, 0]
        worst = max(worst, np.abs(n - o).max())
    assert worst < 1e-3


def test_cole_hopf_oracle_spot(case_uniform_k05):
    c = case_uniform_k05.value
    f = c["field"]
    oracle = OracleField("linear_drift", c["g"], kappa=0.5)
    for (t, x1, x2) in ((0.0, 0.0, 0.0), (0.5, -1.0, 0.05), (0.25, 1.3, 0.1)):
        assert eval_field(f, t, x1, x2) == pytest.approx(
            float(oracle(t, x1, x2)), abs=2e-3)


def test_terminal_layer_exact(case_uniform_k05):
    c = case_uniform_k05.value
    f = c["field"]
    term = np.asarray(c["g"](f.x1_grid))[:, None] - \
        np.asarray(c["delta"](f.x2_grid))[None, :]
    assert np.array_equal(f.u[-1], term)


def test_eval_field_node_and_midpoint(case_linear):
    f = case_linear.value["field"]
    it, i1, i2 = 10, 100, 50
    assert eval_field(f, f.t_grid[it], f.x1_grid[i1], f.x2_grid[i2]) == \
        f.u[it, i1, i2]
    mid = 0.5 * (f.x1_grid[i1] + f.x1_grid[i1 + 1])
    got = eval_field(f, f.t_grid[it], mid, f.x2_grid[i2])
    assert got == pytest.approx(0.5 * (f.u[it, i1, i2] + f.u[it, i1 + 1, i2]),
                                abs=1e-12)


def test_eval_field_linear_case_anywhere(case_linear):
    f = case_linear.value["field"]
    rng = np.random.default_rng(5)
    t = rng.uniform(0, 1, 64)
    x1 = rng.uniform(-5, 5, 64)
    x2 = rng.uniform(0, 1.0, 64)
    got = eval_field(f, t, x1, x2)
    assert np.abs(got - (x1 - 0.5 * x2 - 0.5 * (1 - t))).max() < 1e-6


def test_eval_field_extrapolation(case_linear):
    f = case_linear.value["field"]
    # u extrapolates linearly in x1 beyond the box
    assert eval_field(f, 0.5, 8.0, 0.0) == pytest.approx(
        8.0 - 0.25, abs=1e-6)
    # derivative fields clamp instead
    assert eval_field(f, 0.5, 8.0, 0.0, "u1") == pytest.approx(1.0, abs=1e-6)
    # x2 clamps on both sides
    assert eval_field(f, 0.5, 0.0, 99.0) == pytest.approx(
        eval_field(f, 0.5, 0.0, f.x2_grid[-1]), abs=1e-12)


def test_eval_field_domain_errors(case_linear):
    f = case_linear.value["field"]
    with pytest.raises(DomainError):
        eval_field(f, -0.01, 0.0, 0.0)
    with pytest.raises(DomainError):
        eval_field(f, 1.01, 0.0, 0.0)
    with pytest.raises(DomainError):
        eval_field(f, 0.5, 0.0, 0.0, "nope")
    with pytest.raises(DomainError):
        eval_field(f, 0.5, 0.0, 0.0, ("u1", "nope"))


def _tuple_query_shapes(f):
    """The argument shapes eval_field serves, with x1 outside the box (u
    extrapolates, u1/u2 clamp) and x2 outside [0, x2_hi]."""
    rng = np.random.default_rng(11)
    T, lo, hi = f.T, f.x1_grid[0], f.x1_grid[-1]
    x2_hi = f.x2_grid[-1]
    n = 400
    t = rng.uniform(0.0, T, n)
    x1 = rng.uniform(lo - 2.0, hi + 2.0, n)
    x2 = rng.uniform(-0.2, x2_hi + 0.2, n)
    return {
        "sweep": (0.4375, x1, x2),
        "strong_rule": (t, x1, 0.3 * x2_hi),
        "broadcast_2d": (t[:20, None], x1[None, :30], x2[:30]),
        "outside_box": (T, np.array([lo - 1.5, hi + 1.5, 0.1]),
                        np.array([-0.5, x2_hi + 0.5, x2_hi])),
        "scalar": (0.3, hi + 3.0, -1.0),
    }


@pytest.mark.parametrize("shape", ["sweep", "strong_rule", "broadcast_2d",
                                   "outside_box", "scalar"])
def test_eval_field_tuple_matches_per_name(case_uniform_k05, shape):
    f = case_uniform_k05.value["field"]
    args = _tuple_query_shapes(f)[shape]
    names = ("u1", "u", "u2")
    got = eval_field(f, *args, names)
    assert isinstance(got, tuple) and len(got) == 3
    for name, res in zip(names, got):
        assert np.array_equal(res, eval_field(f, *args, name))
    if shape == "scalar":
        assert all(type(v) is float for v in got)
    if shape == "outside_box":
        u, u1 = got[1], got[0]
        # u extrapolates past the x1 box, u1 clamps to its edge values
        assert u[0] != eval_field(f, args[0], f.x1_grid[0], args[2][0])
        assert u1[0] == eval_field(f, args[0], f.x1_grid[0], args[2][0], "u1")
        assert u1[1] == eval_field(f, args[0], f.x1_grid[-1], args[2][1], "u1")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_eval_field_exact_at_nodes_property(case_uniform_k05, data):
    # up to the rounding of the cell weights (u keeps its x1 weight
    # unclipped, so a node can read w1 = 1 - 1 ulp of the cell below)
    f = case_uniform_k05.value["field"]
    nt1, nx1, nx2 = f.u.shape
    it = data.draw(st.integers(0, nt1 - 1))
    i1 = data.draw(st.integers(0, nx1 - 1))
    i2 = data.draw(st.integers(0, nx2 - 1))
    q = (f.t_grid[it], f.x1_grid[i1], f.x2_grid[i2])
    names = ("u", "u1", "u2")
    for name, got in zip(names, eval_field(f, *q, names)):
        assert got == pytest.approx(getattr(f, name)[it, i1, i2],
                                    rel=1e-14, abs=1e-14)


def test_derivative_methods_agree(case_uniform_k05):
    c = case_uniform_k05.value
    f = c["field"]
    v1, v2 = _coupled_system_derivatives(f, c["g"], c["delta"])
    # coupled-system u2 for a linear delayed drift is the constant -kappa
    assert np.abs(v2 + 0.5).max() < 5e-3
    # u1 matches the x1 derivative of the exponential-transform oracle
    oracle = OracleField("linear_drift", c["g"], kappa=0.5)
    h = 1e-5
    inner = np.abs(f.x1_grid) <= 2.0
    x1 = f.x1_grid[inner]
    du = (oracle(np.zeros_like(x1), x1 + h) - oracle(np.zeros_like(x1), x1 - h)) / (2 * h)
    assert np.abs(v1[0, inner, 0] - du).max() < 2e-3


def test_derivative_method_unknown(case_linear):
    with pytest.raises(ConfigError):
        derivative_fields(case_linear.value["field"], "spectral")


def test_diagnostics_pass_on_cases(case_trivial, case_linear, case_uniform_k05,
                                   case_normal_sin):
    for case in (case_trivial, case_linear, case_uniform_k05, case_normal_sin):
        c = case.value
        diag = field_diagnostics(c["field"], c["g"], c["delta"])
        assert diag.all_passed, [vars(ch) for ch in diag.checks if not ch.passed]
        assert diag.z_sup <= c["g"].lipschitz + 1e-2
        assert diag.min_u1_interior > 0.0


@st.composite
def lipschitz_laws(draw):
    """A random uniform, normal or piecewise-linear-CDF law whose g has
    L_g <= 3 (the fixed point of a solve with larger constants can fail to
    contract on the 64-step grid, a solver failure, not a positivity
    case)."""
    kind = draw(st.sampled_from(["uniform", "normal", "piecewise_cdf"]))
    loc = draw(st.floats(-10.0, 10.0))
    if kind == "uniform":
        m = TargetMeasure.uniform(loc, loc + draw(st.floats(1e-2, 7.5)))
    elif kind == "normal":
        m = TargetMeasure.normal(loc, draw(st.floats(1e-2, 3.0)))
    else:
        widths = draw(st.lists(st.floats(1e-2, 2.0), min_size=1, max_size=6))
        masses = draw(st.lists(st.floats(5e-2, 1.0), min_size=len(widths),
                               max_size=len(widths)))
        cum = np.cumsum([0.0] + masses)
        m = TargetMeasure.piecewise_cdf(loc + np.cumsum([0.0] + widths),
                                        cum / cum[-1])
    assume(make_g(m).lipschitz <= 3.0)
    return m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lipschitz_laws(), st.floats(-0.5, 0.5), st.floats(0.8, 1.25))
def test_u1_positive_property(m, alpha, beta):
    # constant coefficients over the range of the shipped configurations
    f = make_case(m, TimeFunction.const(alpha), TimeFunction.const(beta),
                  beta, nt=64, nx1=65, nx2=33)["field"]
    assert f.u1[:-1].min() > 0.0


def test_sin_drift_transport_closed_form(case_normal_sin):
    # for the identity transform the field rides the x2 characteristic:
    # u(t, x1, x2) = x1 - delta(x2 + T - t); compare where paths can reach
    # (x2 <= t), away from the top-boundary inflow cone
    c = case_normal_sin.value
    f = c["field"]
    delta_closed = lambda x: 0.3 * (1.0 - np.cos(x / 1.44))
    tt, xx1, xx2 = np.meshgrid(f.t_grid, f.x1_grid, f.x2_grid, indexing="ij")
    err = np.abs(f.u - (xx1 - delta_closed(xx2 + f.T - tt)))
    reachable = xx2 <= tt + 1e-12
    assert err[reachable].max() < 5e-3


def test_cfl_enforced():
    g = make_g(TargetMeasure.normal(0, 1))
    with pytest.raises(ConfigError, match="nt >="):
        SolverConfig.defaults(g.lipschitz, nt=32, nx2=129).validate(g.lipschitz)


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig.defaults(1.0, nt=1).validate(1.0)
    with pytest.raises(ConfigError):   # cutoff below L_g
        SolverConfig(cutoff_H=0.5).validate(1.0)
    with pytest.raises(ConfigError):   # x2 box does not cover L_g^2 T
        SolverConfig(x2_hi=0.5, cutoff_H=4.0).validate(1.0)


def test_non_lipschitz_rejected():
    g = make_g(TargetMeasure.empirical(np.linspace(0, 1, 32)))
    c = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                            TimeFunction.const(1.0), 1.0, t_phys=2.0)
    with pytest.raises(NonLipschitzError):
        solve_field(g, c.delayed_drift(), small_cfg(g.lipschitz))


def test_cutoff_must_be_passive():
    # cutoff barely above L_g is triggered by transient gradients
    g = make_g(TargetMeasure.normal(0, 1))
    c = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                            TimeFunction.const(1.0), 1.0, t_phys=2.0)
    cfg = SolverConfig.defaults(g.lipschitz, nt=64, nx1=65, nx2=33)
    bad = SolverConfig(**{**vars(cfg), "cutoff_H": g.lipschitz * (1.0 + 1e-9)})
    with pytest.raises(CutoffActiveError):
        solve_field(g, c.delayed_drift(), bad)


def test_save_load_round_trip(tmp_path, case_uniform_k05):
    c = case_uniform_k05.value
    f = solve_field(c["g"], c["delta"], small_cfg(c["g"].lipschitz))
    diag = field_diagnostics(f, c["g"], c["delta"])
    path = str(tmp_path / "field.csv")
    save_field(f, path, diag)
    g2 = load_field(path)
    for name in ("u", "u1", "u2", "t_grid", "x1_grid", "x2_grid"):
        assert np.array_equal(getattr(f, name), getattr(g2, name)), name
    assert g2.g_lipschitz == f.g_lipschitz
    meta = json.loads((tmp_path / "field.json").read_text())
    assert meta["diagnostics"] == json.loads(json.dumps(diag.to_dict()))
    nt1, nx1, nx2 = f.u.shape
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert len(lines) == nt1 * nx1
    assert all(line.count(",") == nx2 - 1 for line in lines)
    again = str(tmp_path / "again.csv")
    save_field(f, again, diag)
    for a, b in ((path, again), (sidecar_path(path), sidecar_path(again))):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_load_recomputes_fd_derivatives(tmp_path, case_uniform_k05):
    # the coupled check only sets deriv_mismatch; the field keeps its FD
    # derivatives, and a reload recomputes the same ones from u
    c = case_uniform_k05.value
    f = solve_field(c["g"], c["delta"], small_cfg(c["g"].lipschitz))
    arrays = (f.u, f.u1, f.u2)
    copies = [a.copy() for a in arrays]
    assert derivative_fields(f, "coupled_system", g=c["g"],
                             delta=c["delta"]) is f
    for a, b, now in zip(arrays, copies, (f.u, f.u1, f.u2)):
        assert now is a and np.array_equal(a, b)
    assert 0.0 <= f.deriv_mismatch < np.inf
    path = str(tmp_path / "field.csv")
    save_field(f, path)
    g2 = load_field(path)
    assert np.array_equal(g2.u1, f.u1) and np.array_equal(g2.u2, f.u2)


def test_load_missing_sidecar(tmp_path, case_uniform_k05):
    c = case_uniform_k05.value
    f = solve_field(c["g"], c["delta"], small_cfg(c["g"].lipschitz))
    path = str(tmp_path / "f.csv")
    save_field(f, path)
    (tmp_path / "f.json").unlink()
    with pytest.raises(ConfigError):
        load_field(path)


def test_grid_convergence_real_error_case(case_uniform_k05):
    # where the solution is genuinely curved, doubling all grids cuts the
    # oracle error by roughly half
    c = case_uniform_k05.value
    oracle = OracleField("linear_drift", c["g"], kappa=0.5)
    errs = []
    for nt, nx1, nx2 in ((128, 129, 65), (256, 257, 129)):
        f = solve_field(c["g"], c["delta"],
                        SolverConfig.defaults(c["g"].lipschitz,
                                              nt=nt, nx1=nx1, nx2=nx2))
        mask = np.abs(f.x1_grid) <= 2.0
        errs.append(np.abs(f.u[0, mask, 0]
                           - oracle(0.0, f.x1_grid[mask], 0.0)).max())
    assert 1.5 <= errs[0] / errs[1] <= 3.0
