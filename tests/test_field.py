import dataclasses
import json
import mmap
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import make_case
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from skofbsde.coeffs import ProcessCoefficients, TimeFunction
from skofbsde.embed import strong_embed_on_W, weak_embed_ensemble
from skofbsde import fbsde
from skofbsde import field as field_mod
from skofbsde.errors import (ConfigError, CutoffActiveError,
                             DerivativeMismatchError, DomainError,
                             NonLipschitzError)
from skofbsde.field import (DecouplingField, SolverConfig, derivative_fields,
                            eval_field, field_diagnostics, load_field,
                            save_field, solve_field)
from skofbsde.measure import TargetMeasure, make_g
from skofbsde.verify import OracleField, shifted_field


def fd_u1(f):
    """The x1 derivative of u by finite differences, the ``u1`` that every
    reader forms (the field stores none)."""
    return np.gradient(f.u, f.x1_grid[1] - f.x1_grid[0], axis=1)


def fd_u2(f):
    """The x2 derivative of u by finite differences (the field stores none)."""
    return np.gradient(f.u, f.x2_grid[1] - f.x2_grid[0], axis=2)


def small_cfg(L_g, **kw):
    return SolverConfig.defaults(L_g, nt=kw.pop("nt", 64),
                                 nx1=kw.pop("nx1", 65), nx2=kw.pop("nx2", 33))


def test_trivial_field_is_identity(case_trivial):
    f = case_trivial.value["field"]
    assert np.abs(f.u - f.x1_grid[None, :, None]).max() < 1e-6
    assert np.abs(fd_u1(f) - 1.0).max() < 1e-6
    assert np.abs(fd_u2(f)).max() < 1e-6


def test_linear_drift_closed_form(case_linear, linear_exact):
    f = case_linear.value["field"]
    assert np.abs(f.u - linear_exact(f)).max() < 1e-3
    assert eval_field(f, 0.0, 0.0, 0.0) == pytest.approx(-0.5, abs=1e-6)


def test_linear_drift_derivatives(case_linear):
    f = case_linear.value["field"]
    assert np.abs(fd_u1(f) - 1.0).max() < 1e-6
    assert np.abs(fd_u2(f) + 0.5).max() < 1e-6


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
    # the field stores no x2 derivative
    with pytest.raises(DomainError, match="u2"):
        eval_field(f, 0.5, 0.0, 0.0, "u2")
    with pytest.raises(DomainError):
        eval_field(f, 0.5, 0.0, 0.0, ("u", "u2"))
    # one component per call
    with pytest.raises(DomainError):
        eval_field(f, 0.5, 0.0, 0.0, ("u1", "u"))


def _query_shapes(f):
    """The argument shapes eval_field serves, with x1 outside the box (u
    extrapolates, u1 clamps) and x2 outside [0, x2_hi]."""
    rng = np.random.default_rng(11)
    lo, hi = f.x1_grid[0], f.x1_grid[-1]
    x2_hi = f.x2_grid[-1]
    n = 400
    t = rng.uniform(0.0, 1.0, n)
    x1 = rng.uniform(lo - 2.0, hi + 2.0, n)
    x2 = rng.uniform(-0.2, x2_hi + 0.2, n)
    return {
        "sweep": (0.4375, x1, x2),
        "strong_rule": (t, x1, 0.3 * x2_hi),
        "broadcast_2d": (t[:20, None], x1[None, :30], x2[:30]),
        "outside_box": (1.0, np.array([lo - 1.5, hi + 1.5, 0.1]),
                        np.array([-0.5, x2_hi + 0.5, x2_hi])),
        "scalar": (0.3, hi + 3.0, -1.0),
    }


@pytest.mark.parametrize("shape", ["sweep", "strong_rule", "broadcast_2d",
                                   "outside_box", "scalar"])
def test_eval_field_query_shapes(case_uniform_k05, shape):
    # each component, read one per call, is bitwise the lookup of the
    # whole-array reference: u with its x1 weight unclamped, u1 clamped
    f = case_uniform_k05.value["field"]
    args = _query_shapes(f)[shape]
    u1_ref = field_mod._gradient_into(np.empty_like(f.u), f.u,
                                      f.x1_grid[1] - f.x1_grid[0], axis=1)
    u, u1 = eval_field(f, *args, "u"), eval_field(f, *args, "u1")
    assert np.array_equal(u, _lerp_reference(f, f.u, *args, clamp_x1=False))
    assert np.array_equal(u1, _lerp_reference(f, u1_ref, *args))
    if shape == "scalar":
        assert type(u) is float and type(u1) is float
    if shape == "outside_box":
        # u extrapolates past the x1 box, u1 clamps to its edge values
        assert u[0] != eval_field(f, args[0], f.x1_grid[0], args[2][0])
        assert u1[0] == eval_field(f, args[0], f.x1_grid[0], args[2][0], "u1")
        assert u1[1] == eval_field(f, args[0], f.x1_grid[-1], args[2][1], "u1")


@pytest.mark.parametrize("name", ["u", "u1"])
def test_eval_field_time_column_matches_scalar_times(case_uniform_k05, name):
    # an (m, 1) column of times against (m, n) points, as the Euler sweep
    # reads Y a block of steps at a time: row j is bitwise the scalar-t
    # call at t[j], at and between time nodes, x1 and x2 outside the box
    f = case_uniform_k05.value["field"]
    rng = np.random.default_rng(12)
    lo, hi, x2_hi = f.x1_grid[0], f.x1_grid[-1], f.x2_grid[-1]
    t = np.concatenate([f.t_grid[[0, 1, 17, -2, -1]], rng.uniform(0, 1, 7)])
    x1 = rng.uniform(lo - 2.0, hi + 2.0, (t.size, 50))
    x2 = rng.uniform(-0.2, x2_hi + 0.2, (t.size, 50))
    got = eval_field(f, t[:, None], x1, x2, name)
    for j in range(t.size):
        assert np.array_equal(got[j], eval_field(f, t[j], x1[j], x2[j], name))


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
    # u1 at the node is the x1 stencil of its x1 line of u
    u1 = np.gradient(f.u[it, :, i2], f.x1_grid[1] - f.x1_grid[0])[i1]
    for want, name in ((f.u[it, i1, i2], "u"), (u1, "u1")):
        assert eval_field(f, *q, name) == pytest.approx(want, rel=1e-14,
                                                        abs=1e-14)


def _lerp_reference(f, arr, t, x1, x2, clamp_x1=True):
    """The trilinear lookup of a component in a whole (t, x1, x2) array,
    with eval_field's cell weights and order of operations; x1 clamps to
    the box edge (a derivative) or, with ``clamp_x1`` false, extrapolates
    (``u``)."""
    t, x1, x2 = np.broadcast_arrays(*(np.asarray(q, dtype=float)
                                      for q in (t, x1, x2)))
    nt1, nx1, nx2 = arr.shape
    dt = float(f.t_grid[1] - f.t_grid[0])
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    it = np.clip((t / dt).astype(int), 0, nt1 - 2)
    wt = np.clip((t - f.t_grid[it]) / dt, 0.0, 1.0)
    i1 = np.clip(((x1 - f.x1_grid[0]) / dx1).astype(int), 0, nx1 - 2)
    w1 = (x1 - f.x1_grid[i1]) / dx1
    if clamp_x1:
        w1 = np.clip(w1, 0.0, 1.0)
    i2 = np.clip((x2 / dx2).astype(int), 0, nx2 - 2)
    w2 = np.clip((x2 - f.x2_grid[i2]) / dx2, 0.0, 1.0)
    d = []
    for ot in (0, 1):
        c = [arr[it + ot, i1, i2 + o2] * (1 - w1)
             + arr[it + ot, i1 + 1, i2 + o2] * w1 for o2 in (0, 1)]
        d.append(c[0] * (1 - w2) + c[1] * w2)
    return d[0] * (1 - wt) + d[1] * wt


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_field_u1_is_the_lerp_of_the_stencil_property(case_small, forks,
                                                          data):
    # u1 formed from u where it is read is bitwise the lookup of the
    # whole-array stencil: eval_field for sweeps of scalar t and of scalar
    # x2 that move one cell forward or back, stay or jump, for arrays in
    # both, at and beyond both x1 box edges, on a shifted copy and in the
    # forked half of a split run.  The slabs the path loops read, _u1_slab
    # calls along the time or the x2 axis with the same moves, each given
    # the pair before it, are bitwise the stencil's two layers or columns,
    # written into the first pair's buffer
    f = case_small.value["field"]
    if data.draw(st.booleans(), label="shifted"):
        f = shifted_field(f, coef_t=data.draw(st.floats(-0.2, 0.2)))
    ref = field_mod._gradient_into(np.empty_like(f.u), f.u,
                                   f.x1_grid[1] - f.x1_grid[0], axis=1)
    lo, hi, x2_hi = f.x1_grid[0], f.x1_grid[-1], f.x2_grid[-1]
    n = data.draw(st.integers(1, 40), label="n")
    x1 = np.array([lo, hi, lo - 0.5, hi + 0.5, f.x1_grid[1], f.x1_grid[-2]]
                  + data.draw(st.lists(st.floats(lo - 2.0, hi + 2.0),
                                       min_size=n, max_size=n)))

    def arrays(lo_, hi_):
        return np.array(data.draw(st.lists(st.floats(lo_, hi_),
                                           min_size=x1.size,
                                           max_size=x1.size)))

    kind = data.draw(st.sampled_from(["t", "x2", "arrays"]), label="kind")
    axis = 0 if kind == "t" else 2
    grid = f.t_grid if kind == "t" else f.x2_grid
    last = grid.size - 2
    k = data.draw(st.integers(0, last), label="first cell")
    scalars, cells = [], []
    for move in ["stay"] + data.draw(st.lists(st.sampled_from(
            ["forward", "backward", "stay", "jump", "outside"]),
            max_size=8), label="moves"):
        k = {"forward": min(k + 1, last), "backward": max(k - 1, 0),
             "jump": data.draw(st.integers(0, last))}.get(move, k)
        cells.append(k)
        scalars.append(
            data.draw(st.sampled_from([-0.1, x2_hi + 0.1]))
            if move == "outside" and kind == "x2"
            else grid[k] + data.draw(st.floats(0.0, 1.0)) * (grid[1] - grid[0]))
    pair = None
    for i in cells:
        got = field_mod._u1_slab(f, axis, i, pair)
        want = (ref[i:i + 2] if axis == 0
                else np.moveaxis(ref[:, :, i:i + 2], 2, 0))
        assert got[0] == i and np.array_equal(got[1], want)
        assert pair is None or got[1] is pair[1]
        pair = got
    queries = [(s, x1, arrays(-0.1, x2_hi + 0.1)) if kind == "t"
               else (arrays(0.0, 1.0), x1, s) if kind == "x2"
               else (arrays(0.0, 1.0), x1, arrays(-0.1, x2_hi + 0.1))
               for s in scalars]
    child = data.draw(st.booleans(), label="child")
    for q in queries:
        want = _lerp_reference(f, ref, *q)
        if child:
            forks(True)
            _, (u1, u) = fbsde.run_halves(
                2, lambda lo_, hi_: (eval_field(f, *q, "u1"),
                                     eval_field(f, *q, "u")), 2)
        else:
            u1, u = eval_field(f, *q, "u1"), eval_field(f, *q, "u")
        assert np.array_equal(u1, want)
        assert np.array_equal(u, _lerp_reference(f, f.u, *q, clamp_x1=False))


def test_lookups_leave_no_state_on_the_field(case_small):
    # the path loops hold their own u1 slabs: after a sweep, a strong pass
    # and eval_field calls the field has only its dataclass fields, bound to
    # the same objects, and none of them is set outside the constructor
    c = case_small.value
    f = dataclasses.replace(c["field"])
    before = {name: id(value) for name, value in vars(f).items()}
    assert set(before) == {fl.name for fl in dataclasses.fields(f)}
    assert all(fl.init for fl in dataclasses.fields(DecouplingField))
    fbsde.simulate_block(f, 3, range(5), 64)
    strong_embed_on_W(f, c["coeffs"], 5, 512, seed=3)
    eval_field(f, 0.3, np.linspace(-1.0, 1.0, 5), 0.05, "u1")
    eval_field(f, 0.3, np.linspace(-1.0, 1.0, 5), 0.05, "u")
    eval_field(f, np.full(5, 0.3), 0.2, np.linspace(0.0, 0.1, 5), "u1")
    assert {name: id(value) for name, value in vars(f).items()} == before


def test_solve_banded_is_scipys_and_refuses_non_finite():
    # LAPACK gtsv loaded from SciPy's _flapack module without SciPy: the
    # routine that get_lapack_funcs returns, and, on gtsv's own operands,
    # bitwise SciPy's (1, 1) banded solve of the matrix built from the same
    # three diagonals, on the shapes the solves use (the halves of the
    # default and the small grids, one column, and strided views), in a
    # process that imports scipy.linalg only after the load, so its own
    # _flapack is a second init of the module; an inf or NaN in the
    # right-hand side still raises
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from skofbsde import field\n"
        "gtsv = field._gtsv()\n"
        "assert 'scipy' not in sys.modules and '_flapack' not in sys.modules\n"
        "from scipy.linalg import get_lapack_funcs, solve_banded\n"
        "ref = get_lapack_funcs(('gtsv',), (np.empty(0),))[0]\n"
        "assert gtsv is not ref\n"
        "assert gtsv.__doc__.splitlines()[0] == ref.__doc__.splitlines()[0]\n"
        "rng = np.random.default_rng(3)\n"
        "bs = [rng.standard_normal(shape) for shape in\n"
        "      ((257, 65), (257, 64), (65, 17), (65, 16), (257,))]\n"
        "for b in bs + [bs[0][:, 0], bs[0][:, 10:20]]:\n"
        "    dl, d, du = diagonals = field._banded_matrix(b.shape[0], 0.37)\n"
        "    ab = np.zeros((3, d.size))\n"
        "    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl\n"
        "    assert np.array_equal(field.solve_banded(diagonals, b),\n"
        "                          solve_banded((1, 1), ab, b)), b.shape\n"
    )
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=root,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    diagonals = field_mod._banded_matrix(257, 0.37)
    b = np.random.default_rng(3).standard_normal((257, 65))
    for bad in (np.nan, np.inf, -np.inf):
        rhs = b.copy()
        rhs[100, 7] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            field_mod.solve_banded(diagonals, rhs)


def test_gtsv_without_scipy_module_raises_import_error(tmp_path, monkeypatch):
    # no SciPy, or a SciPy directory without its LAPACK module: the load
    # fails with ImportError, naming the missing file
    util = field_mod.importlib.util
    monkeypatch.setattr(util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="SciPy is not installed"):
        field_mod._gtsv.__wrapped__()
    fake = field_mod.importlib.machinery.ModuleSpec("scipy", None,
                                                    is_package=True)
    fake.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError,
                       match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        field_mod._gtsv.__wrapped__()


def test_derivative_methods_agree(case_uniform_k05):
    c = case_uniform_k05.value
    f = c["field"]
    v1, v2 = _reference_coupled(f, c["g"], c["delta"])
    # coupled-system u2 for a linear delayed drift is the constant -kappa
    assert np.abs(v2 + 0.5).max() < 5e-3
    # u1 matches the x1 derivative of the exponential-transform oracle
    oracle = OracleField("linear_drift", c["g"], kappa=0.5)
    h = 1e-5
    inner = np.abs(f.x1_grid) <= 2.0
    x1 = f.x1_grid[inner]
    du = (oracle(np.zeros_like(x1), x1 + h) - oracle(np.zeros_like(x1), x1 - h)) / (2 * h)
    assert np.abs(v1[0, inner, 0] - du).max() < 2e-3


def test_coupled_check_forms_each_u2_layer_once(case_uniform_k05,
                                                monkeypatch):
    # one stencil call per time layer: the u2 layer of step n serves both
    # the comparison at n and the coefficient of the step to n - 1
    c = case_uniform_k05.value
    f = dataclasses.replace(c["field"], deriv_mismatch=None)
    axes = []
    gradient_into = field_mod._gradient_into

    def counted(*args, **kwargs):
        axes.append(kwargs["axis"])
        return gradient_into(*args, **kwargs)

    monkeypatch.setattr(field_mod, "_gradient_into", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    derivative_fields(f, "coupled_system", g=c["g"], delta=c["delta"])
    # the x2 stencil of u once per layer, nt + 1; the x1 stencil of u once
    # per layer, nt + 1, and of v1 and v2 once per step each, 2 nt
    nt = f.t_grid.size - 1
    assert (axes.count(1), axes.count(0)) == (nt + 1, 3 * nt + 1)
    assert f.deriv_mismatch is not None
    # on two CPUs the v2 chain runs in a child with its own u1 and u2
    # layers, and this process forms the same layers once each for v1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    axes.clear()
    derivative_fields(f, "coupled_system", g=c["g"], delta=c["delta"])
    assert (axes.count(1), axes.count(0)) == (nt + 1, 2 * nt + 1)


@pytest.mark.parametrize("ndim, axis", [(2, 0), (2, 1), (3, 0), (3, 1),
                                        (3, 2)])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_gradient_into_equals_np_gradient(ndim, axis, data):
    # the solver's x1 and x2 stencils rely on this bitwise identity; an axis
    # of length 2 has an empty interior slice
    shape = data.draw(st.lists(st.integers(2, 7), min_size=ndim,
                               max_size=ndim), label="shape")
    dx = data.draw(st.floats(1e-6, 1e3), label="dx")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    scale = 10.0 ** data.draw(st.integers(-8, 8), label="scale")
    w = np.random.default_rng(seed).standard_normal(shape) * scale
    got = field_mod._gradient_into(np.empty_like(w), w, dx, axis=axis)
    assert np.array_equal(got, np.gradient(w, dx, axis=axis))


def test_derivative_method_unknown(case_linear):
    with pytest.raises(ConfigError):
        derivative_fields(case_linear.value["field"], "spectral")


# -- whole-array references of the streamed passes ---------------------------

def _reference_coupled(f, g, delta):
    """The coupled solve with both derivatives stacked over all layers and
    the whole-array FD u2 in its coefficient."""
    nt = f.t_grid.size - 1
    nx1, nx2 = f.x1_grid.size, f.x2_grid.size
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    diagonals = field_mod._banded_matrix(nx1, dt / (2.0 * dx1**2))
    u1, u2 = fd_u1(f), fd_u2(f)
    v1 = np.empty_like(f.u)
    v2 = np.empty_like(f.u)
    v1[nt] = np.broadcast_to(np.asarray(g.derivative(f.x1_grid))[:, None],
                             (nx1, nx2))
    v2[nt] = np.broadcast_to(-np.asarray(delta.derivative(f.x2_grid))[None, :],
                             (nx1, nx2))
    cutoff = field_mod._cutoff(f.g_lipschitz)
    for n in range(nt - 1, -1, -1):
        zc = np.clip(u1[n + 1], -cutoff, cutoff)
        a_coef = zc * zc
        b_coef = 2.0 * u1[n + 1] * u2[n + 1]
        for v in (v1, v2):
            vn = v[n + 1]
            rhs = vn + dt * (a_coef * field_mod._d2_up(vn, dx2)
                             + b_coef * np.gradient(vn, dx1, axis=0))
            v[n] = field_mod.solve_banded(diagonals, rhs)
    return v1, v2


def _reference_mismatch(f, g, delta):
    """Worst coupled-vs-FD mismatch and the index where it raises."""
    v1, v2 = _reference_coupled(f, g, delta)
    inner = (slice(None), slice(1, -1), slice(None, -1))
    diff1 = np.abs(v1[inner] - fd_u1(f)[inner])
    diff2 = np.abs(v2[inner] - fd_u2(f)[inner])
    m1, m2 = float(diff1.max()), float(diff2.max())
    which = diff1 if m1 >= m2 else diff2
    return max(m1, m2), np.unravel_index(int(which.argmax()), which.shape)


def _reference_bounds(f):
    dt = f.t_grid[1] - f.t_grid[0]
    dx1 = f.x1_grid[1] - f.x1_grid[0]
    dx2 = f.x2_grid[1] - f.x2_grid[0]
    u1 = fd_u1(f)
    return {
        "z_sup": float(np.abs(u1).max()),
        "u2_sup": float(np.abs(fd_u2(f)).max()),
        "min_u1_interior": float(u1[:-1].min()),
        "time_lip_u1": float(np.abs(np.diff(u1, axis=0)).max() / dt),
        "L_ux": max(float(np.abs(np.diff(f.u, axis=1)).max() / dx1),
                    float(np.abs(np.diff(f.u, axis=2)).max() / dx2)),
        "d2x1_sup": float(np.abs(f.u[:, 2:, :] - 2.0 * f.u[:, 1:-1, :]
                                 + f.u[:, :-2, :]).max() / dx1**2),
    }


def _same(a, b):
    # NaN-aware equality of JSON-able values
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("case", ["case_uniform_k05", "case_normal_sin"])
def test_streamed_passes_match_whole_array_reference(request, case):
    c = request.getfixturevalue(case).value
    g, delta = c["g"], c["delta"]
    f = dataclasses.replace(c["field"], deriv_mismatch=None)
    # the field carries no derivative; the checks below form u1 and u2
    # layer by layer, and the finite-difference refill has nothing to do
    assert not hasattr(f, "u1") and not hasattr(f, "u2")
    u = f.u
    assert derivative_fields(f, "finite_difference") is f and f.u is u

    worst, _ = _reference_mismatch(f, g, delta)
    derivative_fields(f, "coupled_system", g=g, delta=delta)
    assert f.deriv_mismatch == worst
    diag = field_diagnostics(f, g, delta).to_dict()
    ref = _reference_bounds(f)
    assert {k: diag[k] for k in ref} == ref
    assert diag["deriv_mismatch"] == worst

    # the same worst value in layer k and in layer 0: the raise names the
    # smaller t index, as the whole-array argmax does.  A bad node of u
    # reaches u1 at its two x1 neighbours and u2 at its two x2 neighbours;
    # u2 is the larger (dx2 < dx1), first in C order at x2 index j0 - 1.
    # Columns j0 - 1 > j + 1 lie upstream of the corrupted coefficients (x2
    # transport runs from larger x2 down), so their t = 0 layer is
    # untouched by them
    k, i, j, i0, j0 = f.t_grid.size // 2, 40, 10, 60, 20
    bad_u = f.u.copy()
    bad_u[k, i, j] = bad_u[0, i0, j0] = 1e300
    bad = dataclasses.replace(f, u=bad_u, deriv_mismatch=None)
    worst, loc = _reference_mismatch(bad, g, delta)
    assert worst > 1e300 and loc == (0, i0 - 1, j0 - 1)
    with pytest.raises(DerivativeMismatchError) as err:
        derivative_fields(bad, "coupled_system", g=g, delta=delta)
    assert err.value.location == loc and err.value.discrepancy == worst
    assert bad.deriv_mismatch is None

    # a single NaN of u, NaN in u1 at its x1 neighbours, fails the z_sup
    # check
    nan_u = f.u.copy()
    nan_u[3, i, j] = np.nan
    nan_f = dataclasses.replace(f, u=nan_u)
    diag = field_diagnostics(nan_f, g, delta)
    assert _same({k: diag.to_dict()[k] for k in ref}, _reference_bounds(nan_f))
    assert np.isnan(diag.z_sup)
    assert not diag.checks[0].passed and not diag.all_passed


def _uniform_k025_128(nt=128, nx1=129, nx2=65):
    g = make_g(TargetMeasure.uniform(0.0, 1.0))
    coeffs = ProcessCoefficients(0.0, TimeFunction.const(0.25),
                                 TimeFunction.const(1.0), 1.0,
                                 h_target=1.05 * g.lipschitz**2)
    cfg = SolverConfig.defaults(g.lipschitz, nt=nt, nx1=nx1, nx2=nx2)
    return g, coeffs, coeffs.delayed_drift(), cfg, (nt + 1) * nx1 * nx2 * 8


def _traced_peak(fn):
    import tracemalloc
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _mapped_bytes(a):
    """The size of the ``mmap`` under the array ``a``, 0 when ``a`` is in
    the heap: tracemalloc does not see a mapping."""
    while isinstance(a, np.ndarray):
        a = a.base
    if isinstance(a, memoryview):
        a = a.obj
    return len(a) if isinstance(a, mmap.mmap) else 0


def test_solve_check_diagnostics_save_hold_one_field_array(tmp_path):
    # peak memory of the `skofbsde solve` stages in this process, in field
    # arrays: u plus layer-sized work arrays and the CSV writer's strings
    # (1.41 measured; 2.41 while the field also held u1).  This field has
    # 2^20 values or more, so u is in the mapping that the solve shares with
    # its forked half: its bytes are added to the traced peak
    field_mod._gtsv()  # LAPACK loaded outside the trace

    g, _, delta, cfg, field_bytes = _uniform_k025_128()
    assert field_bytes // 8 >= field_mod._SPLIT_MIN_VALUES
    mapped = []

    def solve():
        f = solve_field(g, delta, cfg)
        mapped.append(_mapped_bytes(f.u))
        derivative_fields(f, "coupled_system", g=g, delta=delta)
        diag = field_diagnostics(f, g, delta)
        save_field(f, str(tmp_path / "field.csv"), diag)

    peak = _traced_peak(solve) + mapped[0]
    assert mapped == [field_bytes]
    assert peak / field_bytes < 1.5, peak / field_bytes


def test_load_weak_strong_hold_one_field_array(tmp_path):
    # `skofbsde embed` holds u alone: the Euler sweeps and the strong rule
    # read u1 from two-wide slabs of it (1.20 field arrays measured; 2.19
    # while the field also held u1)
    g, coeffs, delta, cfg, field_bytes = _uniform_k025_128()
    path = str(tmp_path / "field.csv")
    save_field(solve_field(g, delta, cfg), path)

    def embed():
        f = load_field(path)
        weak_embed_ensemble(f, coeffs, 64, 256, 3, g=g)
        strong_embed_on_W(f, coeffs, 64, 256, 4, g=g)

    peak = _traced_peak(embed)
    assert peak / field_bytes < 1.5, peak / field_bytes


def test_diagnostics_pass_on_cases(case_trivial, case_linear, case_uniform_k05,
                                   case_normal_sin):
    for case in (case_trivial, case_linear, case_uniform_k05, case_normal_sin):
        c = case.value
        diag = field_diagnostics(c["field"], c["g"], c["delta"])
        assert diag.all_passed, [vars(ch) for ch in diag.checks if not ch.passed]
        assert diag.z_sup <= c["g"].lipschitz + 1e-2
        assert diag.min_u1_interior > 0.0


def test_unknown_u2_bound_fails_its_check(case_uniform_k05):
    # a bound that is not finite fails its check instead of passing it
    f = case_uniform_k05.value["field"]
    assert field_diagnostics(f).all_passed
    for bound in (np.nan, np.inf):
        diag = field_diagnostics(dataclasses.replace(f, delta_deriv_sup=bound))
        u2_check = diag.checks[1]
        assert u2_check.name == "u2_sup <= sup|delta'| + tol"
        assert not u2_check.passed and not diag.all_passed
        assert all(c.passed for c in diag.checks if c is not u2_check)


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
    assert fd_u1(f)[:-1].min() > 0.0


def test_sin_drift_transport_closed_form(case_normal_sin):
    # for the identity transform the field rides the x2 characteristic:
    # u(t, x1, x2) = x1 - delta(x2 + 1 - t); compare where paths can reach
    # (x2 <= t), away from the top-boundary inflow cone
    c = case_normal_sin.value
    f = c["field"]
    delta_closed = lambda x: 0.3 * (1.0 - np.cos(x / 1.44))
    tt, xx1, xx2 = np.meshgrid(f.t_grid, f.x1_grid, f.x2_grid, indexing="ij")
    err = np.abs(f.u - (xx1 - delta_closed(xx2 + 1.0 - tt)))
    reachable = xx2 <= tt + 1e-12
    assert err[reachable].max() < 5e-3


def test_cfl_enforced():
    g = make_g(TargetMeasure.normal(0, 1))
    with pytest.raises(ConfigError, match="nt >="):
        SolverConfig.defaults(g.lipschitz, nt=32, nx2=129).validate(g.lipschitz)


def test_config_validation():
    # the config holds the grid alone; the solve's other constants belong
    # to the stage that reads them
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "nt", "nx1", "nx2", "x1_lo", "x1_hi", "x2_hi"]
    assert not {"cutoff_H", "deriv_floor_eps"} & {
        f.name for f in dataclasses.fields(DecouplingField)}
    with pytest.raises(ConfigError):
        SolverConfig.defaults(1.0, nt=1).validate(1.0)
    with pytest.raises(ConfigError):   # x2 box does not cover L_g^2
        SolverConfig(x2_hi=0.5).validate(1.0)


def test_non_lipschitz_rejected():
    c = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                            TimeFunction.const(1.0), 1.0, h_target=2.0)
    # an empirical law, and a piecewise CDF with a gap in its support
    for m in (TargetMeasure.empirical(np.linspace(0, 1, 32)),
              TargetMeasure.piecewise_cdf([0, 1, 2, 3], [0, 0.5, 0.5, 1.0])):
        g = make_g(m)
        with pytest.raises(NonLipschitzError):
            solve_field(g, c.delayed_drift(), small_cfg(g.lipschitz))
        # a finite grid that passes every other check is refused too
        with pytest.raises(NonLipschitzError):
            small_cfg(1.0).validate(g.lipschitz)


def test_cutoff_must_be_passive(monkeypatch):
    # cutoff barely above L_g is triggered by transient gradients
    g = make_g(TargetMeasure.normal(0, 1))
    c = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                            TimeFunction.const(1.0), 1.0, h_target=2.0)
    cfg = SolverConfig.defaults(g.lipschitz, nt=64, nx1=65, nx2=33)
    assert field_mod._cutoff(g.lipschitz) == 4.0 * max(g.lipschitz, 1.0)
    monkeypatch.setattr(field_mod, "_cutoff", lambda L_g: L_g * (1.0 + 1e-9))
    with pytest.raises(CutoffActiveError, match="at t = 1: "):
        solve_field(g, c.delayed_drift(), cfg)


def test_save_load_round_trip(tmp_path, case_uniform_k05):
    c = case_uniform_k05.value
    f = solve_field(c["g"], c["delta"], small_cfg(c["g"].lipschitz))
    diag = field_diagnostics(f, c["g"], c["delta"])
    path = str(tmp_path / "field.csv")
    save_field(f, path, diag)
    g2 = load_field(path)
    for name in ("u", "t_grid", "x1_grid", "x2_grid"):
        assert np.array_equal(getattr(f, name), getattr(g2, name)), name
    assert not hasattr(g2, "u1") and not hasattr(g2, "u2")
    assert g2.g_lipschitz == f.g_lipschitz
    meta = json.loads((tmp_path / "field.json").read_text())
    assert meta["diagnostics"] == json.loads(json.dumps(diag.to_dict()))
    assert meta["version"] == 5
    # of the bounds, only the two certified ones that readers use
    assert (meta["g_lipschitz"], meta["delta_deriv_sup"]) == (
        f.g_lipschitz, f.delta_deriv_sup)
    assert not {"cutoff_H", "deriv_floor_eps"} & set(meta)
    # the grids are stored by their ends, as numbers a reader can see
    assert meta["shape"] == list(f.u.shape)
    assert (meta["x1_lo"], meta["x1_hi"], meta["x2_hi"]) == (
        f.x1_grid[0], f.x1_grid[-1], f.x2_grid[-1])
    assert not {"t_grid", "x1_grid", "x2_grid"} & set(meta)
    # the sidecar or the array name the same field
    for name in ("field.json", "field.npy"):
        assert np.array_equal(load_field(str(tmp_path / name)).u, f.u), name
    # the CSV is a text export of the same u, not read by load_field
    nt1, nx1, nx2 = f.u.shape
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert len(lines) == nt1 * nx1
    assert all(line.count(",") == nx2 - 1 for line in lines)
    exported = np.loadtxt(path, delimiter=",").reshape(f.u.shape)
    assert exported.tobytes() == f.u.tobytes()
    again = str(tmp_path / "again.csv")
    save_field(f, again, diag)
    for ext in (".csv", ".json", ".npy"):
        a, b = (tmp_path / f"field{ext}"), (tmp_path / f"again{ext}")
        assert a.read_bytes() == b.read_bytes(), ext
    # the CSV path may not name the .npy file or the sidecar, which would
    # overwrite it: refused before anything is written
    for stem, ext in (("a", ".npy"), ("b", ".json")):
        with pytest.raises(ValueError, match="overwritten"):
            save_field(f, str(tmp_path / (stem + ext)), diag)
        assert not list(tmp_path.glob(stem + ".*"))


def test_save_load_round_trip_off_default_box(tmp_path, case_uniform_k05):
    # the sidecar's box ends give back the solve's grids bitwise, also off
    # the default box
    g = case_uniform_k05.value["g"]
    delta = ProcessCoefficients(0.0, TimeFunction.const(0.5),
                                TimeFunction.const(1.0), 1.0,
                                h_target=2.0).delayed_drift()
    cfg = dataclasses.replace(small_cfg(g.lipschitz), x1_lo=-5.0, x1_hi=5.5,
                              x2_hi=2.0)
    f = solve_field(g, delta, cfg)
    assert (f.x1_grid[0], f.x1_grid[-1], f.x2_grid[-1]) == (-5.0, 5.5, 2.0)
    path = str(tmp_path / "field.csv")
    save_field(f, path)
    g2 = load_field(path)
    for name in ("u", "t_grid", "x1_grid", "x2_grid"):
        assert np.array_equal(getattr(f, name), getattr(g2, name)), name


def test_load_recomputes_fd_derivatives(tmp_path, case_uniform_k05):
    # the coupled check only sets deriv_mismatch and leaves u as it is; a
    # reload forms the same FD u1 from u, at every node
    c = case_uniform_k05.value
    f = solve_field(c["g"], c["delta"], small_cfg(c["g"].lipschitz))
    u, copy = f.u, f.u.copy()
    assert derivative_fields(f, "coupled_system", g=c["g"],
                             delta=c["delta"]) is f
    assert f.u is u and np.array_equal(u, copy)
    assert 0.0 <= f.deriv_mismatch < np.inf
    path = str(tmp_path / "field.csv")
    save_field(f, path)
    g2 = load_field(path)
    tt, xx1, xx2 = np.meshgrid(f.t_grid, f.x1_grid, f.x2_grid, indexing="ij")
    for h in (f, g2):
        got = eval_field(h, tt, xx1, xx2, "u1")
        assert np.allclose(got, fd_u1(f), rtol=1e-14, atol=1e-14)
    assert np.array_equal(eval_field(g2, tt, xx1, xx2, "u1"),
                          eval_field(f, tt, xx1, xx2, "u1"))
    assert not hasattr(g2, "u1") and not hasattr(g2, "u2")


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
