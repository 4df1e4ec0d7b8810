import numpy as np
import pytest
from conftest import make_case
from hypothesis import given, settings, strategies as st

from skofbsde import coeffs as coeffs_mod
from skofbsde.coeffs import ProcessCoefficients, TimeFunction
from skofbsde.errors import ConfigError, DomainError, HorizonError
from skofbsde.field import DecouplingField, eval_field
from skofbsde.measure import TargetMeasure


def const_coeffs(alpha=0.0, beta=1.0, horizon=2.0, G0=0.0):
    # a constant beta makes H(t) = beta^2 t, so the clock ends at ``horizon``
    return ProcessCoefficients(G0, TimeFunction.const(alpha),
                               TimeFunction.const(beta),
                               beta_floor=abs(beta), h_target=beta**2 * horizon)


def test_clock_examples():
    assert const_coeffs(beta=1.0).clock_H(0.7) == pytest.approx(0.7, abs=1e-12)
    assert const_coeffs(beta=2.0).clock_H(1.0) == pytest.approx(4.0, abs=1e-10)
    ramp = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                               TimeFunction.expression("1+s"), 1.0, h_target=9.0)
    # composite quadrature against the closed form ((1+t)^3 - 1)/3
    assert ramp.clock_H(1.0) == pytest.approx(7.0 / 3.0, abs=1e-5)


def test_clock_domain():
    c = const_coeffs()
    with pytest.raises(DomainError):
        c.clock_H(-0.5)
    with pytest.raises(DomainError):
        c.clock_H(2.5)


@pytest.mark.parametrize("nan", [float("nan"), np.array([0.5, np.nan, 0.2])],
                         ids=["scalar", "array"])
@pytest.mark.parametrize("routine", [
    "clock_H", "clock_H_inv", "delta_hat", "eval_field"])
def test_nan_argument_fails_the_range_check(routine, nan):
    if routine == "eval_field":
        grid = np.linspace(0.0, 1.0, 3)
        u = np.zeros((3, 3, 3))
        f = DecouplingField(grid, grid, grid, u, g_lipschitz=1.0,
                            delta_deriv_sup=0.0)
        call = lambda t: eval_field(f, t, 0.0, 0.0)
    else:
        call = getattr(const_coeffs(), routine)
    with pytest.raises(DomainError):
        call(nan)


def test_clock_inverse_examples():
    assert const_coeffs(beta=1.0).clock_H_inv(0.3) == pytest.approx(0.3, abs=1e-10)
    assert const_coeffs(beta=2.0).clock_H_inv(4.0) == pytest.approx(1.0, abs=1e-10)
    ramp = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                               TimeFunction.expression("1+s"), 1.0, h_target=9.0)
    assert ramp.clock_H_inv(7.0 / 3.0) == pytest.approx(1.0, abs=1e-5)


def test_round_trip_and_monotone():
    c = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                            TimeFunction.expression("1 + 0.5*cos(3*s)"),
                            beta_floor=0.5, h_target=4.0)   # past H(3) ~ 3.5
    ts = np.random.default_rng(11).uniform(0.0, 3.0, 100)
    assert np.abs(np.asarray(c.clock_H_inv(c.clock_H(ts))) - ts).max() < 1e-8
    grid = np.linspace(0, 3, 500)
    assert np.all(np.diff(np.asarray(c.clock_H(grid))) > 0)
    xs = np.linspace(0, c.h_max, 500)
    assert np.all(np.diff(np.asarray(c.clock_H_inv(xs))) >= 0)


def test_clock_inverse_beyond_horizon_raises():
    c = const_coeffs(beta=1.0, horizon=1.0)
    with pytest.raises(HorizonError):
        c.clock_H_inv(2.0)


def test_delta_examples():
    assert const_coeffs(alpha=0.0, G0=0.7).delta(1.0) == \
        pytest.approx(0.7, abs=1e-12)
    lin = const_coeffs(alpha=0.4)
    xs = np.linspace(0, 1.5, 7)
    assert np.abs(np.asarray(lin.delta(xs)) - 0.4 * xs).max() < 1e-9
    sin = ProcessCoefficients(0.0, TimeFunction.expression("sin(s)"),
                              TimeFunction.const(1.0), 1.0, h_target=3.0)
    assert sin.delta(1.0) == pytest.approx(1.0 - np.cos(1.0), abs=1e-6)


def test_delta_lipschitz_estimate():
    c = ProcessCoefficients(0.0, TimeFunction.expression("0.3*sin(s)"),
                            TimeFunction.const(1.2), 1.2, h_target=2.88)
    xs = np.linspace(0.0, c.h_max - 1e-6, 2000)
    slopes = np.abs(np.diff(np.asarray(c.delta(xs))) / np.diff(xs))
    t = np.linspace(0.0, c.t_phys, 4096)
    bound = float(np.abs(c.alpha(t)).max()) / c.beta_floor**2
    assert slopes.max() <= bound + 1e-6
    d = c.delayed_drift()
    assert d.deriv_sup <= bound + 1e-12
    assert d.deriv_sup == pytest.approx(0.3 / 1.44, abs=1e-6)


def test_h_target_horizon_solve():
    c = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                            TimeFunction.const(1.2), 1.2, h_target=1.05)
    assert c.t_phys == pytest.approx(1.05 / 1.44, abs=1e-9)
    assert c.h_max >= 1.05 - 1e-9


def test_table_time_function(tmp_path):
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([1.0, 2.0, 1.5])
    tf = TimeFunction.table(t, v)
    assert tf(0.5) == pytest.approx(1.5)
    assert tf(3.0) == pytest.approx(1.5)  # held constant beyond the table
    # H(2) = 65/12, so h_target 6 puts the horizon past t = 2
    c = ProcessCoefficients(0.0, TimeFunction.const(0.0), tf, 1.0, h_target=6.0)
    # trapezoid of the piecewise-linear table is exact
    assert c.clock_H(2.0) == pytest.approx(
        np.trapezoid(np.interp(np.linspace(0, 2, 4097), t, v) ** 2,
                     np.linspace(0, 2, 4097)), abs=1e-5)


def test_expr_rejects_unknown_names():
    with pytest.raises(ConfigError):
        TimeFunction.expression("__import__('os')")
    with pytest.raises(ConfigError):
        TimeFunction.expression("unknown_fn(s)")


def test_beta_floor_enforced():
    with pytest.raises(ConfigError):
        ProcessCoefficients(0.0, TimeFunction.const(0.0),
                            TimeFunction.expression("sin(s)"),
                            beta_floor=0.5, h_target=3.0)


@st.composite
def clocks(draw):
    """Coefficients with a random const, table or expression beta that
    respects its floor, on a random clock target H(T_phys)."""
    floor = draw(st.floats(0.3, 2.0))
    kind = draw(st.sampled_from(["const", "table", "expr"]))
    if kind == "const":
        beta = TimeFunction.const(floor * draw(st.floats(1.0, 2.0)))
    elif kind == "table":
        steps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8))
        t = np.concatenate([[0.0], np.cumsum(steps)])
        v = floor * np.array(draw(st.lists(st.floats(1.0, 2.0),
                                           min_size=t.size, max_size=t.size)))
        beta = TimeFunction.table(t, v)
    else:
        a = draw(st.floats(0.0, 0.5))
        w = draw(st.floats(0.1, 10.0))
        beta = TimeFunction.expression(
            f"{floor!r} * ({1.0 + a!r} + {a!r} * sin({w!r} * s))")
    h_target = draw(st.floats(0.5, 3.0))
    return ProcessCoefficients(0.0, TimeFunction.const(0.0), beta, floor,
                               h_target=h_target)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(clocks(), st.integers(0, 2**32 - 1))
def test_clock_round_trip_property(c, seed):
    ts = np.random.default_rng(seed).uniform(0.0, c.t_phys, 200)
    ts = np.concatenate([ts, [0.0, c.t_phys]])
    assert np.abs(c.clock_H_inv(c.clock_H(ts)) - ts).max() <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(clocks())
def test_clock_monotone_property(c):
    ts = np.linspace(0.0, c.t_phys, 1001)
    assert np.all(np.diff(c.clock_H(ts)) > 0)
    xs = np.linspace(0.0, c.h_max, 1001)
    inv = c.clock_H_inv(xs)
    assert np.all(np.diff(inv) > 0)
    assert inv[0] == 0.0 and inv[-1] == pytest.approx(c.t_phys, abs=1e-12)


@st.composite
def time_varying_betas(draw):
    """(beta, beta_floor): 1 + A cos(w s + p) with its floor 1 - A, or a
    piecewise-linear table above a random floor."""
    if draw(st.booleans()):
        a = draw(st.floats(0.05, 0.5))
        w = draw(st.floats(0.5, 20.0))
        p = draw(st.floats(0.0, 6.3))
        return (TimeFunction.expression(f"1 + {a!r} * cos({w!r} * s + {p!r})"),
                1.0 - a)
    floor = draw(st.floats(0.3, 2.0))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8))
    t = np.concatenate([[0.0], np.cumsum(steps)])
    v = floor * np.array(draw(st.lists(st.floats(1.0, 2.0), min_size=t.size,
                                       max_size=t.size)))
    return TimeFunction.table(t, v), floor


@settings(max_examples=25, deadline=None, derandomize=True)
@given(time_varying_betas(), st.floats(0.05, 4.0), st.floats(0.0, 0.3))
def test_time_varying_beta_reaches_the_box_property(beta_floor, h_target,
                                                    alpha):
    # the clock's table ends at h_target (the solver's x2_hi), so the
    # terminal layer's delta(x2_hi) is inside the clock and a solve runs.
    # A uniform law of width b has L_g = b / sqrt(2 pi), and the default
    # box 1.05 L_g^2 is h_target
    beta, floor = beta_floor
    width = np.sqrt(2.0 * np.pi * h_target / 1.05)
    case = make_case(TargetMeasure.uniform(0.0, width),
                     TimeFunction.const(alpha), beta, floor,
                     nt=64, nx1=65, nx2=33)
    x2_hi = case["cfg"].x2_hi
    c = case["coeffs"]
    assert c.h_max >= x2_hi
    assert c.clock_H_inv(x2_hi) <= c.t_phys
    assert np.isfinite(case["delta"](x2_hi))
    assert np.isfinite(case["field"].u).all()


def _trapezoid_table(c):
    """The clock table of ``c`` before the pin: the trapezoid rule of
    beta^2 on the kept grid."""
    return c._cumtrapz(c._grid, coeffs_mod._tabulate(c.beta, c._grid)**2)


def test_clock_pins_only_a_small_shortfall():
    # 1 + 0.5 s on the box of uniform(0, 1) falls short by 1e-9 (relative)
    # and is pinned; a query past the pinned end still raises, and the
    # message tells the two numbers apart.  The pin moves the last node
    # only.  The many_paths beta overshoots the same box and keeps its table
    h = 1.05 / (2.0 * np.pi)

    def clock(expr, floor):
        return ProcessCoefficients(0.0, TimeFunction.const(0.0),
                                   TimeFunction.expression(expr), floor,
                                   h_target=h)

    ramp = clock("1.0 + 0.5*s", 1.0)
    assert ramp.h_max == h and ramp.clock_H_inv(h) == ramp.t_phys
    beyond = h * (1.0 + 1e-9)
    with pytest.raises(HorizonError) as info:
        ramp.clock_H_inv(beyond)
    assert str(info.value) == (f"horizon too short: H(T_phys) = {h!r} "
                               f"< {beyond!r}")
    table = _trapezoid_table(ramp)
    assert 0.0 < h - table[-1] < 2e-9 * h
    assert np.array_equal(ramp._h_tab[:-1], table[:-1])
    over = clock("1.0 + 0.2*cos(3*s)", 0.8)
    assert over.h_max > h
    assert np.array_equal(over._h_tab, _trapezoid_table(over))
    with pytest.raises(HorizonError):
        over.clock_H_inv(over.h_max * (1.0 + 1e-9))


def test_clock_reaches_the_box_for_a_fast_beta():
    # a beta of frequency 640 whose kept table falls short of the box by
    # 4.9e-4 (relative): the clock still ends at h_target, the box's top
    # is inside it, and a 64x65x33 field solves.  The box 1.05 L_g^2 of
    # uniform(0, b) is 3.863
    width = np.sqrt(2.0 * np.pi * 3.863 / 1.05)
    beta = TimeFunction.expression("1 + 0.482 * cos(640.0 * s + 0.871)")
    case = make_case(TargetMeasure.uniform(0.0, width),
                     TimeFunction.const(0.1), beta, 0.518,
                     nt=64, nx1=65, nx2=33)
    c, x2_hi = case["coeffs"], case["cfg"].x2_hi
    assert (x2_hi - _trapezoid_table(c)[-1]) / x2_hi > 4e-4
    assert c.h_max == x2_hi and c.clock_H_inv(x2_hi) == c.t_phys
    assert np.isfinite(case["delta"](x2_hi))
    assert np.isfinite(case["field"].u).all()
