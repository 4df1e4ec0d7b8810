import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skofbsde.coeffs import ProcessCoefficients, TimeFunction
from skofbsde.errors import ConfigError, DomainError, HorizonError


def const_coeffs(alpha=0.0, beta=1.0, t_phys=2.0, G0=0.0):
    return ProcessCoefficients(G0, TimeFunction.const(alpha),
                               TimeFunction.const(beta),
                               beta_floor=abs(beta), t_phys=t_phys)


def test_clock_examples():
    assert const_coeffs(beta=1.0).clock_H(0.7) == pytest.approx(0.7, abs=1e-12)
    assert const_coeffs(beta=2.0).clock_H(1.0) == pytest.approx(4.0, abs=1e-10)
    ramp = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                               TimeFunction.expression("1+s"), 1.0, t_phys=2.0)
    # composite quadrature against the closed form ((1+t)^3 - 1)/3
    assert ramp.clock_H(1.0) == pytest.approx(7.0 / 3.0, abs=1e-5)


def test_clock_domain():
    c = const_coeffs()
    with pytest.raises(DomainError):
        c.clock_H(-0.5)
    with pytest.raises(DomainError):
        c.clock_H(2.5)


def test_clock_inverse_examples():
    assert const_coeffs(beta=1.0).clock_H_inv(0.3) == pytest.approx(0.3, abs=1e-10)
    assert const_coeffs(beta=2.0).clock_H_inv(4.0) == pytest.approx(1.0, abs=1e-10)
    ramp = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                               TimeFunction.expression("1+s"), 1.0, t_phys=2.0)
    assert ramp.clock_H_inv(7.0 / 3.0) == pytest.approx(1.0, abs=1e-5)


def test_round_trip_and_monotone():
    c = ProcessCoefficients(0.0, TimeFunction.const(0.0),
                            TimeFunction.expression("1 + 0.5*cos(3*s)"),
                            beta_floor=0.5, t_phys=3.0)
    ts = np.random.default_rng(11).uniform(0.0, 3.0, 100)
    assert np.abs(np.asarray(c.clock_H_inv(c.clock_H(ts))) - ts).max() < 1e-8
    grid = np.linspace(0, 3, 500)
    assert np.all(np.diff(np.asarray(c.clock_H(grid))) > 0)
    xs = np.linspace(0, c.h_max, 500)
    assert np.all(np.diff(np.asarray(c.clock_H_inv(xs))) >= 0)


def test_horizon_error_carries_requirement():
    c = const_coeffs(beta=1.0, t_phys=1.0)
    with pytest.raises(HorizonError) as exc:
        c.clock_H_inv(2.0)
    assert exc.value.required_t_phys >= 2.0 - 1e-9


def test_delta_examples():
    assert const_coeffs(alpha=0.0, G0=0.7).delta(1.0) == \
        pytest.approx(0.7, abs=1e-12)
    lin = const_coeffs(alpha=0.4)
    xs = np.linspace(0, 1.5, 7)
    assert np.abs(np.asarray(lin.delta(xs)) - 0.4 * xs).max() < 1e-9
    sin = ProcessCoefficients(0.0, TimeFunction.expression("sin(s)"),
                              TimeFunction.const(1.0), 1.0, t_phys=3.0)
    assert sin.delta(1.0) == pytest.approx(1.0 - np.cos(1.0), abs=1e-6)


def test_delta_lipschitz_estimate():
    c = ProcessCoefficients(0.0, TimeFunction.expression("0.3*sin(s)"),
                            TimeFunction.const(1.2), 1.2, t_phys=2.0)
    xs = np.linspace(0.0, c.h_max - 1e-6, 2000)
    slopes = np.abs(np.diff(np.asarray(c.delta(xs))) / np.diff(xs))
    bound = c.alpha_sup / c.beta_floor**2
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
    c = ProcessCoefficients(0.0, TimeFunction.const(0.0), tf, 1.0, t_phys=2.0)
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
                            beta_floor=0.5, t_phys=3.0)


@st.composite
def clocks(draw):
    """Coefficients with a random const, table or expression beta that
    respects its floor, on a random horizon."""
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
    t_phys = draw(st.floats(0.5, 3.0))
    return ProcessCoefficients(0.0, TimeFunction.const(0.0), beta, floor,
                               t_phys=t_phys)


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
