"""Shared fixtures: solved fields and path ensembles for the test cases.

The expensive objects are session-scoped and carry the wall time of their
construction so the acceptance tests can enforce the runtime budgets.
"""

import os
import time

import numpy as np
import pytest

from skofbsde import fbsde
from skofbsde import field as field_mod
from skofbsde.coeffs import ProcessCoefficients, TimeFunction
from skofbsde.embed import strong_embed_on_W, weak_embed_ensemble
from skofbsde.fbsde import simulate_ensemble
from skofbsde.field import SolverConfig, solve_field
from skofbsde.measure import TargetMeasure, make_g

N_ACCEPT = 10_000
N_STEPS_ACCEPT = 4096


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    the forked half of a split run must always be waited for."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:           # no child processes at all
        return
    pytest.fail("a child process was left "
                + ("running" if pid == 0 else f"unreaped (pid {pid})"))


@pytest.fixture
def forks(monkeypatch):
    """Count the forks of this process; ``split(on)`` forces the two-process
    split of ``run_halves`` on or off, also on a one-CPU machine."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def split(on: bool):
        minimum = 2 if on else 10**9
        monkeypatch.setattr(fbsde, "_SPLIT_MIN_PATHS", minimum)
        monkeypatch.setattr(field_mod, "_SPLIT_MIN_ROWS", minimum)
        monkeypatch.setattr(field_mod, "_SPLIT_MIN_VALUES", minimum)

    split.calls = calls
    return split


class Timed:
    def __init__(self, value, seconds):
        self.value = value
        self.seconds = seconds


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return Timed(value, time.perf_counter() - t0)


def make_case(measure, alpha, beta, beta_floor, nt=256, nx1=257, nx2=129):
    """Build (g, coeffs, delta, solved field) for one test case."""
    g = make_g(measure)
    coeffs = ProcessCoefficients(
        0.0, alpha, beta, beta_floor,
        h_target=1.05 * g.lipschitz**2)
    delta = coeffs.delayed_drift()
    cfg = SolverConfig.defaults(g.lipschitz, nt=nt, nx1=nx1, nx2=nx2)
    f = solve_field(g, delta, cfg)
    return {"g": g, "coeffs": coeffs, "delta": delta, "field": f, "cfg": cfg,
            "measure": measure}


@pytest.fixture(scope="session")
def case_trivial():
    return _timed(lambda: make_case(
        TargetMeasure.normal(0.0, 1.0),
        TimeFunction.const(0.0), TimeFunction.const(1.0), 1.0))


@pytest.fixture(scope="session")
def case_linear():
    # g = id with delta(x) = 0.5 x: the field is affine, u = x1 - x2/2 - (1-t)/2
    return _timed(lambda: make_case(
        TargetMeasure.normal(0.0, 1.0),
        TimeFunction.const(0.5), TimeFunction.const(1.0), 1.0))


@pytest.fixture(scope="session")
def case_uniform_k05():
    return _timed(lambda: make_case(
        TargetMeasure.uniform(0.0, 1.0),
        TimeFunction.const(0.5), TimeFunction.const(1.0), 1.0))


@pytest.fixture(scope="session")
def case_uniform_k025():
    return _timed(lambda: make_case(
        TargetMeasure.uniform(0.0, 1.0),
        TimeFunction.const(0.25), TimeFunction.const(1.0), 1.0))


@pytest.fixture(scope="session")
def case_small():
    # the uniform k=0.25 case on the perfbench many_paths grid
    return _timed(lambda: make_case(
        TargetMeasure.uniform(0.0, 1.0),
        TimeFunction.const(0.25), TimeFunction.const(1.0), 1.0,
        nt=64, nx1=65, nx2=33))


@pytest.fixture(scope="session")
def case_normal_sin():
    return _timed(lambda: make_case(
        TargetMeasure.normal(0.0, 1.0),
        TimeFunction.expression("0.3*sin(s)"), TimeFunction.const(1.2), 1.2))


@pytest.fixture(scope="session")
def case_uniform_nodrift():
    return _timed(lambda: make_case(
        TargetMeasure.uniform(0.0, 1.0),
        TimeFunction.const(0.0), TimeFunction.const(1.0), 1.0))


def _weak(case, seed):
    c = case.value
    return _timed(lambda: weak_embed_ensemble(
        c["field"], c["coeffs"], N_ACCEPT, N_STEPS_ACCEPT, seed, g=c["g"]))


def _strong(case, seed):
    c = case.value
    return _timed(lambda: strong_embed_on_W(
        c["field"], c["coeffs"], N_ACCEPT, N_STEPS_ACCEPT, seed, g=c["g"]))


def _reduced(case, seed, n=N_ACCEPT):
    c = case.value
    return _timed(lambda: simulate_ensemble(c["field"], n, N_STEPS_ACCEPT, seed))


@pytest.fixture(scope="session")
def weak_trivial(case_trivial):
    return _weak(case_trivial, 101)


@pytest.fixture(scope="session")
def weak_uniform_k025(case_uniform_k025):
    return _weak(case_uniform_k025, 102)


@pytest.fixture(scope="session")
def weak_normal_sin(case_normal_sin):
    return _weak(case_normal_sin, 103)


@pytest.fixture(scope="session")
def strong_trivial(case_trivial):
    return _strong(case_trivial, 201)


@pytest.fixture(scope="session")
def strong_uniform_k025(case_uniform_k025):
    return _strong(case_uniform_k025, 202)


@pytest.fixture(scope="session")
def strong_normal_sin(case_normal_sin):
    return _strong(case_normal_sin, 203)


@pytest.fixture(scope="session")
def ensemble_trivial(case_trivial):
    return _reduced(case_trivial, 301)


@pytest.fixture(scope="session")
def ensemble_uniform_k025(case_uniform_k025):
    return _reduced(case_uniform_k025, 302)


@pytest.fixture(scope="session")
def ensemble_normal_sin(case_normal_sin):
    return _reduced(case_normal_sin, 303)


@pytest.fixture(scope="session")
def linear_exact():
    def exact(f, kappa=0.5):
        tt, xx1, xx2 = np.meshgrid(f.t_grid, f.x1_grid, f.x2_grid, indexing="ij")
        return xx1 - kappa * xx2 - kappa * (1.0 - tt)
    return exact
